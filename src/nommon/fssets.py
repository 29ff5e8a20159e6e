"""Finitely supported subsets of orbit-finite sets.

An FsSubset is stored relative to an explicit support S as the set of
canonical Perm_S-orbit representatives it contains; the denoted subset
is the union of their S-orbits. Construction normalizes S down to the
least support, so equality of subsets is plain equality of (carrier,
support, key set).
"""

from nommon.errors import InvalidInput, ensure_budget
from nommon.perm import Perm, fresh_stream
from nommon.sets import (
    act,
    instantiate_s_key,
    injective_tuples,
    s_orbit_key,
    s_orbit_reps,
)


class FsSubset:
    """Finitely supported subset: support + canonical S-orbit reps."""

    __slots__ = ("carrier", "support", "keys", "_hash")

    def __init__(self, carrier, support, keys, *, budget=None, _normalized=False):
        self.carrier = carrier
        self.support = frozenset(support)
        self.keys = frozenset(keys)
        if not _normalized:
            norm = _normalize(carrier, self.support, self.keys, budget)
            self.support, self.keys = norm
        self._hash = hash((self.carrier, self.support, self.keys))

    @staticmethod
    def from_elements(carrier, support, elements):
        """Subset generated by the S-orbits of the given elements."""
        support = frozenset(support)
        keys = {s_orbit_key(x, support) for x in elements}
        return FsSubset(carrier, support, keys)

    @staticmethod
    def from_predicate(carrier, support, pred, budget=None):
        """Subset of all x with pred(x), assuming pred is S-invariant."""
        support = frozenset(support)
        keys = set()
        for r in s_orbit_reps(carrier, support, budget=budget):
            if pred(r):
                keys.add(s_orbit_key(r, support))
        return FsSubset(carrier, support, keys, budget=budget)

    @staticmethod
    def empty(carrier):
        return FsSubset(carrier, frozenset(), frozenset(), _normalized=True)

    @staticmethod
    def full(carrier):
        return FsSubset.from_elements(carrier, frozenset(), s_orbit_reps(carrier, ()))

    @staticmethod
    def singleton(x):
        """The singleton {x}; its support is supp(x)."""
        return FsSubset.from_elements(x.set, frozenset(x.tuple), [x])

    def reps(self):
        """Canonical representatives, one per contained S-orbit."""
        return [instantiate_s_key(self.carrier, k, self.support) for k in sorted(self.keys)]

    def is_empty(self):
        return not self.keys

    def __eq__(self, other):
        return (
            isinstance(other, FsSubset)
            and self.carrier == other.carrier
            and self.support == other.support
            and self.keys == other.keys
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FsSubset(|S|={len(self.support)}, reps={len(self.keys)})"


def member(subset, x):
    if x.set != subset.carrier:
        raise InvalidInput("element does not belong to the subset's carrier")
    return s_orbit_key(x, subset.support) in subset.keys


def _expand_keys(carrier, support, keys, larger, budget=None):
    """Re-express a subset S-supported as a key set over larger S' >= S."""
    out = set()
    tmp = FsSubset(carrier, support, keys, _normalized=True)
    for r in s_orbit_reps(carrier, larger, budget=budget):
        if member(tmp, r):
            out.add(s_orbit_key(r, larger))
    return out


def _normalize(carrier, support, keys, budget=None):
    """Shrink the support to the least one fixing the subset.

    For b outside S, the subset is (S \\ {a})-supported iff the
    transposition (a b) fixes it, and the least support is the
    intersection of all supports. So one expansion to S + {b} decides
    every atom: the least support is the set of atoms (a b) moves.
    """
    if not support:
        return support, keys
    b = next(fresh_stream(support))
    larger = support | {b}
    expanded = _expand_keys(carrier, support, keys, larger, budget)
    reps = [instantiate_s_key(carrier, k, larger) for k in expanded]
    least = frozenset(
        a for a in support
        if any(s_orbit_key(act(Perm.swap(a, b), r), larger) not in expanded
               for r in reps)
    )
    if least == support:
        return support, keys
    # the subset is a union of least-orbits, and each of them contains
    # the representative of one of its (S + {b})-orbits
    return least, frozenset(s_orbit_key(r, least) for r in reps)


def least_support_subset(subset):
    """The least support; subsets are stored normalized, so just read it."""
    return subset.support


def fs_boolean(op, u, v=None, budget=None):
    """Pointwise boolean structure of the nominal powerset.

    The S-orbit enumerations of the operands' expansion and of the
    result's normalization are charged to ``budget``.
    """
    if op == "complement":
        full = {
            s_orbit_key(r, u.support)
            for r in s_orbit_reps(u.carrier, u.support, budget=budget)
        }
        return FsSubset(u.carrier, u.support, full - u.keys, budget=budget)
    if v is None:
        raise InvalidInput(f"operation {op} needs two operands")
    if u.carrier != v.carrier:
        raise InvalidInput("carrier mismatch")
    s = u.support | v.support
    uk = _expand_keys(u.carrier, u.support, u.keys, s, budget)
    vk = _expand_keys(v.carrier, v.support, v.keys, s, budget)
    if op == "union":
        return FsSubset(u.carrier, s, uk | vk, budget=budget)
    if op == "intersect":
        return FsSubset(u.carrier, s, uk & vk, budget=budget)
    if op == "difference":
        return FsSubset(u.carrier, s, uk - vk, budget=budget)
    raise InvalidInput(f"unknown boolean operation {op!r}")


def apply_perm_subset(pi, u):
    """pi . U, with supp(pi . U) = pi[supp U]."""
    support = frozenset(pi(a) for a in u.support)
    elems = [act(pi, r) for r in u.reps()]
    return FsSubset.from_elements(u.carrier, support, elems)


def hull(support, u, budget=None):
    """hull_S(U): smallest S-supported superset; the union of Perm_S images."""
    budget = ensure_budget(budget)
    s = frozenset(support)
    keys = set()
    for c in s_orbit_reps(u.carrier, s, budget=budget):
        if _s_orbit_meets(c, s, u, budget):
            keys.add(s_orbit_key(c, s))
    return FsSubset(u.carrier, s, keys, budget=budget)


def _s_orbit_meets(c, s, u, budget):
    """Does the S-orbit of c intersect U?

    Instantiates the non-S atoms of c over supp(U)\\S plus enough fresh
    atoms; membership in U only depends on that equality pattern.
    """
    free_atoms = [a for a in c.tuple if a not in s]
    fixed = [a for a in c.tuple if a in s]
    n_free = len(free_atoms)
    pool = sorted(set(u.support) - s)
    gen = fresh_stream(set(u.support) | s | set(c.tuple))
    pool += [next(gen) for _ in range(n_free)]
    for target in injective_tuples(pool, n_free):
        budget.tick()
        if set(target) & set(fixed):
            continue
        ren = dict(zip(free_atoms, target))
        x = c.set.element(c.orbit, tuple(ren.get(a, a) for a in c.tuple))
        if member(u, x):
            return True
    return False


def preimage_subset(f, u, budget=None):
    """f^{-1}[U] for an equivariant map f into U's carrier."""
    if f.target != u.carrier:
        raise InvalidInput("map target does not match the subset's carrier")
    return FsSubset.from_predicate(
        f.source, u.support, lambda x: member(u, f(x)), budget=budget
    )


def powerset_atoms(carrier, pool, budget=None):
    """Atoms of P_fs X restricted to elements supported by the pool.

    Returns (atom subsets, bijection pairs). The atoms of the nominal
    powerset are exactly the singletons, so the bijection sends x to {x}.
    """
    from nommon.sets import elements_with_support

    elems = elements_with_support(carrier, pool, budget=budget)
    atoms = [FsSubset.singleton(x) for x in elems]
    return atoms, list(zip(elems, atoms))
