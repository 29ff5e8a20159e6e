"""Finitely supported subsets of orbit-finite sets.

An FsSubset is stored relative to an explicit support S as the set of
keys (``sets.s_orbit_key``) of the Perm_S-orbits it contains; the
denoted subset is the union of those S-orbits. A key is an orbit index
and a label tuple: label i < |S| stands for the i-th least atom of S,
and the labels from |S| on for fresh atoms, by first occurrence.
Construction normalizes S down to the least support, so equality of
subsets is plain equality of (carrier, support, key set).

The operations work on label tuples alone and build no elements:

- refine (S to S' >= S): an S-orbit is the union of the S'-orbits in
  which each fresh label either stays fresh or takes a distinct atom of
  S' \\ S;
- coarsen (S to T <= S): the labels of atoms outside T become fresh;
- swap: a transposition of two atoms of S exchanges their labels;
- full keys over |S| atoms: ``sets.s_orbit_keys``.

Every relabeled tuple is keyed by ``sets.key_labels``. Refinement and
the swap keep fresh labels in order, so over a trivial position group
their tuples are keys already (the one-reading lemma of
``sets.first_occurrence_labels``); coarsening relabels. Binary boolean
operations refine both operands to the union of their supports, and
the complement is the full key set minus the held keys. Normalization
refines once to S + {b} for a fresh b, keeps the atoms a whose swap
with b moves the subset, and coarsens to them. ``hull`` refines to
S + supp U and coarsens to S. Each key operation ticks the budget once.
"""

from nommon.errors import InvalidInput, ensure_budget
from nommon.perm import fresh_stream
from nommon.sets import (
    act,
    instantiate_s_key,
    key_labels,
    s_orbit_key,
    s_orbit_keys,
)


class FsSubset:
    """Finitely supported subset: support + keys of the held S-orbits.

    Keys are canonical: each is the ``s_orbit_key`` over the support of
    an element of the carrier, as ``s_orbit_keys`` and the constructors
    below give them. The key operations rely on it and check none.
    """

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
    def from_elements(carrier, support, elements, budget=None):
        """Subset generated by the S-orbits of the given elements of the
        carrier; its normalization is charged to ``budget``."""
        support = frozenset(support)
        keys = {s_orbit_key(_own(carrier, x), support) for x in elements}
        return FsSubset(carrier, support, keys, budget=budget)

    @staticmethod
    def from_predicate(carrier, support, pred, budget=None):
        """Subset of all x with pred(x), assuming pred is S-invariant."""
        budget = ensure_budget(budget)
        support = frozenset(support)
        keys = [
            key
            for key in s_orbit_keys(carrier, len(support), budget)
            if pred(instantiate_s_key(carrier, key, support))
        ]
        return FsSubset(carrier, support, keys, budget=budget)

    @staticmethod
    def empty(carrier):
        return FsSubset(carrier, frozenset(), frozenset(), _normalized=True)

    @staticmethod
    def singleton(x, budget=None):
        """The singleton {x}; its support is supp(x)."""
        return FsSubset.from_elements(x.set, frozenset(x.tuple), [x], budget)

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


def _own(carrier, x):
    """x, once checked to be an element of the carrier."""
    # carriers are interned, so an equal carrier is this very object
    if x.set is not carrier:
        raise InvalidInput("element does not belong to the subset's carrier")
    return x


def member(subset, x):
    return s_orbit_key(_own(subset.carrier, x), subset.support) in subset.keys


def _fresh_images(m, new, n):
    """The images of m fresh labels under refinement: each takes a
    distinct label in ``new`` or stays fresh, as n, n + 1, ... in order."""
    def extend(prefix, kept):
        if len(prefix) == m:
            yield prefix
            return
        yield from extend(prefix + (n + kept,), kept + 1)
        for r in new:
            if r not in prefix:
                yield from extend(prefix + (r,), kept)

    return list(extend((), 0))


def _refine(carrier, keys, support, larger, budget):
    """The S'-orbit keys of the union of the S-orbits with the given
    keys, for S' >= S; one tick per S'-orbit of each S-orbit. Old labels
    go to their ranks and ``_fresh_images`` numbers the kept fresh ones
    in order, so over a trivial group the refined tuple of a canonical
    key is its own key; every key must be canonical (``FsSubset``)."""
    if len(larger) == len(support):
        return set(keys)
    big = sorted(larger)
    rank = {a: i for i, a in enumerate(big)}
    old = [rank[a] for a in sorted(support)]
    new = [rank[a] for a in big if a not in support]
    k, n = len(old), len(big)
    images = {}
    out = set()
    for orbit, labels in keys:
        desc = carrier.orbits[orbit]
        m = sum(1 for l in labels if l >= k)
        if m not in images:
            images[m] = _fresh_images(m, new, n)
        for img in images[m]:
            budget.tick()
            t = tuple([old[l] if l < k else img[l - k] for l in labels])
            out.add((orbit, key_labels(t, desc, n, True)))
    return out


def _coarsen(carrier, keys, support, smaller, budget):
    """The T-orbit keys of the S-orbits with the given keys, for T <= S;
    one tick per key."""
    n = len(support)
    rank = {a: i for i, a in enumerate(sorted(smaller))}
    c = len(rank)
    # the label of the i-th atom of S, and c + l for a fresh label l
    img = [rank.get(a, c + i) for i, a in enumerate(sorted(support))]
    out = set()
    for orbit, labels in keys:
        budget.tick()
        t = tuple(img[l] if l < n else c + l for l in labels)
        out.add((orbit, key_labels(t, carrier.orbits[orbit], c, False)))
    return out


def _normalize(carrier, support, keys, budget=None):
    """Shrink the support to the least one fixing the subset.

    For b outside S, the subset is (S \\ {a})-supported iff the
    transposition (a b) fixes it, and the least support is the
    intersection of all supports. So one refinement to S + {b} decides
    every atom: the least support is the set of atoms a for which
    swapping the labels of a and b sends some held key outside the
    held ones (one tick per key tried). The swap moves only support
    labels, so over a trivial group a swapped key is its own key.
    """
    if not support:
        return support, keys
    budget = ensure_budget(budget)
    b = next(fresh_stream(support))
    larger = support | {b}
    expanded = _refine(carrier, keys, support, larger, budget)
    rank = {a: i for i, a in enumerate(sorted(larger))}
    n = len(larger)

    def moved(a):
        swap = {rank[a]: rank[b], rank[b]: rank[a]}
        for orbit, labels in expanded:
            budget.tick()
            t = tuple([swap.get(l, l) for l in labels])
            if (orbit, key_labels(t, carrier.orbits[orbit], n, True)) not in expanded:
                return True
        return False

    least = frozenset(a for a in support if moved(a))
    if least == support:
        return support, keys
    # the subset is a union of least-orbits, each the coarsening of the
    # S-orbits inside it
    return least, frozenset(_coarsen(carrier, keys, support, least, budget))


def fs_boolean(op, u, v=None, budget=None):
    """Pointwise boolean structure of the nominal powerset.

    The key operations of the operands' refinement, of the complement's
    full key set and of the result's normalization are charged to
    ``budget``.
    """
    budget = ensure_budget(budget)
    if op == "complement":
        # a permutation fixes U iff it fixes its complement, so the
        # complement's least support is U's
        full = s_orbit_keys(u.carrier, len(u.support), budget)
        return FsSubset(u.carrier, u.support, frozenset(full) - u.keys, _normalized=True)
    if v is None:
        raise InvalidInput(f"operation {op} needs two operands")
    if u.carrier != v.carrier:
        raise InvalidInput("carrier mismatch")
    s = u.support | v.support
    uk = _refine(u.carrier, u.keys, u.support, s, budget)
    vk = _refine(v.carrier, v.keys, v.support, s, budget)
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
    """hull_S(U): smallest S-supported superset; the union of Perm_S images.

    That is the union of the S-orbits meeting U. U is a union of
    (S + supp U)-orbits and each lies inside one S-orbit, so the hull's
    keys are the coarsenings to S of U's keys refined to S + supp U.
    """
    budget = ensure_budget(budget)
    s = frozenset(support)
    t = s | u.support
    refined = _refine(u.carrier, u.keys, u.support, t, budget)
    keys = _coarsen(u.carrier, refined, t, s, budget)
    return FsSubset(u.carrier, s, keys, budget=budget)


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

    budget = ensure_budget(budget)
    elems = elements_with_support(carrier, pool, budget=budget)
    atoms = [FsSubset.singleton(x, budget) for x in elems]
    return atoms, list(zip(elems, atoms))
