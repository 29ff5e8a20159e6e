"""Canonical finite representation of orbit-finite nominal sets.

A single orbit is presented as a dimension n together with a group of
position permutations of {0..n-1}; its elements are n-tuples of
pairwise distinct atoms up to that group. An orbit-finite set is a
finite list of such orbits. All values are immutable and operations
are pure.
"""

from functools import lru_cache
from itertools import islice, permutations

from nommon.errors import CapExceeded, InvalidInput, ensure_budget
from nommon.kernel import apply_positions, min_coset
from nommon.perm import fresh_stream

GROUP_CAP = 720
ORBIT_CAP = 4000


def generate_group(dim, generators, cap=GROUP_CAP):
    """Closure of position-permutation generators, as a sorted tuple."""
    ident = tuple(range(dim))
    for g in generators:
        if sorted(g) != list(range(dim)):
            raise InvalidInput(f"not a permutation of 0..{dim - 1}: {g}")
    group = {ident}
    frontier = [ident]
    while frontier:
        p = frontier.pop()
        for g in generators:
            q = apply_positions(p, g)
            if q not in group:
                if len(group) >= cap:
                    raise CapExceeded(f"group order cap {cap} exceeded")
                group.add(q)
                frontier.append(q)
    return tuple(sorted(group))


class OrbitDescriptor:
    """One orbit: dimension plus positional symmetry group.

    ``moves`` holds the group's non-identity permutations, the only ones
    canonicalization has to try.
    """

    __slots__ = ("dim", "group", "moves", "_hash")

    def __init__(self, dim, generators=(), *, _group=None):
        self.dim = dim
        self.group = _group if _group is not None else generate_group(dim, generators)
        ident = tuple(range(dim))
        self.moves = tuple(p for p in self.group if p != ident)
        self._hash = hash((dim, self.group))

    def __eq__(self, other):
        return (
            isinstance(other, OrbitDescriptor)
            and self.dim == other.dim
            and self.group == other.group
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"OrbitDescriptor(dim={self.dim}, |G|={len(self.group)})"


class OrbitFiniteSet:
    """A finite list of orbits; the bound is the maximal dimension."""

    __slots__ = ("orbits", "_hash")

    def __init__(self, orbits):
        self.orbits = tuple(orbits)
        self._hash = hash(self.orbits)

    @property
    def bound(self):
        return max((o.dim for o in self.orbits), default=0)

    def element(self, orbit_index, atoms):
        return Element(self, orbit_index, atoms)

    def __eq__(self, other):
        return isinstance(other, OrbitFiniteSet) and self.orbits == other.orbits

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"OrbitFiniteSet({len(self.orbits)} orbits, bound={self.bound})"


class Element:
    """A point of an orbit-finite set: orbit index + canonical atom tuple.

    The stored tuple is the lexicographically least member of its coset
    under the orbit's position group.
    """

    __slots__ = ("set", "orbit", "tuple", "_hash")

    def __init__(self, owner, orbit_index, atoms):
        atoms = tuple(atoms)
        desc = owner.orbits[orbit_index]
        if len(atoms) != desc.dim:
            raise InvalidInput(f"tuple length {len(atoms)} != orbit dim {desc.dim}")
        if len(set(atoms)) != len(atoms):
            raise InvalidInput(f"atoms not pairwise distinct: {atoms}")
        self.set = owner
        self.orbit = orbit_index
        moves = desc.moves
        self.tuple = min_coset(atoms, moves) if moves else atoms
        self._hash = hash((owner, orbit_index, self.tuple))

    def descriptor(self):
        return self.set.orbits[self.orbit]

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.orbit == other.orbit
            and self.tuple == other.tuple
            and (self.set is other.set or self.set == other.set)
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Element(orbit={self.orbit}, atoms={self.tuple})"


def act(pi, x):
    """Group action on elements; the image is re-canonicalized."""
    return Element(x.set, x.orbit, pi.apply_tuple(x.tuple))


def strong_set(dims):
    """Coproduct of orbits A^{#n} with trivial position groups."""
    return OrbitFiniteSet([OrbitDescriptor(n) for n in dims])


def atoms_set():
    return strong_set([1])


def orbit_tuples(support, fresh, n):
    """One injective n-tuple over support + fresh per Perm_S-orbit.

    S is the support and ``fresh`` a sequence of atoms outside it, at
    least n of them to reach every orbit. Two injective tuples lie in
    one Perm_S-orbit iff they agree on the positions holding S-atoms;
    the tuple given for an orbit takes its fresh atoms in order, which
    makes it the orbit's first tuple in ``permutations(support + fresh,
    n)``, and the tuples come in that order.
    """
    support = tuple(support)
    fresh = tuple(fresh)

    def extend(prefix, used):
        if len(prefix) == n:
            yield prefix
            return
        for a in support:
            if a not in prefix:
                yield from extend(prefix + (a,), used)
        if used < len(fresh):
            yield from extend(prefix + (fresh[used],), used + 1)

    return extend((), 0)


def elements_with_support(owner, support, budget=None):
    """All x with supp(x) a subset of the given finite atom set."""
    budget = ensure_budget(budget)
    pool = sorted(set(support))
    seen = []
    seen_set = set()
    for i, desc in enumerate(owner.orbits):
        if desc.dim > len(pool):
            continue
        for t in permutations(pool, desc.dim):
            budget.tick()
            e = Element(owner, i, t)
            if e not in seen_set:
                seen_set.add(e)
                seen.append(e)
    return seen


def first_occurrence_labels(t, perms, fixed):
    """Least labeling of the tuple t over its readings.

    For each reading p in perms (the tuple t[p[0]], t[p[1]], ...), atoms
    in ``fixed`` (atom -> label in 0..len(fixed)-1) keep their label and
    every other atom takes the next free label at its first occurrence.
    Returns the least label tuple and the relabeling (atom -> label) of
    the first reading that attains it.
    """
    best = best_ren = None
    for p in perms:
        ren = fixed.copy()
        labels = []
        for i in p:
            a = t[i]
            label = ren.get(a)
            if label is None:
                label = ren[a] = len(ren)
            labels.append(label)
        cand = tuple(labels)
        if best is None or cand < best:
            best = cand
            best_ren = ren
    return best, best_ren


@lru_cache(maxsize=256)
def _rank_labels(support):
    """{i-th least atom of the frozenset support: i}, shared between
    callers and never mutated. Cached because ``s_orbit_reps`` and
    ``fssets.member`` key many elements over one support."""
    return {a: i for i, a in enumerate(sorted(support))}


def s_orbit_key(x, support):
    """Canonical invariant of the Perm_S-orbit of x.

    The i-th least atom of S is labeled i; atoms outside S get the next
    labels by first occurrence, minimizing over the orbit's position
    group. Two elements have equal keys iff some permutation fixing S
    maps one to the other.
    """
    fixed = _rank_labels(frozenset(support))
    labels, _ren = first_occurrence_labels(x.tuple, x.descriptor().group, fixed)
    return (x.orbit, labels)


def instantiate_s_key(owner, key, support):
    """Concrete canonical representative for an S-orbit key: label l
    stands for (the atoms of S in order, then the first fresh atoms)[l]."""
    orbit_index, labels = key
    atoms = sorted(support)
    fresh = fresh_stream(atoms)
    out = []
    for label in labels:
        # labels are first-occurrence ones: a new label is the next free one
        if label == len(atoms):
            atoms.append(next(fresh))
        out.append(atoms[label])
    return Element(owner, orbit_index, out)


def s_orbit_reps(owner, support, budget=None):
    """One canonical representative per Perm_S-orbit of the set.

    Per carrier orbit, ``orbit_tuples`` gives one tuple per Perm_S-orbit
    of its injective tuples (one tick each); a nontrivial position group
    can merge several of them into one S-orbit of elements, so keys are
    still deduplicated. Reps come orbit by orbit, in the order of their
    first tuple in the sweep over S plus n fresh atoms.
    """
    budget = ensure_budget(budget)
    s = sorted(set(support))
    reps = []
    seen = set()
    for i, desc in enumerate(owner.orbits):
        n = desc.dim
        fresh = islice(fresh_stream(s), n)
        for t in orbit_tuples(s, fresh, n):
            budget.tick()
            e = Element(owner, i, t)
            key = s_orbit_key(e, s)
            if key not in seen:
                seen.add(key)
                reps.append(instantiate_s_key(owner, key, s))
    return reps


def orbit_reps(owner):
    """One canonical representative per orbit (atoms 0..n-1)."""
    return [Element(owner, i, range(d.dim)) for i, d in enumerate(owner.orbits)]


class Assignment:
    """Per-source-orbit piece of an equivariant map."""

    __slots__ = ("orbit", "posmap")

    def __init__(self, orbit, posmap):
        self.orbit = orbit
        self.posmap = tuple(posmap)

    def __eq__(self, other):
        return (
            isinstance(other, Assignment)
            and self.orbit == other.orbit
            and self.posmap == other.posmap
        )

    def __hash__(self):
        return hash((self.orbit, self.posmap))

    def __repr__(self):
        return f"Assignment(orbit={self.orbit}, posmap={self.posmap})"


class EquivariantMap:
    """Finitely presented equivariant map between orbit-finite sets.

    Per source orbit: a target orbit plus an injective map from target
    positions to source positions. Well-definedness w.r.t. the source
    orbit groups is a property checked by check_map_well_defined.
    """

    __slots__ = ("source", "target", "assignment")

    def __init__(self, source, target, assignment):
        assignment = tuple(assignment)
        if len(assignment) != len(source.orbits):
            raise InvalidInput("assignment must cover every source orbit")
        for src_idx, a in enumerate(assignment):
            n = source.orbits[src_idx].dim
            m = target.orbits[a.orbit].dim
            if len(a.posmap) != m:
                raise InvalidInput("posmap length must equal target dimension")
            if any(not (0 <= p < n) for p in a.posmap):
                raise InvalidInput("posmap index out of range")
            if len(set(a.posmap)) != len(a.posmap):
                raise InvalidInput("posmap must be injective")
        self.source = source
        self.target = target
        self.assignment = assignment

    def __call__(self, x):
        return apply_map(self, x)

    def __eq__(self, other):
        return (
            isinstance(other, EquivariantMap)
            and self.source == other.source
            and self.target == other.target
            and self.assignment == other.assignment
        )

    def __hash__(self):
        return hash((self.source, self.target, self.assignment))


def identity_map(owner):
    return EquivariantMap(
        owner, owner, [Assignment(i, range(d.dim)) for i, d in enumerate(owner.orbits)]
    )


def apply_map(f, x):
    if x.set != f.source:
        raise InvalidInput("element does not belong to the map's source set")
    a = f.assignment[x.orbit]
    return Element(f.target, a.orbit, (x.tuple[p] for p in a.posmap))


def map_from_concrete(source, target, fn):
    """EquivariantMap obtained by evaluating ``fn`` on each orbit rep.

    ``fn`` must be the restriction of an equivariant function; it may
    only return elements whose atoms come from the argument's tuple.
    Well-definedness w.r.t. orbit groups is not checked here.
    """
    assignment = []
    for i, desc in enumerate(source.orbits):
        x = Element(source, i, range(desc.dim))
        z = fn(x)
        if z.set != target:
            raise InvalidInput("concrete function left the target set")
        pos_of = {a: p for p, a in enumerate(x.tuple)}
        try:
            posmap = tuple(pos_of[a] for a in z.tuple)
        except KeyError:
            raise InvalidInput(
                f"image atoms {z.tuple} escape the argument's support {x.tuple}"
            ) from None
        assignment.append(Assignment(z.orbit, posmap))
    return EquivariantMap(source, target, assignment)


def compose_maps(g, f):
    """g after f."""
    if f.target != g.source:
        raise InvalidInput("maps not composable")
    assignment = []
    for a in f.assignment:
        b = g.assignment[a.orbit]
        assignment.append(Assignment(b.orbit, tuple(a.posmap[p] for p in b.posmap)))
    return EquivariantMap(f.source, g.target, assignment)


class Report:
    """Validation outcome: the failures found, as pairs such as (kind,
    witness) or (orbit, generator); it holds when there are none."""

    def __init__(self, failures):
        self.failures = tuple(failures)

    @property
    def ok(self):
        return not self.failures

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return "Report(ok)"
        return f"Report(failures={list(self.failures)})"


def coset_breakers(posmap, source_group, target_group):
    """The g in the source group that move the posmap out of its coset
    under the target group: no h in it gives g . posmap = posmap . h."""
    base = min_coset(posmap, target_group)
    return [
        g for g in source_group
        if min_coset(tuple(g[p] for p in posmap), target_group) != base
    ]


def check_map_well_defined(f):
    """A map is well defined iff every source-group element keeps the
    assigned target tuple in its target coset."""
    return Report(
        (src_idx, g)
        for src_idx, a in enumerate(f.assignment)
        for g in coset_breakers(
            a.posmap, f.source.orbits[src_idx].group, f.target.orbits[a.orbit].group
        )
    )


# ---------------------------------------------------------------------------
# products


def pair_pattern(x, y):
    """Canonical orbit invariant of the pair (x, y) plus the minimizing
    relabeling atom -> label in {0..d-1}.

    The invariant is the least (x.orbit, x labels, y.orbit, y labels)
    over all relabelings of the joint atoms, each label tuple read up to
    its orbit's position group. Its x labels are always 0..m-1, which
    only the relabelings numbering x's atoms in the order x.tuple[g[i]]
    for some g in G_x attain. For such a g and a reading order h in G_y
    of y's tuple, giving each atom not in x the next free label at its
    first occurrence is the least choice (``first_occurrence_labels``,
    once per g), so the minimum over all (g, h) is the minimum over all
    d! relabelings.
    """
    xt = x.tuple
    ygroup = y.descriptor().group
    best = best_ren = None
    for g in x.descriptor().group:
        cand, ren = first_occurrence_labels(
            y.tuple, ygroup, {xt[p]: i for i, p in enumerate(g)}
        )
        if best is None or cand < best:
            best = cand
            best_ren = ren
    return (x.orbit, tuple(range(len(xt))), y.orbit, best), best_ren


class ProductSet:
    """A union of orbits of X x Y, given by their keys, with pairing
    and unpairing.

    An orbit's key is the pair pattern (x_orbit, x_labels, y_orbit,
    y_labels) of its pairs (``pair_pattern``); its reference pair has
    the labels as atoms, and its elements are that pair relabeled.
    Orbit i is the i-th key of the list. ``product_set`` lists every
    key of X x Y, in sorted order:

    *Ordering lemma.* With x the reference element of a left orbit
    (atoms 0..m-1), ``product_set`` meets the orbits of pairs (x, y) in
    the order of their first tuples in ``orbit_tuples`` over the labels
    0..m-1 and m..m+n-1, which come in lexicographic order. An orbit's
    first tuple is its key's y labels: those labels are one of its
    tuples there (x keeps 0..m-1 up to G_x, the other atoms are
    numbered by first occurrence), and each of its tuples there is one
    of the labelings the key minimizes over. So the keys come in sorted
    order, and a sorted sublist of them numbers its orbits as the full
    product does, restricted to them.
    """

    def __init__(self, left, right, keys):
        self.left = left
        self.right = right
        self.patterns = tuple(keys)
        self._key_to_orbit = {key: i for i, key in enumerate(self.patterns)}
        self.factors = tuple((key[0], key[2]) for key in self.patterns)
        descriptors = []
        for x_orbit, x_labels, y_orbit, y_labels in self.patterns:
            d = len(set(x_labels) | set(y_labels))
            stab = self._stabilizer(x_orbit, x_labels, y_orbit, y_labels, d)
            descriptors.append(OrbitDescriptor(d, _group=stab))
        self.set = OrbitFiniteSet(descriptors)
        self._pair_cache = {}
        self.proj_left = EquivariantMap(
            self.set, left, [Assignment(p[0], p[1]) for p in self.patterns]
        )
        self.proj_right = EquivariantMap(
            self.set, right, [Assignment(p[2], p[3]) for p in self.patterns]
        )

    def _stabilizer(self, x_orbit, x_labels, y_orbit, y_labels, d):
        """The relabelings sigma of {0..d-1} that keep both label tuples
        in their cosets.

        sigma keeps the x labels in their coset iff sigma[x_labels[i]] =
        x_labels[g[i]] for some g in G_x, and likewise for y with h in
        G_y. Every label is an x or a y label, so each (g, h) that
        agrees on the shared labels gives one sigma, and distinct pairs
        give distinct ones.
        """
        yg = self.right.orbits[y_orbit].group
        stab = []
        for g in self.left.orbits[x_orbit].group:
            x_part = [None] * d
            for a, p in zip(x_labels, g):
                x_part[a] = x_labels[p]
            for h in yg:
                sigma = x_part[:]
                for a, p in zip(y_labels, h):
                    b = y_labels[p]
                    if sigma[a] is None:
                        sigma[a] = b
                    elif sigma[a] != b:
                        break
                else:
                    stab.append(tuple(sigma))
        if len(stab) > GROUP_CAP:
            raise CapExceeded("stabilizer exceeds group cap")
        return tuple(sorted(stab))

    def pair(self, x, y):
        """The element of X x Y denoting the concrete pair (x, y)."""
        cached = self._pair_cache.get((x, y))
        if cached is not None:
            return cached
        key, ren = pair_pattern(x, y)
        orbit = self._key_to_orbit.get(key)
        if orbit is None:
            raise InvalidInput("pair pattern not found among product orbits")
        d = self.set.orbits[orbit].dim
        inv = [None] * d
        for a, l in ren.items():
            inv[l] = a
        e = Element(self.set, orbit, inv)
        self._pair_cache[(x, y)] = e
        return e

    def unpair(self, e):
        """The concrete component pair of a product element."""
        x_orbit, x_labels, y_orbit, y_labels = self.patterns[e.orbit]
        x = Element(self.left, x_orbit, (e.tuple[l] for l in x_labels))
        y = Element(self.right, y_orbit, (e.tuple[l] for l in y_labels))
        return x, y


def product_set(x_set, y_set, budget=None):
    """Every orbit of X x Y, with pairing and unpairing.

    With x the reference element of a left orbit (atoms 0..m-1), the
    orbits of pairs (x, y) are the Perm_{0..m-1}-orbits of y, so y runs
    over ``orbit_tuples`` with the labels m..m+n-1 as fresh atoms (one
    tick each), and a key is kept at its first tuple.
    """
    budget = ensure_budget(budget)
    keys = {}
    for i, xd in enumerate(x_set.orbits):
        m = xd.dim
        x_ref = Element(x_set, i, range(m))
        for j, yd in enumerate(y_set.orbits):
            n = yd.dim
            for t in orbit_tuples(range(m), range(m, m + n), n):
                budget.tick()
                key, _ren = pair_pattern(x_ref, Element(y_set, j, t))
                if key not in keys:
                    if len(keys) >= ORBIT_CAP:
                        raise CapExceeded(f"orbit cap {ORBIT_CAP} exceeded in product")
                    keys[key] = None
    return ProductSet(x_set, y_set, keys)
