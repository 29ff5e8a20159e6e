"""Canonical finite representation of orbit-finite nominal sets.

A single orbit is presented as a dimension n together with a group of
position permutations of {0..n-1}; its elements are n-tuples of
pairwise distinct atoms up to that group. An orbit-finite set is a
finite list of such orbits. All values are immutable and operations
are pure.
"""

from functools import cached_property, lru_cache
from itertools import permutations
from weakref import WeakValueDictionary

from nommon.errors import CapExceeded, InvalidInput, ensure_budget
from nommon.kernel import apply_positions, min_coset
from nommon.perm import fresh_stream

GROUP_CAP = 720
ORBIT_CAP = 4000

# weak tables: an entry lives only while something else holds its value
_CARRIERS = WeakValueDictionary()  # orbit tuple -> its one live carrier
_PRODUCTS = WeakValueDictionary()  # (X, Y) -> the live product_set(X, Y)


def generate_group(dim, generators):
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
                if len(group) >= GROUP_CAP:
                    raise CapExceeded(f"group order cap {GROUP_CAP} exceeded")
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
    """A finite list of orbits; the bound is the maximal dimension.

    Carriers are interned: while one is alive, building an equal one
    returns it, so equal carriers are one object (hash-consing, after
    Filliâtre and Conchon, "Type-safe modular hash-consing", 2006).
    The table holds them weakly, so it keeps none alive.
    """

    __slots__ = ("orbits", "_hash", "__weakref__")

    def __new__(cls, orbits):
        orbits = tuple(orbits)
        self = _CARRIERS.get(orbits)
        if self is None:
            self = object.__new__(cls)
            self.orbits = orbits
            self._hash = hash(orbits)
            _CARRIERS[orbits] = self
        return self

    def __reduce__(self):
        # copies and unpickled values re-intern
        return OrbitFiniteSet, (self.orbits,)

    @property
    def bound(self):
        return max((o.dim for o in self.orbits), default=0)

    def element(self, orbit_index, atoms):
        return Element(self, orbit_index, atoms)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, OrbitFiniteSet) and self.orbits == other.orbits
        )

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
        try:
            # a negative index would read an orbit from the end
            if orbit_index < 0:
                raise IndexError
            desc = owner.orbits[orbit_index]
        except IndexError:
            raise InvalidInput(f"orbit index {orbit_index} out of range") from None
        if len(atoms) != desc.dim:
            raise InvalidInput(f"tuple length {len(atoms)} != orbit dim {desc.dim}")
        # fewer than two atoms are distinct anyway
        if desc.dim > 1 and len(set(atoms)) != desc.dim:
            raise InvalidInput(f"atoms not pairwise distinct: {atoms}")
        self.set = owner
        self.orbit = orbit_index
        moves = desc.moves
        self.tuple = min_coset(atoms, moves) if moves else atoms
        self._hash = hash((owner._hash, orbit_index, self.tuple))

    def descriptor(self):
        return self.set.orbits[self.orbit]

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.orbit == other.orbit
            and self.tuple == other.tuple
            and self.set is other.set  # equal carriers are one object
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


_ATOMS = strong_set([1])


def atoms_set():
    """The alphabet A: one orbit of single atoms. It is built once, and
    as carriers are interned, ``strong_set([1])``, copies and unpickled
    values of it are this very object."""
    return _ATOMS


def orbit_tuples(support, fresh, n):
    """One injective n-tuple over support + fresh per Perm_S-orbit.

    S is the support and ``fresh`` a sequence of atoms outside it, at
    least n of them to reach every orbit. Two injective tuples lie in
    one Perm_S-orbit iff they agree on the positions holding S-atoms;
    the tuple given for an orbit takes its fresh atoms in order, which
    makes it the orbit's first tuple in ``permutations(support + fresh,
    n)``, and the tuples come in that order, for ``s_orbit_keys``.
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

    ``perms`` is a position group. For each reading p in it (the tuple
    t[p[0]], t[p[1]], ...), atoms in ``fixed`` (atom -> label in
    0..len(fixed)-1) keep their label and every other atom takes the
    next free label at its first occurrence. Returns the least label
    tuple and the relabeling (atom -> label) of the first reading that
    attains it.

    *One-reading lemma.* A trivial group has one reading, the identity,
    so t is relabeled in one pass with nothing to compare. Hence a label
    tuple over a trivial group whose labels outside ``fixed`` already
    come as len(fixed), len(fixed) + 1, ... in order of first occurrence
    is its own least labeling (``key_labels``).
    """
    if len(perms) == 1:
        ren = fixed.copy()
        labels = []
        for a in t:
            labels.append(ren.setdefault(a, len(ren)))
        return tuple(labels), ren
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
    callers and never mutated. Cached because ``fssets.member`` and the
    syntactic congruence key many elements over one support."""
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


def pair_s_orbit_key(product, x, y, support):
    """``s_orbit_key(product.pair(x, y), support)`` off the pair's ``locate``d
    atoms, with no element built: the key minimizes over the whole group."""
    orbit, atoms = product.locate(x, y)
    fixed = _rank_labels(frozenset(support))
    return orbit, first_occurrence_labels(atoms, product.set.orbits[orbit].group, fixed)[0]


def s_key_atoms(labels, support):
    """The atoms an S-orbit key's labels stand for: label l is (the
    atoms of S in order, then the first fresh atoms)[l]."""
    atoms = sorted(support)
    fresh = fresh_stream(atoms)
    out = []
    for label in labels:
        # labels are first-occurrence ones: a new label is the next free one
        if label == len(atoms):
            atoms.append(next(fresh))
        out.append(atoms[label])
    return out


def instantiate_s_key(owner, key, support):
    """Concrete canonical representative for an S-orbit key, on the
    atoms its labels stand for (``s_key_atoms``)."""
    orbit_index, labels = key
    return Element(owner, orbit_index, s_key_atoms(labels, support))


@lru_cache(maxsize=64)
def _identity_labels(n):
    """{i: i for i < n}, shared between callers and never mutated."""
    return {i: i for i in range(n)}


def key_labels(t, desc, n, in_order):
    """The key labels over n support labels (those below n) of the
    label tuple t of an orbit with descriptor ``desc``: its least
    relabeling over the position group's readings. When the caller
    built t with its labels from n up in order of first occurrence
    (``in_order``) and the group is trivial, that is t itself, by the
    one-reading lemma of ``first_occurrence_labels``."""
    if in_order and not desc.moves:
        return t
    return first_occurrence_labels(t, desc.group, _identity_labels(n))[0]


def s_orbit_keys(owner, n, budget, orbits=None):
    """The keys of the Perm_S-orbits of the set, or of its ``orbits``
    (indices in ascending order) when given, for S of n atoms, yielded
    lazily: the one Perm_S-orbit enumeration, read by ``product_set``,
    the pairing closure, fssets and the syntactic congruence.

    Per carrier orbit of dimension d, ``orbit_tuples`` over the labels
    0..n-1 of S and n..n+d-1 for fresh atoms gives one tuple per
    Perm_S-orbit, keyed by ``key_labels`` over the orbit's position
    group after one tick, so a caller's work per key comes between two
    ticks. A key is yielded at its first tuple. The tuples take their
    fresh labels in order, so over a trivial group distinct tuples are
    distinct keys (the one-reading lemma): only a nontrivial group's
    keys are remembered.
    """
    for i in range(len(owner.orbits)) if orbits is None else orbits:
        desc = owner.orbits[i]
        d = desc.dim
        seen = set()
        for t in orbit_tuples(range(n), range(n, n + d), d):
            budget.tick()
            key = key_labels(t, desc, n, True)
            if desc.moves:
                if key in seen:
                    continue
                seen.add(key)
            yield i, key


def s_orbit_reps(owner, support, budget=None, orbits=None):
    """One canonical representative per Perm_S-orbit of the set, or of
    its ``orbits`` (indices in ascending order) when given: the
    instances of ``s_orbit_keys``, in their order, so the reps over some
    orbits are the full list filtered to them."""
    budget = ensure_budget(budget)
    support = frozenset(support)
    return [
        instantiate_s_key(owner, key, support)
        for key in s_orbit_keys(owner, len(support), budget, orbits)
    ]


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
    positions to source positions, stored least under the target
    orbit's group so that equal maps compare equal. Well-definedness
    w.r.t. the source orbit groups is checked by check_map_well_defined.
    """

    __slots__ = ("source", "target", "assignment")

    def __init__(self, source, target, assignment):
        assignment = list(assignment)
        if len(assignment) != len(source.orbits):
            raise InvalidInput("assignment must cover every source orbit")
        for src_idx, a in enumerate(assignment):
            if not 0 <= a.orbit < len(target.orbits):
                raise InvalidInput(f"target orbit {a.orbit} out of range")
            desc = target.orbits[a.orbit]
            n = source.orbits[src_idx].dim
            if len(a.posmap) != desc.dim:
                raise InvalidInput("posmap length must equal target dimension")
            if any(not (0 <= p < n) for p in a.posmap):
                raise InvalidInput("posmap index out of range")
            if len(set(a.posmap)) != len(a.posmap):
                raise InvalidInput("posmap must be injective")
            if desc.moves:
                assignment[src_idx] = Assignment(a.orbit, min_coset(a.posmap, desc.moves))
        self.source = source
        self.target = target
        self.assignment = tuple(assignment)

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
    if x.set is not f.source:
        raise InvalidInput("element does not belong to the map's source set")
    a = f.assignment[x.orbit]
    t = x.tuple
    return Element(f.target, a.orbit, [t[p] for p in a.posmap])


def reference_posmap(z, target, dim):
    """The posmap of ``z``, a concrete function's value on a reference
    argument (atoms 0..dim-1): its tuple, once ``z`` is checked to lie
    in ``target`` and within those atoms."""
    if z.set is not target:
        raise InvalidInput("concrete function left the target set")
    atoms = range(dim)
    if not all(a in atoms for a in z.tuple):
        raise InvalidInput(
            f"image atoms {z.tuple} escape the argument's support {tuple(atoms)}"
        )
    return z.tuple


def map_from_concrete(source, target, fn):
    """EquivariantMap obtained by evaluating ``fn`` on each orbit's
    reference element (``reference_posmap``).

    ``fn`` must be the restriction of an equivariant function; it may
    only return elements whose atoms come from the argument's tuple.
    Well-definedness w.r.t. orbit groups is not checked here.
    """
    assignment = []
    for i, desc in enumerate(source.orbits):
        z = fn(Element(source, i, range(desc.dim)))
        assignment.append(Assignment(z.orbit, reference_posmap(z, target, desc.dim)))
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


def least_y_labels(xt, x_group, t, y_group):
    """The least ``first_occurrence_labels`` of t over ``y_group`` with
    xt[g[i]] at label i, over g in ``x_group``, and its relabeling: the
    G_x-minimization of ``pair_pattern`` and ``product_set``."""
    best = best_ren = None
    for g in x_group:
        cand, ren = first_occurrence_labels(t, y_group, {xt[p]: i for i, p in enumerate(g)})
        if best is None or cand < best:
            best, best_ren = cand, ren
    return best, best_ren


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
    labels, ren = least_y_labels(xt, x.descriptor().group, y.tuple, y.descriptor().group)
    return (x.orbit, tuple(range(len(xt))), y.orbit, labels), ren


def key_components(left, right, key, atoms):
    """The component pair in X x Y of the product-orbit key (x_orbit,
    x_labels, y_orbit, y_labels), label l standing for ``atoms[l]``."""
    i, x_labels, j, y_labels = key
    return (Element(left, i, [atoms[l] for l in x_labels]),
            Element(right, j, [atoms[l] for l in y_labels]))


class ProductSet:
    """A union of orbits of X x Y, given by their keys, with pairing
    and unpairing.

    An orbit's key is the pair pattern (x_orbit, x_labels, y_orbit,
    y_labels) of its pairs (``pair_pattern``); its reference pair has
    the labels as atoms, and its elements are that pair relabeled.
    ``components`` decodes a key on given atoms (``key_components``);
    it is the one place a key becomes a pair of elements.
    Orbit i is the i-th key of the list. ``product_set`` lists every
    key of X x Y, in sorted order:

    *Ordering lemma.* With x the reference element of a left orbit
    (atoms 0..m-1), ``product_set`` meets the orbits of pairs (x, y) in
    the order of their first tuples in ``s_orbit_keys(Y, m)``, which
    come per orbit of Y in lexicographic order. An orbit's first tuple
    is its key's y labels: those labels are one of its tuples there (x
    keeps 0..m-1 up to G_x, the other atoms are numbered by first
    occurrence), and each of its tuples there is one of the labelings
    the key minimizes over. So the keys come in sorted order, and a
    sorted sublist of them numbers its orbits as the full product does,
    restricted to them.
    """

    def __init__(self, left, right, keys):
        self.left = left
        self.right = right
        self.patterns = tuple(keys)
        self.key_to_orbit = {key: i for i, key in enumerate(self.patterns)}
        self.factors = tuple((key[0], key[2]) for key in self.patterns)
        descriptors = []
        for x_orbit, x_labels, y_orbit, y_labels in self.patterns:
            d = len(set(x_labels) | set(y_labels))
            stab = self._stabilizer(x_orbit, x_labels, y_orbit, y_labels, d)
            descriptors.append(OrbitDescriptor(d, _group=stab))
        self.set = OrbitFiniteSet(descriptors)

    # the projections are built on first use: a square never needs them
    @cached_property
    def proj_left(self):
        return EquivariantMap(
            self.set, self.left, [Assignment(p[0], p[1]) for p in self.patterns]
        )

    @cached_property
    def proj_right(self):
        return EquivariantMap(
            self.set, self.right, [Assignment(p[2], p[3]) for p in self.patterns]
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

    def locate(self, x, y):
        """The orbit of the concrete pair (x, y) and its atoms in label
        order: label l of the orbit's key stands for atom ``atoms[l]``.

        The atoms are not yet canonical under the orbit's group; the
        pair's element is ``Element(self.set, orbit, atoms)``.
        """
        key, ren = pair_pattern(x, y)
        orbit = self.key_to_orbit.get(key)
        if orbit is None:
            raise InvalidInput("pair pattern not found among product orbits")
        atoms = [None] * len(ren)
        for a, l in ren.items():
            atoms[l] = a
        return orbit, tuple(atoms)

    def pair(self, x, y):
        """The element of X x Y denoting the concrete pair (x, y): the
        pair's ``locate``d atoms, canonical under its orbit's group."""
        return Element(self.set, *self.locate(x, y))

    def components(self, orbit, atoms):
        """The component pair of orbit ``orbit`` whose label l is the
        atom ``atoms[l]``; on atoms 0..d-1 it is the reference pair."""
        return key_components(self.left, self.right, self.patterns[orbit], atoms)


def product_set(x_set, y_set, budget=None):
    """Every orbit of X x Y, with pairing and unpairing.

    With x the reference element of a left orbit i (atoms 0..m-1), the
    orbits of pairs (x, y) are the Perm_{0..m-1}-orbits of y, keyed
    (i, 0..m-1, j, y) for the keys (j, y) of ``s_orbit_keys(Y, m)`` (one
    tick per tuple), y minimized again over a nontrivial G_x
    (``least_y_labels``). That is exact: y relabels a G_y-reading of its
    first tuple t, keeping the labels 0..m-1, and first-occurrence
    labelling under a fixed reading of x's atoms ignores the names of
    fresh atoms and minimizes over G_y. No element is built.

    While a product of the same carriers is alive it is returned again,
    and the ticks of its enumeration are charged once more, so the
    budget stops where a fresh enumeration would.

    The orbit of pairs with disjoint atoms has the stabilizer G_x x G_y,
    so a product with |G_x|·|G_y| above ``GROUP_CAP`` for some orbit
    pair raises ``CapExceeded`` before its first tick.
    """
    budget = ensure_budget(budget)
    product = _PRODUCTS.get((x_set, y_set))
    if product is not None:
        budget.tick(product.ticks)
        return product
    x_largest = max((len(o.group) for o in x_set.orbits), default=1)
    y_largest = max((len(o.group) for o in y_set.orbits), default=1)
    if x_largest * y_largest > GROUP_CAP:
        raise CapExceeded("stabilizer exceeds group cap")
    used = budget.used
    keys = {}
    for i, xd in enumerate(x_set.orbits):
        x_labels = tuple(range(xd.dim))
        for j, y in s_orbit_keys(y_set, xd.dim, budget):
            if xd.moves:
                y = least_y_labels(x_labels, xd.group, y, y_set.orbits[j].group)[0]
            key = (i, x_labels, j, y)
            if key not in keys:
                if len(keys) >= ORBIT_CAP:
                    raise CapExceeded(f"orbit cap {ORBIT_CAP} exceeded in product")
                keys[key] = None
    product = ProductSet(x_set, y_set, keys)
    product.ticks = budget.used - used  # what a hit charges
    _PRODUCTS[x_set, y_set] = product
    return product
