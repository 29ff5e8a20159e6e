"""Brute-force reference implementations, kept as test oracles.

The library finds pair patterns by first-occurrence relabeling, the
syntactic congruence as a greatest fixpoint on S-orbits of pairs, the
least support of a subset in one transposition pass, S-orbits and
product orbits by enumerating one tuple per orbit, product stabilizers
from G_x x G_y, checks associativity on S-orbit representatives
memoized per support with the third factor in the generating orbits
only (Light's test), encodes S-orbit keys as integer labels,
refines, coarsens and complements subsets on those labels, closes
pairing images on pair patterns, and restricts an ambient monoid's
table to a submonoid's orbits. These are the direct definitions those
replaced, among them the Moore refinement over a context pool that
computed the syntactic congruence, the sweeps over S-orbit
representatives that re-expressed, complemented and hulled subsets, the
tagged (0, atom) / (1, k) S-orbit keys, the pairing image that
built all of X x Y and re-multiplied every pair of reachable orbits in
each round, the pairing closure that multiplied out every ordered pair
of reached pair patterns where the letters' patterns suffice, and the
concrete submonoid path that enumerated the
submonoid's square and multiplied each of its orbit pairs in the
ambient monoid again. The fresh-transposition test checks that an
element's least support is its canonical tuple's atoms. The l2
recognizers, the endpoints bound and binary boolean combinations were
full product monoids, with letters paired by hand; they are joins now.
The text format wrote each monoid table line from a concrete reference
pair and read it back by the pair's first-occurrence name pattern; it
writes and reads lines by product-orbit key now. S-orbit
representatives were found by building and keying an element of every
enumerated tuple; the keys are read off the label tuples now. The
quotient by an equivariant congruence tested each orbit against every
earlier class under every alignment, through ``related`` on the pair
set and ``extend_injection``; it reads the classes, their supports,
alignments and groups off the congruence's kept product orbits now.
Product keys were found by building and pair-patterning an element per
enumerated tuple (``product_orbits`` is that sweep, over every tuple),
and monoid tables, componentwise ones among them, were read by building
each product orbit's reference element, unpairing it and mapping it
with ``map_from_concrete``; they are read off the product keys now.
A multiply that missed its cache built and kept the pair's product
element and applied the table to it; it reads the table off the pair's
product orbit now.
The text format read a row by splitting it into tokens, joining them
back and matching the calls, one regex match per argument
(``parse_arrow``); it matches one pattern per row kind now.
A product-orbit key was turned into its component pair by hand in
several places (``unpair``, over ``orbit_reps`` of the product for the
reference pairs); ``ProductSet.components`` decodes every key now. The
syntactic congruence keyed each edge target on its product element
(``edge_key``), and the bound checks read supports and posmaps off
unpaired orbit representatives (``is_s_bounded_via_morphism``,
``eq_msr_predicate``); they read the keys and the located atoms now.
Every label tuple was keyed by searching every reading of its orbit's
position group, a trivial group's one reading included, and every
refined, swapped or coarsened tuple was relabeled; a trivial-group
tuple that is its own key is returned as it is now, and
``keying_by_search`` runs the library the old way.
The differential tests check the fast paths against these definitions.
"""

import itertools
import re
from contextlib import contextmanager
from itertools import islice, permutations
from unittest import mock

from nommon import bounds, fssets, sets, textfmt
from nommon.bounds import BoundReport, JoinResult, SupportBound
from nommon.catalog import builder
from nommon.errors import CapExceeded, InvalidInput, ensure_budget
from nommon.fssets import FsSubset, fs_boolean, member, preimage_subset
from nommon.kernel import apply_positions, min_coset
from nommon.language import Language
from nommon.monoid import (
    Congruence,
    GeneratorMap,
    MonoidMorphism,
    NominalMonoid,
    ProductMonoidResult,
    QuotientResult,
    SubMonoid,
    monoid_from_concrete,
    product_monoid,
    submonoid_generated,
)
from nommon.perm import Perm, fresh_stream
from nommon.sets import (
    GROUP_CAP,
    ORBIT_CAP,
    Assignment,
    Element,
    EquivariantMap,
    OrbitDescriptor,
    OrbitFiniteSet,
    ProductSet,
    Report,
    act,
    atoms_set,
    check_map_well_defined,
    elements_with_support,
    instantiate_s_key,
    map_from_concrete,
    orbit_reps,
    orbit_tuples,
    pair_pattern as fast_pair_pattern,
    product_set,
    s_orbit_key,
    s_orbit_reps as fast_s_orbit_reps,
    strong_set,
)


def first_occurrence_labels_by_search(t, perms, fixed):
    """Least first-occurrence labeling of t over every reading in perms,
    with the relabeling of the first reading attaining it; a trivial
    group's one reading is searched like any other."""
    best = best_ren = None
    for p in perms:
        ren = fixed.copy()
        labels = []
        for i in p:
            a = t[i]
            if a not in ren:
                ren[a] = len(ren)
            labels.append(ren[a])
        cand = tuple(labels)
        if best is None or cand < best:
            best, best_ren = cand, ren
    return best, best_ren


def key_labels_by_search(t, desc, n, in_order):
    """``sets.key_labels`` relabeling every tuple, even one its caller
    knows to be a key."""
    return first_occurrence_labels_by_search(t, desc.group, {i: i for i in range(n)})[0]


@contextmanager
def keying_by_search():
    """Run the library with every key found by the full search, and
    every subset normalized by ``normalize_by_search``."""
    with mock.patch.object(sets, "first_occurrence_labels",
                           first_occurrence_labels_by_search), \
            mock.patch.object(sets, "key_labels", key_labels_by_search), \
            mock.patch.object(fssets, "key_labels", key_labels_by_search), \
            mock.patch.object(fssets, "_normalize", normalize_by_search):
        yield


def normalize_by_search(carrier, support, keys, budget=None):
    """The least support by the fresh-transposition test, swapping and
    relabeling every refined key, one tick each."""
    if not support:
        return support, keys
    budget = ensure_budget(budget)
    b = next(fresh_stream(support))
    larger = support | {b}
    with keying_by_search():
        expanded = fssets._refine(carrier, keys, support, larger, budget)
    rank = {a: i for i, a in enumerate(sorted(larger))}

    def moved(a):
        swap = {rank[a]: rank[b], rank[b]: rank[a]}
        for orbit, labels in expanded:
            budget.tick()
            t = tuple(swap.get(l, l) for l in labels)
            desc = carrier.orbits[orbit]
            if (orbit, key_labels_by_search(t, desc, len(larger), False)) not in expanded:
                return True
        return False

    least = frozenset(a for a in support if moved(a))
    if least == support:
        return support, keys
    with keying_by_search():
        return least, frozenset(fssets._coarsen(carrier, keys, support, least, budget))


def tagged_s_orbit_key(x, support):
    """Canonical invariant of the Perm_S-orbit of x.

    Atoms in S are kept; atoms outside S are renamed by first occurrence,
    minimizing over the orbit's position group. Two elements have equal
    keys iff some permutation fixing S maps one to the other.
    """
    s = frozenset(support)
    desc = x.descriptor()
    best = None
    for p in desc.group:
        t = apply_positions(x.tuple, p)
        ren = {}
        norm = []
        for a in t:
            if a in s:
                norm.append((0, a))
            else:
                if a not in ren:
                    ren[a] = len(ren)
                norm.append((1, ren[a]))
        cand = tuple(norm)
        if best is None or cand < best:
            best = cand
    return (x.orbit, best)


def instantiate_tagged_key(owner, key, support):
    """Concrete canonical representative for an S-orbit key."""
    orbit_index, norm = key
    fresh = fresh_stream(support)
    fresh_atoms = {}
    atoms = []
    for kind, v in norm:
        if kind == 0:
            atoms.append(v)
        else:
            if v not in fresh_atoms:
                fresh_atoms[v] = next(fresh)
            atoms.append(fresh_atoms[v])
    return Element(owner, orbit_index, atoms)


def support_by_transpositions(x):
    """Least support of x by the fresh-transposition test: the atoms a
    whose swap with an atom b outside supp x moves x."""
    atoms = set(x.tuple)
    b = next(fresh_stream(atoms))
    return frozenset(a for a in atoms if act(Perm.swap(a, b), x) != x)


def joint_atoms(x, y):
    """Atoms of the pair (x, y) in first-occurrence order."""
    out = []
    for a in x.tuple + y.tuple:
        if a not in out:
            out.append(a)
    return out


def pair_pattern(x, y):
    """Least (x.orbit, x labels, y.orbit, y labels) over all d!
    relabelings of the joint atoms, with the first relabeling attaining
    it."""
    atoms = joint_atoms(x, y)
    xg = x.descriptor().group
    yg = y.descriptor().group
    best = None
    best_ren = None
    for per in permutations(range(len(atoms))):
        ren = dict(zip(atoms, per))
        xt = min_coset(tuple(ren[a] for a in x.tuple), xg)
        yt = min_coset(tuple(ren[a] for a in y.tuple), yg)
        cand = (x.orbit, xt, y.orbit, yt)
        if best is None or cand < best:
            best = cand
            best_ren = ren
    return best, best_ren


def context_products(m, support):
    """The context pool E of ``moore_classes`` for a predicate with the
    given support, and for each x in E the products
    u x v over all contexts (u, v) in E x E, as indices into E."""
    k = m.carrier.bound
    s = sorted(support)
    gen = fresh_stream(s)
    pool = s + [next(gen) for _ in range(4 * k)]
    elems = elements_with_support(m.carrier, pool)
    index = {e: i for i, e in enumerate(elems)}
    table = [[index[m.multiply(x, y)] for y in elems] for x in elems]
    products = {}
    for i, x in enumerate(elems):
        products[x] = tuple(
            table[u][xv] for xv in table[i] for u in range(len(elems))
        )
    return elems, products


def syntactic_classes(m, p, contexts=None):
    """Classes of x ~ y iff u x v in p <=> u y v in p for every context
    (u, v), by comparing full |E|^2 signatures. ``contexts`` is a
    ``context_products`` result for p's support, shared between
    predicates with the same support."""
    elems, products = contexts or context_products(m, p.support)
    in_p = [member(p, e) for e in elems]
    groups = {}
    for x in elems:
        groups.setdefault(tuple(in_p[i] for i in products[x]), []).append(x)
    return list(groups.values())


def moore_classes(m, p, budget=None):
    """The classes of the syntactic congruence of p on the context pool.

    The pool E holds the elements supported by supp(p) plus 4k fresh
    atoms; joint equivariance of the separation predicate makes it
    exhaustive for all orbit patterns. E contains the unit and is closed
    under multiplication, since supp(xy) is a subset of supp x | supp y.
    So "no context (u, v) in E x E tells x and y apart through p" is
    the coarsest partition of E that refines {p, not p} and is stable
    under multiplication by E on either side.

    That partition is found by Moore refinement over the multiplication
    table T[i][j] = index of e_i e_j, built once with |E|^2 multiplies
    (one tick each). Each round gives i the class of the key (class of
    i, classes of row i, classes of column i) and ticks once per
    element; it stops when the class count stops growing. Classes come
    in the order of their first member in E.
    """
    budget = ensure_budget(budget)
    if p.carrier != m.carrier:
        raise InvalidInput("predicate must live in the monoid's carrier")
    k = m.carrier.bound
    s = sorted(p.support)
    gen = fresh_stream(s)
    pool = s + [next(gen) for _ in range(4 * k)]
    elems = elements_with_support(m.carrier, pool, budget=budget)
    index = {e: i for i, e in enumerate(elems)}
    rows = []
    for x in elems:
        row = []
        for y in elems:
            budget.tick()
            row.append(index[m.multiply(x, y)])
        rows.append(row)
    columns = list(zip(*rows))
    cls = [int(member(p, e)) for e in elems]
    count = len(set(cls))
    while True:
        ids = {}
        refined = []
        for i in range(len(elems)):
            budget.tick()
            key = (
                cls[i],
                tuple(map(cls.__getitem__, rows[i])),
                tuple(map(cls.__getitem__, columns[i])),
            )
            refined.append(ids.setdefault(key, len(ids)))
        cls = refined
        if len(ids) == count:
            break
        count = len(ids)
    groups = {}
    for x, c in zip(elems, cls):
        groups.setdefault(c, []).append(x)
    return list(groups.values())


def syntactic_congruence(m, p, budget=None):
    """m ~ m' iff no context (u, v) tells them apart through p.

    The classes come from ``moore_classes``; the congruence is
    presented by the pairs within each class, supported by supp(p).
    """
    budget = ensure_budget(budget)
    pairs = []
    for members in moore_classes(m, p, budget=budget):
        for x in members:
            for y in members:
                budget.tick()
                pairs.append(m.product.pair(x, y))
    subset = FsSubset.from_elements(m.product.set, p.support, pairs)
    return Congruence(m, subset)


def _expand_keys(carrier, support, keys, larger, budget=None):
    """Re-express a subset S-supported as a key set over larger S' >= S."""
    out = set()
    tmp = FsSubset(carrier, support, keys, _normalized=True)
    for r in fast_s_orbit_reps(carrier, larger, budget=budget):
        if member(tmp, r):
            out.add(s_orbit_key(r, larger))
    return out


def complement(u, budget=None):
    """The complement: every S-orbit key not held, normalized."""
    full = {
        s_orbit_key(r, u.support)
        for r in fast_s_orbit_reps(u.carrier, u.support, budget=budget)
    }
    return FsSubset(u.carrier, u.support, full - u.keys, budget=budget)


def hull(support, u, budget=None):
    """hull_S(U): smallest S-supported superset; the union of Perm_S images."""
    budget = ensure_budget(budget)
    s = frozenset(support)
    keys = set()
    for c in fast_s_orbit_reps(u.carrier, s, budget=budget):
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
    for target in permutations(pool, n_free):
        budget.tick()
        if set(target) & set(fixed):
            continue
        ren = dict(zip(free_atoms, target))
        x = c.set.element(c.orbit, tuple(ren.get(a, a) for a in c.tuple))
        if member(u, x):
            return True
    return False


def normalize(carrier, support, keys):
    """Shrink the support to the least one fixing the subset."""
    support = set(support)
    changed = True
    while changed:
        changed = False
        for a in sorted(support):
            smaller = frozenset(support - {a})
            b = next(fresh_stream(support))
            larger = frozenset(support | {b})
            # the subset is (S \ {a})-supported iff the fresh transposition
            # (a b) fixes it
            tmp = FsSubset(carrier, frozenset(support), keys, _normalized=True)
            original = _expand_keys(carrier, frozenset(support), keys, larger)
            swapped = {
                s_orbit_key(act(Perm.swap(a, b), instantiate_s_key(carrier, k, larger)),
                            larger)
                for k in original
            }
            if swapped == original:
                keys = {s_orbit_key(r, smaller)
                        for r in s_orbit_reps(carrier, smaller)
                        if member(tmp, r)}
                support = set(smaller)
                changed = True
                break
    return frozenset(support), frozenset(keys)


def s_orbit_reps(owner, support, budget=None):
    """One canonical representative per Perm_S-orbit of the set, by
    sweeping every injective tuple over S plus n fresh atoms, with
    tagged keys."""
    budget = ensure_budget(budget)
    s = sorted(set(support))
    reps = []
    seen = set()
    for i, desc in enumerate(owner.orbits):
        n = desc.dim
        # positions take either a distinct S-atom or a distinct fresh atom
        fresh = []
        gen = fresh_stream(s)
        for _ in range(n):
            fresh.append(next(gen))
        pool = s + fresh
        for t in permutations(pool, n):
            budget.tick()
            e = Element(owner, i, t)
            key = tagged_s_orbit_key(e, s)
            if key not in seen:
                seen.add(key)
                reps.append(instantiate_tagged_key(owner, key, s))
    return reps


def product_orbits(left, right, budget=None, orbit_cap=ORBIT_CAP):
    """(patterns, factors, groups) of the orbits of X x Y, by sweeping
    every injective y tuple over the x reference's atoms plus n fresh
    labels and keeping the first tuple of each pair pattern."""
    budget = ensure_budget(budget)
    key_to_orbit = {}
    groups = []
    patterns = []
    factors = []
    for i, xd in enumerate(left.orbits):
        m = xd.dim
        x_ref = Element(left, i, range(m))
        for j, yd in enumerate(right.orbits):
            n = yd.dim
            for t in permutations(range(m + n), n):
                budget.tick()
                y = Element(right, j, t)
                key, _ren = fast_pair_pattern(x_ref, y)
                if key in key_to_orbit:
                    continue
                if len(groups) >= orbit_cap:
                    raise CapExceeded(f"orbit cap {orbit_cap} exceeded in product")
                x_orbit, x_labels, y_orbit, y_labels = key
                d = len(set(x_labels) | set(y_labels))
                stab = stabilizer(left, right, x_orbit, x_labels, y_orbit, y_labels, d)
                key_to_orbit[key] = len(groups)
                groups.append(stab)
                patterns.append(key)
                factors.append((i, j))
    return tuple(patterns), tuple(factors), tuple(groups)


def stabilizer(left, right, x_orbit, x_labels, y_orbit, y_labels, d):
    """The relabelings of {0..d-1} that keep both label tuples in their
    cosets, found by trying all d! of them."""
    xg = left.orbits[x_orbit].group
    yg = right.orbits[y_orbit].group
    x_min = min_coset(x_labels, xg)
    y_min = min_coset(y_labels, yg)
    stab = []
    for sigma in permutations(range(d)):
        if (
            min_coset(tuple(sigma[a] for a in x_labels), xg) == x_min
            and min_coset(tuple(sigma[a] for a in y_labels), yg) == y_min
        ):
            stab.append(sigma)
    if len(stab) > GROUP_CAP:
        raise CapExceeded("stabilizer exceeds group cap")
    return tuple(sorted(stab))


def validate_monoid_unmemoized(m, budget=None, z_orbits=None):
    """The monoid axioms with associativity checked on S-orbit
    representatives, enumerated afresh for every (x, y): z over every
    orbit, or over ``z_orbits`` (ascending) when given, which with the
    generating orbits is what ``nommon.monoid.validate_monoid`` checks."""
    budget = ensure_budget(budget)
    failures = []
    if m.unit.tuple != ():
        failures.append(("unit-support", m.unit))
    wd = check_map_well_defined(m.mult)
    for orbit, gen in wd.failures:
        failures.append(("mult-ill-defined", (orbit, gen)))
    reps = orbit_reps(m.carrier)
    for x in reps:
        budget.tick()
        if m.multiply(m.unit, x) != x:
            failures.append(("left-unit", x))
        if m.multiply(x, m.unit) != x:
            failures.append(("right-unit", x))
    for x in reps:
        for y in fast_s_orbit_reps(m.carrier, x.tuple, budget=budget):
            xy_atoms = x.tuple + y.tuple
            for z in fast_s_orbit_reps(
                m.carrier, xy_atoms, budget=budget, orbits=z_orbits
            ):
                budget.tick()
                lhs = m.multiply(m.multiply(x, y), z)
                rhs = m.multiply(x, m.multiply(y, z))
                if lhs != rhs:
                    failures.append(("associativity", (x, y, z, lhs, rhs)))
    return Report(failures)


def validate_monoid(m, budget=None):
    """The monoid axioms with associativity checked on every triple of
    concrete elements: x over orbit reps, y over elements supported by
    atoms(x) plus k fresh, z over atoms(x, y) plus k fresh."""
    budget = ensure_budget(budget)
    failures = []
    if m.unit.tuple != ():
        failures.append(("unit-support", m.unit))
    wd = check_map_well_defined(m.mult)
    for orbit, gen in wd.failures:
        failures.append(("mult-ill-defined", (orbit, gen)))
    k = m.carrier.bound
    reps = orbit_reps(m.carrier)
    for x in reps:
        budget.tick()
        if m.multiply(m.unit, x) != x:
            failures.append(("left-unit", x))
        if m.multiply(x, m.unit) != x:
            failures.append(("right-unit", x))
    for x in reps:
        pool_y = sorted(x.tuple)
        gen_y = fresh_stream(pool_y)
        pool_y = pool_y + [next(gen_y) for _ in range(k)]
        for y in elements_with_support(m.carrier, pool_y, budget=budget):
            pool_z = sorted(set(x.tuple) | set(y.tuple))
            gen_z = fresh_stream(pool_z)
            pool_z = pool_z + [next(gen_z) for _ in range(k)]
            for z in elements_with_support(m.carrier, pool_z, budget=budget):
                budget.tick()
                lhs = m.multiply(m.multiply(x, y), z)
                rhs = m.multiply(x, m.multiply(y, z))
                if lhs != rhs:
                    failures.append(("associativity", (x, y, z, lhs, rhs)))
    return Report(failures)


# --- s-boundedness and joins over the full product ------------------------


def restrict_to_orbits(ambient, indices, unit, multiply):
    """The monoid on a multiplication-closed union of ambient orbits,
    under the given unit and multiply; ``ambient`` need not be a monoid's
    carrier. Returns (monoid, embed, restrict), the element coercions
    between its carrier and ``ambient``."""
    selected = sorted(indices)
    sub_set = OrbitFiniteSet([ambient.orbits[i] for i in selected])
    to_sub = {f: s for s, f in enumerate(selected)}

    def embed(x):
        return Element(ambient, selected[x.orbit], x.tuple)

    def restrict(y):
        if y.orbit not in to_sub:
            raise InvalidInput("orbit set is not multiplication-closed")
        return Element(sub_set, to_sub[y.orbit], y.tuple)

    mon = monoid_from_concrete(
        sub_set, restrict(unit), lambda x, y: restrict(multiply(embed(x), embed(y)))
    )
    return mon, embed, restrict


def submonoid_from_orbits(m, indices):
    """A multiplication-closed union of m's orbits as a monoid whose
    table is enumerated and multiplied afresh in m, with its inclusion
    read off concrete elements."""
    if m.unit.orbit not in indices:
        raise InvalidInput("a submonoid must contain the unit orbit")
    sub, embed, restrict = restrict_to_orbits(m.carrier, indices, m.unit, m.multiply)
    incl = map_from_concrete(sub.carrier, m.carrier, embed)
    return SubMonoid(sub, MonoidMorphism(sub, m, incl), sorted(indices), restrict)


def _pairing_image(m1, m2, gen_pairs, budget):
    """The submonoid of M1 x M2 generated by the given pairs.

    Built without ever constructing the full product monoid: pair
    orbits are closed under componentwise multiplication first (the
    closure stays small even when the full product would not), and
    only the reachable orbits get a monoid structure. The orbit of a
    product u v depends only on the Perm_{supp u}-orbit of v, so v runs
    over one tuple per such orbit (``orbit_tuples``, one tick each).

    Returns (monoid, pairs, embed, restrict) with embed/restrict the
    element-level coercions between the image carrier and X x Y.
    """
    from nommon.sets import Element, orbit_tuples, product_set

    pairs = product_set(m1.carrier, m2.carrier, budget=budget)

    def mult_pair(u, v):
        x1, x2 = unpair(pairs, u)
        y1, y2 = unpair(pairs, v)
        return pairs.pair(m1.multiply(x1, y1), m2.multiply(x2, y2))

    reachable = {pairs.pair(m1.unit, m2.unit).orbit}
    reachable |= {pairs.pair(a, b).orbit for a, b in gen_pairs}
    changed = True
    while changed:
        changed = False
        for i, j in itertools.product(sorted(reachable), repeat=2):
            di = pairs.set.orbits[i].dim
            dj = pairs.set.orbits[j].dim
            u = Element(pairs.set, i, range(di))
            for t in orbit_tuples(range(di), range(di, di + dj), dj):
                budget.tick()
                w = mult_pair(u, Element(pairs.set, j, t))
                if w.orbit not in reachable:
                    reachable.add(w.orbit)
                    changed = True
    mon, embed, restrict = restrict_to_orbits(
        pairs.set, reachable, pairs.pair(m1.unit, m2.unit), mult_pair
    )
    return mon, pairs, embed, restrict


def is_s_bounded(h0, s, budget=None):
    """Does supp h(w) stay below the bound for every word w?

    The h-values form the submonoid generated by the letter images;
    for a via-morphism bound the pairing with the reference evaluation
    is generated instead and supp checked componentwise per orbit rep.
    """
    budget = ensure_budget(budget)
    sigma = h0.sigma
    letters = orbit_reps(sigma)
    if s.variant == "constant":
        sub = submonoid_generated(h0.monoid, [h0(x) for x in letters])
        for r in orbit_reps(sub.monoid.carrier):
            budget.tick()
            # the h-value set is equivariant, so supp <= S for the whole
            # orbit forces dim 0; a positive-dim orbit gives a witness
            # once its atoms are pushed outside S
            if r.tuple:
                bad = sub.inclusion(r)
                gen = fresh_stream(set(bad.tuple) | s.data)
                for a in bad.tuple:
                    if a in s.data:
                        bad = act(Perm.swap(a, next(gen)), bad)
                return BoundReport(False, bad)
        return BoundReport(True)
    q0 = s.data
    if q0.sigma != sigma:
        raise InvalidInput("bound and morphism have different alphabets")
    gen_pairs = [(h0(x), q0(x)) for x in letters]
    mon, pairs, embed, _restrict = _pairing_image(
        h0.monoid, q0.monoid, gen_pairs, budget
    )
    for r in orbit_reps(mon.carrier):
        budget.tick()
        a, b = unpair(pairs, embed(r))
        if not set(a.tuple) <= set(b.tuple):
            return BoundReport(False, (a, b))
    return BoundReport(True)


def join_s_bounded(h1, h2, s, budget=None):
    """The join of two quotients: coimage of their pairing.

    The result is re-verified against the bound; the report rides
    along (a failing report demonstrates a codirectedness failure).
    """
    budget = ensure_budget(budget)
    if h1.sigma != h2.sigma:
        raise InvalidInput("join needs a common alphabet")
    gen_pairs = [(h1(x), h2(x)) for x in orbit_reps(h1.sigma)]
    mon, pairs, embed, restrict = _pairing_image(
        h1.monoid, h2.monoid, gen_pairs, budget
    )
    h0 = map_from_concrete(
        h1.sigma,
        mon.carrier,
        lambda x: restrict(pairs.pair(h1(x), h2(x))),
    )
    genmap = GeneratorMap(h1.sigma, mon, h0)
    from nommon.monoid import MonoidMorphism
    from nommon.sets import compose_maps

    embed_map = map_from_concrete(mon.carrier, pairs.set, embed)
    left = MonoidMorphism(mon, h1.monoid, compose_maps(pairs.proj_left, embed_map))
    right = MonoidMorphism(mon, h2.monoid, compose_maps(pairs.proj_right, embed_map))
    # the carrier is not a ProductSet here, so no ``pairs``
    return JoinResult(genmap, left, right, is_s_bounded(genmap, s, budget=budget), None)


def pairing_image_all_pairs(h1, h2, budget):
    """The orbits of X x Y that the pairs (h1(w), h2(w)) meet, as a
    ``ProductSet`` of those orbits in key order.

    Closed on pair patterns from the unit's and the letters' keys by
    multiplying out every ordered pair of reached keys once: u is the
    first key's reference pair, and v one pair of the second key per
    Perm_{supp u}-orbit (``orbit_tuples``); one tick before each
    componentwise product.
    """
    m1, m2 = h1.monoid, h2.monoid
    dims = {}
    keys = []

    def reach(a, b):
        key = fast_pair_pattern(a, b)[0]
        if key not in dims:
            if len(dims) >= ORBIT_CAP:
                raise CapExceeded(f"orbit cap {ORBIT_CAP} exceeded in a pairing image")
            dims[key] = len(set(key[1]) | set(key[3]))
            keys.append(key)

    def pair_at(key, t):
        return (Element(m1.carrier, key[0], [t[l] for l in key[1]]),
                Element(m2.carrier, key[2], [t[l] for l in key[3]]))

    def multiply_out(i, j):
        di, dj = dims[i], dims[j]
        ux, uy = pair_at(i, range(di))
        for t in orbit_tuples(range(di), range(di, di + dj), dj):
            budget.tick()
            vx, vy = pair_at(j, t)
            reach(m1.multiply(ux, vx), m2.multiply(uy, vy))

    reach(m1.unit, m2.unit)
    for x in orbit_reps(h1.sigma):
        reach(h1(x), h2(x))
    for n, k in enumerate(keys):  # keys grows while it is walked
        for j in keys[:n + 1]:
            multiply_out(k, j)
            if j != k:
                multiply_out(j, k)
    return ProductSet(m1.carrier, m2.carrier, sorted(keys))


# --- full product monoids with letters paired by hand ---------------------


def endpoints_bound():
    """s(a1...an) = {a1, an}: supp of the (first, last) evaluation into
    all of P1 x P2 (5 orbits)."""
    pm = product_monoid(builder("first_proj"), builder("last_proj"))
    sigma = atoms_set()
    h0 = map_from_concrete(
        sigma,
        pm.monoid.carrier,
        lambda a: pm.pairs.pair(
            Element(pm.pairs.left, 1, a.tuple), Element(pm.pairs.right, 1, a.tuple)
        ),
    )
    return SupportBound.via_morphism(
        GeneratorMap(sigma, pm.monoid, h0), label="endpoints"
    )


def l2_language(name):
    """l2-fixed / l2-any recognized in (P1 x P2) x length (15 orbits)."""
    pm = product_monoid(builder("first_proj"), builder("last_proj"))
    # length tracker 0 / 1 / 2-or-more; P1 x P2 alone cannot tell a
    # single letter a from a longer word a...a
    counter = strong_set([0, 0, 0])
    length = monoid_from_concrete(
        counter,
        Element(counter, 0, ()),
        lambda x, y: Element(counter, min(x.orbit + y.orbit, 2), ()),
    )
    pm2 = product_monoid(pm.monoid, length)
    one = Element(counter, 1, ())
    many = Element(counter, 2, ())
    sigma = atoms_set()

    def letter(x):
        fl = pm.pairs.pair(
            Element(pm.pairs.left, 1, x.tuple), Element(pm.pairs.right, 1, x.tuple)
        )
        return pm2.pairs.pair(fl, one)

    gm = GeneratorMap(
        sigma, pm2.monoid, map_from_concrete(sigma, pm2.monoid.carrier, letter)
    )
    aa = pm.pairs.pair(Element(pm.pairs.left, 1, [0]), Element(pm.pairs.right, 1, [0]))
    aa_long = pm2.pairs.pair(aa, many)
    if name == "l2-fixed":
        pred = FsSubset.singleton(aa_long)
    else:
        pred = FsSubset.from_elements(pm2.monoid.carrier, (), [aa_long])
    return Language(gm, pred)


def language_boolean(op, l1, l2=None):
    """Boolean combination, recognized in the full product monoid."""
    if op == "complement":
        return Language(l1.genmap, fs_boolean("complement", l1.predicate))
    pm = product_monoid(l1.genmap.monoid, l2.genmap.monoid)
    h0 = map_from_concrete(
        l1.alphabet,
        pm.monoid.carrier,
        lambda x: pm.pairs.pair(l1.genmap(x), l2.genmap(x)),
    )
    u1 = preimage_subset(pm.pairs.proj_left, l1.predicate)
    u2 = preimage_subset(pm.pairs.proj_right, l2.predicate)
    return Language(
        GeneratorMap(l1.alphabet, pm.monoid, h0), fs_boolean(op, u1, u2)
    )


# --- monoid tables through unpaired reference elements --------------------


def monoid_by_unpairing(carrier, unit, mult_value, budget=None):
    """The monoid whose table ``map_from_concrete`` reads off each
    product orbit's reference element, unpaired into its two factors
    and multiplied by ``mult_value``."""
    product = product_set(carrier, carrier, budget=budget)

    def fn(e):
        x, y = unpair(product, e)
        return mult_value(x, y)

    mult = map_from_concrete(product.set, carrier, fn)
    return NominalMonoid(carrier, unit, mult, product)


def unpair(product, e):
    """The component pair of a product element: each label of its
    orbit's key read off the element's tuple by hand."""
    x_orbit, x_labels, y_orbit, y_labels = product.patterns[e.orbit]
    x = Element(product.left, x_orbit, (e.tuple[l] for l in x_labels))
    y = Element(product.right, y_orbit, (e.tuple[l] for l in y_labels))
    return x, y


def reference_pairs(product):
    """Each product orbit's reference pair: its representative (atoms
    0..d-1), unpaired."""
    return [unpair(product, e) for e in orbit_reps(product.set)]


def edge_key(product, x, y, support):
    """The S-orbit key of the pair (x, y), read off its product element."""
    return s_orbit_key(product.pair(x, y), support)


def is_s_bounded_via_morphism(h0, s, budget=None):
    """``is_s_bounded`` against the via-morphism bound s, read off the
    unpaired representative of each orbit of the pairing image."""
    budget = ensure_budget(budget)
    pairs = bounds._pairing_image(h0, s.data, budget)
    for r in orbit_reps(pairs.set):
        budget.tick()
        a, b = unpair(pairs, r)
        if not set(a.tuple) <= set(b.tuple):
            return BoundReport(False, (a, b))
    return BoundReport(True)


def eq_msr_predicate(m):
    """supp(xy) empty only for pairs of empty support, on the product's
    orbit representatives and their products."""
    for e in orbit_reps(m.product.set):
        if m.mult(e).tuple == () and e.tuple != ():
            return False
    return True


def multiply_via_pair(m, x, y):
    """x . y as the table's value on the product element of the pair."""
    return m.mult(m.product.pair(x, y))


def componentwise_by_unpairing(m, n, pairs, budget=None):
    """The componentwise monoid on ``pairs``, its table read by
    unpairing both factors of each square orbit's reference element."""
    unit = pairs.pair(m.unit, n.unit)

    def mult_value(x, y):
        x1, x2 = unpair(pairs, x)
        y1, y2 = unpair(pairs, y)
        return pairs.pair(m.multiply(x1, y1), n.multiply(x2, y2))

    prod = monoid_by_unpairing(pairs.set, unit, mult_value, budget=budget)
    proj1 = MonoidMorphism(prod, m, pairs.proj_left)
    proj2 = MonoidMorphism(prod, n, pairs.proj_right)
    return ProductMonoidResult(prod, pairs, proj1, proj2)


# --- monoid tables in the text format, by concrete pairs -------------------


def mult_entries(m):
    """One 'mult' line per product orbit, written from the concrete
    reference pair: unpaired into its factors and multiplied."""
    lines = []
    for p in range(len(m.product.set.orbits)):
        ref = Element(m.product.set, p, range(m.product.set.orbits[p].dim))
        x, y = unpair(m.product, ref)
        z = m.mult(ref)
        names = {a: f"x{a}" for a in ref.tuple}
        lines.append(
            "  mult {}({}) . {}({}) -> {}({})".format(
                x.orbit, " ".join(names[a] for a in x.tuple),
                y.orbit, " ".join(names[a] for a in y.tuple),
                z.orbit, " ".join(names[a] for a in z.tuple),
            )
        )
    return lines


def serialize_monoid(name, m):
    """The text of a one-monoid document."""
    lines = [f"monoid {name}"]
    lines.extend(textfmt._serialize_orbit(d) for d in m.carrier.orbits)
    lines.append(f"  unit {m.unit.orbit}")
    lines.extend(mult_entries(m))
    lines.append("end")
    return "\n".join(lines) + "\n"


def joint_pattern(left_names, right_names):
    """First-occurrence equality pattern of a name pair; also the
    per-name index map."""
    index = {}
    for n in left_names + right_names:
        if n not in index:
            index[n] = len(index)
    return (
        tuple(index[n] for n in left_names),
        tuple(index[n] for n in right_names),
        index,
    )


# --- the text format's token reader ---------------------------------------

LABEL = re.compile(r"^x(\d+)$")
ATOM = re.compile(r"^a(\d+)$")
CALL = r"(\d+\([^()]*\))"
MULT = re.compile(rf"^{CALL}\s*\.\s*{CALL}\s*->\s*{CALL}$")
MAP = re.compile(rf"^{CALL}\s*->\s*{CALL}$")
CALL_PARTS = re.compile(r"^(\d+)\(([^()]*)\)$")


def read_label(token):
    m = LABEL.match(token)
    if not m:
        raise InvalidInput(f"expected a label like x0, got {token!r}")
    return int(m.group(1))


def read_atom(token):
    m = ATOM.match(token)
    if not m:
        raise InvalidInput(f"expected an atom like a0, got {token!r}")
    return int(m.group(1))


def parse_call(text, read):
    """'3(x0 x1)' -> (3, (0, 1)), reading each argument with ``read``."""
    m = CALL_PARTS.match(text)
    if not m:
        raise InvalidInput(f"expected orbit(args), got {text!r}")
    return int(m.group(1)), tuple(read(t) for t in m.group(2).split())


def parse_arrow(pattern, tokens, usage):
    """The (orbit, labels) calls of a 'mult' or 'map' line; the labels of
    the last one, the value, must occur in the others."""
    m = pattern.match(" ".join(tokens[1:]))
    if not m:
        raise InvalidInput(f"expected '{usage}'")
    calls = [parse_call(c, read_label) for c in m.groups()]
    known = {label for _orbit, labels in calls[:-1] for label in labels}
    missing = [f"x{label}" for label in calls[-1][1] if label not in known]
    if missing:
        raise InvalidInput(f"result labels {missing} do not occur on the left")
    return calls


def parse_orbit_line(tokens):
    """The orbit of an 'orbit dim <n> [group (..) ..]' line's tokens: the
    text after 'group' is read for its parenthesized permutations only."""
    if tokens[:2] != ["orbit", "dim"]:
        raise InvalidInput("expected 'orbit dim <n> [group (..) ..]'")
    rest = " ".join(tokens[3:])
    if rest and not rest.startswith("group"):
        raise InvalidInput("expected 'group' after the dimension")
    gens = [
        tuple(int(t) for t in part.split())
        for part in re.findall(r"\(([^()]*)\)", rest)
    ]
    return OrbitDescriptor(int(tokens[2]), gens)


def parse_row(text):
    """What the token reader read off one 'mult', 'map' or 'element' line:
    its calls, or InvalidInput."""
    tokens = text.split()
    if tokens[0] == "mult":
        return parse_arrow(MULT, tokens, "mult i(..) . j(..) -> r(..)")
    if tokens[0] == "map":
        return parse_arrow(MAP, tokens, "map i(..) -> j(..)")
    return [parse_call(" ".join(tokens[1:]), read_atom)]


def parse_monoid(document):
    """The monoid of a one-monoid document in canonical form, read by
    looking up each reference pair's first-occurrence name pattern among
    the 'mult' lines and evaluating it concretely."""
    orbits, table, unit_orbit = [], {}, None
    for text in document.splitlines()[1:-1]:
        tokens = text.split()
        if tokens[0] == "orbit":
            orbits.append(parse_orbit_line(tokens))
        elif tokens[0] == "unit":
            unit_orbit = int(tokens[1])
        else:
            i, left, j, right, r, res = re.fullmatch(
                r"mult (\d+)\((.*)\) \. (\d+)\((.*)\) -> (\d+)\((.*)\)", text.strip()
            ).groups()
            lp, rp, index = joint_pattern(left.split(), right.split())
            table[(int(i), int(j), lp, rp)] = (int(r), [index[n] for n in res.split()])
    carrier = OrbitFiniteSet(orbits)

    def mult_value(x, y):
        lp, rp, joint = joint_pattern(list(x.tuple), list(y.tuple))
        r, res_idx = table[(x.orbit, y.orbit, lp, rp)]
        back = {label: a for a, label in joint.items()}
        return Element(carrier, r, [back[label] for label in res_idx])

    return monoid_from_concrete(carrier, Element(carrier, unit_orbit, ()), mult_value)


def s_orbit_reps_keying_elements(owner, support, budget=None, orbits=None):
    """One canonical representative per Perm_S-orbit of the set, or of
    its ``orbits`` (indices in ascending order) when given, by building
    an element of each ``orbit_tuples`` tuple and keying it.

    Per carrier orbit, ``orbit_tuples`` gives one tuple per Perm_S-orbit
    of its injective tuples (one tick each); a nontrivial position group
    can merge several of them into one S-orbit of elements, so keys are
    still deduplicated. Reps come orbit by orbit, in the order of their
    first tuple in the sweep over S plus n fresh atoms, so the reps over
    some orbits are the full list filtered to them.
    """
    budget = ensure_budget(budget)
    s = sorted(set(support))
    reps = []
    seen = set()
    for i in range(len(owner.orbits)) if orbits is None else orbits:
        n = owner.orbits[i].dim
        fresh = islice(fresh_stream(s), n)
        for t in orbit_tuples(s, fresh, n):
            budget.tick()
            e = Element(owner, i, t)
            key = s_orbit_key(e, s)
            if key not in seen:
                seen.add(key)
                reps.append(instantiate_s_key(owner, key, s))
    return reps


def extend_injection(mapping, moved_from, avoid):
    """Extend an injective atom mapping to a genuine finite permutation.

    ``mapping`` sends some atoms injectively to targets. Atoms in
    ``moved_from`` that have no image are sent to fresh atoms outside
    ``avoid`` so that the result is a bijection.
    """
    m = dict(mapping)
    used = set(m.values())
    taken = set(avoid) | used | set(m.keys()) | set(moved_from)
    fresh = fresh_stream(taken)
    for a in moved_from:
        if a not in m:
            nxt = next(fresh)
            m[a] = nxt
            used.add(nxt)
    # close into a permutation: targets lacking a preimage cycle back
    sources = set(m.keys())
    targets = set(m.values())
    dangling = list(targets - sources)
    missing = list(sources - targets)
    for a, b in zip(dangling, missing):
        m[a] = b
    return Perm(m)


def related(cong, x, y):
    """Does the congruence relate x and y? Its pair set holds (x, y)."""
    return member(cong.pairs, cong.monoid.product.pair(x, y))


def quotient(m, cong, budget=None):
    """M / ~ for an equivariant congruence, with the projection.

    Each congruence class [x] is an element of the quotient; its least
    support (a subset of supp x, found by fresh-transposition tests)
    gives the dimension, and the permutations of that support fixing
    the class give the positional group.
    """
    budget = ensure_budget(budget)
    if cong.pairs.support:
        raise InvalidInput("quotient requires an equivariant congruence")
    carrier = m.carrier

    def class_support(x):
        atoms = sorted(x.tuple)
        b = next(fresh_stream(atoms))
        return tuple(
            a for a in atoms if not related(cong, x, act(Perm.swap(a, b), x))
        )

    def alignments(src, src_sup, dst, dst_sup):
        """The sigma in Sym(d) for which a permutation sending src_sup[p]
        to dst_sup[sigma[p]] maps the class of src to that of dst, one
        tick per sigma tried."""
        d = len(dst_sup)
        avoid = set(dst.tuple) | set(src.tuple)
        for sigma in itertools.permutations(range(d)):
            budget.tick()
            pi = extend_injection(
                {src_sup[p]: dst_sup[sigma[p]] for p in range(d)},
                moved_from=src.tuple,
                avoid=avoid,
            )
            if related(cong, act(pi, src), dst):
                yield sigma

    # entries: one per quotient orbit, (m_orbit, rep, support tuple)
    entries = []
    descriptors = []
    assignment = []
    for i, desc in enumerate(carrier.orbits):
        budget.tick()
        rep = Element(carrier, i, range(desc.dim))
        sup = class_support(rep)
        match = next(
            (
                (q, sigma)
                for q, (_, qrep, qsup) in enumerate(entries)
                if len(qsup) == len(sup)
                for sigma in alignments(qrep, qsup, rep, sup)
            ),
            None,
        )
        pos_of = {a: p for p, a in enumerate(rep.tuple)}
        if match is None:
            stab = list(alignments(rep, sup, rep, sup))
            if len(stab) > GROUP_CAP:
                raise CapExceeded("quotient orbit group exceeds the cap")
            entries.append((i, rep, sup))
            descriptors.append(OrbitDescriptor(len(sup), _group=tuple(sorted(stab))))
            assignment.append(
                Assignment(len(descriptors) - 1, tuple(pos_of[a] for a in sup))
            )
        else:
            q, sigma = match
            assignment.append(
                Assignment(q, tuple(pos_of[sup[sigma[p]]] for p in range(len(sup))))
            )

    q_set = OrbitFiniteSet(descriptors)
    proj_map = EquivariantMap(carrier, q_set, assignment)

    def lift(qx, avoid=()):
        i, rep, sup = entries[qx.orbit]
        pi = extend_injection(
            {sup[p]: qx.tuple[p] for p in range(len(sup))},
            moved_from=rep.tuple,
            avoid=set(qx.tuple) | set(rep.tuple) | set(avoid),
        )
        return act(pi, rep)

    def mult_value(qx, qy):
        lx = lift(qx)
        ly = lift(qy, avoid=lx.tuple)
        return proj_map(m.multiply(lx, ly))

    q_monoid = monoid_from_concrete(q_set, proj_map(m.unit), mult_value, budget=budget)
    projection = MonoidMorphism(m, q_monoid, proj_map)
    return QuotientResult(q_monoid, projection)
