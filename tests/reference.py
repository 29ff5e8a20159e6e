"""Brute-force reference implementations, kept as test oracles.

The library finds pair patterns by first-occurrence relabeling, the
syntactic congruence as a greatest fixpoint on S-orbits of pairs, the
least support of a subset in one transposition pass, S-orbits and
product orbits by enumerating one tuple per orbit, product stabilizers
from G_x x G_y, checks associativity on S-orbit representatives
memoized per support, encodes S-orbit keys as integer labels,
refines, coarsens and complements subsets on those labels, closes
pairing images on pair patterns, and restricts an ambient monoid's
table to a submonoid's orbits. These are the direct definitions those
replaced, among them the Moore refinement over a context pool that
computed the syntactic congruence, the sweeps over S-orbit
representatives that re-expressed, complemented and hulled subsets, the
tagged (0, atom) / (1, k) S-orbit keys, the pairing image that
built all of X x Y and re-multiplied every pair of reachable orbits in
each round, and the concrete submonoid path that enumerated the
submonoid's square and multiplied each of its orbit pairs in the
ambient monoid again. The fresh-transposition test checks that an
element's least support is its canonical tuple's atoms. The l2
recognizers, the endpoints bound and binary boolean combinations were
full product monoids, with letters paired by hand; they are joins now. The differential tests check the fast paths against
these definitions.
"""

import itertools
from itertools import permutations

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
    SubMonoid,
    monoid_from_concrete,
    product_monoid,
    submonoid_generated,
)
from nommon.perm import Perm, fresh_stream
from nommon.sets import (
    GROUP_CAP,
    ORBIT_CAP,
    Element,
    OrbitFiniteSet,
    Report,
    act,
    atoms_set,
    check_map_well_defined,
    elements_with_support,
    instantiate_s_key,
    map_from_concrete,
    orbit_reps,
    pair_pattern as fast_pair_pattern,
    s_orbit_key,
    s_orbit_reps as fast_s_orbit_reps,
    strong_set,
)


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


def validate_monoid_unmemoized(m, budget=None):
    """The monoid axioms with associativity checked on S-orbit
    representatives as ``nommon.monoid.validate_monoid`` does, but
    enumerating them afresh for every (x, y)."""
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
            for z in fast_s_orbit_reps(m.carrier, xy_atoms, budget=budget):
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
        x1, x2 = pairs.unpair(u)
        y1, y2 = pairs.unpair(v)
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
        a, b = pairs.unpair(embed(r))
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
