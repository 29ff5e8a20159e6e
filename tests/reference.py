"""Brute-force reference implementations, kept as test oracles.

The library finds pair patterns by first-occurrence relabeling, the
syntactic congruence by partition refinement, the least support of a
subset in one transposition pass, S-orbits and product orbits by
enumerating one tuple per orbit, product stabilizers from G_x x G_y,
checks associativity on S-orbit representatives, and encodes S-orbit
keys as integer labels. These are the direct definitions those
replaced, and the tagged (0, atom) / (1, k) S-orbit keys; the
differential tests check the fast paths against them.
"""

from itertools import permutations

from nommon.errors import CapExceeded, ensure_budget
from nommon.fssets import FsSubset, _expand_keys, member
from nommon.kernel import apply_positions, min_coset
from nommon.monoid import MonoidReport
from nommon.perm import Perm, fresh_stream
from nommon.sets import (
    GROUP_CAP,
    ORBIT_CAP,
    Element,
    act,
    check_map_well_defined,
    elements_with_support,
    injective_tuples,
    instantiate_s_key,
    orbit_reps,
    pair_pattern as fast_pair_pattern,
    s_orbit_key,
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
    """The context pool E of ``nommon.language.syntactic_classes`` for a
    predicate with the given support, and for each x in E the products
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
        for t in injective_tuples(pool, n):
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
            for t in injective_tuples(range(m + n), n):
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
    return MonoidReport(failures)
