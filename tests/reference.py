"""Brute-force reference implementations, kept as test oracles.

The library finds pair patterns by first-occurrence relabeling, the
syntactic congruence by partition refinement and the least support of
a subset in one transposition pass. These are the direct definitions
those replaced; the differential tests check the fast paths against
them.
"""

from itertools import permutations

from nommon.fssets import FsSubset, _expand_keys, member
from nommon.kernel import min_coset
from nommon.perm import Perm, fresh_stream
from nommon.sets import (
    act,
    elements_with_support,
    instantiate_s_key,
    s_orbit_key,
    s_orbit_reps,
)


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
