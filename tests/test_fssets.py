import random

import pytest

from nommon.errors import Budget, BudgetExhausted, InvalidInput
from nommon.perm import Perm
from nommon.sets import Element, act, atoms_set, s_orbit_reps, strong_set
from nommon.fssets import (
    FsSubset,
    _expand_keys,
    _s_orbit_meets,
    apply_perm_subset,
    fs_boolean,
    hull,
    least_support_subset,
    member,
    powerset_atoms,
)

A = atoms_set()
A2 = strong_set([2])


def atom(n):
    return Element(A, 0, [n])


def test_singleton_membership_and_support():
    u = FsSubset.singleton(atom(5))
    assert member(u, atom(5))
    assert not member(u, atom(7))
    assert least_support_subset(u) == frozenset({5})


def test_empty_and_full():
    e = FsSubset.empty(A)
    f = FsSubset.full(A)
    assert e.is_empty() and not f.is_empty()
    assert member(f, atom(3)) and not member(e, atom(3))
    assert least_support_subset(f) == frozenset()


def test_normalization_drops_redundant_support():
    # built with declared support {5}, but denotes all of A
    u = FsSubset.from_predicate(A, {5}, lambda x: True)
    assert u == FsSubset.full(A)
    assert u.support == frozenset()


def test_union_with_complement_is_full():
    u = FsSubset.singleton(atom(5))
    assert fs_boolean("union", u, fs_boolean("complement", u)) == FsSubset.full(A)
    assert fs_boolean("intersect", u, fs_boolean("complement", u)).is_empty()


def test_complement_involution():
    u = fs_boolean("union", FsSubset.singleton(atom(2)), FsSubset.singleton(atom(8)))
    assert fs_boolean("complement", fs_boolean("complement", u)) == u


def random_subset(rng):
    n = rng.randrange(4)
    support = set(rng.sample(range(6), rng.randrange(3)))
    elems = [Element(A2, 0, rng.sample(range(8), 2)) for _ in range(n)]
    return FsSubset.from_elements(A2, support, elems)


def test_boolean_laws_random():
    rng = random.Random(42)
    for _ in range(40):
        u, v, w = (random_subset(rng) for _ in range(3))
        assert fs_boolean("union", u, v) == fs_boolean("union", v, u)
        assert fs_boolean("intersect", u, v) == fs_boolean("intersect", v, u)
        lhs = fs_boolean("intersect", u, fs_boolean("union", v, w))
        rhs = fs_boolean(
            "union", fs_boolean("intersect", u, v), fs_boolean("intersect", u, w)
        )
        assert lhs == rhs
        assert fs_boolean("difference", u, v) == fs_boolean(
            "intersect", u, fs_boolean("complement", v)
        )


def test_membership_invariant_under_support_fixing_perms():
    rng = random.Random(9)
    for _ in range(30):
        u = random_subset(rng)
        pi_pool = [a for a in range(8, 16)]
        pi = Perm.swap(*rng.sample(pi_pool, 2))
        assert all(a not in pi.moved for a in u.support)
        x = Element(A2, 0, rng.sample(range(16), 2))
        assert member(u, x) == member(u, act(pi, x))


def test_apply_perm_equivariance():
    rng = random.Random(5)
    for _ in range(30):
        u = random_subset(rng)
        pi = Perm.swap(*rng.sample(range(10), 2))
        moved = apply_perm_subset(pi, u)
        x = Element(A2, 0, rng.sample(range(10), 2))
        assert member(moved, act(pi, x)) == member(u, x)


def test_carrier_mismatch_rejected():
    with pytest.raises(InvalidInput):
        member(FsSubset.singleton(atom(1)), Element(A2, 0, [1, 2]))
    with pytest.raises(InvalidInput):
        fs_boolean("union", FsSubset.singleton(atom(1)), FsSubset.empty(A2))


def test_hull_of_pair_singleton():
    # hull of {(a,b)} under S={a} is the S-orbit {(a,*) : * != a}
    u = FsSubset.singleton(Element(A2, 0, [5, 7]))
    h = hull([5], u)
    assert member(h, Element(A2, 0, [5, 9]))
    assert member(h, Element(A2, 0, [5, 7]))
    assert not member(h, Element(A2, 0, [9, 5]))
    assert not member(h, Element(A2, 0, [7, 9]))


def test_hull_is_extensive_and_idempotent():
    rng = random.Random(17)
    for _ in range(15):
        u = random_subset(rng)
        s = set(u.support) | {rng.randrange(6)}
        h = hull(s, u)
        for r in u.reps():
            assert member(h, r)
        assert hull(s, h) == h


def test_hull_with_own_support_is_identity():
    rng = random.Random(23)
    for _ in range(15):
        u = random_subset(rng)
        assert hull(u.support, u) == u


def test_powerset_atoms_are_singletons():
    atoms, bij = powerset_atoms(A, [1, 2, 3])
    assert len(atoms) == 3
    for x, u in bij:
        assert u == FsSubset.singleton(x)
        assert member(u, x)


def test_fs_boolean_charges_the_callers_budget():
    # a union over a 5-atom support expands both operands to S-orbits
    # over all five atoms and normalizes the result
    a3 = strong_set([3])
    u = FsSubset.singleton(Element(a3, 0, [0, 1, 2]))
    v = FsSubset.singleton(Element(a3, 0, [3, 4, 0]))
    with pytest.raises(BudgetExhausted):
        fs_boolean("union", u, v, budget=Budget(limit=50))
    budget = Budget()
    w = fs_boolean("union", u, v, budget=budget)
    assert w.support == frozenset(range(5))
    assert w == fs_boolean("union", u, v)
    # the normalization of the result is charged on top of the expansions
    expansions = Budget()
    for x in (u, v):
        _expand_keys(a3, x.support, x.keys, w.support, expansions)
    assert 0 < expansions.used < budget.used


def test_hull_charges_its_normalization():
    # hull ticks = its S-orbit sweep and meet tests + the result's normalization
    u = FsSubset.singleton(Element(A2, 0, [0, 1]))
    s = frozenset({0})
    parts = Budget()
    for c in s_orbit_reps(A2, s, budget=parts):
        _s_orbit_meets(c, s, u, parts)
    whole = Budget()
    h = hull(s, u, budget=whole)
    assert h.support == s
    norm = Budget()
    assert FsSubset(A2, s, h.keys, budget=norm) == h
    assert norm.used > 0
    assert whole.used == parts.used + norm.used
