import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nommon import fssets
from nommon.errors import Budget, BudgetExhausted, InvalidInput
from nommon.perm import Perm, fresh_stream
from nommon.sets import (
    Element,
    OrbitDescriptor,
    OrbitFiniteSet,
    act,
    atoms_set,
    elements_with_support,
    s_orbit_key,
    s_orbit_reps,
    strong_set,
)
from nommon.fssets import (
    FsSubset,
    _coarsen,
    _refine,
    apply_perm_subset,
    fs_boolean,
    hull,
    member,
    powerset_atoms,
)
from test_differential import DETERMINISTIC, FS_CARRIERS

A = atoms_set()
A2 = strong_set([2])


def atom(n):
    return Element(A, 0, [n])


def test_singleton_membership_and_support():
    u = FsSubset.singleton(atom(5))
    assert member(u, atom(5))
    assert not member(u, atom(7))
    assert u.support == frozenset({5})


def full(carrier):
    """All of the carrier: the complement of the empty subset."""
    return fs_boolean("complement", FsSubset.empty(carrier))


def test_empty_and_full():
    e = FsSubset.empty(A)
    f = full(A)
    assert e.is_empty() and not f.is_empty()
    assert member(f, atom(3)) and not member(e, atom(3))
    assert f.support == frozenset()


def test_normalization_drops_redundant_support():
    # built with declared support {5}, but denotes all of A
    u = FsSubset.from_predicate(A, {5}, lambda x: True)
    assert u == full(A)
    assert u.support == frozenset()


def test_union_with_complement_is_full():
    u = FsSubset.singleton(atom(5))
    assert fs_boolean("union", u, fs_boolean("complement", u)) == full(A)
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
    # a union refines both operands to S-orbits over the union of their
    # supports and normalizes the result
    a3 = strong_set([3])
    u = FsSubset.singleton(Element(a3, 0, [0, 1, 2]))
    v = FsSubset.singleton(Element(a3, 0, [3, 4, 0]))
    budget = Budget()
    w = fs_boolean("union", u, v, budget=budget)
    assert w.support == frozenset(range(5))
    assert w == fs_boolean("union", u, v)
    # the normalization of the result is charged on top of the refinements
    refinements = Budget()
    for x in (u, v):
        _refine(a3, x.keys, x.support, w.support, refinements)
    assert 0 < refinements.used < budget.used
    # the complement of {(0, 1, 2)} holds 33 S-orbits, each refined to
    # S-orbits over five atoms
    large = fs_boolean("complement", u)
    with pytest.raises(BudgetExhausted):
        fs_boolean("union", large, v, budget=Budget(limit=50))
    full = Budget()
    fs_boolean("union", large, v, budget=full)
    assert full.used > 50


def test_hull_charges_its_normalization():
    # hull ticks = its refinement to S + supp U and coarsening to S, plus
    # the result's normalization
    u = FsSubset.singleton(Element(A2, 0, [0, 1]))
    s = frozenset({0})
    whole = Budget()
    h = hull(s, u, budget=whole)
    assert h.support == s
    parts = Budget()
    t = s | u.support
    assert _coarsen(A2, _refine(A2, u.keys, u.support, t, parts), t, s, parts) == h.keys
    norm = Budget()
    assert FsSubset(A2, s, h.keys, budget=norm) == h
    assert parts.used > 0 and norm.used > 0
    assert whole.used == parts.used + norm.used
    # hulling the 33 S-orbits of a complement to three other atoms
    a3 = strong_set([3])
    large = fs_boolean("complement", FsSubset.singleton(Element(a3, 0, [0, 1, 2])))
    with pytest.raises(BudgetExhausted):
        hull({3, 4, 5}, large, budget=Budget(limit=50))


def test_fs_boolean_ticks_once_per_key_operation(monkeypatch):
    # every relabeling of a key (refinement, full key, swap test,
    # coarsening) is preceded by exactly one tick, so a budget stops a
    # boolean operation within one key operation of its limit
    carrier = OrbitFiniteSet(
        [OrbitDescriptor(1), OrbitDescriptor(2, [(1, 0)]), OrbitDescriptor(3, [(1, 2, 0)])]
    )
    pairs = [
        (FsSubset.from_elements(carrier, {0, 1}, [carrier.element(2, [0, 5, 1])]),
         FsSubset.from_elements(carrier, {1, 2}, [carrier.element(1, [1, 7])])),
        (FsSubset.singleton(carrier.element(1, [0, 1])),
         FsSubset.from_elements(carrier, {0}, [carrier.element(0, [0])])),
    ]
    events = []
    relabel = fssets.first_occurrence_labels

    def counted_relabel(*args):
        events.append("key")
        return relabel(*args)

    monkeypatch.setattr(fssets, "first_occurrence_labels", counted_relabel)
    budget = Budget()
    tick = budget.tick

    def counted_tick(n=1):
        events.append("tick")
        tick(n)

    budget.tick = counted_tick
    for u, v in pairs:
        for op in ("union", "intersect", "difference"):
            fs_boolean(op, u, v, budget=budget)
            fs_boolean(op, v, u, budget=budget)
        fs_boolean("complement", u, budget=budget)
        hull(u.support - {0}, u, budget=budget)
    between = 0
    for e in events:
        if e == "tick":
            between = 0
        else:
            between += 1
            assert between <= 1
    assert events.count("key") == events.count("tick") == budget.used > 0


# --- boolean laws on every carrier ----------------------------------------


@st.composite
def subsets(draw, carrier, atoms=range(5)):
    """A random union of S-orbits, with 0-3 support atoms."""
    support = frozenset(draw(st.sets(st.sampled_from(atoms), max_size=3)))
    keys = [s_orbit_key(r, support) for r in s_orbit_reps(carrier, support)]
    return FsSubset(carrier, support, draw(st.sets(st.sampled_from(keys))))


def probes(carrier, *supports):
    """The elements over the union of the supports plus two fresh atoms."""
    atoms = sorted(frozenset().union(*supports))
    fresh = fresh_stream(atoms)
    return elements_with_support(carrier, atoms + [next(fresh), next(fresh)])


@settings(max_examples=150, **DETERMINISTIC)
@given(st.data())
def test_boolean_laws_on_every_carrier(data):
    carrier = data.draw(FS_CARRIERS)
    u, v, w = (data.draw(subsets(carrier)) for _ in range(3))

    def union(a, b):
        return fs_boolean("union", a, b)

    def meet(a, b):
        return fs_boolean("intersect", a, b)

    def comp(a):
        return fs_boolean("complement", a)

    assert comp(union(u, v)) == meet(comp(u), comp(v))
    assert comp(meet(u, v)) == union(comp(u), comp(v))
    assert meet(u, union(v, w)) == union(meet(u, v), meet(u, w))
    assert union(u, meet(v, w)) == meet(union(u, v), union(u, w))
    assert comp(comp(u)) == u
    assert union(u, comp(u)) == full(carrier)
    assert meet(u, comp(u)) == FsSubset.empty(carrier)
    results = {
        "union": union(u, v),
        "intersect": meet(u, v),
        "difference": fs_boolean("difference", u, v),
        "complement": comp(u),
    }
    for x in probes(carrier, u.support, v.support):
        inside_u, inside_v = member(u, x), member(v, x)
        assert member(results["union"], x) == (inside_u or inside_v)
        assert member(results["intersect"], x) == (inside_u and inside_v)
        assert member(results["difference"], x) == (inside_u and not inside_v)
        assert member(results["complement"], x) == (not inside_u)


@settings(max_examples=150, **DETERMINISTIC)
@given(st.data())
def test_hull_laws_on_every_carrier(data):
    carrier = data.draw(FS_CARRIERS)
    u = data.draw(subsets(carrier))
    s = frozenset(data.draw(st.sets(st.sampled_from(range(5)), max_size=3)))
    h = hull(s, u)
    assert fs_boolean("difference", u, h).is_empty()
    assert h.support <= s
    assert hull(s, h) == h
    # x is in hull_S(U) iff its S-orbit meets U; every S-orbit meeting U
    # meets it over supp U + S and as many fresh atoms as the bound
    pool = sorted(u.support | s)
    fresh = fresh_stream(pool)
    pool += [next(fresh) for _ in range(carrier.bound)]
    meets = {
        s_orbit_key(y, s) for y in elements_with_support(carrier, pool) if member(u, y)
    }
    for x in probes(carrier, u.support, s):
        assert member(h, x) == (s_orbit_key(x, s) in meets)
