import copy
import gc
import itertools
import pickle
import random

import pytest

from nommon import sets
from nommon.errors import Budget, BudgetExhausted, CapExceeded, InvalidInput
from nommon.perm import Perm
from nommon.sets import (
    Element,
    EquivariantMap,
    Assignment,
    OrbitDescriptor,
    OrbitFiniteSet,
    act,
    atoms_set,
    check_map_well_defined,
    compose_maps,
    elements_with_support,
    generate_group,
    identity_map,
    instantiate_s_key,
    map_from_concrete,
    orbit_reps,
    product_set,
    s_orbit_key,
    s_orbit_reps,
    strong_set,
)

from reference import support_by_transpositions


def unordered_pairs():
    """A^(2): unordered pairs of distinct atoms, via the swap group."""
    return OrbitFiniteSet([OrbitDescriptor(2, [(1, 0)])])


def test_generate_group_closure():
    # [DERIVED] the two adjacent transpositions generate all of S_3
    g = generate_group(3, [(1, 0, 2), (0, 2, 1)])
    assert len(g) == 6
    assert set(g) == set(itertools.permutations(range(3)))


def test_generate_group_cap():
    gens = [(1, 0, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6, 0)]
    with pytest.raises(CapExceeded):
        generate_group(7, gens)  # S_7 has order 5040 > cap


def test_element_canonical_under_swap():
    p = unordered_pairs()
    assert Element(p, 0, [7, 3]).tuple == (3, 7)
    assert Element(p, 0, [3, 7]) == Element(p, 0, [7, 3])


def test_element_rejects_bad_tuples():
    a = atoms_set()
    with pytest.raises(InvalidInput):
        Element(a, 0, [1, 2])
    with pytest.raises(InvalidInput):
        Element(strong_set([2]), 0, [4, 4])


@pytest.mark.parametrize("index", [-1, -3, 3, 4])
def test_element_refuses_an_orbit_index_out_of_range(index):
    # -1 would read the last orbit from the end, and 3 is one past it
    owner = strong_set([0, 1, 0])
    with pytest.raises(InvalidInput, match=f"orbit index {index} out of range"):
        Element(owner, index, ())
    with pytest.raises(InvalidInput, match=f"orbit index {index} out of range"):
        owner.element(index, ())


@pytest.mark.parametrize("index", [-1, 1])
def test_a_map_refuses_a_target_orbit_out_of_range(index):
    # -1 would read the last target orbit from the end
    x = strong_set([1])
    with pytest.raises(InvalidInput, match=f"target orbit {index} out of range"):
        EquivariantMap(x, x, [Assignment(index, (0,))])


def test_a_map_stores_each_posmap_as_its_least_reading():
    # (1 0) and (0 1) are one posmap onto unordered pairs
    p = unordered_pairs()
    f = EquivariantMap(p, p, [Assignment(0, (1, 0))])
    assert f.assignment == (Assignment(0, (0, 1)),)
    assert f == identity_map(p)
    assert f(Element(p, 0, (4, 2))) == Element(p, 0, (2, 4))


def test_action_is_group_action():
    p = unordered_pairs()
    x = Element(p, 0, [0, 5])
    pi = Perm({0: 5, 5: 9, 9: 0})
    rho = Perm.swap(5, 9)
    assert act(Perm({}), x) == x
    assert act(pi.compose(rho), x) == act(pi, act(rho, x))


def test_least_support_matches_transposition_oracle():
    rng = random.Random(7)
    p = unordered_pairs()
    sets = [atoms_set(), strong_set([3]), p]
    for _ in range(100):
        owner = rng.choice(sets)
        desc = owner.orbits[0]
        atoms = rng.sample(range(20), desc.dim)
        x = Element(owner, 0, atoms)
        assert frozenset(x.tuple) == support_by_transpositions(x)


def test_elements_with_support_counts():
    # [DERIVED] 3 atoms support 3 elements of A, 6 of A^{#2}, 3 of A^(2)
    pool = [2, 5, 9]
    assert len(elements_with_support(atoms_set(), pool)) == 3
    assert len(elements_with_support(strong_set([2]), pool)) == 6
    assert len(elements_with_support(unordered_pairs(), pool)) == 3


# --- S-orbits -------------------------------------------------------------


def s_orbit_oracle(owner, support, universe):
    """Partition all universe-supported elements by the Perm_S action,
    closing under all transpositions of atoms outside S."""
    elems = elements_with_support(owner, universe, budget=None)
    parent = {e: e for e in elems}

    def find(e):
        while parent[e] != e:
            e = parent[e]
        return e

    free = [a for a in universe if a not in support]
    for a, b in itertools.combinations(free, 2):
        pi = Perm.swap(a, b)
        for e in elems:
            f = act(pi, e)
            if f in parent:
                ra, rb = find(e), find(f)
                if ra != rb:
                    parent[ra] = rb
    classes = {}
    for e in elems:
        classes.setdefault(find(e), []).append(e)
    return classes


def test_s_orbit_key_matches_partition_oracle():
    universe = list(range(5))
    for owner in (atoms_set(), strong_set([2]), unordered_pairs()):
        for support in ([], [0], [0, 1]):
            classes = s_orbit_oracle(owner, support, universe)
            for members in classes.values():
                keys = {s_orbit_key(e, support) for e in members}
                assert len(keys) == 1
            all_keys = {s_orbit_key(e, support) for c in classes.values() for e in c}
            assert len(all_keys) == len(classes)


def test_s_orbit_reps_counts():
    a = atoms_set()
    # [DERIVED] under S={s}: the orbit {s} and the orbit of fresh atoms
    assert len(s_orbit_reps(a, [3])) == 2
    # [DERIVED] A^{#2} under S={s}: (s,*), (*,s), (*,*) with * fresh
    assert len(s_orbit_reps(strong_set([2]), [3])) == 3
    # [DERIVED] A^(2) under S={s}: {s,*} and {*,*'}
    assert len(s_orbit_reps(unordered_pairs(), [3])) == 2


def test_instantiate_s_key_roundtrip():
    owner = strong_set([2])
    support = frozenset({4})
    for r in s_orbit_reps(owner, support):
        k = s_orbit_key(r, support)
        assert s_orbit_key(instantiate_s_key(owner, k, support), support) == k


def test_orbit_reps_one_per_orbit():
    owner = strong_set([0, 1, 2])
    reps = orbit_reps(owner)
    assert [r.orbit for r in reps] == [0, 1, 2]


# --- equivariant maps -----------------------------------------------------


def test_identity_and_compose():
    owner = strong_set([1, 2])
    i = identity_map(owner)
    assert compose_maps(i, i) == i
    x = Element(owner, 1, [8, 2])
    assert i(x) == x


def test_swap_components_map():
    a2 = strong_set([2])
    sw = EquivariantMap(a2, a2, [Assignment(0, (1, 0))])
    assert check_map_well_defined(sw).ok
    assert sw(Element(a2, 0, [4, 9])) == Element(a2, 0, [9, 4])


def test_map_from_concrete_rejects_a_value_in_another_set():
    sigma = atoms_set()
    with pytest.raises(InvalidInput, match="left the target set"):
        map_from_concrete(sigma, strong_set([0, 1]), lambda a: Element(sigma, 0, a.tuple))


def test_map_from_concrete_rejects_atoms_outside_the_argument():
    # one past the reference letter's atom 0
    sigma = atoms_set()
    with pytest.raises(InvalidInput, match=r"image atoms \(1,\) escape .* \(0,\)"):
        map_from_concrete(sigma, sigma, lambda a: Element(sigma, 0, (a.tuple[0] + 1,)))


def test_ill_defined_map_detected():
    # projecting an unordered pair to its first coordinate is not well defined
    p = unordered_pairs()
    f = EquivariantMap(p, atoms_set(), [Assignment(0, (0,))])
    report = check_map_well_defined(f)
    assert not report.ok
    assert report.failures


def test_map_equivariance_random():
    rng = random.Random(13)
    a2 = strong_set([2])
    sw = EquivariantMap(a2, a2, [Assignment(0, (1, 0))])
    for _ in range(50):
        x = Element(a2, 0, rng.sample(range(30), 2))
        pi = Perm.swap(*rng.sample(range(30), 2))
        assert sw(act(pi, x)) == act(pi, sw(x))


# --- products -------------------------------------------------------------


def concrete_pair_orbit_oracle(left, right, universe):
    """Partition concrete pairs over the universe by simultaneous renaming."""
    xs = elements_with_support(left, universe)
    ys = elements_with_support(right, universe)
    pairs = [(x, y) for x in xs for y in ys]
    parent = {p: p for p in pairs}

    def find(p):
        while parent[p] != p:
            p = parent[p]
        return p

    for a, b in itertools.combinations(universe, 2):
        pi = Perm.swap(a, b)
        for x, y in pairs:
            q = (act(pi, x), act(pi, y))
            if q in parent:
                ra, rb = find((x, y)), find(q)
                if ra != rb:
                    parent[ra] = rb
    classes = {}
    for p in pairs:
        classes.setdefault(find(p), []).append(p)
    return classes


@pytest.mark.parametrize(
    "left,right,expected",
    [
        # [DERIVED] A x A: diagonal and off-diagonal
        (atoms_set(), atoms_set(), 2),
        # [DERIVED] A^{#2} x A: third atom equal to first, second, or fresh
        (strong_set([2]), atoms_set(), 3),
        # [DERIVED] A^{#2} x A^{#2}: 4-point partial injection patterns
        (strong_set([2]), strong_set([2]), 7),
        (strong_set([0]), atoms_set(), 1),
    ],
)
def test_product_orbit_counts(left, right, expected):
    prod = product_set(left, right)
    assert len(prod.set.orbits) == expected
    # the oracle over a 6-atom universe sees every orbit exactly once
    universe = list(range(6))
    classes = concrete_pair_orbit_oracle(left, right, universe)
    keys = {prod.pair(x, y) for c in classes.values() for x, y in c[:1]}
    assert len(classes) == expected
    assert len({k.orbit for k in keys}) == expected


def test_pair_unpair_roundtrip():
    rng = random.Random(3)
    prod = product_set(strong_set([2]), unordered_pairs())
    for _ in range(60):
        x = Element(strong_set([2]), 0, rng.sample(range(12), 2))
        y = Element(unordered_pairs(), 0, rng.sample(range(12), 2))
        e = prod.pair(x, y)
        assert prod.components(e.orbit, e.tuple) == (x, y)
        assert prod.proj_left(e) == x
        assert prod.proj_right(e) == y


def test_pair_is_equivariant():
    rng = random.Random(11)
    prod = product_set(atoms_set(), strong_set([2]))
    for _ in range(60):
        x = Element(atoms_set(), 0, rng.sample(range(15), 1))
        y = Element(strong_set([2]), 0, rng.sample(range(15), 2))
        pi = Perm.swap(*rng.sample(range(15), 2))
        assert act(pi, prod.pair(x, y)) == prod.pair(act(pi, x), act(pi, y))


def test_product_projections_well_defined():
    for left, right in [
        (unordered_pairs(), atoms_set()),
        (strong_set([2]), unordered_pairs()),
    ]:
        prod = product_set(left, right)
        assert check_map_well_defined(prod.proj_left).ok
        assert check_map_well_defined(prod.proj_right).ok


# --- interned carriers and the product memo -------------------------------


def single_ticks(limit, used, n):
    """Where n single ticks from ``used`` stop: (used, exhausted)."""
    budget = Budget(limit)
    budget.used = used
    try:
        for _ in range(n):
            budget.tick()
    except BudgetExhausted:
        return budget.used, True
    return budget.used, False


def test_tick_n_stops_where_n_single_ticks_would():
    budget = Budget(5)
    budget.tick(3)
    with pytest.raises(BudgetExhausted):
        budget.tick(4)
    assert budget.used == 6
    for limit, used, n in itertools.product(range(4), range(7), range(5)):
        budget = Budget(limit)
        budget.used = used
        try:
            budget.tick(n)
            exhausted = False
        except BudgetExhausted:
            exhausted = True
        assert (budget.used, exhausted) == single_ticks(limit, used, n)


def test_equal_carriers_are_one_object():
    x = OrbitFiniteSet([OrbitDescriptor(2, [(1, 0)]), OrbitDescriptor(1)])
    assert OrbitFiniteSet([OrbitDescriptor(2, [(1, 0)]), OrbitDescriptor(1)]) is x
    assert copy.copy(x) is x
    assert copy.deepcopy(x) is x
    assert pickle.loads(pickle.dumps(x)) is x
    assert strong_set([1, 2]) is not strong_set([2, 1])


def test_the_alphabet_is_one_carrier():
    a = atoms_set()
    assert atoms_set() is a
    assert strong_set([1]) is a
    assert copy.copy(a) is a
    assert copy.deepcopy(a) is a
    assert pickle.loads(pickle.dumps(a)) is a


def test_repeated_atoms_are_refused_from_two_positions_on():
    with pytest.raises(InvalidInput):
        Element(strong_set([2]), 0, (3, 3))
    assert Element(strong_set([1]), 0, (3,)).tuple == (3,)
    assert Element(strong_set([0]), 0, ()).tuple == ()


def test_a_held_product_is_returned_with_its_ticks():
    x = strong_set([0, 1, 2])
    cold, warm = Budget(), Budget()
    prod = product_set(x, x, budget=cold)
    assert product_set(strong_set([0, 1, 2]), x, budget=warm) is prod
    assert warm.used == cold.used > 0


@pytest.mark.usefixtures("cold_products")
def test_trivial_group_products_need_no_relabeling(monkeypatch):
    # with G_x and G_y trivial, each tuple of s_orbit_keys is its key
    def searched(*args):
        raise AssertionError("a trivial-group product relabeled a tuple")

    monkeypatch.setattr(sets, "first_occurrence_labels", searched)
    x = strong_set([0, 1, 2])
    assert len(product_set(x, x).patterns) == 1 + 1 + 1 + 1 + 2 + 3 + 1 + 3 + 7


def test_the_weak_tables_keep_nothing_alive():
    orbits = (OrbitDescriptor(3, [(1, 2, 0)]), OrbitDescriptor(2))
    x = OrbitFiniteSet(orbits)
    prod = product_set(x, x)
    square = prod.set.orbits
    assert sets._CARRIERS[orbits] is x
    assert sets._PRODUCTS[x, x] is prod
    del x, prod
    gc.collect()
    assert orbits not in sets._CARRIERS
    assert square not in sets._CARRIERS
    assert all(left.orbits != orbits for left, _right in sets._PRODUCTS.keys())
