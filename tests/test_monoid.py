import itertools
import random
import time
from math import factorial
from unittest import mock

import pytest

from nommon.catalog import builder, catalog_names, letters_map
from nommon.errors import Budget, InvalidInput
from nommon.fssets import FsSubset
from nommon.language import catalog_language
from nommon.monoid import (
    Assignment,
    Congruence,
    EquivariantMap,
    NominalMonoid,
    check_omega_formula,
    closed_orbit_indices,
    coimage,
    compose_morphisms,
    enumerate_monoid_maps,
    enumerate_small_monoids,
    factorial_power_index,
    find_isomorphism,
    generating_orbits,
    is_aperiodic,
    identity_morphism,
    omega_power,
    power,
    product_monoid,
    quotient,
    submonoid_generated,
    validate_monoid,
    validate_morphism,
)
from nommon.perm import Perm
from nommon.sets import (
    Element,
    act,
    atoms_set,
    elements_with_support,
    orbit_reps,
    product_set,
)


ALL = [builder(name) for name in catalog_names()]


def random_element(rng, m, pool=range(6)):
    i = rng.randrange(len(m.carrier.orbits))
    d = m.carrier.orbits[i].dim
    return Element(m.carrier, i, rng.sample(list(pool), d))


# --- axioms ---------------------------------------------------------------


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_validates(name):
    assert validate_monoid(builder(name)).ok


@pytest.mark.parametrize("name", catalog_names())
def test_concrete_axioms_oracle(name):
    # associativity and unit laws on concrete triples over a 6-atom pool,
    # independent of the orbit-representative validation path
    m = builder(name)
    rng = random.Random(hash(name) % 10_000)
    for _ in range(80):
        x, y, z = (random_element(rng, m) for _ in range(3))
        assert m.multiply(m.multiply(x, y), z) == m.multiply(x, m.multiply(y, z))
        assert m.multiply(m.unit, x) == x
        assert m.multiply(x, m.unit) == x


@pytest.mark.parametrize("name", catalog_names())
def test_mult_equivariant(name):
    m = builder(name)
    rng = random.Random(len(name))
    for _ in range(40):
        x, y = random_element(rng, m), random_element(rng, m)
        pi = Perm.swap(*rng.sample(range(8), 2))
        assert act(pi, m.multiply(x, y)) == m.multiply(act(pi, x), act(pi, y))


def test_corrupted_table_fails_with_witness():
    m = builder("zero_adjoined")
    # redirect the a.b product orbit from 0 to the left letter
    broken = []
    for p, a in enumerate(m.mult.assignment):
        i, j = m.product.factors[p]
        if i == 1 and j == 1 and m.product.set.orbits[p].dim == 2:
            broken.append(Assignment(1, (a.posmap + (0,))[:1]))
        else:
            broken.append(a)
    bad = NominalMonoid(
        m.carrier,
        m.unit,
        EquivariantMap(m.product.set, m.carrier, broken),
        m.product,
    )
    report = validate_monoid(bad)
    assert not report.ok
    assert any(kind == "associativity" for kind, _ in report.failures)


# --- powers ---------------------------------------------------------------


def test_power_matches_repeated_multiplication():
    rng = random.Random(1)
    for m in ALL:
        x = random_element(rng, m)
        acc = m.unit
        for e in range(9):
            assert power(m, x, e) == acc
            acc = m.multiply(acc, x)


def test_power_large_exponent_cycle_reduction():
    z3 = builder("cyclic3")
    g = Element(z3.carrier, 1, ())
    assert power(z3, g, 10**30) == power(z3, g, 10**30 % 3)


def test_omega_power_idempotent_and_stable():
    rng = random.Random(2)
    for m in ALL:
        for x in orbit_reps(m.carrier) + [random_element(rng, m)]:
            w = omega_power(m, x)
            assert m.multiply(w, w) == w
            assert omega_power(m, w) == w


def test_omega_power_examples():
    c2 = builder("cutoff2")
    a = c2.encode_word((5,))
    assert omega_power(c2, a) == c2.encode_word((5, 5))
    z2 = builder("cyclic2")
    g = Element(z2.carrier, 1, ())
    assert omega_power(z2, g) == z2.unit


@pytest.mark.parametrize("name", catalog_names())
def test_omega_formula(name):
    assert check_omega_formula(builder(name))


def cycle_index(e, start, period):
    """Index of x^e in the powers x, x^2, ... of a cycle, for e >= 1."""
    if e <= start + period:
        return e - 1
    return start + (e - 1 - start) % period


CYCLES = [(0, 1), (0, 2), (3, 5), (2, 7), (1, 12), (0, 999_983), (4, 1_000_003)]


@pytest.mark.parametrize("start, period", CYCLES)
def test_factorial_power_index_small_arguments(start, period):
    for n in range(30):
        expected = cycle_index(factorial(n), start, period)
        assert factorial_power_index(n, start, period) == expected


@pytest.mark.parametrize("start, period", [(1, 12), (4, 1_000_003)])
def test_factorial_power_index_huge_argument(start, period):
    # x^(i!) = (x^((i-1)!))^i, stepped along the cycle one i at a time
    n = 10**6
    e = 1
    for i in range(2, n + 1):
        e = cycle_index(e * i, start, period) + 1
    began = time.perf_counter()
    got = factorial_power_index(n, start, period)
    assert time.perf_counter() - began < 1.0
    assert got == e - 1


def test_aperiodicity():
    expected = {name: True for name in catalog_names()}
    expected["cyclic2"] = expected["cyclic3"] = False
    for name in catalog_names():
        assert is_aperiodic(builder(name)) == expected[name]


# --- products and morphisms -----------------------------------------------


def test_product_with_trivial_is_isomorphic():
    m = builder("first_proj")
    pm = product_monoid(m, builder("trivial"))
    assert find_isomorphism(pm.monoid, m) is not None


def test_p1_times_p2_has_five_orbits():
    pm = product_monoid(builder("first_proj"), builder("last_proj"))
    assert len(pm.monoid.carrier.orbits) == 5
    assert validate_monoid(pm.monoid).ok
    assert validate_morphism(pm.proj1).ok
    assert validate_morphism(pm.proj2).ok


def test_product_charges_both_enumerations_to_the_caller():
    # X x Y, then the square of X x Y that its table is read off
    m, n = builder("barred"), builder("zero_adjoined")
    budget, pairs, square = Budget(), Budget(), Budget()
    pm = product_monoid(m, n, budget=budget)
    product_set(m.carrier, n.carrier, budget=pairs)
    product_set(pm.monoid.carrier, pm.monoid.carrier, budget=square)
    assert budget.used == pairs.used + square.used > pairs.used > 0


def test_identity_morphism_valid():
    for m in ALL[:4]:
        assert validate_morphism(identity_morphism(m)).ok


def test_p1_not_isomorphic_to_p2():
    assert find_isomorphism(builder("first_proj"), builder("last_proj")) is None


def test_monoids_and_morphisms_compare_by_value():
    a, b = builder("first_proj"), builder("first_proj")
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != builder("last_proj")
    assert identity_morphism(a) == identity_morphism(b)
    assert hash(identity_morphism(a)) == hash(identity_morphism(b))
    assert letters_map("first_proj", a) == letters_map("first_proj", b)


def test_morphisms_compose_only_on_equal_monoids():
    # first_proj and last_proj share their carrier, not their multiplication:
    # a carrier check let these through, and validate_morphism rejected the
    # composite
    p1 = identity_morphism(builder("first_proj"))
    p2 = identity_morphism(builder("last_proj"))
    assert p1.dom.carrier == p2.dom.carrier
    with pytest.raises(InvalidInput):
        compose_morphisms(p1, p2)
    # equal monoids held by different objects still compose
    composed = compose_morphisms(identity_morphism(builder("first_proj")), p1)
    assert validate_morphism(composed).ok


# --- submonoids and images ------------------------------------------------


def test_submonoid_empty_gens_is_unit_orbits():
    m = builder("first_proj")
    sub = submonoid_generated(m, [])
    assert sub.orbit_indices == (0,)
    assert validate_monoid(sub.monoid).ok


def test_submonoid_barred_closure_adds_bars():
    m = builder("barred")
    a = Element(m.carrier, 1, [4])
    sub = submonoid_generated(m, [a])
    # a.a lands in the barred-atoms orbit, so the closure picks it up
    assert sub.orbit_indices == (0, 1, 3)
    assert validate_morphism(sub.inclusion).ok


def test_submonoid_p1_generated_by_atom():
    m = builder("first_proj")
    sub = submonoid_generated(m, [Element(m.carrier, 1, [0])])
    assert sub.orbit_indices == (0, 1)


@pytest.mark.parametrize("name", ["l0", "first-a", "l2-any"])
def test_restrict_generator_map_onto_generated_submonoid(name):
    from nommon.language import catalog_language

    g = catalog_language(name).genmap
    g2, incl = coimage(g)
    letters = orbit_reps(g.sigma)
    for x in letters:
        assert incl(g2(x)) == g(x)
    closed = closed_orbit_indices(g.monoid, {g(x).orbit for x in letters})
    assert len(g2.monoid.carrier.orbits) == len(closed)


@pytest.mark.parametrize("name", ["l0", "first-a", "l2-any"])
def test_coimage_reads_the_ambient_table(name):
    # no fresh budget means nothing is enumerated off the caller's books
    g = catalog_language(name).genmap
    with mock.patch.object(Budget, "__init__", side_effect=AssertionError("Budget built")), \
            mock.patch.object(NominalMonoid, "multiply", side_effect=AssertionError("multiply")):
        g2, incl = coimage(g)
    assert validate_morphism(incl).ok
    assert validate_monoid(g2.monoid).ok


# --- congruences and quotients --------------------------------------------


def congruence(m, same_class):
    """The equivariant congruence whose classes ``same_class`` tells apart."""
    return Congruence(
        m,
        FsSubset.from_predicate(m.product.set, (), lambda e: same_class(*m.product.unpair(e))),
    )


def test_empty_congruence_quotient_isomorphic():
    m = builder("first_proj")
    cong = congruence(m, lambda x, y: x == y)
    q = quotient(m, cong)
    assert find_isomorphism(q.monoid, m) is not None


def test_collapse_atoms_in_p1():
    m = builder("first_proj")
    a = Element(m.carrier, 1, [0])
    cong = congruence(m, lambda x, y: x.orbit == y.orbit)
    assert cong.related(a, Element(m.carrier, 1, [7]))
    assert not cong.related(a, m.unit)
    q = quotient(m, cong)
    assert [d.dim for d in q.monoid.carrier.orbits] == [0, 0]
    assert validate_monoid(q.monoid).ok
    assert validate_morphism(q.projection).ok


def pair_zero_collapse(m):
    """The congruence generated by (a, b) ~ 0: pairs and 0 form one class."""
    return congruence(m, lambda x, y: x == y or {x.orbit, y.orbit} <= {2, 3})


def test_pair_zero_collapse_gives_zero_adjoined():
    m = builder("pair_zero")
    q = quotient(m, pair_zero_collapse(m))
    assert find_isomorphism(q.monoid, builder("zero_adjoined")) is not None


def test_quotient_projection_recovers_congruence():
    m = builder("pair_zero")
    cong = pair_zero_collapse(m)
    q = quotient(m, cong)
    rng = random.Random(8)
    for _ in range(60):
        x, y = random_element(rng, m), random_element(rng, m)
        assert (q.class_of(x) == q.class_of(y)) == cong.related(x, y)


def test_quotient_rejects_supported_congruence():
    m = builder("first_proj")
    a = Element(m.carrier, 1, [0])
    diag = [(x, x) for x in elements_with_support(m.carrier, range(3))]
    pairs = FsSubset.from_elements(
        m.product.set, {0}, [m.product.pair(x, y) for x, y in diag]
        + [m.product.pair(a, m.unit), m.product.pair(m.unit, a)]
    )
    if pairs.support:
        with pytest.raises(InvalidInput):
            quotient(m, Congruence(m, pairs))


# --- enumeration ----------------------------------------------------------


def test_enumerate_monoid_maps_counts():
    sigma = atoms_set()
    assert len(enumerate_monoid_maps(sigma, builder("trivial"))) == 1
    assert len(enumerate_monoid_maps(sigma, builder("first_proj"))) == 2
    assert len(enumerate_monoid_maps(sigma, builder("zero_adjoined"))) == 3


def small_monoid_oracle_count():
    """Concrete count of monoids on carriers 1, 1+1, 1+A (3 atoms),
    by brute force over equivariant unital tables."""
    total = 1  # trivial carrier

    # carrier {1, x}
    for xx in ("1", "x"):
        table = {("1", "1"): "1", ("1", "x"): "x", ("x", "1"): "x", ("x", "x"): xx}
        ok = all(
            table[(table[(p, q)], r)] == table[(p, table[(q, r)])]
            for p, q, r in itertools.product(("1", "x"), repeat=3)
        )
        total += 1 if ok else 0

    # carrier {1, a, b, c} with S_3 acting on {a,b,c}
    elems = ["1", "a", "b", "c"]
    atoms = ["a", "b", "c"]
    for aa in ("1", "a"):
        for ab in ("1", "a", "b"):
            table = {("1", e): e for e in elems}
            table.update({(e, "1"): e for e in elems})
            consistent = True
            for x, y in itertools.product(atoms, atoms):
                if x == y:
                    table[(x, y)] = "1" if aa == "1" else x
                else:
                    table[(x, y)] = {"1": "1", "a": x, "b": y}[ab]
            # equivariance holds by construction; check associativity
            for x, y, z in itertools.product(elems, repeat=3):
                if table[(table[(x, y)], z)] != table[(x, table[(y, z)])]:
                    consistent = False
                    break
            total += 1 if consistent else 0
    return total


def test_enumerate_small_monoids_matches_oracle():
    found = enumerate_small_monoids(2, 1)
    assert all(validate_monoid(m).ok for m in found)
    assert len(found) == small_monoid_oracle_count()
    # only the trivial monoid exists with one orbit
    assert len(enumerate_small_monoids(1, 1)) == 1


def generated_monoids():
    """Every catalog monoid, and the coimages syntactic_of_language takes
    for l0 and l2-any."""
    cases = [(name, builder(name)) for name in catalog_names()]
    for name in ("l0", "l2-any"):
        cases.append((name, coimage(catalog_language(name).genmap)[0].monoid))
    return cases


@pytest.mark.parametrize("name, m", generated_monoids())
def test_generating_orbits_are_a_least_generating_set(name, m):
    everything = frozenset(range(len(m.carrier.orbits)))
    gens = generating_orbits(m)
    assert closed_orbit_indices(m, gens) == everything
    for i in gens:
        assert closed_orbit_indices(m, gens - {i}) != everything
    # the closure always adds the unit orbit
    assert m.unit.orbit not in gens
