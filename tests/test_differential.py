"""Fast paths against the brute-force oracles in ``reference``."""

from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from nommon.catalog import builder, catalog_names
from nommon.errors import Budget
from nommon.fssets import FsSubset, _expand_keys, _normalize, preimage_subset
from nommon.kernel import min_coset
from nommon.language import catalog_language, syntactic_classes
from nommon.monoid import (
    NominalMonoid,
    coimage,
    enumerate_monoid_maps,
    find_isomorphism,
    monoid_from_concrete,
    product_monoid,
    validate_monoid,
    validate_morphism,
)
from nommon.sets import (
    Assignment,
    EquivariantMap,
    OrbitDescriptor,
    OrbitFiniteSet,
    check_map_well_defined,
    coset_breakers,
    elements_with_support,
    injective_tuples,
    instantiate_s_key,
    orbit_reps,
    orbit_tuples,
    pair_pattern,
    product_set,
    s_orbit_key,
    s_orbit_reps,
    strong_set,
)

DETERMINISTIC = dict(deadline=None, derandomize=True, database=None)

# position groups beyond the catalog's trivial ones: Z/2 on dim 2, C3 and
# S3 on dim 3, Z/2 x Z/2 on dim 4
SYMMETRIC = OrbitFiniteSet(
    [
        OrbitDescriptor(0),
        OrbitDescriptor(1),
        OrbitDescriptor(2),
        OrbitDescriptor(2, [(1, 0)]),
        OrbitDescriptor(3, [(1, 2, 0)]),
        OrbitDescriptor(3, [(1, 0, 2), (1, 2, 0)]),
        OrbitDescriptor(4, [(1, 0, 2, 3), (0, 1, 3, 2)]),
    ]
)
CARRIERS = [builder(name).carrier for name in catalog_names()] + [SYMMETRIC]


@st.composite
def elements(draw, owner, atoms=range(6)):
    """An element of ``owner`` over the given atoms."""
    fits = [i for i, o in enumerate(owner.orbits) if o.dim <= len(atoms)]
    i = draw(st.sampled_from(fits))
    dim = owner.orbits[i].dim
    tup = draw(st.permutations(list(atoms)))[:dim]
    return owner.element(i, tup)


@st.composite
def element_pairs(draw, carriers):
    owner = draw(st.sampled_from(carriers))
    return draw(elements(owner)), draw(elements(owner))


def check_pair(x, y):
    key, ren = pair_pattern(x, y)
    assert key == reference.pair_pattern(x, y)[0]
    # the returned relabeling attains the key
    assert min_coset(tuple(ren[a] for a in x.tuple), x.descriptor().group) == key[1]
    assert min_coset(tuple(ren[a] for a in y.tuple), y.descriptor().group) == key[3]
    assert sorted(ren.values()) == list(range(len(ren)))


@settings(max_examples=400, **DETERMINISTIC)
@given(element_pairs(CARRIERS))
def test_pair_pattern_matches_relabeling_search(pair):
    check_pair(*pair)


@settings(max_examples=400, **DETERMINISTIC)
@given(element_pairs([SYMMETRIC]))
def test_pair_pattern_matches_on_position_groups(pair):
    check_pair(*pair)


def test_pair_pattern_all_symmetric_orbit_pairs():
    # every orbit pair of the symmetric carrier, y sharing some of x's atoms
    for i, xd in enumerate(SYMMETRIC.orbits):
        x = SYMMETRIC.element(i, range(xd.dim))
        for j, yd in enumerate(SYMMETRIC.orbits):
            y = SYMMETRIC.element(j, [(a + 1) % 6 for a in range(yd.dim)][::-1])
            check_pair(x, y)


# --- S-orbit keys ---------------------------------------------------------


@settings(max_examples=500, **DETERMINISTIC)
@given(st.data())
def test_s_orbit_keys_match_the_tagged_encoding(data):
    # integer labels against the (0, atom) / (1, k) keys they replaced
    carrier = data.draw(st.sampled_from(CARRIERS))
    support = data.draw(st.sets(st.integers(0, 6), max_size=5))
    x = data.draw(elements(carrier, range(7)))
    y = data.draw(elements(carrier, range(7)))
    new_x, new_y = s_orbit_key(x, support), s_orbit_key(y, support)
    old_x = reference.tagged_s_orbit_key(x, support)
    old_y = reference.tagged_s_orbit_key(y, support)
    assert (new_x == new_y) == (old_x == old_y)
    assert (new_x < new_y) == (old_x < old_y)
    assert instantiate_s_key(carrier, new_x, support) == (
        reference.instantiate_tagged_key(carrier, old_x, support)
    )


def partition(classes):
    return {frozenset(c) for c in classes}


@pytest.mark.parametrize(
    "name, examples", [("l0_recognizer", 12), ("pair_zero", 16), ("cutoff2", 16)]
)
def test_syntactic_classes_match_signatures(name, examples):
    m = builder(name)
    reps = orbit_reps(m.carrier)
    # every orbit-union predicate has empty support, hence one pool
    contexts = reference.context_products(m, ())

    @settings(max_examples=examples, **DETERMINISTIC)
    @given(st.sets(st.sampled_from(range(len(reps)))))
    def check(orbits):
        p = FsSubset.from_elements(m.carrier, (), [reps[i] for i in orbits])
        assert partition(syntactic_classes(m, p)) == partition(
            reference.syntactic_classes(m, p, contexts)
        )

    check()


@settings(max_examples=8, **DETERMINISTIC)
@given(st.data())
def test_syntactic_classes_match_on_supported_predicates(data):
    m = builder(data.draw(st.sampled_from(["pair_zero", "cutoff2"])))
    x = data.draw(elements(m.carrier, atoms=range(3)))
    p = FsSubset.singleton(x)
    assert partition(syntactic_classes(m, p)) == partition(
        reference.syntactic_classes(m, p)
    )


def test_syntactic_classes_l2_any():
    # the restriction syntactic_of_language makes before the congruence
    lang = catalog_language("l2-any")
    g, incl = coimage(lang.genmap)
    p = preimage_subset(incl.map, lang.predicate)
    fast = syntactic_classes(g.monoid, p)
    assert partition(fast) == partition(reference.syntactic_classes(g.monoid, p))
    assert len(fast) > 1


def test_syntactic_classes_need_two_sided_contexts():
    # B2 with a unit: matrix units e_ij (e_ij e_kl = e_il if j = k, else 0),
    # all of empty support. e22 and 0 agree on every one-sided context
    # for p = {e11}, but e12 e22 e21 = e11 separates them.
    names = ["1", "e11", "e12", "e21", "e22", "0"]
    carrier = strong_set([0] * len(names))

    def mult(x, y):
        a, b = names[x.orbit], names[y.orbit]
        if a == "1" or b == "1":
            z = b if a == "1" else a
        elif a == "0" or b == "0" or a[2] != b[1]:
            z = "0"
        else:
            z = "e" + a[1] + b[2]
        return carrier.element(names.index(z), ())

    m = monoid_from_concrete(carrier, carrier.element(0, ()), mult)
    reps = orbit_reps(m.carrier)
    p = FsSubset.from_elements(m.carrier, (), [reps[1]])
    fast = partition(syntactic_classes(m, p))
    assert fast == partition(reference.syntactic_classes(m, p))
    assert not any(reps[4] in c and reps[5] in c for c in fast)


# carriers up to dim 3 with the Z/2, C3 and S3 position groups, together
# and one orbit at a time
SMALL_SYMMETRIC = OrbitFiniteSet(SYMMETRIC.orbits[:6])
SUPPORT_CARRIERS = [SMALL_SYMMETRIC] + [
    OrbitFiniteSet([o]) for o in SYMMETRIC.orbits[3:6]
]


@st.composite
def supported_subsets(draw):
    """(carrier, S, keys): a random union of T-orbits for some T inside
    S, written over S, so that every atom of S outside T can drop."""
    carrier = draw(st.sampled_from(SUPPORT_CARRIERS))
    support = draw(st.sets(st.integers(0, 5), max_size=3))
    inner = draw(st.sets(st.sampled_from(sorted(support)))) if support else set()
    reps = s_orbit_reps(carrier, inner)
    chosen = draw(st.sets(st.sampled_from(reps))) if reps else set()
    keys = {s_orbit_key(r, inner) for r in chosen}
    return carrier, frozenset(support), frozenset(
        _expand_keys(carrier, frozenset(inner), keys, frozenset(support))
    )


@settings(max_examples=300, **DETERMINISTIC)
@given(supported_subsets())
def test_normalize_matches_restart_loop(case):
    assert _normalize(*case) == reference.normalize(*case)


def test_normalize_drops_every_atom_of_the_full_subset():
    support = frozenset({0, 1, 2})
    carrier = SMALL_SYMMETRIC
    keys = frozenset(s_orbit_key(r, support) for r in s_orbit_reps(carrier, support))
    full = FsSubset(carrier, support, keys)
    assert full.support == frozenset()
    assert full == FsSubset.full(carrier)
    assert (full.support, full.keys) == reference.normalize(carrier, support, keys)


@pytest.mark.parametrize("orbit", [3, 4, 5])
def test_normalize_shrinks_singleton_to_its_support(orbit):
    x = SMALL_SYMMETRIC.element(orbit, range(SMALL_SYMMETRIC.orbits[orbit].dim))
    support = frozenset(x.tuple) | {5, 6}
    keys = frozenset({s_orbit_key(x, support)})
    u = FsSubset(SMALL_SYMMETRIC, support, keys)
    assert u == FsSubset.singleton(x)
    assert u.support == frozenset(x.tuple)
    assert (u.support, u.keys) == reference.normalize(SMALL_SYMMETRIC, support, keys)


# --- orbit enumeration ----------------------------------------------------


@settings(max_examples=300, **DETERMINISTIC)
@given(st.data())
def test_element_tuple_is_least_over_the_whole_group(data):
    # Element canonicalizes over the non-identity permutations only
    i = data.draw(st.sampled_from(range(len(SYMMETRIC.orbits))))
    group = SYMMETRIC.orbits[i].group
    raw = tuple(data.draw(st.permutations(range(6)))[: len(group[0])])
    least = min(tuple(raw[q] for q in p) for p in group)
    assert SYMMETRIC.element(i, raw).tuple == least


@pytest.mark.parametrize(
    "support, fresh, n",
    [((), (0, 1, 2), 3), ((0, 2), (1, 3), 2), ((4, 1, 5), (0, 2, 3), 3),
     ((0, 1, 2), (3, 4, 5, 6), 4), ((0, 1, 2), (3,), 2)],
)
def test_orbit_tuples_are_the_first_tuple_of_each_orbit(support, fresh, n):
    # Perm_S keeps exactly the S-atoms of a tuple and where they sit
    firsts = {}
    for t in injective_tuples(support + fresh, n):
        firsts.setdefault(tuple(a if a in support else None for a in t), t)
    assert list(orbit_tuples(support, fresh, n)) == list(firsts.values())


@settings(max_examples=300, **DETERMINISTIC)
@given(st.sampled_from(CARRIERS), st.sets(st.integers(0, 6), max_size=3))
def test_s_orbit_reps_match_the_tuple_sweep(carrier, support):
    # elements compare by orbit and canonical tuple
    fast, slow = Budget(), Budget()
    reps = s_orbit_reps(carrier, support, budget=fast)
    assert reps == reference.s_orbit_reps(carrier, support, budget=slow)
    assert fast.used <= slow.used


def test_product_orbits_match_the_tuple_sweep_on_every_carrier_pair():
    for left in CARRIERS:
        for right in CARRIERS:
            prod = product_set(left, right)
            groups = tuple(o.group for o in prod.set.orbits)
            assert (prod.patterns, prod.factors, groups) == reference.product_orbits(
                left, right
            )


LOW_BOUND = [n for n in catalog_names() if builder(n).carrier.bound <= 1]


@pytest.mark.parametrize("name", catalog_names())
def test_validate_matches_all_triples_on_the_catalog(name):
    assert validate_monoid(builder(name)).ok == reference.validate_monoid(builder(name)).ok


@pytest.mark.parametrize("left", LOW_BOUND)
def test_validate_matches_all_triples_on_bound_one_products(left):
    for right in LOW_BOUND:
        m = product_monoid(builder(left), builder(right)).monoid
        assert validate_monoid(m).ok == reference.validate_monoid(m).ok


def redirect(m, p, z):
    """m with the reference pair of product orbit p sent to z instead."""
    ref = m.product.set.element(p, range(m.product.set.orbits[p].dim))
    pos_of = {a: q for q, a in enumerate(ref.tuple)}
    table = list(m.mult.assignment)
    table[p] = Assignment(z.orbit, tuple(pos_of[a] for a in z.tuple))
    mult = EquivariantMap(m.product.set, m.carrier, table)
    return NominalMonoid(m.carrier, m.unit, mult, m.product)


@st.composite
def redirected_tables(draw):
    """A catalog monoid with one product orbit sent to another element
    supported by the orbit's atoms (possibly its own product)."""
    m = builder(draw(st.sampled_from(catalog_names())))
    p = draw(st.sampled_from(range(len(m.product.set.orbits))))
    atoms = range(m.product.set.orbits[p].dim)
    z = draw(st.sampled_from(elements_with_support(m.carrier, atoms)))
    return redirect(m, p, z)


@settings(max_examples=100, **DETERMINISTIC)
@given(redirected_tables())
def test_validate_matches_all_triples_on_corrupted_tables(m):
    assert validate_monoid(m).ok == reference.validate_monoid(m).ok


def test_validate_catches_unit_row_and_associativity_corruption():
    m = builder("zero_adjoined")  # orbits: unit, letters, zero
    factors = m.product.factors
    unit_row = factors.index((0, 1))
    bad = redirect(m, unit_row, m.carrier.element(2, ()))
    fast, slow = validate_monoid(bad), reference.validate_monoid(bad)
    assert not fast.ok and not slow.ok
    assert fast.failures[0] == slow.failures[0] == ("left-unit", bad.carrier.element(1, (0,)))
    # a.b for distinct letters sent to a instead of 0: the table of
    # acceptance criterion 1, with the same first witness
    distinct = next(
        p for p, f in enumerate(factors)
        if f == (1, 1) and m.product.set.orbits[p].dim == 2
    )
    bad = redirect(m, distinct, m.carrier.element(1, (0,)))
    fast, slow = validate_monoid(bad), reference.validate_monoid(bad)
    assert fast.failures[0][0] == "associativity"
    assert fast.failures[0] == slow.failures[0]


# --- coset test of a posmap -----------------------------------------------


def test_coset_breakers_match_the_definition_on_every_posmap():
    # g breaks the posmap iff no h in the target group gives
    # g . posmap = posmap . h
    for src, tgt in product(SYMMETRIC.orbits, repeat=2):
        for posmap in permutations(range(src.dim), tgt.dim):
            expected = [
                g for g in src.group
                if not any(
                    tuple(g[p] for p in posmap) == tuple(posmap[i] for i in h)
                    for h in tgt.group
                )
            ]
            assert coset_breakers(posmap, src.group, tgt.group) == expected


def null_monoid(orbit):
    """A unit, a zero and one more orbit, all of whose products are zero."""
    carrier = OrbitFiniteSet([OrbitDescriptor(0), OrbitDescriptor(0), orbit])
    unit, zero = carrier.element(0, ()), carrier.element(1, ())

    def mult(x, y):
        if x == unit:
            return y
        return x if y == unit else zero

    return monoid_from_concrete(carrier, unit, mult)


def test_generator_maps_from_a_symmetric_alphabet_are_the_well_defined_ones():
    # letters: atoms and unordered pairs of atoms
    sigma = OrbitFiniteSet([OrbitDescriptor(1), SYMMETRIC.orbits[3]])
    # a pair of letters cannot go to one atom or to an ordered pair, so
    # the group narrows the choices unless the only dim-2 orbit is unordered
    for m, narrows in (
        (builder("cutoff2"), True),
        (builder("pair_zero"), True),
        (null_monoid(SYMMETRIC.orbits[3]), False),
    ):
        choices = [
            {
                Assignment(j, min_coset(posmap, tgt.group))
                for j, tgt in enumerate(m.carrier.orbits)
                for posmap in permutations(range(src.dim), tgt.dim)
            }
            for src in sigma.orbits
        ]
        maps = [EquivariantMap(sigma, m.carrier, c) for c in product(*choices)]
        expected = {f for f in maps if check_map_well_defined(f).ok}
        found = [gm.h0 for gm in enumerate_monoid_maps(sigma, m)]
        assert len(found) == len(set(found))
        assert set(found) == expected
        assert (len(expected) < len(maps)) == narrows


@pytest.mark.parametrize("orbit", SYMMETRIC.orbits[3:])
def test_find_isomorphism_with_a_position_group(orbit):
    m = null_monoid(orbit)
    assert validate_monoid(m).ok
    iso = find_isomorphism(m, m)
    assert iso is not None and validate_morphism(iso).ok
    assert check_map_well_defined(iso.map).ok
    assert find_isomorphism(m, null_monoid(OrbitDescriptor(orbit.dim))) is None
