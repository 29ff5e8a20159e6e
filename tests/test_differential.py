"""Fast paths against the brute-force oracles in ``reference``."""

import copy
import re
from functools import lru_cache
from itertools import combinations, permutations, product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from nommon import bounds, language, sets
from nommon.bounds import (
    SupportBound,
    endpoints_bound,
    eq_msr_predicate,
    first_letter_bound,
    is_s_bounded,
    join,
    join_s_bounded,
)
from nommon.catalog import builder, catalog_names, letters_map
from nommon.errors import Budget, CapExceeded, InvalidInput
from nommon.fssets import (
    FsSubset,
    _coarsen,
    _normalize,
    _refine,
    fs_boolean,
    hull,
    preimage_subset,
)
from nommon.kernel import min_coset
from nommon.language import (
    Word,
    catalog_language,
    language_boolean,
    member,
    syntactic_congruence,
    syntactic_of_language,
)
from nommon.monoid import (
    GeneratorMap,
    NominalMonoid,
    _monoid_tables,
    closed_orbit_indices,
    coimage,
    componentwise_monoid,
    enumerate_monoid_maps,
    enumerate_small_monoids,
    find_isomorphism,
    generating_orbits,
    monoid_from_concrete,
    product_monoid,
    quotient,
    submonoid_from_orbits,
    validate_monoid,
    validate_morphism,
)
from nommon.perm import Perm
from nommon.prolimit import build_stage
from nommon.sets import (
    GROUP_CAP,
    Assignment,
    EquivariantMap,
    OrbitDescriptor,
    OrbitFiniteSet,
    ProductSet,
    act,
    atoms_set,
    check_map_well_defined,
    coset_breakers,
    elements_with_support,
    instantiate_s_key,
    orbit_reps,
    orbit_tuples,
    pair_pattern,
    pair_s_orbit_key,
    product_set,
    s_key_atoms,
    s_orbit_key,
    s_orbit_keys,
    s_orbit_reps,
    strong_set,
)
from nommon.textfmt import parse, serialize

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


def assert_congruence_matches(m, p, classes=None):
    """The congruence's pair set is the Moore oracle's, and ``related``
    agrees on E x E with the given partition of the context pool E
    (by default the Moore oracle's classes)."""
    cong = syntactic_congruence(m, p)
    assert cong.pairs == reference.syntactic_congruence(m, p).pairs
    if classes is None:
        classes = reference.moore_classes(m, p)
    class_of = {x: i for i, c in enumerate(classes) for x in c}
    for x in class_of:
        for y in class_of:
            assert reference.related(cong, x, y) == (class_of[x] == class_of[y]), (x, y)
    return cong


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
        assert_congruence_matches(m, p, reference.syntactic_classes(m, p, contexts))

    check()


@settings(max_examples=8, **DETERMINISTIC)
@given(st.data())
def test_syntactic_classes_match_on_supported_predicates(data):
    m = builder(data.draw(st.sampled_from(["pair_zero", "cutoff2"])))
    x = data.draw(elements(m.carrier, atoms=range(3)))
    assert_congruence_matches(m, FsSubset.singleton(x))


def test_syntactic_classes_l2_any():
    # the restriction syntactic_of_language makes before the congruence
    lang = catalog_language("l2-any")
    g, incl = coimage(lang.genmap)
    p = preimage_subset(incl.map, lang.predicate)
    cong = assert_congruence_matches(g.monoid, p)
    assert cong.pairs != fs_boolean("complement", FsSubset.empty(g.monoid.product.set))


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
    cong = assert_congruence_matches(m, p)
    assert not reference.related(cong, reps[4], reps[5])


# carriers up to dim 3 with the Z/2, C3 and S3 position groups, together
# and one orbit at a time
SMALL_SYMMETRIC = OrbitFiniteSet(SYMMETRIC.orbits[:6])
SUPPORT_CARRIERS = [SMALL_SYMMETRIC] + [
    OrbitFiniteSet([o]) for o in SYMMETRIC.orbits[3:6]
]


# the catalog carriers half the time, and otherwise SYMMETRIC or one of
# its orbits with a nontrivial position group alone, so that its keys
# make up the whole subset
GROUPED = [SYMMETRIC] + [
    OrbitFiniteSet([o]) for o in SYMMETRIC.orbits if len(o.group) > 1
]
FS_CARRIERS = st.sampled_from(CARRIERS) | st.sampled_from(GROUPED)


@st.composite
def supported_subsets(draw, carriers=st.sampled_from(SUPPORT_CARRIERS), atoms=6,
                      max_support=3):
    """(carrier, S, keys): a random union of T-orbits for some T inside
    S, written over S, so that every atom of S outside T can drop."""
    carrier = draw(carriers)
    support = draw(st.sets(st.integers(0, atoms - 1), max_size=max_support))
    inner = draw(st.sets(st.sampled_from(sorted(support)))) if support else set()
    reps = s_orbit_reps(carrier, inner)
    chosen = draw(st.sets(st.sampled_from(reps))) if reps else set()
    keys = {s_orbit_key(r, inner) for r in chosen}
    return carrier, frozenset(support), frozenset(
        reference._expand_keys(carrier, frozenset(inner), keys, frozenset(support))
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
    assert full == fs_boolean("complement", FsSubset.empty(carrier))
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


def keyed_subsets():
    """Subsets with 0-4 support atoms out of 8, on ``FS_CARRIERS``."""
    return supported_subsets(FS_CARRIERS, atoms=8, max_support=4)


def extensions(support):
    """0-3 atoms out of 8 outside the support."""
    return st.sets(st.sampled_from([a for a in range(8) if a not in support]), max_size=3)


@settings(max_examples=300, **DETERMINISTIC)
@given(st.data())
def test_refine_matches_the_sweep(data):
    carrier, support, keys = data.draw(keyed_subsets())
    larger = support | data.draw(extensions(support))
    assert _refine(carrier, keys, support, larger, Budget()) == (
        reference._expand_keys(carrier, support, keys, larger)
    )


@settings(max_examples=200, **DETERMINISTIC)
@given(keyed_subsets())
def test_complement_matches_the_sweep(case):
    u = FsSubset(*case)
    assert fs_boolean("complement", u) == reference.complement(u)


@settings(max_examples=200, **DETERMINISTIC)
@given(keyed_subsets())
def test_normalize_matches_restart_loop_on_every_carrier(case):
    assert _normalize(*case) == reference.normalize(*case)


@settings(max_examples=200, **DETERMINISTIC)
@given(st.data())
def test_hull_matches_the_sweep(data):
    carrier, support, keys = data.draw(keyed_subsets())
    u = FsSubset(carrier, support, keys)
    s = data.draw(st.sets(st.integers(0, 7), max_size=4))
    assert hull(s, u) == reference.hull(s, u)


# --- keys of one reading against the full search --------------------------

# trivial and nontrivial position groups side by side in dimensions 2 and 3
MIXED = OrbitFiniteSet(
    [
        OrbitDescriptor(1),
        OrbitDescriptor(2),
        OrbitDescriptor(2, [(1, 0)]),
        OrbitDescriptor(3, [(1, 2, 0)]),
        OrbitDescriptor(3),
    ]
)
ONE_READING_CARRIERS = CARRIERS + GROUPED + [MIXED]


def by_search(f, *args):
    """f(*args) with every key found by searching all readings."""
    with reference.keying_by_search():
        return f(*args)


@settings(max_examples=400, **DETERMINISTIC)
@given(st.data())
def test_s_orbit_key_matches_the_search(data):
    carrier = data.draw(st.sampled_from(ONE_READING_CARRIERS))
    support = frozenset(data.draw(st.sets(st.integers(0, 6), max_size=4)))
    x = data.draw(elements(carrier, range(7)))
    assert s_orbit_key(x, support) == by_search(s_orbit_key, x, support)


@settings(max_examples=100, **DETERMINISTIC)
@given(st.sampled_from(ONE_READING_CARRIERS), st.integers(0, 4))
def test_s_orbit_keys_match_the_search(carrier, n):
    # the keys are yielded lazily, so the search runs only while they are
    # drawn: draw them inside the patch, and check that it keyed each tuple
    searched = []

    def key_labels(*args):
        searched.append(args)
        return reference.key_labels_by_search(*args)

    fast, slow = Budget(), Budget()
    with reference.keying_by_search(), mock.patch.object(sets, "key_labels", key_labels):
        slow_keys = list(s_orbit_keys(carrier, n, slow))
    assert list(s_orbit_keys(carrier, n, fast)) == slow_keys
    assert len(searched) == slow.used == fast.used


@settings(max_examples=400, **DETERMINISTIC)
@given(element_pairs(ONE_READING_CARRIERS))
def test_pair_pattern_matches_the_search(pair):
    # the key and the relabeling that attains it
    assert pair_pattern(*pair) == by_search(pair_pattern, *pair)


@pytest.mark.usefixtures("cold_products")
def test_product_keys_match_the_search_on_every_carrier_pair():
    for left in ONE_READING_CARRIERS:
        for right in [MIXED, SMALL_SYMMETRIC] + CARRIERS[:-1]:
            fast = product_set(left, right)
            slow = by_search(product_set, left, right)
            assert fast is not slow
            assert (fast.patterns, fast.ticks) == (slow.patterns, slow.ticks)


def one_reading_subsets():
    """Subsets with 0-4 support atoms out of 8, on ``ONE_READING_CARRIERS``."""
    return supported_subsets(st.sampled_from(ONE_READING_CARRIERS), atoms=8, max_support=4)


@settings(max_examples=300, **DETERMINISTIC)
@given(st.data())
def test_refine_and_coarsen_match_the_search(data):
    carrier, support, keys = data.draw(one_reading_subsets())
    larger = support | data.draw(extensions(support))
    smaller = frozenset(data.draw(st.sets(st.sampled_from(sorted(support))))) if support else support
    for op, args in ((_refine, (carrier, keys, support, larger)),
                     (_coarsen, (carrier, keys, support, smaller))):
        fast, slow = Budget(), Budget()
        assert op(*args, fast) == by_search(op, *args, slow)
        assert fast.used == slow.used


@settings(max_examples=300, **DETERMINISTIC)
@given(one_reading_subsets())
def test_normalize_matches_the_search(case):
    fast, slow = Budget(), Budget()
    assert _normalize(*case, fast) == reference.normalize_by_search(*case, slow)
    assert fast.used == slow.used


@settings(max_examples=200, **DETERMINISTIC)
@given(st.data())
def test_hull_matches_the_search(data):
    u = FsSubset(*data.draw(one_reading_subsets()))
    s = data.draw(st.sets(st.integers(0, 7), max_size=4))
    fast, slow = Budget(), Budget()
    assert hull(s, u, fast) == by_search(hull, s, u, slow)
    assert fast.used == slow.used


@settings(max_examples=200, **DETERMINISTIC)
@given(st.data())
def test_stored_keys_are_their_own_keys_under_the_search(data):
    # refinement and the swap take an in-order trivial-group tuple as
    # its key, which holds only if every stored key is canonical
    carrier, support, keys = data.draw(one_reading_subsets())
    u = FsSubset(carrier, support, keys)
    xs = data.draw(st.lists(elements(carrier, range(8)), max_size=3))
    v = FsSubset.from_elements(carrier, support, xs)
    for w in (u, v, fs_boolean("union", u, v), fs_boolean("complement", u)):
        n = len(w.support)
        for orbit, labels in w.keys:
            desc = carrier.orbits[orbit]
            assert reference.key_labels_by_search(labels, desc, n, False) == labels


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
    for t in permutations(support + fresh, n):
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


@settings(max_examples=300, **DETERMINISTIC)
@given(st.data())
def test_s_orbit_reps_match_keying_every_element(data):
    carrier = data.draw(st.sampled_from(CARRIERS))
    support = data.draw(st.sets(st.integers(0, 6), max_size=4))
    orbits = data.draw(
        st.one_of(st.none(), st.sets(st.sampled_from(range(len(carrier.orbits)))).map(sorted))
    )
    fast, slow = Budget(), Budget()
    reps = s_orbit_reps(carrier, support, budget=fast, orbits=orbits)
    assert reps == reference.s_orbit_reps_keying_elements(
        carrier, support, budget=slow, orbits=orbits
    )
    assert fast.used == slow.used


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


def assert_light_test_matches(m):
    """validate_monoid finds the failures of the check over every z that
    have z in a generating orbit, in order, and charges what the
    unmemoized check over those z does."""
    gens = sorted(generating_orbits(m))
    everything = reference.validate_monoid_unmemoized(m).failures
    expected = tuple(
        (kind, w) for kind, w in everything
        if kind != "associativity" or w[2].orbit in gens
    )
    fast, slow = Budget(), Budget()
    report = validate_monoid(m, budget=fast)
    assert report.failures == expected
    assert report.ok == (not everything)
    reference.validate_monoid_unmemoized(m, budget=slow, z_orbits=gens)
    assert fast.used == slow.used


@pytest.mark.parametrize("left", LOW_BOUND)
def test_validate_memo_charges_like_the_unmemoized_path(left):
    for right in LOW_BOUND:
        assert_light_test_matches(product_monoid(builder(left), builder(right)).monoid)


def redirect(m, p, z):
    """m with the reference pair of product orbit p sent to z instead."""
    ref = m.product.set.element(p, range(m.product.set.orbits[p].dim))
    pos_of = {a: q for q, a in enumerate(ref.tuple)}
    table = list(m.mult.assignment)
    table[p] = Assignment(z.orbit, tuple(pos_of[a] for a in z.tuple))
    mult = EquivariantMap(m.product.set, m.carrier, table)
    return NominalMonoid(m.carrier, m.unit, mult, m.product)


@st.composite
def redirected_tables(draw, monoids):
    """One of the monoids with one product orbit sent to another element
    supported by the orbit's atoms (possibly its own product)."""
    m = draw(st.sampled_from(monoids))
    p = draw(st.sampled_from(range(len(m.product.set.orbits))))
    atoms = range(m.product.set.orbits[p].dim)
    z = draw(st.sampled_from(elements_with_support(m.carrier, atoms)))
    return redirect(m, p, z)


@settings(max_examples=100, **DETERMINISTIC)
@given(redirected_tables([builder(n) for n in catalog_names()]))
def test_validate_matches_all_triples_on_corrupted_tables(m):
    assert validate_monoid(m).ok == reference.validate_monoid(m).ok
    assert_light_test_matches(m)


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


# --- syntactic congruence on position-group carriers -------------------


def unordered_pair_zero():
    """1 + A + {A, A} + 0: a.b = {a, b} for a != b, and every other
    product of non-units is 0. The pairs form the Z/2 orbit of SYMMETRIC."""
    carrier = OrbitFiniteSet(
        [OrbitDescriptor(0), OrbitDescriptor(1), SYMMETRIC.orbits[3], OrbitDescriptor(0)]
    )
    unit, zero = carrier.element(0, ()), carrier.element(3, ())

    def mult(x, y):
        if x == unit:
            return y
        if y == unit:
            return x
        if x.orbit == y.orbit == 1 and x.tuple != y.tuple:
            return carrier.element(2, x.tuple + y.tuple)
        return zero

    return monoid_from_concrete(carrier, unit, mult)


# --- Light's associativity test and the multiply cache on position groups

# null monoids with a Z/2, C3, S3 or Z/2 x Z/2 orbit, and unordered pairs
POSITION_GROUP_MONOIDS = [null_monoid(o) for o in SYMMETRIC.orbits[3:]] + [
    unordered_pair_zero()
]


@pytest.mark.parametrize(
    "m", POSITION_GROUP_MONOIDS, ids=["Z2", "C3", "S3", "Z2xZ2", "pairs"]
)
def test_validate_light_test_on_position_groups(m):
    assert validate_monoid(m).ok
    assert_light_test_matches(m)


# the Z/2 x Z/2 null monoid is left out: its all-z oracle takes about a second
@settings(max_examples=60, **DETERMINISTIC)
@given(redirected_tables(POSITION_GROUP_MONOIDS[:3] + POSITION_GROUP_MONOIDS[4:]))
def test_validate_light_test_on_corrupted_position_group_tables(m):
    assert_light_test_matches(m)


@pytest.mark.parametrize("dims", [(0,), (0, 0), (0, 1)])
def test_validate_light_test_on_every_small_candidate_table(dims):
    # the tables enumerate_small_monoids(2, 1) checks
    carrier = strong_set(dims)
    unit = carrier.element(0, ())
    for prod, mult in _monoid_tables(carrier, unit, Budget()):
        try:
            m = NominalMonoid(carrier, unit, mult, prod)
        except InvalidInput:
            continue
        assert validate_monoid(m).ok == reference.validate_monoid(m).ok
        assert_light_test_matches(m)


@settings(max_examples=200, **DETERMINISTIC)
@given(st.data())
def test_multiply_is_the_table_on_equal_carriers(data):
    m = data.draw(st.sampled_from(POSITION_GROUP_MONOIDS))
    # the same carrier as a value, held by another object
    twin = OrbitFiniteSet(m.carrier.orbits)
    xs = [data.draw(elements(m.carrier, atoms=range(5))) for _ in range(2)]
    pairs = [xs, [twin.element(e.orbit, e.tuple) for e in xs]]
    if data.draw(st.booleans()):
        pairs.reverse()  # the twin's product fills the cache first
    for x, y in pairs:
        assert m.multiply(x, y) == m.mult(m.product.pair(x, y))


# --- equivariance of multiply, pair and unpair --------------------------


@st.composite
def perms(draw, atoms=range(8)):
    """A finite permutation of the atoms: a shuffle of them."""
    atoms = list(atoms)
    return Perm(dict(zip(atoms, draw(st.permutations(atoms)))))


# catalog monoids, and null monoids with a Z/2, C3, S3 or Z/2 x Z/2 orbit
EQUIVARIANCE_MONOIDS = [builder(n) for n in catalog_names()] + POSITION_GROUP_MONOIDS


@settings(max_examples=300, **DETERMINISTIC)
@given(st.sampled_from(EQUIVARIANCE_MONOIDS), st.data())
def test_multiply_pair_and_unpair_commute_with_atom_permutations(m, data):
    # elements over six atoms, moved by a shuffle of eight, so some atoms
    # leave the elements' pool
    x, y = (data.draw(elements(m.carrier)) for _ in range(2))
    e = data.draw(elements(m.product.set, atoms=range(8)))
    pi = data.draw(perms())
    px, py = act(pi, x), act(pi, y)
    assert act(pi, m.multiply(x, y)) == m.multiply(px, py)
    assert act(pi, m.product.pair(x, y)) == m.product.pair(px, py)
    pe = act(pi, e)
    assert m.product.components(pe.orbit, pe.tuple) == tuple(
        act(pi, c) for c in m.product.components(e.orbit, e.tuple)
    )


# monoids with a Z/2 orbit, and catalog monoids; bound at most 2, since
# the oracle's context pool grows with 4k fresh atoms
SYNTACTIC_MONOIDS = [unordered_pair_zero(), null_monoid(SYMMETRIC.orbits[3])] + [
    builder(n) for n in ("pair_zero", "cutoff2", "barred", "first_proj", "cyclic3")
]


@settings(max_examples=40, **DETERMINISTIC)
@given(st.data())
def test_syntactic_congruence_matches_on_supported_predicates(data):
    # p is a union of Perm_S-orbits for some S of at most two atoms
    m = data.draw(st.sampled_from(SYNTACTIC_MONOIDS))
    support = data.draw(st.sets(st.integers(0, 2), max_size=2))
    xs = data.draw(st.lists(elements(m.carrier, atoms=range(4)), max_size=3))
    assert_congruence_matches(m, FsSubset.from_elements(m.carrier, support, xs))


def test_syntactic_congruence_on_unordered_pairs():
    # p = {{0, 1}}: a and b are congruent iff they are the same letter
    # or both outside {0, 1}; the congruence has the support {0, 1}
    m = unordered_pair_zero()
    p = FsSubset.singleton(m.carrier.element(2, (1, 0)))
    cong = assert_congruence_matches(m, p)
    assert cong.pairs.support == frozenset({0, 1})
    letter = lambda a: m.carrier.element(1, (a,))  # noqa: E731
    assert reference.related(cong, letter(2), letter(3))
    assert not reference.related(cong, letter(0), letter(1))
    assert not reference.related(cong, letter(0), letter(2))


# --- quotients read off the kept product orbits ---------------------------

# the syntactic congruence of every orbit-union predicate is equivariant;
# over these 18 monoids that makes 210 congruences
QUOTIENT_MONOIDS = {
    **dict(
        zip(
            ["pairs", "Z2", "pair_zero", "cutoff2", "barred", "first_proj", "cyclic3"],
            SYNTACTIC_MONOIDS,
        )
    ),
    **dict(zip(["Z2", "C3", "S3", "Z2xZ2", "pairs"], POSITION_GROUP_MONOIDS)),
    **{
        f"{name}-coimage": coimage(catalog_language(name).genmap)[0].monoid
        for name in ("l0", "l2-any")
    },
    **{
        name: builder(name)
        for name in ("cutoff1", "cyclic2", "last_proj", "trivial", "zero_adjoined", "l0_recognizer")
    },
}


def orbit_unions(m):
    """Every union of carrier orbits, as an FsSubset of empty support."""
    everything = [(i, tuple(range(o.dim))) for i, o in enumerate(m.carrier.orbits)]
    for k in range(len(everything) + 1):
        for keys in combinations(everything, k):
            yield FsSubset(m.carrier, (), keys)


@pytest.mark.parametrize("name", sorted(QUOTIENT_MONOIDS))
def test_quotient_matches_the_search_over_earlier_classes(name):
    m = QUOTIENT_MONOIDS[name]
    for p in orbit_unions(m):
        cong = syntactic_congruence(m, p)
        assert not cong.pairs.support
        fast, slow = Budget(), Budget()
        q = quotient(m, cong, budget=fast)
        old = reference.quotient(m, cong, budget=slow)
        assert q.monoid == old.monoid
        assert q.projection.map == old.projection.map
        # only the least related orbit is aligned against
        assert 0 < fast.used <= slow.used


@pytest.mark.parametrize("name", sorted(QUOTIENT_MONOIDS))
def test_quotient_charges_its_orbits_and_its_square_only(name):
    # one tick per carrier orbit, then the table over the quotient's own
    # square: nothing is searched
    m = QUOTIENT_MONOIDS[name]
    for p in orbit_unions(m):
        cong = syntactic_congruence(m, p)
        budget, square = Budget(), Budget()
        q = quotient(m, cong, budget=budget)
        product_set(q.monoid.carrier, q.monoid.carrier, budget=square)
        assert budget.used == len(m.carrier.orbits) + square.used


def test_quotient_rejects_a_supported_congruence_like_the_reference():
    m = unordered_pair_zero()
    cong = syntactic_congruence(m, FsSubset.singleton(m.carrier.element(2, (1, 0))))
    assert cong.pairs.support
    for quotient_of in (quotient, reference.quotient):
        with pytest.raises(InvalidInput):
            quotient_of(m, cong)


# --- pairing images: s-boundedness and joins ------------------------------

LETTER_MAPS = (
    "barred",
    "cutoff1",
    "cutoff2",
    "first_proj",
    "l0_recognizer",
    "last_proj",
    "pair_zero",
    "trivial",
    "zero_adjoined",
)
BOUNDS = {
    "first-letter": first_letter_bound,
    "endpoints": endpoints_bound,
    "constant": lambda: SupportBound.constant(()),
}


def check_text(m):
    """serialize writes what the concrete-pair writer does, and parse
    reads back the monoid that the first-occurrence reader does."""
    text = serialize({"M": m})
    assert text == reference.serialize_monoid("M", m)
    back = parse(text)["M"]
    assert back == reference.parse_monoid(text) == m
    assert back.product.patterns == m.product.patterns


def check_join(h1, h2, s):
    """join_s_bounded and is_s_bounded against the full-product oracle,
    plus a text round trip of the join, also against the reference."""
    jn = join_s_bounded(h1, h2, s)
    old = reference.join_s_bounded(h1, h2, s)
    assert jn.monoid == old.monoid
    assert jn.genmap == old.genmap
    assert (jn.left, jn.right) == (old.left, old.right)
    assert (jn.bound_report.ok, jn.bound_report.witness) == (
        old.bound_report.ok, old.bound_report.witness
    )
    for h in (h1, h2):
        rep, old_rep = is_s_bounded(h, s), reference.is_s_bounded(h, s)
        assert (rep.ok, rep.witness) == (old_rep.ok, old_rep.witness)
    doc = {"J": jn.monoid, "A": h1.monoid}
    if h2.monoid is not h1.monoid:
        doc["B"] = h2.monoid
    doc.update(left=jn.left, right=jn.right)
    text = serialize(doc)
    back = parse(text)
    assert back["J"] == jn.monoid
    assert (back["left"].map, back["right"].map) == (jn.left.map, jn.right.map)
    assert serialize(back) == text
    check_text(jn.monoid)


@pytest.mark.parametrize("bound", sorted(BOUNDS))
@pytest.mark.parametrize("left", LETTER_MAPS)
def test_join_matches_the_full_product_on_catalog_letter_maps(left, bound):
    s = BOUNDS[bound]()
    for right in LETTER_MAPS:
        check_join(letters_map(left), letters_map(right), s)


def check_letter_closure(h1, h2):
    """The closure over the letters' pair patterns reaches the orbits
    the all-pairs closure does, with no more multiply-outs."""
    fast, slow = Budget(), Budget()
    pairs = bounds._pairing_image(h1, h2, fast)
    assert pairs.patterns == reference.pairing_image_all_pairs(h1, h2, slow).patterns
    assert fast.used <= slow.used


@pytest.mark.parametrize("left", LETTER_MAPS)
def test_letter_closure_matches_the_all_pairs_closure(left):
    h1 = letters_map(left)
    for right in LETTER_MAPS:
        check_letter_closure(h1, letters_map(right))
    for bound in (first_letter_bound, endpoints_bound):
        check_letter_closure(h1, bound().data)


@pytest.mark.parametrize("name", LETTER_MAPS)
def test_constant_bounds_read_the_closed_orbits(name):
    # same witness and same ticks as the walk over the generated submonoid
    h = letters_map(name)
    for atoms in ((), (0,)):
        s = SupportBound.constant(atoms)
        fast, slow = Budget(), Budget()
        rep = is_s_bounded(h, s, budget=fast)
        old = reference.is_s_bounded(h, s, budget=slow)
        assert (rep.ok, rep.witness) == (old.ok, old.witness)
        assert fast.used == slow.used > 0


# a letter orbit of each position group, beside the atoms
SYMMETRIC_ALPHABETS = {
    k: OrbitFiniteSet([OrbitDescriptor(1), SYMMETRIC.orbits[k]]) for k in (3, 4, 5, 6)
}


def test_letter_closure_matches_the_all_pairs_closure_on_unordered_pair_letters():
    # a letter {a, b} sent to unordered pairs on both sides gives a letter
    # pair whose stabilizer swaps a and b: its two tuples one swap apart
    # are one pair, multiplied out once
    sigma = SYMMETRIC_ALPHABETS[3]
    monoids = [null_monoid(SYMMETRIC.orbits[3]), unordered_pair_zero()]
    stabilized = 0
    for m1, m2 in product(monoids, repeat=2):
        for h1, h2 in product(enumerate_monoid_maps(sigma, m1), enumerate_monoid_maps(sigma, m2)):
            letters = dict.fromkeys(pair_pattern(h1(x), h2(x))[0] for x in orbit_reps(sigma))
            stabilized += any(o.moves for o in ProductSet(m1.carrier, m2.carrier, letters).set.orbits)
            check_letter_closure(h1, h2)
    assert stabilized


@settings(max_examples=60, **DETERMINISTIC)
@given(st.data())
def test_join_matches_the_full_product_on_position_groups(data):
    k = data.draw(st.sampled_from(sorted(SYMMETRIC_ALPHABETS)))
    sigma = SYMMETRIC_ALPHABETS[k]
    monoids = [null_monoid(SYMMETRIC.orbits[k])]
    if k == 3:
        monoids.append(unordered_pair_zero())
    m1, m2, m0 = (data.draw(st.sampled_from(monoids)) for _ in range(3))
    h1 = data.draw(st.sampled_from(enumerate_monoid_maps(sigma, m1)))
    h2 = data.draw(st.sampled_from(enumerate_monoid_maps(sigma, m2)))
    s = data.draw(
        st.one_of(
            st.builds(SupportBound.via_morphism, st.sampled_from(enumerate_monoid_maps(sigma, m0))),
            st.sampled_from([SupportBound.constant(()), SupportBound.constant((0, 1))]),
        )
    )
    check_join(h1, h2, s)


def test_product_orbits_come_in_sorted_key_order():
    # the ordering lemma on ProductSet, on every carrier pair and on
    # products with a product carrier as a factor
    for left in CARRIERS:
        for right in CARRIERS:
            patterns = product_set(left, right).patterns
            assert list(patterns) == sorted(patterns)
    second = [
        product_set(SYMMETRIC, SYMMETRIC).set,
        product_set(builder("barred").carrier, SYMMETRIC).set,
    ]
    for left, name in product(second, LOW_BOUND):
        right = builder(name).carrier
        for x, y in ((left, right), (right, left)):
            patterns = product_set(x, y).patterns
            assert list(patterns) == sorted(patterns)
    patterns = product_set(second[1], SYMMETRIC).patterns
    assert list(patterns) == sorted(patterns)


def one_product_monoid(left_first):
    """1 + A + B + c + 0 with two letter orbits A and B: a.b = c for a in
    A and b in B if left_first, else b.a = c; every other product of
    non-units is 0. Only one order of the two generator orbits reaches c."""
    atoms = OrbitDescriptor(1)
    carrier = OrbitFiniteSet(
        [OrbitDescriptor(0), atoms, atoms, OrbitDescriptor(0), OrbitDescriptor(0)]
    )
    unit, c, zero = (carrier.element(i, ()) for i in (0, 3, 4))
    first, second = (1, 2) if left_first else (2, 1)

    def mult(x, y):
        if x == unit:
            return y
        if y == unit:
            return x
        return c if (x.orbit, y.orbit) == (first, second) else zero

    return monoid_from_concrete(carrier, unit, mult)


@pytest.mark.parametrize("left_first", [True, False])
def test_join_matches_the_full_product_on_one_sided_products(left_first):
    # the pairing image must multiply every ordered pair of orbits: the
    # orbit of c is reached by one order only
    m = one_product_monoid(left_first)
    assert validate_monoid(m).ok
    sigma = OrbitFiniteSet([OrbitDescriptor(1), OrbitDescriptor(1)])
    h = GeneratorMap(
        sigma, m, EquivariantMap(sigma, m.carrier, [Assignment(1, (0,)), Assignment(2, (0,))])
    )
    for other in enumerate_monoid_maps(sigma, m):
        for s in (SupportBound.constant(()), SupportBound.via_morphism(other)):
            check_join(h, other, s)
            check_join(other, h, s)


# --- joins in place of full product monoids -------------------------------

LANGUAGES = ("first-a", "last-a", "l0", "l2-fixed", "l2-any")
# every word of length <= 5 over the atoms 0, 1, 2
WORDS = [Word.of_atoms(t) for n in range(6) for t in product(range(3), repeat=n)]
# for any two of these languages the square of the full product has more
# than ORBIT_CAP orbits, so no full-product recognizer can be built
WIDE = {"l0", "l2-fixed", "l2-any"}
BINARY = {
    "union": lambda a, b: a or b,
    "intersect": lambda a, b: a and b,
    "difference": lambda a, b: a and not b,
}


@pytest.mark.parametrize("name", ["l2-fixed", "l2-any"])
def test_l2_joins_recognize_what_the_full_products_do(name):
    lang, old = catalog_language(name), reference.l2_language(name)
    assert len(lang.genmap.monoid.carrier.orbits) == 4
    assert len(old.genmap.monoid.carrier.orbits) == 15
    for w in WORDS:
        assert member(lang, w) == member(old, w)


def test_l2_joins_have_the_syntactic_monoids_of_the_full_products():
    syn = syntactic_of_language(catalog_language("l2-any"))[1].monoid
    old = syntactic_of_language(reference.l2_language("l2-any"))[1].monoid
    assert find_isomorphism(syn, old) is not None
    # l2-fixed is not equivariant, so neither recognizer has a quotient
    for lang in (catalog_language("l2-fixed"), reference.l2_language("l2-fixed")):
        with pytest.raises(InvalidInput):
            syntactic_of_language(lang)


@pytest.mark.parametrize("op", sorted(BINARY))
@pytest.mark.parametrize("left", LANGUAGES)
def test_boolean_joins_recognize_what_the_full_products_do(op, left):
    l1 = catalog_language(left)
    for right in LANGUAGES:
        l2 = catalog_language(right)
        lang = language_boolean(op, l1, l2)
        if {left, right} <= WIDE:
            with pytest.raises(CapExceeded):
                reference.language_boolean(op, l1, l2)
            old = None
        else:
            old = reference.language_boolean(op, l1, l2)
        for w in WORDS:
            expected = BINARY[op](member(l1, w), member(l2, w))
            assert member(lang, w) == expected
            if old is not None:
                assert member(old, w) == expected


@pytest.mark.parametrize("name", LANGUAGES)
def test_complements_match_the_reference(name):
    lang = catalog_language(name)
    comp = language_boolean("complement", lang)
    old = reference.language_boolean("complement", lang)
    for w in WORDS:
        assert member(comp, w) == member(old, w) == (not member(lang, w))


@pytest.mark.parametrize("name", LETTER_MAPS + LANGUAGES)
def test_endpoints_join_bounds_what_the_full_product_bounds(name):
    h = letters_map(name) if name in LETTER_MAPS else catalog_language(name).genmap
    s, old = endpoints_bound(), reference.endpoints_bound()
    assert len(s.data.monoid.carrier.orbits) == 3
    assert len(old.data.monoid.carrier.orbits) == 5
    rep, old_rep = is_s_bounded(h, s), is_s_bounded(h, old)
    assert rep.ok == old_rep.ok
    if not rep.ok:
        # the witness's bound side lives in the bound's own monoid
        assert rep.witness[0] == old_rep.witness[0]


def test_stages_serialize_as_over_the_full_products():
    def genmap(name, old):
        if old and name.startswith("l2"):
            return reference.l2_language(name).genmap
        return catalog_language(name).genmap

    sigma = atoms_set()
    for n in range(1, len(LANGUAGES) + 1):
        for names in combinations(LANGUAGES, n):
            stage = build_stage(
                sigma, endpoints_bound(), [genmap(x, False) for x in names]
            )
            old = build_stage(
                sigma, reference.endpoints_bound(), [genmap(x, True) for x in names]
            )
            assert serialize({"M": stage.monoid}) == serialize({"M": old.monoid})
            check_text(stage.monoid)


@pytest.mark.parametrize("bound", ["endpoints", "first-letter"])
def test_every_stage_join_is_s_bounded(bound):
    # the oracle for the joins build_stage no longer checks: a stage exists
    # exactly when its quotients are s-bounded, and then so is its join
    sigma, s = atoms_set(), BOUNDS[bound]()
    for n in range(1, len(LANGUAGES) + 1):
        for names in combinations(LANGUAGES, n):
            qs = [catalog_language(x).genmap for x in names]
            if not all(is_s_bounded(q, s).ok for q in qs):
                with pytest.raises(InvalidInput):
                    build_stage(sigma, s, qs)
                continue
            stage = build_stage(sigma, s, qs)
            assert is_s_bounded(stage.join, stage.bound).ok


# --- properties of join ---------------------------------------------------


@lru_cache(maxsize=None)
def symmetric_maps(k):
    """Every generator map from SYMMETRIC_ALPHABETS[k] into a monoid with
    the k-th orbit of SYMMETRIC (Z/2, C3, S3 or Z/2 x Z/2)."""
    sigma = SYMMETRIC_ALPHABETS[k]
    monoids = [null_monoid(SYMMETRIC.orbits[k])]
    if k == 3:
        monoids.append(unordered_pair_zero())
    return [h for m in monoids for h in enumerate_monoid_maps(sigma, m)]


@lru_cache(maxsize=None)
def short_words(sigma):
    """Every word of length <= 3 over the letters with support in 0..d-1,
    d the largest letter dimension."""
    d = max(o.dim for o in sigma.orbits)
    letters = elements_with_support(sigma, range(d))
    return [w for n in range(4) for w in product(letters, repeat=n)]


@st.composite
def map_pairs(draw):
    """Two generator maps on one alphabet: catalog letter maps, or maps
    into monoids with a position-group orbit."""
    if draw(st.booleans()):
        return tuple(letters_map(draw(st.sampled_from(LETTER_MAPS))) for _ in range(2))
    maps = symmetric_maps(draw(st.sampled_from(sorted(SYMMETRIC_ALPHABETS))))
    return draw(st.sampled_from(maps)), draw(st.sampled_from(maps))


# BOUNDS' constant bound is the empty set; the lemma also runs on {0}
LEMMA_BOUNDS = {**BOUNDS, "constant:0": lambda: SupportBound.constant((0,))}


def check_join_bound_lemma(h1, h2, s):
    """supp (h1(w), h2(w)) = supp h1(w) + supp h2(w), so the join is
    s-bounded exactly when both maps are."""
    both = is_s_bounded(h1, s).ok and is_s_bounded(h2, s).ok
    assert join_s_bounded(h1, h2, s).bound_report.ok == both


@pytest.mark.parametrize("bound", sorted(LEMMA_BOUNDS))
def test_a_join_is_s_bounded_iff_both_maps_are_on_catalog_letter_maps(bound):
    s = LEMMA_BOUNDS[bound]()
    for left in LETTER_MAPS:
        for right in LETTER_MAPS:
            check_join_bound_lemma(letters_map(left), letters_map(right), s)


@settings(max_examples=60, **DETERMINISTIC)
@given(st.data())
def test_a_join_is_s_bounded_iff_both_maps_are_on_position_groups(data):
    maps = symmetric_maps(data.draw(st.sampled_from(sorted(SYMMETRIC_ALPHABETS))))
    h1, h2, h0 = (data.draw(st.sampled_from(maps)) for _ in range(3))
    s = data.draw(
        st.sampled_from(
            [SupportBound.via_morphism(h0), SupportBound.constant(()), SupportBound.constant((0,))]
        )
    )
    check_join_bound_lemma(h1, h2, s)


@settings(max_examples=40, **DETERMINISTIC)
@given(map_pairs())
def test_join_with_itself_is_the_coimage(maps):
    h = maps[0]
    assert find_isomorphism(join(h, h).monoid, coimage(h)[0].monoid) is not None


@settings(max_examples=40, **DETERMINISTIC)
@given(map_pairs())
def test_join_is_symmetric_up_to_isomorphism(maps):
    h1, h2 = maps
    assert find_isomorphism(join(h1, h2).monoid, join(h2, h1).monoid) is not None


@settings(max_examples=40, **DETERMINISTIC)
@given(map_pairs())
def test_join_evaluates_to_the_pair_of_evaluations(maps):
    h1, h2 = maps
    jn = join(h1, h2)
    assert jn.bound_report is None
    for w in short_words(h1.sigma):
        value = jn.genmap.eval_word(w)
        pair = (h1.eval_word(w), h2.eval_word(w))
        assert jn.pairs.components(value.orbit, value.tuple) == pair
        assert (jn.left(value), jn.right(value)) == pair


@settings(max_examples=40, **DETERMINISTIC)
@given(map_pairs())
def test_letter_closure_matches_the_all_pairs_closure_on_position_groups(maps):
    check_letter_closure(*maps)


@settings(max_examples=40, **DETERMINISTIC)
@given(map_pairs())
def test_join_raises_past_the_orbit_cap(maps):
    h1, h2 = maps
    reached = len(join(h1, h2).monoid.carrier.orbits)
    with mock.patch.object(bounds, "ORBIT_CAP", reached):
        join(h1, h2)
    with mock.patch.object(bounds, "ORBIT_CAP", reached - 1):
        with pytest.raises(CapExceeded):
            join(h1, h2)


# --- submonoids read off the ambient table --------------------------------

SUBMONOID_AMBIENTS = (
    [builder(name) for name in catalog_names()]
    + [catalog_language(name).genmap.monoid for name in ("l0", "first-a", "last-a", "l2-fixed", "l2-any")]
    + [null_monoid(SYMMETRIC.orbits[k]) for k in sorted(SYMMETRIC_ALPHABETS)]
    + [unordered_pair_zero()]
)
SYMMETRIC_PRODUCT = product_monoid(unordered_pair_zero(), null_monoid(SYMMETRIC.orbits[3])).monoid


def check_submonoid(m, indices):
    """submonoid_from_orbits against the concrete path: the same
    monoid, product keys in the same order, inclusion and restriction,
    or the same InvalidInput."""
    try:
        want = reference.submonoid_from_orbits(m, indices)
    except InvalidInput as exc:
        with pytest.raises(InvalidInput, match=re.escape(str(exc))):
            submonoid_from_orbits(m, indices)
        return
    got = submonoid_from_orbits(m, indices)
    assert got.monoid == want.monoid
    assert got.monoid.product.patterns == want.monoid.product.patterns
    assert got.inclusion == want.inclusion
    assert got.orbit_indices == want.orbit_indices
    for x in orbit_reps(m.carrier):
        if x.orbit in got.orbit_indices:
            assert got.restrict(x) == want.restrict(x)
            assert got.inclusion(got.restrict(x)) == x


def test_submonoid_matches_the_concrete_path_on_every_closed_orbit_set():
    checked = 0
    for m in SUBMONOID_AMBIENTS:
        n = len(m.carrier.orbits)
        for r in range(1, n + 1):
            for indices in combinations(range(n), r):
                if closed_orbit_indices(m, indices) == frozenset(indices):
                    check_submonoid(m, indices)
                    checked += 1
    assert checked == 61


@settings(max_examples=150, **DETERMINISTIC)
@given(st.data())
def test_submonoid_matches_the_concrete_path_on_any_orbit_set(data):
    # most orbit sets are not multiplication-closed or miss the unit;
    # the product of two position-group monoids has 15 orbits
    m = data.draw(st.sampled_from(SUBMONOID_AMBIENTS + [SYMMETRIC_PRODUCT]))
    indices = data.draw(st.sets(st.sampled_from(range(len(m.carrier.orbits)))))
    if data.draw(st.booleans()):
        indices = closed_orbit_indices(m, indices)
    check_submonoid(m, indices)


# --- monoid tables read off the product keys ------------------------------

TABLE_MONOIDS = [builder(n) for n in catalog_names()] + POSITION_GROUP_MONOIDS


def check_table(m):
    """monoid_from_concrete reads m's table off the keys of its square
    as the unpairing path does, on the same ticks, and the keys are
    those of the element sweep."""
    fast, slow = Budget(), Budget()
    got = monoid_from_concrete(m.carrier, m.unit, m.multiply, budget=fast)
    want = reference.monoid_by_unpairing(m.carrier, m.unit, m.multiply, budget=slow)
    assert got.product.patterns == reference.product_orbits(m.carrier, m.carrier)[0]
    assert got.product.patterns == want.product.patterns
    assert got.mult.assignment == want.mult.assignment == m.mult.assignment
    assert fast.used == slow.used


@pytest.mark.usefixtures("cold_products")
@pytest.mark.parametrize("m", TABLE_MONOIDS)
def test_tables_match_the_unpairing_path(m):
    check_table(m)


@pytest.mark.usefixtures("cold_products")
@settings(max_examples=100, **DETERMINISTIC)
@given(redirected_tables(TABLE_MONOIDS))
def test_tables_match_the_unpairing_path_on_corrupted_tables(m):
    check_table(m)


@pytest.mark.usefixtures("cold_products")
@settings(max_examples=40, **DETERMINISTIC)
@given(st.data())
def test_product_keys_match_the_element_sweep_on_position_groups(data):
    # carriers of one to three orbits of SYMMETRIC, in any order
    orbits = st.lists(st.sampled_from(SYMMETRIC.orbits), min_size=1, max_size=3)
    left, right = (OrbitFiniteSet(data.draw(orbits)) for _ in range(2))
    prod = product_set(left, right)
    groups = tuple(o.group for o in prod.set.orbits)
    assert (prod.patterns, prod.factors, groups) == reference.product_orbits(left, right)


def check_componentwise(m, n, pairs):
    """componentwise_monoid reads the table, unit and projections that
    the unpairing path does, on the same ticks."""
    fast, slow = Budget(), Budget()
    try:
        got = componentwise_monoid(m, n, pairs, budget=fast)
    except CapExceeded:
        with pytest.raises(CapExceeded):
            reference.componentwise_by_unpairing(m, n, pairs, budget=slow)
        return
    want = reference.componentwise_by_unpairing(m, n, pairs, budget=slow)
    assert got.monoid.product.patterns == want.monoid.product.patterns
    assert got.monoid.mult.assignment == want.monoid.mult.assignment
    assert got.monoid.unit == want.monoid.unit
    assert (got.proj1, got.proj2) == (want.proj1, want.proj2)
    assert fast.used == slow.used


# factor pairs of bound at most 4 in all: the componentwise monoid of
# the C3 and S3 null monoids alone takes seconds to build
FACTOR_PAIRS = st.tuples(
    st.sampled_from(TABLE_MONOIDS), st.sampled_from(TABLE_MONOIDS)
).filter(lambda mn: mn[0].carrier.bound + mn[1].carrier.bound <= 4)


@pytest.mark.usefixtures("cold_products")
@settings(max_examples=60, **DETERMINISTIC)
@given(FACTOR_PAIRS)
def test_componentwise_tables_match_the_unpairing_path(factors):
    m, n = factors
    check_componentwise(m, n, product_set(m.carrier, n.carrier))


@pytest.mark.usefixtures("cold_products")
def test_an_over_cap_product_stops_before_its_first_tick():
    # the S3 null monoid's square has an orbit of dimension 6 with a
    # group of order 36; in the square of that square, the orbit of
    # disjoint pairs of it has the stabilizer of order 36 * 36 > GROUP_CAP
    square = POSITION_GROUP_MONOIDS[2].product.set
    assert max(len(o.group) for o in square.orbits) ** 2 > GROUP_CAP
    for budget in (Budget(), Budget(1)):
        with pytest.raises(CapExceeded, match="stabilizer"):
            product_set(square, square, budget=budget)
        assert budget.used == 0


@pytest.mark.usefixtures("cold_products")
@settings(max_examples=60, **DETERMINISTIC)
@given(map_pairs())
def test_join_tables_match_the_unpairing_path(maps):
    h1, h2 = maps
    pairs = bounds._pairing_image(h1, h2, Budget())
    check_componentwise(h1.monoid, h2.monoid, pairs)
    assert join(h1, h2).monoid == reference.componentwise_by_unpairing(
        h1.monoid, h2.monoid, pairs
    ).monoid


@pytest.mark.usefixtures("cold_products")
@pytest.mark.parametrize("left", LETTER_MAPS)
def test_join_tables_match_the_unpairing_path_on_catalog_letter_maps(left):
    h1 = letters_map(left)
    for right in LETTER_MAPS:
        h2 = letters_map(right)
        check_componentwise(h1.monoid, h2.monoid, bounds._pairing_image(h1, h2, Budget()))


# --- multiply read off the pair's product orbit ----------------------------

# the dihedral group of the square and the Klein four-group acting
# regularly, on dim 4: on some pairs of these orbits the atoms of a pair
# in label order are not the canonical tuple of its product element, so
# an ill-defined entry there tells the two readings apart
DIM4_MONOIDS = [
    null_monoid(OrbitDescriptor(4, [(1, 2, 3, 0), (3, 2, 1, 0)])),
    null_monoid(OrbitDescriptor(4, [(1, 0, 3, 2), (2, 3, 0, 1)])),
]


@lru_cache(maxsize=None)
def ill_defined_entries(m):
    """The (product orbit, element) pairs whose entry would make m's
    table ill defined: the orbit's stabilizer moves the element's
    posmap out of its target coset."""
    orbits = m.product.set.orbits
    return [
        (p, z)
        for p, o in enumerate(orbits) if o.moves
        for z in elements_with_support(m.carrier, range(o.dim))
        if coset_breakers(z.tuple, o.group, m.carrier.orbits[z.orbit].group)
    ]


@st.composite
def changed_tables(draw, monoids, kinds=("kept", "redirected", "ill-defined")):
    """(m, p): one of the monoids and a product orbit p, which keeps its
    entry, is sent to another element over its atoms, or is sent to one
    its stabilizer does not keep in place (so the table is not well
    defined)."""
    kind = draw(st.sampled_from(kinds))
    if kind == "ill-defined":
        m = draw(st.sampled_from([m for m in monoids if ill_defined_entries(m)]))
        p, z = draw(st.sampled_from(ill_defined_entries(m)))
        bad = redirect(m, p, z)
        assert not check_map_well_defined(bad.mult).ok
        return bad, p
    m = draw(st.sampled_from(monoids))
    p = draw(st.sampled_from(range(len(m.product.set.orbits))))
    if kind == "kept":
        return m, p
    atoms = range(m.product.set.orbits[p].dim)
    return redirect(m, p, draw(st.sampled_from(elements_with_support(m.carrier, atoms)))), p


@st.composite
def multiply_cases(draw, tables, in_orbit=st.booleans()):
    """(m, x, y) for (m, p) drawn from ``tables``, with x and y over 0-3
    shared support atoms plus fresh atoms: a pair of orbit p under a
    random naming of its labels, or any two such elements."""
    m, p = draw(tables)
    support = list(range(draw(st.integers(0, 3))))
    if draw(in_orbit):
        i, x_labels, j, y_labels = m.product.patterns[p]
        pool = support + list(range(10, 10 + m.product.set.orbits[p].dim))
        name = draw(st.permutations(pool))
        x = m.carrier.element(i, [name[l] for l in x_labels])
        return m, x, m.carrier.element(j, [name[l] for l in y_labels])
    fresh = range(m.carrier.bound)
    x = draw(elements(m.carrier, support + [10 + a for a in fresh]))
    y = draw(elements(m.carrier, support + [20 + a for a in fresh]))
    return m, x, y


def product_state(product):
    """The product's attributes, each dict or list among them copied, so
    that a write into one shows."""
    return {k: copy.copy(v) for k, v in vars(product).items()}


def check_multiply(m, x, y):
    """A miss of x . y gives the table's value on the pair's product
    element, and neither the miss nor the pairing writes into the
    product."""
    # a monoid of its own starts with an empty cache, so x . y misses
    fresh = NominalMonoid(m.carrier, m.unit, m.mult, m.product)
    before = product_state(m.product)
    got = fresh.multiply(x, y)
    assert product_state(m.product) == before
    assert got == reference.multiply_via_pair(fresh, x, y)
    assert product_state(m.product) == before
    assert fresh.multiply(x, y) is got


@settings(max_examples=300, **DETERMINISTIC)
@given(multiply_cases(changed_tables(TABLE_MONOIDS + DIM4_MONOIDS)))
def test_multiply_matches_the_pair_path(case):
    check_multiply(*case)


@settings(max_examples=150, **DETERMINISTIC)
@given(multiply_cases(changed_tables(DIM4_MONOIDS, ["ill-defined"]), st.just(True)))
def test_multiply_matches_the_pair_path_on_ill_defined_dim4_tables(case):
    check_multiply(*case)


# --- monoid tables in the text format -------------------------------------


@pytest.mark.parametrize("name", catalog_names())
def test_text_matches_the_concrete_pairs_on_the_catalog(name):
    check_text(builder(name))


@pytest.mark.parametrize("left", LOW_BOUND)
def test_text_matches_the_concrete_pairs_on_products(left):
    for right in LOW_BOUND:
        check_text(product_monoid(builder(left), builder(right)).monoid)


def test_text_matches_the_concrete_pairs_on_syntactic_and_enumerated_monoids():
    monoids = [
        syntactic_of_language(catalog_language(name))[1].monoid
        for name in ("l0", "l2-any")
    ]
    enumerated = enumerate_small_monoids(2, 1)
    assert len(enumerated) == 5
    for m in monoids + enumerated:
        check_text(m)


def test_text_matches_the_concrete_pairs_on_position_groups():
    for m in SUBMONOID_AMBIENTS[len(catalog_names()):] + [SYMMETRIC_PRODUCT]:
        check_text(m)


def test_text_writes_the_least_reading_of_a_posmap():
    # unit . {a, b} = {b, a} is stored as the reading (1, 0) of the
    # unordered pair; the text reads (0, 1), as the element does
    m = null_monoid(SYMMETRIC.orbits[3])
    p = m.product.patterns.index((0, (), 2, (0, 1)))
    assignment = list(m.mult.assignment)
    assert assignment[p] == Assignment(2, (0, 1))
    assignment[p] = Assignment(2, (1, 0))
    swapped = NominalMonoid(
        m.carrier, m.unit, EquivariantMap(m.product.set, m.carrier, assignment), m.product
    )
    text = serialize({"M": swapped})
    assert text == reference.serialize_monoid("M", swapped) == serialize({"M": m})
    assert parse(text)["M"] == m


# --- product-orbit keys: one decoder, edge keys and bound checks ----------


@lru_cache(maxsize=None)
def carrier_product(i, j):
    """The product of CARRIERS[i] and CARRIERS[j], held for the session."""
    return product_set(CARRIERS[i], CARRIERS[j])


# half the draws take SYMMETRIC, the carrier with position groups
CARRIER_INDICES = st.just(len(CARRIERS) - 1) | st.integers(0, len(CARRIERS) - 1)


@st.composite
def named_orbits(draw):
    """(product, orbit, atoms): a product of two CARRIERS, one of its
    orbits and distinct atoms naming its labels."""
    prod = carrier_product(draw(CARRIER_INDICES), draw(CARRIER_INDICES))
    p = draw(st.integers(0, len(prod.patterns) - 1))
    return prod, p, tuple(draw(st.permutations(range(10)))[: prod.set.orbits[p].dim])


@settings(max_examples=400, **DETERMINISTIC)
@given(named_orbits())
def test_components_decode_a_key_as_the_hand_decoder_does(case):
    # the atoms need not be the element's canonical tuple: a reading of
    # the orbit's group names the same pair
    prod, p, atoms = case
    e = prod.set.element(p, atoms)
    assert prod.components(p, atoms) == reference.unpair(prod, e) == prod.components(p, e.tuple)


def test_reference_pairs_are_the_components_on_the_labels():
    for i, j in product(range(len(CARRIERS)), repeat=2):
        prod = carrier_product(i, j)
        pairs = [prod.components(p, range(o.dim)) for p, o in enumerate(prod.set.orbits)]
        assert pairs == reference.reference_pairs(prod)


@st.composite
def edge_pairs(draw):
    """(square, x, y, S): the square of one of CARRIERS, two of its
    elements over the atoms 0..5, and S of up to three atoms of 0..7."""
    i = draw(CARRIER_INDICES)
    x, y = (draw(elements(CARRIERS[i])) for _ in range(2))
    return carrier_product(i, i), x, y, frozenset(draw(st.sets(st.integers(0, 7), max_size=3)))


@settings(max_examples=400, **DETERMINISTIC)
@given(edge_pairs())
def test_edge_keys_off_the_located_atoms_match_the_pair_path(case):
    square, x, y, s = case
    assert pair_s_orbit_key(square, x, y, s) == reference.edge_key(square, x, y, s)


@settings(max_examples=400, **DETERMINISTIC)
@given(edge_pairs())
def test_syntactic_nodes_decode_off_their_keys_as_their_instances_unpair(case):
    # syntactic_congruence reads a node's pair off its key's labels; it is
    # the pair the key's canonical instance unpairs to, since canonicalizing
    # under the orbit's stabilizer leaves the pair fixed
    square, x, y, s = case
    orbit, labels = key = pair_s_orbit_key(square, x, y, s)
    atoms = s_key_atoms(labels, s)
    e = instantiate_s_key(square.set, key, s)
    assert square.components(orbit, atoms) == reference.unpair(square, e)
    assert s.union(atoms) == s.union(e.tuple)


@settings(max_examples=30, **DETERMINISTIC)
@given(st.data())
def test_syntactic_congruence_keys_edges_as_the_pair_path_does(data):
    m = data.draw(st.sampled_from(SYNTACTIC_MONOIDS + POSITION_GROUP_MONOIDS))
    support = data.draw(st.sets(st.integers(0, 2), max_size=2))
    xs = data.draw(st.lists(elements(m.carrier, atoms=range(4)), max_size=3))
    p = FsSubset.from_elements(m.carrier, support, xs)
    fast, slow = Budget(), Budget()
    cong = syntactic_congruence(m, p, budget=fast)
    with mock.patch.object(language, "pair_s_orbit_key", reference.edge_key):
        old = syntactic_congruence(m, p, budget=slow)
    assert (cong.pairs, fast.used) == (old.pairs, slow.used)


def check_bound_checks(h, q):
    """is_s_bounded against supp q(w), and eq_msr_predicate on h's
    monoid, agree with the paths over unpaired orbit representatives,
    witness and ticks included."""
    s = SupportBound.via_morphism(q)
    fast, slow = Budget(), Budget()
    rep = is_s_bounded(h, s, budget=fast)
    old = reference.is_s_bounded_via_morphism(h, s, budget=slow)
    assert (rep.ok, rep.witness, fast.used) == (old.ok, old.witness, slow.used)
    assert eq_msr_predicate(h.monoid) == reference.eq_msr_predicate(h.monoid)
    return rep.ok


def test_bound_checks_read_the_keys_on_catalog_letter_maps_and_joins():
    outcomes = set()
    for left in LETTER_MAPS:
        h = letters_map(left)
        for q in [letters_map(right) for right in LETTER_MAPS] + [
            first_letter_bound().data,
            endpoints_bound().data,
        ]:
            outcomes.add(check_bound_checks(h, q))
            outcomes.add(check_bound_checks(join(h, q).genmap, q))
    # both branches ran: bounded pairs and witnesses
    assert outcomes == {True, False}
    msr = {eq_msr_predicate(letters_map(name).monoid) for name in LETTER_MAPS}
    assert msr == {True, False}


@settings(max_examples=60, **DETERMINISTIC)
@given(map_pairs(), st.booleans())
def test_bound_checks_read_the_keys_on_position_groups(maps, joined):
    h1, h2 = maps
    h = join(h1, h2).genmap if joined else h1
    for q in maps:
        check_bound_checks(h, q)
