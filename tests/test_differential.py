"""Fast paths against the brute-force oracles in ``reference``."""

import re
from functools import lru_cache
from itertools import combinations, permutations, product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from nommon import bounds
from nommon.bounds import (
    SupportBound,
    endpoints_bound,
    first_letter_bound,
    is_s_bounded,
    join,
    join_s_bounded,
)
from nommon.catalog import builder, catalog_names, letters_map
from nommon.errors import Budget, CapExceeded, InvalidInput
from nommon.fssets import FsSubset, _normalize, _refine, fs_boolean, hull, preimage_subset
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
    closed_orbit_indices,
    coimage,
    enumerate_monoid_maps,
    find_isomorphism,
    monoid_from_concrete,
    product_monoid,
    submonoid_from_orbits,
    validate_monoid,
    validate_morphism,
)
from nommon.prolimit import build_stage
from nommon.sets import (
    Assignment,
    EquivariantMap,
    OrbitDescriptor,
    OrbitFiniteSet,
    atoms_set,
    check_map_well_defined,
    coset_breakers,
    elements_with_support,
    instantiate_s_key,
    orbit_reps,
    orbit_tuples,
    pair_pattern,
    product_set,
    s_orbit_key,
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
            assert cong.related(x, y) == (class_of[x] == class_of[y]), (x, y)
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
    assert not cong.related(reps[4], reps[5])


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


@pytest.mark.parametrize("left", LOW_BOUND)
def test_validate_memo_charges_like_the_unmemoized_path(left):
    for right in LOW_BOUND:
        m = product_monoid(builder(left), builder(right)).monoid
        fast, slow = Budget(), Budget()
        assert validate_monoid(m, budget=fast).failures == (
            reference.validate_monoid_unmemoized(m, budget=slow).failures
        )
        assert fast.used == slow.used


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
    fast, slow = Budget(), Budget()
    assert validate_monoid(m, budget=fast).failures == (
        reference.validate_monoid_unmemoized(m, budget=slow).failures
    )
    assert fast.used == slow.used


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
    assert cong.related(letter(2), letter(3))
    assert not cong.related(letter(0), letter(1))
    assert not cong.related(letter(0), letter(2))


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


def check_join(h1, h2, s):
    """join_s_bounded and is_s_bounded against the full-product oracle,
    plus a text round trip of the join."""
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


@pytest.mark.parametrize("bound", sorted(BOUNDS))
@pytest.mark.parametrize("left", LETTER_MAPS)
def test_join_matches_the_full_product_on_catalog_letter_maps(left, bound):
    s = BOUNDS[bound]()
    for right in LETTER_MAPS:
        check_join(letters_map(left), letters_map(right), s)


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
        assert jn.pairs.unpair(value) == (h1.eval_word(w), h2.eval_word(w))
        assert (jn.left(value), jn.right(value)) == (h1.eval_word(w), h2.eval_word(w))


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
