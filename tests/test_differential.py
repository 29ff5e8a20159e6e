"""Fast paths against the brute-force oracles in ``reference``."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from nommon.catalog import builder, catalog_names
from nommon.fssets import FsSubset, _expand_keys, _normalize, preimage_subset
from nommon.kernel import min_coset
from nommon.language import catalog_language, syntactic_classes
from nommon.monoid import coimage, monoid_from_concrete
from nommon.sets import (
    OrbitDescriptor,
    OrbitFiniteSet,
    orbit_reps,
    pair_pattern,
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
