import itertools
import random
import tracemalloc

import pytest

import nommon.language as language
from nommon.bounds import endpoints_bound
from nommon.catalog import builder, letters_map
from nommon.errors import Budget, InvalidInput
from nommon.language import (
    Language,
    Word,
    act_word,
    catalog_language,
    eval_word,
    language_boolean,
    member,
    syntactic_congruence,
    syntactic_monoid,
    syntactic_of_language,
)
from nommon.fssets import FsSubset
from nommon.fssets import member as fs_member
from nommon.monoid import (
    MULTIPLY_CACHE_CAP,
    find_isomorphism,
    generating_orbits,
    product_monoid,
    validate_monoid,
    validate_morphism,
)
from nommon.perm import Perm
from nommon.prolimit import DsScope, build_stage, d_s, eta
from nommon.sets import Element, atoms_set, orbit_reps, strong_set


def words_upto(n, atoms=(0, 1, 2)):
    for length in range(n + 1):
        yield from itertools.product(atoms, repeat=length)


def scan_l0(t):
    return any(t[i] == t[i + 1] for i in range(len(t) - 1))


# --- words and evaluation -------------------------------------------------


def test_word_requires_single_alphabet():
    p1 = builder("first_proj")
    a = Word.of_atoms((0,)).letters[0]
    with pytest.raises(InvalidInput):
        Word(a.set, [a, Element(p1.carrier, 1, [0])])


def test_word_paths_take_the_alphabet_itself():
    # a carrier whose first orbit is A's is still another carrier
    other = strong_set([1, 0])
    stray = Word(other, [Element(other, 0, [0])])
    rebuilt = strong_set([1])
    w = Word(rebuilt, [Element(rebuilt, 0, [a]) for a in (0, 1, 1)])
    assert Word.of_atoms((0, 1, 1)).alphabet is atoms_set()
    assert w == Word.of_atoms((0, 1, 1))
    with pytest.raises(InvalidInput):
        Word(atoms_set(), stray.letters)
    l0 = catalog_language("l0")
    with pytest.raises(InvalidInput):
        eval_word(l0.genmap, stray)
    assert eval_word(l0.genmap, w) == l0.genmap.monoid.encode_state(0, 1, 1)
    stage = build_stage(atoms_set(), endpoints_bound(), [letters_map("first_proj")])
    with pytest.raises(InvalidInput):
        eta(stage, stray)
    assert eta(stage, w) == eta(stage, Word.of_atoms((0, 1, 1)))
    with pytest.raises(InvalidInput):
        d_s(w, stray, endpoints_bound(), DsScope.exhaustive(1, 1))
    letters = FsSubset.singleton(Element(atoms_set(), 0, [0]))
    with pytest.raises(InvalidInput):
        fs_member(letters, Element(other, 0, [0]))
    assert fs_member(letters, Element(rebuilt, 0, [0]))


def test_eval_word_examples():
    l0 = catalog_language("l0")
    m = l0.genmap.monoid
    assert eval_word(l0.genmap, Word.of_atoms(())) == m.unit
    assert eval_word(l0.genmap, Word.of_atoms((0, 1, 1))) == m.encode_state(0, 1, 1)
    fa = catalog_language("first-a")
    assert eval_word(fa.genmap, Word.of_atoms((0, 1, 2))) == Element(
        fa.genmap.monoid.carrier, 1, [0]
    )


def test_l0_membership_against_scan_oracle():
    l0 = catalog_language("l0")
    for t in words_upto(5):
        assert member(l0, Word.of_atoms(t)) == scan_l0(t)


def test_membership_memory_stays_flat_over_fresh_words():
    # each word of fresh atoms misses the multiply memo; a memo without a
    # cap held about 46 MB after these 50k words
    l0 = catalog_language("l0")
    rng = random.Random(5)
    tracemalloc.start()
    try:
        for _ in range(50_000):
            t = tuple(rng.randrange(10**6) for _ in range(rng.randint(1, 5)))
            assert member(l0, Word.of_atoms(t)) == scan_l0(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert len(l0.genmap.monoid._cache) <= MULTIPLY_CACHE_CAP


def test_l2_membership():
    l2f = catalog_language("l2-fixed")
    l2a = catalog_language("l2-any")
    for t in words_upto(4):
        w = Word.of_atoms(t)
        assert member(l2f, w) == (len(t) >= 2 and t[0] == 0 and t[-1] == 0)
        assert member(l2a, w) == (len(t) >= 2 and t[0] == t[-1])


def test_membership_equivariance():
    rng = random.Random(21)
    l0 = catalog_language("l0")
    l2a = catalog_language("l2-any")
    for _ in range(100):
        t = tuple(rng.randrange(5) for _ in range(rng.randrange(6)))
        pi = Perm.swap(*rng.sample(range(5), 2))
        for lang in (l0, l2a):
            w = Word.of_atoms(t)
            assert member(lang, w) == member(lang, act_word(pi, w))


# --- boolean combinations -------------------------------------------------


def word_oracle(name, t):
    if name == "first-a":
        return len(t) > 0 and t[0] == 0
    if name == "last-a":
        return len(t) > 0 and t[-1] == 0
    if name == "l0":
        return scan_l0(t)
    raise ValueError(name)


@pytest.mark.parametrize(
    "op,n1,n2",
    [
        ("union", "first-a", "last-a"),
        ("intersect", "first-a", "last-a"),
        ("intersect", "l0", "first-a"),
        ("union", "l0", "last-a"),
    ],
)
def test_boolean_against_word_oracle(op, n1, n2):
    combined = language_boolean(op, catalog_language(n1), catalog_language(n2))
    fn = any if op == "union" else all
    for t in words_upto(4):
        expected = fn([word_oracle(n1, t), word_oracle(n2, t)])
        assert member(combined, Word.of_atoms(t)) == expected


def test_complement_roundtrip():
    fa = catalog_language("first-a")
    cc = language_boolean("complement", language_boolean("complement", fa))
    for t in words_upto(3):
        assert member(cc, Word.of_atoms(t)) == member(fa, Word.of_atoms(t))


def test_union_with_complement_is_full():
    fa = catalog_language("first-a")
    full = language_boolean("union", fa, language_boolean("complement", fa))
    assert all(member(full, Word.of_atoms(t)) for t in words_upto(3))


def test_intersect_with_empty_is_empty():
    fa = catalog_language("first-a")
    empty = Language(fa.genmap, FsSubset.empty(fa.genmap.monoid.carrier))
    inter = language_boolean("intersect", fa, empty)
    assert not any(member(inter, Word.of_atoms(t)) for t in words_upto(3))


# --- syntactic monoids ----------------------------------------------------


def test_syntactic_of_empty_predicate_is_trivial():
    m = builder("first_proj")
    syn = syntactic_monoid(m, FsSubset.empty(m.carrier))
    assert len(syn.monoid.carrier.orbits) == 1
    assert validate_morphism(syn.projection).ok


def test_syntactic_l0_recognizes_l0():
    l0 = catalog_language("l0")
    lsyn, syn = syntactic_of_language(l0)
    assert validate_monoid(syn.monoid).ok
    for t in words_upto(5):
        assert member(lsyn, Word.of_atoms(t)) == scan_l0(t)


def test_syntactic_l0_merges_flagged_states():
    # all flagged states behave alike in every context, so they become
    # a single empty-support class
    _, syn = syntactic_of_language(catalog_language("l0"))
    dims = sorted(d.dim for d in syn.monoid.carrier.orbits)
    assert dims == [0, 0, 1, 2]


def test_syntactic_l2_any_structure():
    # the computed syntactic monoid distinguishes single letters from
    # longer words: 4 orbits, not isomorphic to the 5-orbit P1 x P2,
    # and it contains elements of support exactly 2
    l2a = catalog_language("l2-any")
    lsyn, syn = syntactic_of_language(l2a)
    assert validate_monoid(syn.monoid).ok
    assert max(len(r.tuple) for r in orbit_reps(syn.monoid.carrier)) == 2
    pm = product_monoid(builder("first_proj"), builder("last_proj"))
    assert find_isomorphism(syn.monoid, pm.monoid) is None
    for t in words_upto(4):
        assert member(lsyn, Word.of_atoms(t)) == (len(t) >= 2 and t[0] == t[-1])


def test_syntactic_merges_only_inseparable_pairs():
    # concrete-context oracle: the projection may merge two elements
    # only if no context over a 6-atom pool separates them
    from nommon.sets import elements_with_support
    from nommon.fssets import member as fs_member

    l0 = catalog_language("l0")
    _, syn = syntactic_of_language(l0)
    m = syn.projection.dom
    p = catalog_language("l0").predicate
    # the restricted submonoid is the full recognizer for l0
    assert m.carrier == l0.genmap.monoid.carrier
    contexts = elements_with_support(m.carrier, range(6))
    in_p = {e: fs_member(p, e) for e in contexts}

    def signature(x):
        out = []
        for v in contexts:
            xv = m.multiply(x, v)
            out.extend(in_p[m.multiply(u, xv)] for u in contexts)
        return tuple(out)

    elems = elements_with_support(m.carrier, range(3))
    sigs = {x: signature(x) for x in elems}
    for x, y in itertools.combinations(elems, 2):
        if syn.projection(x) == syn.projection(y):
            assert sigs[x] == sigs[y]


def test_syntactic_budget_contract(monkeypatch):
    # at most one multiply between consecutive ticks; one tick per node
    # (an S-orbit of pairs, a product orbit for S = {}), the ticks of the
    # context enumerations, one per multiply and one per removed node
    m = builder("l0_recognizer")
    p = FsSubset.from_elements(m.carrier, (), [orbit_reps(m.carrier)[3]])
    events = []
    budget = Budget()
    tick, multiply, reps = budget.tick, m.multiply, language.s_orbit_reps

    def counted_tick(n=1):
        events.append("tick")
        tick(n)

    def counted_multiply(x, y):
        z = multiply(x, y)  # its own pairing happens before the event
        events.append("multiply")
        return z

    def counted_reps(*args, **kwargs):
        events.append("reps")
        out = reps(*args, **kwargs)
        events.append("reps-end")
        return out

    budget.tick = counted_tick
    m.multiply = counted_multiply
    monkeypatch.setattr(language, "s_orbit_reps", counted_reps)
    cong = syntactic_congruence(m, p, budget=budget)

    between = 0
    for e in events:
        if e == "tick":
            between = 0
        elif e == "multiply":
            between += 1
            assert between <= 1
    nodes = len(m.product.set.orbits)
    assert events.index("reps") == nodes
    assert events[:nodes] == ["tick"] * nodes
    context_ticks = 0
    inside = False
    for e in events:
        inside = (inside or e == "reps") and e != "reps-end"
        context_ticks += inside and e == "tick"
    # four multiplies per generator representative of each node that is
    # neither diagonal nor separated by p
    gens = generating_orbits(m)
    edges = 0
    for e in orbit_reps(m.product.set):
        x, y = m.product.components(e.orbit, e.tuple)
        if x != y and fs_member(p, x) == fs_member(p, y):
            edges += sum(u.orbit in gens for u in reps(m.carrier, e.tuple))
    assert events.count("multiply") == 4 * edges
    pops = nodes - len(cong.pairs.keys)
    last = len(events) - 1 - events[::-1].index("multiply")
    assert events[last + 1 :] == ["tick"] * pops
    assert budget.used == nodes + context_ticks + 4 * edges + pops
    assert (nodes, context_ticks, edges, pops) == (69, 14, 118, 51)
