import itertools
import random
from fractions import Fraction

import pytest

from nommon import bounds, prolimit
from nommon.bounds import endpoints_bound, first_letter_bound, is_s_bounded
from nommon.catalog import builder, catalog_names, letters_map
from nommon.errors import InvalidInput
from nommon.fssets import FsSubset, fs_boolean
from nommon.language import Word, catalog_language, member
from nommon.monoid import find_isomorphism, is_aperiodic
from nommon.prolimit import (
    DsScope,
    OmegaTerm,
    aperiodicity_equation,
    build_stage,
    clopen_of_language,
    d_s,
    eta,
    eval_omega_term,
    extend_stage,
    language_of_clopen,
    materialize_scope,
    reiterman_instance_suite,
    satisfies_explicit,
    stage_eval,
)
from nommon.sets import Element, atoms_set


def words_upto(n, atoms=(0, 1, 2)):
    for length in range(n + 1):
        yield from itertools.product(atoms, repeat=length)


def letter_term(a):
    return OmegaTerm.letter(Element(atoms_set(), 0, [a]))


# --- omega terms ----------------------------------------------------------


def test_eval_unit_and_letters():
    gm = letters_map("cutoff2")
    m = gm.monoid
    assert eval_omega_term(gm, OmegaTerm.unit()) == m.unit
    t = OmegaTerm.concat(letter_term(0), letter_term(1))
    assert eval_omega_term(gm, t) == m.encode_word((0, 1))


def test_omega_in_truncation_monoid():
    # a^omega in A^{<=2} is the idempotent aa
    gm = letters_map("cutoff2")
    t = OmegaTerm.omega(letter_term(0))
    assert eval_omega_term(gm, t) == gm.monoid.encode_word((0, 0))


def test_omega_differs_from_omega_times_x_in_group():
    # in Z/2 with h(a) the generator: a^omega = 1 but a^omega . a = a
    m = builder("cyclic2")
    sigma = atoms_set()
    from nommon.sets import map_from_concrete
    from nommon.monoid import GeneratorMap

    g = Element(m.carrier, 1, ())
    gm = GeneratorMap(sigma, m, map_from_concrete(sigma, m.carrier, lambda x: g))
    om = eval_omega_term(gm, OmegaTerm.omega(letter_term(0)))
    assert om == m.unit
    t = OmegaTerm.concat(OmegaTerm.omega(letter_term(0)), letter_term(0))
    assert eval_omega_term(gm, t) == g


def test_omega_is_idempotent():
    for name in ("cutoff2", "barred", "pair_zero", "l0_recognizer"):
        gm = letters_map(name)
        for t in (letter_term(0), OmegaTerm.concat(letter_term(0), letter_term(1))):
            e = eval_omega_term(gm, OmegaTerm.omega(t))
            assert gm.monoid.multiply(e, e) == e


def test_concat_rejects_mixed_alphabets():
    p1 = builder("first_proj")
    foreign = OmegaTerm.letter(Element(p1.carrier, 1, [0]))
    with pytest.raises(InvalidInput):
        OmegaTerm.concat(letter_term(0), foreign)


# --- explicit proequations ------------------------------------------------


def test_aperiodicity_equation_on_truncation():
    lhs, rhs = aperiodicity_equation()
    m = builder("cutoff2")
    assert satisfies_explicit(m, atoms_set(), first_letter_bound(), lhs, rhs).holds


def test_aperiodicity_equation_refuted_on_group():
    lhs, rhs = aperiodicity_equation()
    rep = satisfies_explicit(
        builder("cyclic2"), atoms_set(), first_letter_bound(), lhs, rhs
    )
    assert not rep.holds
    h, left, right = rep.counterexample
    assert left != right
    assert eval_omega_term(h, lhs) == left


def test_trivial_monoid_satisfies_everything():
    lhs, rhs = aperiodicity_equation()
    m = builder("trivial")
    assert satisfies_explicit(m, atoms_set(), first_letter_bound(), lhs, rhs).holds


def test_equation_agrees_with_is_aperiodic_on_catalog():
    lhs, rhs = aperiodicity_equation()
    s = first_letter_bound()
    for name in catalog_names():
        m = builder(name)
        got = satisfies_explicit(m, atoms_set(), s, lhs, rhs).holds
        assert got == is_aperiodic(m).ok, name


def test_reiterman_suite_aperiodic_class_closed():
    monoids = [builder(n) for n in ("trivial", "first_proj", "barred", "cyclic2")]
    from nommon.catalog import catalog_quotient

    report = reiterman_instance_suite(
        [aperiodicity_equation()],
        monoids,
        atoms_set(),
        first_letter_bound(),
        quotients=[catalog_quotient("compare"), catalog_quotient("no-s-quot")],
    )
    assert report.ok


def test_reiterman_suite_empty_equations():
    report = reiterman_instance_suite(
        [], [builder("trivial"), builder("cyclic2")], atoms_set(), first_letter_bound()
    )
    assert report.ok


# --- truncation stages ----------------------------------------------------


def stage_quotients():
    return [letters_map("first_proj"), letters_map("last_proj"), letters_map("l0_recognizer")]


def test_single_quotient_stage_is_the_quotient():
    q = letters_map("first_proj")
    stage = build_stage(atoms_set(), endpoints_bound(), [q])
    assert len(stage.monoid.carrier.orbits) == 2
    for t in words_upto(3):
        w = Word.of_atoms(t)
        assert stage_eval(stage, 0, eta(stage, w)) == q.eval_word(w.letters)


def test_two_quotient_stage_projects_to_endpoints():
    q1, q2 = letters_map("first_proj"), letters_map("last_proj")
    stage = build_stage(atoms_set(), endpoints_bound(), [q1, q2])
    w = Word.of_atoms((0, 1))
    x = eta(stage, w)
    assert stage_eval(stage, 0, x) == Element(q1.monoid.carrier, 1, [0])
    assert stage_eval(stage, 1, x) == Element(q2.monoid.carrier, 1, [1])


def test_stage_compatible_family():
    qs = stage_quotients()
    stage = build_stage(atoms_set(), endpoints_bound(), qs)
    assert is_s_bounded(stage.join, stage.bound).ok
    for t in words_upto(3):
        w = Word.of_atoms(t)
        x = eta(stage, w)
        for i, q in enumerate(qs):
            assert stage_eval(stage, i, x) == q.eval_word(w.letters)


def test_extend_stage_refines():
    q1, q2 = letters_map("first_proj"), letters_map("last_proj")
    old = build_stage(atoms_set(), endpoints_bound(), [q1])
    new, refine = extend_stage(old, q2)
    for t in words_upto(3):
        w = Word.of_atoms(t)
        assert refine(eta(new, w)) == eta(old, w)


def test_stage_checks_each_quotient_once(monkeypatch):
    # build_stage checks every quotient before joining it in, and
    # extend_stage checks its own; a join of s-bounded maps is s-bounded,
    # so no join is checked again, in prolimit or through bounds
    checked = []
    check = bounds.is_s_bounded

    def counted(q, s, budget=None):
        checked.append(q)
        return check(q, s, budget=budget)

    monkeypatch.setattr(prolimit, "is_s_bounded", counted)
    monkeypatch.setattr(bounds, "is_s_bounded", counted)
    qs = stage_quotients()
    stage = build_stage(atoms_set(), endpoints_bound(), qs)
    assert checked == qs
    extend_stage(stage, qs[0])
    assert checked == qs + qs[:1]


def test_stage_rejects_unbounded_quotient():
    # last-letter evaluation is not first-letter bounded
    with pytest.raises(InvalidInput):
        build_stage(atoms_set(), first_letter_bound(), [letters_map("last_proj")])


# --- clopen correspondence ------------------------------------------------


def stage_with_languages():
    langs = [catalog_language(n) for n in ("first-a", "last-a", "l0")]
    stage = build_stage(atoms_set(), endpoints_bound(), [l.genmap for l in langs])
    return stage, langs


def test_clopen_roundtrip_is_identity():
    stage, langs = stage_with_languages()
    for lang in langs:
        back = language_of_clopen(stage, clopen_of_language(stage, lang))
        for t in words_upto(3):
            w = Word.of_atoms(t)
            assert member(back, w) == member(lang, w)


def test_clopen_of_language_from_an_equal_recognizer():
    # a second construction of the same language is recognized at the
    # stage: monoids compare by value, not by identity
    stage = build_stage(
        atoms_set(), endpoints_bound(), [catalog_language("first-a").genmap]
    )
    again = catalog_language("first-a")
    assert again.genmap.monoid is not stage.quotients[0].monoid
    c = clopen_of_language(stage, again)
    back = language_of_clopen(stage, c)
    for t in words_upto(3):
        w = Word.of_atoms(t)
        assert member(back, w) == member(again, w)


def test_clopen_reverse_roundtrip_is_identity():
    stage, langs = stage_with_languages()
    for lang in langs:
        c = clopen_of_language(stage, lang)
        assert clopen_of_language(stage, language_of_clopen(stage, c)) == c


def test_empty_language_has_empty_clopen():
    stage, langs = stage_with_languages()
    from nommon.language import Language

    empty = Language(
        langs[0].genmap, FsSubset.empty(langs[0].genmap.monoid.carrier)
    )
    assert clopen_of_language(stage, empty).is_empty()


def test_boolean_ops_commute_with_correspondence():
    stage, langs = stage_with_languages()
    c1 = clopen_of_language(stage, langs[0])
    c2 = clopen_of_language(stage, langs[1])
    for op, fn in (("union", any), ("intersect", all)):
        back = language_of_clopen(stage, fs_boolean(op, c1, c2))
        for t in words_upto(3):
            w = Word.of_atoms(t)
            expected = fn([member(langs[0], w), member(langs[1], w)])
            assert member(back, w) == expected


def test_clopen_rejects_foreign_language():
    stage, _ = stage_with_languages()
    with pytest.raises(InvalidInput):
        clopen_of_language(stage, catalog_language("l2-any"))


# --- the pseudometric -----------------------------------------------------


@pytest.fixture(scope="module")
def small_scope():
    scope = DsScope.exhaustive(2, 1)
    prepared = materialize_scope(atoms_set(), first_letter_bound(), scope)
    return scope, prepared


def dd(v, w, small_scope):
    scope, prepared = small_scope
    return d_s(
        Word.of_atoms(v), Word.of_atoms(w), first_letter_bound(), scope,
        prepared=prepared,
    )


def test_distance_to_self_is_zero(small_scope):
    res = dd((0, 1, 2), (0, 1, 2), small_scope)
    assert res.value == 0
    assert res.certificate is None
    assert res.exhaustive


def test_ab_ac_not_separated(small_scope):
    # no first-letter-bounded morphism into a 2-orbit monoid can see
    # the second letter
    assert dd((0, 1), (0, 2), small_scope).value == 0


def test_ab_ba_distance_quarter(small_scope):
    res = dd((0, 1), (1, 0), small_scope)
    assert res.value == Fraction(1, 4)
    m, h, (hv, hw) = res.certificate
    assert hv != hw
    assert find_isomorphism(m, builder("first_proj")) is not None


def test_pseudo_ultrametric_axioms(small_scope):
    words = list(words_upto(3))
    table = {}
    for v in words:
        for w in words:
            if (w, v) in table:
                table[(v, w)] = table[(w, v)]
            else:
                table[(v, w)] = dd(v, w, small_scope).value
    for v in words:
        assert table[(v, v)] == 0
    for u, v, w in itertools.product(words, repeat=3):
        assert table[(u, w)] <= max(table[(u, v)], table[(v, w)])


def test_distance_equivariance(small_scope):
    from nommon.language import act_word
    from nommon.perm import Perm

    scope, prepared = small_scope
    rng = random.Random(5)
    for _ in range(25):
        v = Word.of_atoms(tuple(rng.randrange(4) for _ in range(rng.randrange(4))))
        w = Word.of_atoms(tuple(rng.randrange(4) for _ in range(rng.randrange(4))))
        pi = Perm.swap(*rng.sample(range(4), 2))
        plain = d_s(v, w, first_letter_bound(), scope, prepared=prepared)
        moved = d_s(
            act_word(pi, v), act_word(pi, w), first_letter_bound(), scope,
            prepared=prepared,
        )
        assert plain.value == moved.value


def test_catalog_scope_is_labeled_lower_bound():
    scope = DsScope.catalog()
    res = d_s(
        Word.of_atoms((0, 1)), Word.of_atoms((1, 0)), first_letter_bound(), scope
    )
    assert not res.exhaustive
    assert res.value == Fraction(1, 4)
    assert "catalog" in res.exhausted_scope
