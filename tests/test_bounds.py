import itertools

import pytest

from nommon import bounds, monoid
from nommon.bounds import (
    SupportBound,
    _pairing_image,
    classify_quotient,
    endpoints_bound,
    enumerate_s_bounded,
    eq_msr_predicate,
    factor_through,
    first_letter_bound,
    is_s_bounded,
    join_s_bounded,
    msr_closure_suite,
    recheck_msr_certificate,
)
from nommon.catalog import builder, catalog_quotient, letters_map
from nommon.errors import Budget, BudgetExhausted, CapExceeded, InvalidInput
from nommon.language import catalog_language, syntactic_of_language
from nommon.monoid import (
    GeneratorMap,
    identity_morphism,
    product_monoid,
    validate_morphism,
)
from nommon.prolimit import build_stage
from nommon.sets import Element, atoms_set, map_from_concrete, product_set


def words_upto(n, atoms=(0, 1, 2)):
    for length in range(n + 1):
        yield from itertools.product(atoms, repeat=length)


# --- s-boundedness --------------------------------------------------------


def test_constant_bound_holds_for_atomless_images():
    gm = letters_map("trivial")
    assert is_s_bounded(gm, SupportBound.constant(())).ok


def test_constant_bound_refuted_by_positive_dim_orbit():
    # h(a) = a: image contains the full atom orbit, so no finite S works
    gm = letters_map("first_proj")
    for s in ((), (0,), (0, 1, 2)):
        rep = is_s_bounded(gm, SupportBound.constant(s))
        assert not rep.ok
        # the witness genuinely escapes S
        assert not set(rep.witness.tuple) <= set(s)


def test_first_letter_bound_zero_adjoined():
    # all products of two letters collapse to 0, so supp h(w) is empty
    # or {first letter}
    assert is_s_bounded(letters_map("zero_adjoined"), first_letter_bound()).ok


def test_first_letter_bound_barred():
    # h(a w) is a or bar(a): always supported by the first letter
    assert is_s_bounded(letters_map("barred"), first_letter_bound()).ok


def test_first_letter_bound_refuted_on_pair_zero():
    # h(a b) = (a, b) needs both letters but the bound only grants {a}
    rep = is_s_bounded(letters_map("pair_zero"), first_letter_bound())
    assert not rep.ok
    value, ref = rep.witness
    assert len(set(value.tuple)) == 2
    assert len(set(ref.tuple)) == 1
    assert not set(value.tuple) <= set(ref.tuple)


def test_first_letter_bound_refuted_on_last_proj():
    # supp h(a w b) = {b}, not below {a}
    assert not is_s_bounded(letters_map("last_proj"), first_letter_bound()).ok


def test_first_letter_bound_holds_on_first_proj():
    assert is_s_bounded(letters_map("first_proj"), first_letter_bound()).ok


def test_bound_rejects_alphabet_mismatch():
    sigma2 = builder("first_proj").carrier
    m = builder("zero_adjoined")
    gm = GeneratorMap(
        sigma2, m, map_from_concrete(sigma2, m.carrier, lambda x: m.unit)
    )
    with pytest.raises(InvalidInput):
        is_s_bounded(gm, first_letter_bound())


# --- joins ----------------------------------------------------------------


def test_join_projections_commute_on_words():
    h1 = letters_map("first_proj")
    h2 = letters_map("last_proj")
    jn = join_s_bounded(h1, h2, first_letter_bound())
    assert validate_morphism(jn.left).ok
    assert validate_morphism(jn.right).ok
    for t in words_upto(3):
        from nommon.language import Word

        letters = Word.of_atoms(t).letters
        v = jn.genmap.eval_word(letters)
        assert jn.left(v) == h1.eval_word(letters)
        assert jn.right(v) == h2.eval_word(letters)


def test_join_of_projections_breaks_first_letter_bound():
    # the join remembers (first, last): a support-2 orbit refutes
    # boundedness, so this family of quotients is not codirected
    jn = join_s_bounded(
        letters_map("first_proj"), letters_map("last_proj"), first_letter_bound()
    )
    assert not jn.bound_report.ok
    value, ref = jn.bound_report.witness
    assert len(set(value.tuple)) == 2
    assert len(set(ref.tuple)) == 1


def test_join_with_self_stays_bounded():
    h1 = letters_map("first_proj")
    jn = join_s_bounded(h1, h1, first_letter_bound())
    assert jn.bound_report.ok
    # the coimage of the diagonal pairing is P1 again
    assert len(jn.monoid.carrier.orbits) == 2


# --- quotient classification ----------------------------------------------


def test_classify_identity_is_support_preserving():
    res = classify_quotient(identity_morphism(builder("barred")))
    assert res.support_preserving
    assert res.support_reflecting
    assert res.msr
    assert res.certificate == (0, 1, 2, 3)


def test_classify_compare_quotient():
    # barred -> zero_adjoined: reflecting but not MSR; every candidate
    # submonoid that covers the atoms must contain A, and A.A leaves R_e
    res = classify_quotient(catalog_quotient("compare"))
    assert not res.support_preserving
    assert res.support_reflecting
    assert not res.msr
    assert res.certificate is None
    assert res.r_orbits == frozenset({0, 1, 2})


def test_classify_no_s_quot_quotient():
    res = classify_quotient(catalog_quotient("no-s-quot"))
    assert not res.support_preserving
    assert res.support_reflecting
    assert not res.msr
    assert res.r_orbits == frozenset({0, 1, 3})


def test_classify_projection_msr_without_preserving():
    # N x barred -> N: the pair orbits (a, x) lose the barred component,
    # but the sub-copy N x {1} is a support-preserving section
    pm = product_monoid(builder("zero_adjoined"), builder("barred"))
    res = classify_quotient(pm.proj1)
    assert not res.support_preserving
    assert res.msr
    assert res.support_reflecting
    assert recheck_msr_certificate(pm.proj1, res.certificate)


def test_classify_hierarchy_on_instances():
    quotients = [
        identity_morphism(builder("barred")),
        catalog_quotient("compare"),
        catalog_quotient("no-s-quot"),
        product_monoid(builder("zero_adjoined"), builder("barred")).proj1,
        product_monoid(builder("first_proj"), builder("cyclic2")).proj1,
    ]
    for e in quotients:
        res = classify_quotient(e)
        if res.support_preserving:
            assert res.msr
        if res.msr:
            assert res.support_reflecting
            assert recheck_msr_certificate(e, res.certificate)


def test_classify_rejects_non_surjective():
    # constant-unit map into zero_adjoined misses two orbits
    n = builder("zero_adjoined")
    t = builder("trivial")
    e = map_from_concrete(t.carrier, n.carrier, lambda x: n.unit)
    from nommon.monoid import MonoidMorphism

    with pytest.raises(InvalidInput):
        classify_quotient(MonoidMorphism(t, n, e))


# --- the EqMSR class ------------------------------------------------------


@pytest.mark.parametrize(
    "name,expected",
    [
        ("trivial", True),
        ("cyclic2", True),
        ("first_proj", True),
        ("last_proj", True),
        ("barred", True),
        ("zero_adjoined", False),
        ("pair_zero", False),
    ],
)
def test_eq_msr_on_catalog(name, expected):
    assert eq_msr_predicate(builder(name)) == expected


def test_eq_msr_closure_suite_passes():
    monoids = [builder(n) for n in ("trivial", "cyclic2", "first_proj", "barred")]
    quotients = [
        catalog_quotient("compare"),
        catalog_quotient("no-s-quot"),
        product_monoid(builder("zero_adjoined"), builder("barred")).proj1,
    ]
    report = msr_closure_suite(eq_msr_predicate, monoids, quotients)
    assert report.ok
    assert report.checked > 0


def test_closure_suite_detects_failure():
    # "at most 2 orbits" is not closed under products
    pred = lambda m: len(m.carrier.orbits) <= 2  # noqa: E731
    report = msr_closure_suite(pred, [builder("first_proj")])
    assert not report.ok
    assert any(kind == "product" for kind, _ in report.failures)


# --- enumeration and factorization ----------------------------------------


def test_enumerate_s_bounded_zero_adjoined():
    sigma = atoms_set()
    found = enumerate_s_bounded(sigma, builder("zero_adjoined"), first_letter_bound())
    # a -> 1, a -> a, a -> 0 are all first-letter bounded
    assert len(found) == 3


def test_enumerate_s_bounded_pair_zero_drops_letter_map():
    sigma = atoms_set()
    m = builder("pair_zero")
    found = enumerate_s_bounded(sigma, m, first_letter_bound())
    assert len(found) == 2
    a = Element(sigma, 0, [0])
    assert all(gm(a).tuple == () for gm in found)


def test_factor_through_compare_succeeds():
    # a -> a into barred is bounded and projects back onto a -> a into N
    h0 = letters_map("zero_adjoined")
    e = catalog_quotient("compare")
    lift = factor_through(h0, e, first_letter_bound())
    assert lift is not None
    a = Element(atoms_set(), 0, [0])
    assert e(lift(a)) == h0(a)
    assert is_s_bounded(lift, first_letter_bound()).ok


def test_factor_through_no_s_quot_fails():
    # the only lift sending a to a is the pair_zero letter map, which
    # the first-letter bound rejects; no bounded factorization exists
    h0 = letters_map("zero_adjoined")
    e = catalog_quotient("no-s-quot")
    assert factor_through(h0, e, first_letter_bound()) is None


def test_factor_through_rejects_an_unequal_target_monoid():
    # same carrier as first_proj, different multiplication
    h0 = letters_map("first_proj")
    e = identity_morphism(builder("last_proj"))
    assert e.cod.carrier == h0.monoid.carrier
    with pytest.raises(InvalidInput):
        factor_through(h0, e, first_letter_bound())


# --- budget contract and caps ---------------------------------------------


def record_events(monkeypatch, m, budget):
    """Log 'tick' for each tick of budget and, for each multiply in m,
    'product' or 'hit' (the product was cached), in order."""
    events = []
    multiply, tick = m.multiply, budget.tick

    def counted_multiply(x, y):
        key = (x.orbit, x.tuple, y.orbit, y.tuple)  # the cache key of multiply
        events.append("hit" if key in m._cache else "product")
        return multiply(x, y)

    def counted_tick(n=1):
        events.append("tick")
        tick(n)

    monkeypatch.setattr(m, "multiply", counted_multiply)
    budget.tick = counted_tick
    return events


def assert_one_tick_before_each_product(events):
    between = 0
    for e in events:
        if e == "tick":
            between = 0
        else:
            between += 1
            assert between <= 1
    assert "product" in events


def products(events):
    return sum(e != "tick" for e in events)


@pytest.mark.parametrize(
    "name,bound",
    [("pair_zero", first_letter_bound), ("barred", first_letter_bound),
     ("cutoff2", endpoints_bound), ("l0_recognizer", endpoints_bound)],
)
def test_bounded_check_ticks_once_per_componentwise_product(monkeypatch, name, bound):
    h, s = letters_map(name), bound()
    budget = Budget()
    events = record_events(monkeypatch, h.monoid, budget)
    rep = is_s_bounded(h, s, budget=budget)
    assert_one_tick_before_each_product(events)
    # the closure's products, then one tick per reached orbit read (up
    # to the first witness)
    checks = budget.used - products(events)
    reached = _pairing_image(h, s.data, Budget())
    if rep.ok:
        assert checks == len(reached.set.orbits)
    else:
        assert 0 < checks <= len(reached.set.orbits)


@pytest.mark.parametrize(
    "left,right,bound",
    [("first_proj", "last_proj", first_letter_bound),
     ("barred", "zero_adjoined", first_letter_bound),
     ("cutoff2", "l0_recognizer", endpoints_bound)],
)
def test_join_ticks_once_per_componentwise_product(monkeypatch, left, right, bound):
    h1, h2, s = letters_map(left), letters_map(right), bound()
    budget = Budget()
    events = record_events(monkeypatch, h1.monoid, budget)
    build = bounds.componentwise_monoid

    def marked(*args, **kwargs):
        events.append("table")
        return build(*args, **kwargs)

    monkeypatch.setattr(bounds, "componentwise_monoid", marked)
    jn = join_s_bounded(h1, h2, s, budget=budget)
    cut = events.index("table")
    closure, rest = events[:cut], events[cut + 1:]
    assert_one_tick_before_each_product(closure)
    # the join's table computes at most one fresh product per orbit of
    # the square of the reached orbits; the re-verification ticks on its
    # own monoids
    square, recheck = Budget(), Budget()
    table = product_set(jn.monoid.carrier, jn.monoid.carrier, budget=square)
    assert rest.count("product") <= len(table.set.orbits)
    # the table's enumeration of that square and the re-verification
    # are charged to the caller too
    is_s_bounded(jn.genmap, s, budget=recheck)
    assert budget.used == products(closure) + square.used + recheck.used


def first_last_join(budget):
    return join_s_bounded(
        letters_map("first_proj"), letters_map("last_proj"), endpoints_bound(),
        budget=budget,
    )


def first_last_l0_stage(budget):
    quotients = [catalog_language(n).genmap for n in ("first-a", "last-a", "l0")]
    return build_stage(atoms_set(), endpoints_bound(), quotients, budget=budget)


def stop(run, limit):
    """Where a run on a budget of the limit stops: (used, exception)."""
    budget = Budget(limit)
    try:
        run(budget)
    except BudgetExhausted as exc:
        return budget.used, str(exc)
    return budget.used, None


@pytest.mark.parametrize("run", [first_last_join, first_last_l0_stage])
def test_budget_stops_alike_with_an_equal_product_held(request, run):
    # a held product is returned again by product_set and its ticks are
    # charged again, so each run stops where one that builds every
    # product does: one past the limit, as single ticks would
    full = Budget()
    kept = run(full)
    carrier = kept.monoid.carrier
    assert product_set(carrier, carrier) is kept.monoid.product
    held = [stop(run, limit) for limit in range(1, full.used + 1)]
    request.getfixturevalue("cold_products")
    built = [stop(run, limit) for limit in range(1, full.used + 1)]
    assert held == built
    exhausted = [(limit + 1, f"work budget of {limit} exhausted")
                 for limit in range(1, full.used)]
    assert built == exhausted + [(full.used, None)]


def l0_syntactic(budget):
    return syntactic_of_language(catalog_language("l0"), budget=budget)[1]


@pytest.mark.parametrize("run", [first_last_join, first_last_l0_stage, l0_syntactic])
def test_budget_stops_alike_with_a_multiply_memo_of_one_entry(monkeypatch, run):
    # multiply charges no ticks, so a memo cleared at every miss moves no
    # stop and no result
    full = Budget()
    kept = run(full).monoid
    stops = [stop(run, limit) for limit in range(1, full.used + 1)]
    monkeypatch.setattr(monoid, "MULTIPLY_CACHE_CAP", 1)
    small = Budget()
    assert run(small).monoid == kept
    assert small.used == full.used
    assert [stop(run, limit) for limit in range(1, full.used + 1)] == stops


def test_pairing_image_cap(monkeypatch):
    h, s = letters_map("pair_zero"), first_letter_bound()
    reached = len(_pairing_image(h, s.data, Budget()).set.orbits)
    monkeypatch.setattr(bounds, "ORBIT_CAP", reached)
    assert not is_s_bounded(h, s).ok
    monkeypatch.setattr(bounds, "ORBIT_CAP", reached - 1)
    with pytest.raises(CapExceeded):
        is_s_bounded(h, s)
