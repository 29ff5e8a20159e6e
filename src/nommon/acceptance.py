"""The acceptance checklist: twelve end-to-end criteria.

Each criterion is a self-contained check returning (ok, detail); the
list drives both the test suite and the ``demo`` CLI command. All
sampling is seeded, so a run is deterministic.
"""

import itertools
import random
from fractions import Fraction

from nommon.bounds import (
    classify_quotient,
    endpoints_bound,
    eq_msr_predicate,
    factor_through,
    first_letter_bound,
    is_s_bounded,
    join_s_bounded,
)
from nommon.catalog import builder, catalog_names, catalog_quotient, letters_map
from nommon.fssets import (
    FsSubset,
    apply_perm_subset,
    fs_boolean,
    hull,
    powerset_atoms,
)
from nommon.fssets import member as fs_member
from nommon.language import (
    Word,
    act_word,
    catalog_language,
    member,
    syntactic_of_language,
)
from nommon.monoid import (
    NominalMonoid,
    check_omega_formula,
    is_aperiodic,
    find_isomorphism,
    product_monoid,
    validate_monoid,
)
from nommon.perm import Perm
from nommon.prolimit import (
    DsScope,
    aperiodicity_equation,
    build_stage,
    clopen_of_language,
    d_s,
    language_of_clopen,
    materialize_scope,
    satisfies_explicit,
)
from nommon.sets import (
    Assignment,
    Element,
    EquivariantMap,
    act,
    atoms_set,
    elements_with_support,
    orbit_reps,
    product_set,
    s_orbit_key,
    strong_set,
)

SEED = 20240817


def _words_upto(n, atoms=(0, 1, 2)):
    for length in range(n + 1):
        yield from itertools.product(atoms, repeat=length)


def _scan_l0(t):
    return any(t[i] == t[i + 1] for i in range(len(t) - 1))


def criterion_1_catalog_validation():
    """All catalog monoids validate; a corrupted table fails with a witness."""
    bad_names = [n for n in catalog_names() if not validate_monoid(builder(n)).ok]
    if bad_names:
        return False, f"catalog monoids failed validation: {bad_names}"
    m = builder("zero_adjoined")
    broken = []
    for p, a in enumerate(m.mult.assignment):
        i, j = m.product.factors[p]
        if i == 1 and j == 1 and m.product.set.orbits[p].dim == 2:
            # redirect a.b from 0 to the left letter
            broken.append(Assignment(1, (0,)))
        else:
            broken.append(a)
    corrupted = NominalMonoid(
        m.carrier, m.unit, EquivariantMap(m.product.set, m.carrier, broken), m.product
    )
    report = validate_monoid(corrupted)
    if report.ok or not report.failures:
        return False, "corrupted table was not caught"
    kind, witness = report.failures[0]
    return True, (
        f"{len(catalog_names())} monoids validate; "
        f"corruption caught as {kind} at {witness}"
    )


def criterion_2_orbit_counts():
    """Product and carrier orbit counts match concrete partition oracles."""
    a = atoms_set()
    prod = product_set(a, a)
    if len(prod.set.orbits) != 2:
        return False, f"orbits(A x A) = {len(prod.set.orbits)}, expected 2"
    carrier = builder("l0_recognizer").carrier
    # union-find over concrete tuples under atom transpositions
    elems = elements_with_support(carrier, range(4))
    parent = {e: e for e in elems}

    def find(e):
        while parent[e] != e:
            e = parent[e]
        return e

    for x, y in itertools.combinations(range(4), 2):
        pi = Perm.swap(x, y)
        for e in elems:
            f = act(pi, e)
            if f in parent and find(e) != find(f):
                parent[find(e)] = find(f)
    classes = len({find(e) for e in elems})
    if classes != len(carrier.orbits):
        return False, f"oracle sees {classes} orbits, carrier declares {len(carrier.orbits)}"
    return True, f"orbits(A x A) = 2; L0 carrier partition oracle = {classes} orbits"


def criterion_3_compare_suite():
    """The barred -> zero-adjoined quotient: reflecting, not MSR."""
    res = classify_quotient(catalog_quotient("compare"))
    if not res.support_reflecting or res.msr:
        return False, f"classification {res!r}"
    if res.searched != 4:
        return False, f"MSR exhaustion visited {res.searched} subsets, expected 4"
    if not eq_msr_predicate(builder("barred")):
        return False, "eq-msr refuted on the barred monoid"
    if eq_msr_predicate(builder("zero_adjoined")):
        return False, "eq-msr wrongly holds on the zero-adjoined monoid"
    return True, (
        "reflecting=yes msr=no after exhausting 4 orbit subsets; "
        "eq-msr: barred=yes, zero-adjoined=no"
    )


def criterion_4_no_s_quot():
    """No first-letter-bounded factorization through the pair quotient."""
    h0 = letters_map("zero_adjoined")
    e = catalog_quotient("no-s-quot")
    s = first_letter_bound()
    if factor_through(h0, e, s) is not None:
        return False, "an s-bounded factorization unexpectedly exists"
    rep = is_s_bounded(letters_map("pair_zero"), s)
    if rep.ok:
        return False, "the forced lift passed the bound"
    value, ref = rep.witness
    if not (len(set(value.tuple)) == 2 and len(set(ref.tuple)) == 1):
        return False, f"unexpected witness {rep.witness}"
    return True, (
        f"no bounded lift; forced lift rejected with supp {set(value.tuple)} "
        f"not within {set(ref.tuple)}"
    )


def criterion_5_omega_formula():
    """Closed-form omega exponent agrees with cycle detection everywhere."""
    failing = [n for n in catalog_names() if not check_omega_formula(builder(n))]
    if failing:
        return False, f"omega formula disagrees on {failing}"
    return True, f"exact agreement on all {len(catalog_names())} catalog monoids"


def criterion_6_aperiodicity_proequation():
    """x^w.x = x^w satisfaction tracks aperiodicity; Z/2 refutes."""
    lhs, rhs = aperiodicity_equation()
    s = first_letter_bound()
    for name in catalog_names():
        m = builder(name)
        if satisfies_explicit(m, atoms_set(), s, lhs, rhs).holds != is_aperiodic(m).ok:
            return False, f"disagreement with is_aperiodic on {name}"
    rep = satisfies_explicit(builder("cyclic2"), atoms_set(), s, lhs, rhs)
    if rep.holds:
        return False, "Z/2 failed to refute the equation"
    h, left, right = rep.counterexample
    return True, (
        f"agrees on all catalog monoids; Z/2 counterexample morphism sends "
        f"a to orbit {h(Element(atoms_set(), 0, [0])).orbit} with "
        f"{left!r} != {right!r}"
    )


def criterion_7_codirectedness():
    """Joins of bounded quotients re-verify; p1 join p2 breaks 1-boundedness."""
    s = first_letter_bound()
    bounded = [
        n
        for n in ("trivial", "first_proj", "zero_adjoined", "barred", "cutoff1")
        if is_s_bounded(letters_map(n), s).ok
    ]
    for n1, n2 in itertools.combinations_with_replacement(bounded, 2):
        jn = join_s_bounded(letters_map(n1), letters_map(n2), s)
        if not jn.bound_report.ok:
            return False, f"join of {n1}, {n2} lost s-boundedness"
    jn = join_s_bounded(letters_map("first_proj"), letters_map("last_proj"), s)
    if jn.bound_report.ok:
        return False, "p1 join p2 unexpectedly stayed 1-bounded"
    value, ref = jn.bound_report.witness
    if len(set(value.tuple)) != 2:
        return False, f"unexpected witness {jn.bound_report.witness}"
    return True, (
        f"{len(bounded)} bounded quotients, all pairwise joins re-verify; "
        f"p1 join p2 refuted by supp {set(value.tuple)}"
    )


def criterion_8_pseudometric():
    """d_s values and pseudo-ultrametric axioms over exhaustive(2, 1)."""
    s = first_letter_bound()
    scope = DsScope.exhaustive(2, 1)
    prepared = materialize_scope(atoms_set(), s, scope)

    def dist(v, w):
        return d_s(Word.of_atoms(v), Word.of_atoms(w), s, scope, prepared=prepared)

    if dist((0, 1), (0, 2)).value != 0:
        return False, "d_s(ab, ac) != 0"
    res = dist((0, 1), (1, 0))
    if res.value != Fraction(1, 4):
        return False, f"d_s(ab, ba) = {res.value}, expected 1/4"
    cert_m = res.certificate[0]
    if find_isomorphism(cert_m, builder("first_proj")) is None:
        return False, "certificate monoid is not isomorphic to P1"
    words = list(_words_upto(3))
    table = {}
    for v, w in itertools.combinations_with_replacement(words, 2):
        table[(v, w)] = table[(w, v)] = dist(v, w).value
    for v in words:
        if table[(v, v)] != 0:
            return False, f"d({v},{v}) != 0"
    for u, v, w in itertools.product(words, repeat=3):
        if table[(u, w)] > max(table[(u, v)], table[(v, w)]):
            return False, f"ultrametric inequality fails on {u}, {v}, {w}"
    return True, (
        f"d(ab,ac)=0, d(ab,ba)=1/4 with a P1 certificate; ultrametric "
        f"axioms on all {len(words)}^2 word pairs"
    )


def criterion_9_syntactic():
    """Syntactic monoids: L0 versus the scan oracle; the union language."""
    l0 = catalog_language("l0")
    lsyn, _ = syntactic_of_language(l0)
    count = 0
    for t in _words_upto(5):
        count += 1
        if member(lsyn, Word.of_atoms(t)) != _scan_l0(t):
            return False, f"L0 syntactic recognizer disagrees on {t}"
    l2a = catalog_language("l2-any")
    lsyn2, syn2 = syntactic_of_language(l2a)
    max_supp = max(len(r.tuple) for r in orbit_reps(syn2.monoid.carrier))
    if max_supp != 2:
        return False, f"max support in the syntactic monoid is {max_supp}"
    for t in _words_upto(4):
        if member(lsyn2, Word.of_atoms(t)) != (len(t) >= 2 and t[0] == t[-1]):
            return False, f"union-language syntactic recognizer disagrees on {t}"
    dims = sorted(d.dim for d in syn2.monoid.carrier.orbits)
    pm = product_monoid(builder("first_proj"), builder("last_proj"))
    iso = find_isomorphism(syn2.monoid, pm.monoid) is not None
    return True, (
        f"L0 exact on {count} words; union language: support-2 element "
        f"present, computed orbit dims {dims} "
        f"({'isomorphic' if iso else 'not isomorphic'} to P1 x P2, "
        f"which has 5 orbits)"
    )


def criterion_10_duality():
    """Powerset atoms biject with points; hulls and boolean laws hold."""
    rng = random.Random(SEED)
    pool = range(3)
    for name in ("trivial", "first_proj", "pair_zero"):
        carrier = builder(name).carrier
        elems = elements_with_support(carrier, pool)
        atoms, bij = powerset_atoms(carrier, pool)
        if len(atoms) != len(elems) or any(
            u != FsSubset.singleton(x) for x, u in bij
        ):
            return False, f"powerset atoms are not the singletons over {name}"
    # hull versus sampled permutation union
    carrier = builder("pair_zero").carrier
    universe = list(range(5))
    for s_atoms in ((), (0,), (0, 1)):
        free = [a for a in universe if a not in s_atoms]
        base = FsSubset.from_elements(
            carrier,
            universe,
            [
                Element(carrier, 1, [rng.choice(universe)]),
                Element(carrier, 2, rng.sample(universe, 2)),
            ],
        )
        hulled = hull(s_atoms, base)
        # accumulate images under composed support-fixing permutations
        sampled = base
        current = base
        for _ in range(50):
            pi = Perm.swap(*rng.sample(free, 2))
            current = apply_perm_subset(pi, current)
            sampled = fs_boolean("union", sampled, current)
        covered = all(fs_member(hulled, r) for r in sampled.reps())
        exact = {s_orbit_key(r, frozenset(s_atoms)) for r in sampled.reps()} == {
            s_orbit_key(r, frozenset(s_atoms)) for r in hulled.reps()
        }
        if not (covered and exact):
            return False, f"hull mismatch at support {s_atoms}"
    # boolean-algebra laws on seeded random subsets
    def rand_elem():
        orbit = rng.choice((1, 2))
        return Element(carrier, orbit, rng.sample(universe, 2 if orbit == 2 else 1))

    def rand_subset():
        return FsSubset.from_elements(
            carrier, universe, [rand_elem() for _ in range(rng.randrange(4))]
        )

    for _ in range(500):
        u, v, w = rand_subset(), rand_subset(), rand_subset()
        lhs = fs_boolean("intersect", u, fs_boolean("union", v, w))
        rhs = fs_boolean(
            "union", fs_boolean("intersect", u, v), fs_boolean("intersect", u, w)
        )
        if lhs != rhs:
            return False, "distributivity failed"
        dm = fs_boolean("complement", fs_boolean("union", u, v))
        dm2 = fs_boolean(
            "intersect", fs_boolean("complement", u), fs_boolean("complement", v)
        )
        if dm != dm2:
            return False, "De Morgan failed"
    return True, (
        "singleton bijection on 3 carriers; hulls match sampled "
        "permutation unions; 500 boolean-law cases pass"
    )


def criterion_11_stage_correspondence():
    """Clopen round-trips and boolean commuting at a 3-quotient stage."""
    langs = [catalog_language(n) for n in ("first-a", "last-a", "l0")]
    stage = build_stage(
        atoms_set(), endpoints_bound(), [lang.genmap for lang in langs]
    )
    for lang in langs:
        c = clopen_of_language(stage, lang)
        back = language_of_clopen(stage, c)
        for t in _words_upto(3):
            if member(back, Word.of_atoms(t)) != member(lang, Word.of_atoms(t)):
                return False, f"round-trip broke on {t}"
        if clopen_of_language(stage, back) != c:
            return False, "clopen-side round-trip is not the identity"
    c1 = clopen_of_language(stage, langs[0])
    c2 = clopen_of_language(stage, langs[1])
    for op, fn in (("union", any), ("intersect", all)):
        combined = language_of_clopen(stage, fs_boolean(op, c1, c2))
        for t in _words_upto(3):
            w = Word.of_atoms(t)
            if member(combined, w) != fn([member(langs[0], w), member(langs[1], w)]):
                return False, f"{op} does not commute with the correspondence"
    return True, (
        "identity round-trips and boolean commuting for 3 languages at "
        f"a stage with {len(stage.monoid.carrier.orbits)} orbits"
    )


def criterion_12_property_suites():
    """Seeded equivariance samples and exact concrete-oracle cross-checks."""
    rng = random.Random(SEED)
    a = atoms_set()
    m = builder("l0_recognizer")
    lang = catalog_language("l0")
    proj = m.mult  # equivariant map sample target
    for _ in range(200):
        pi = Perm.swap(*rng.sample(range(6), 2))
        orbit = rng.choice((1, 3))
        x = Element(m.carrier, orbit, rng.sample(range(6), 2 if orbit == 3 else 1))
        # action composes
        rho = Perm.swap(*rng.sample(range(6), 2))
        if act(pi, act(rho, x)) != act(pi.compose(rho), x):
            return False, "action composition failed"
        # multiplication is equivariant
        y = Element(m.carrier, 1, [rng.randrange(6)])
        if act(pi, m.multiply(x, y)) != m.multiply(act(pi, x), act(pi, y)):
            return False, "multiplication equivariance failed"
        # maps are equivariant
        e = m.product.pair(x, y)
        if act(pi, proj(e)) != proj(act(pi, e)):
            return False, "map equivariance failed"
        # membership is equivariant
        t = tuple(rng.randrange(6) for _ in range(rng.randrange(5)))
        w = Word.of_atoms(t)
        if member(lang, w) != member(lang, act_word(pi, w)):
            return False, "membership equivariance failed"
    # exact oracles: product orbit counts over a 6-atom universe
    for left, right, expected in (
        (a, a, 2),
        (strong_set([2]), a, 3),
        (strong_set([2]), strong_set([2]), 7),
    ):
        prod = product_set(left, right)
        if len(prod.set.orbits) != expected:
            return False, f"product orbit count {len(prod.set.orbits)} != {expected}"
        seen = {
            prod.pair(x, y).orbit
            for x in elements_with_support(left, range(6))
            for y in elements_with_support(right, range(6))
        }
        if len(seen) != expected:
            return False, "concrete pairs do not cover the declared orbits"
    # congruence separation: merged elements are context-inseparable
    _, syn = syntactic_of_language(lang)
    rec = syn.projection.dom
    contexts = elements_with_support(rec.carrier, range(4))
    p = FsSubset.from_elements(
        rec.carrier, (), [m.encode_state(0, 0, 1), m.encode_state(0, 1, 1)]
    )
    in_p = {e: fs_member(p, e) for e in contexts}

    def sig(x):
        return tuple(
            in_p[rec.multiply(u, rec.multiply(x, v))]
            for u in contexts
            for v in contexts
        )

    elems = elements_with_support(rec.carrier, range(3))
    sigs = {x: sig(x) for x in elems}
    for x, y in itertools.combinations(elems, 2):
        if syn.projection(x) == syn.projection(y) and sigs[x] != sigs[y]:
            return False, f"merged separable elements {x}, {y}"
    return True, "200 equivariance samples per property; all oracles exact"


CRITERIA = (
    (1, "catalog validation", criterion_1_catalog_validation),
    (2, "orbit counts", criterion_2_orbit_counts),
    (3, "compare quotient suite", criterion_3_compare_suite),
    (4, "no bounded factorization", criterion_4_no_s_quot),
    (5, "omega power formula", criterion_5_omega_formula),
    (6, "aperiodicity proequation", criterion_6_aperiodicity_proequation),
    (7, "codirectedness and bounded failure", criterion_7_codirectedness),
    (8, "pseudometric", criterion_8_pseudometric),
    (9, "syntactic monoids", criterion_9_syntactic),
    (10, "orbit-finite duality", criterion_10_duality),
    (11, "stage correspondence", criterion_11_stage_correspondence),
    (12, "property suites", criterion_12_property_suites),
)


def run_all():
    """Evaluate every criterion; returns (number, title, ok, detail) rows."""
    results = []
    for number, title, fn in CRITERIA:
        try:
            ok, detail = fn()
        except Exception as exc:  # noqa: BLE001  - a crash is a failure
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((number, title, ok, detail))
    return results
