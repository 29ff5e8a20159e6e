"""The benchmark's three workloads: seeded inputs, one verdict per op.

Set-up turns a seed into rounds of operations. An operation is a
``(kind, params, expected)`` triple: ``params`` is all the library gets,
and ``expected`` comes from ``oracle``, which does not use the library.
``run_op`` executes one operation through nommon's public API and
returns the library's answer; the answer is correct when it equals
``expected``. Every operation builds its own monoids, recognizers and
carriers, as one command-line call would, so no multiplication or
pairing cache survives from one operation to the next.

Each round holds a fixed quota of every operation kind, so a run's mix
does not depend on the seed or on where the time limit falls; the seed
chooses the inputs within each kind.
"""

import random

from nommon.bounds import endpoints_bound, first_letter_bound, join_s_bounded
from nommon.catalog import builder, letters_map
from nommon.fssets import FsSubset, fs_boolean, hull
from nommon.fssets import member as fs_member
from nommon.language import (
    Language,
    Word,
    catalog_language,
    member,
    syntactic_of_language,
)
from nommon.monoid import NominalMonoid, product_monoid, validate_monoid
from nommon.prolimit import (
    DsScope,
    build_stage,
    clopen_of_language,
    d_s,
    language_of_clopen,
    materialize_scope,
)
from nommon.sets import Assignment, Element, EquivariantMap, atoms_set, orbit_reps, strong_set
from nommon.textfmt import parse, serialize

import oracle

# Inputs left out on purpose. run.py prints them with each result, and the
# workloads' "why" in BENCHMARK.json names the main ones.
EXCLUDED = {
    "syntactic": [
        "first-a, last-a and l2-fixed: syntactic_of_language raises InvalidInput "
        "('quotient requires an equivariant congruence') on these non-equivariant "
        "languages",
    ],
    "construct": [
        "product_monoid(barred, l0_recognizer): CapExceeded (orbit cap 4000)",
        "validate_monoid on bound-3 products: 48-214 s per call",
        "enumerate_small_monoids(3, 1): about 36 s and 8.1M ticks per call; "
        "a workload once small-monoid enumeration is affordable",
        "product barred x barred (1.7 s to validate) and join cutoff2 x "
        "l0_recognizer (1.3 s): each alone would set the tail",
    ],
}

WORDS = oracle.words_upto(4)
SHORT_WORDS = oracle.words_upto(3)


def _long_words(rng, count=6):
    return [
        tuple(rng.randrange(6) for _ in range(rng.randrange(8, 17)))
        for _ in range(count)
    ]


def _first(rounds, wanted):
    """(round, position, op) of the first op satisfying ``wanted``."""
    return next(
        (r, i, op)
        for r, ops in enumerate(rounds)
        for i, op in enumerate(ops)
        if wanted(op)
    )


def roundtrip_ok(m):
    """serialize -> parse -> serialize of a monoid is the identity."""
    text = serialize({"M": m})
    return serialize(parse(text)) == text


# --- syntactic: the read side of monoid.multiply ---------------------------

RECOGNIZER_ORBITS = {"l0_recognizer": 5, "pair_zero": 4, "cutoff2": 4}
# Sorted by cost, 2 cheap : 2 middle : 1 dear, so the median and the tail
# percentile both fall inside the cutoff2 block for 20 to 50 samples.
SYNTACTIC_ROUND = ("l0_recognizer", "cutoff2", "cutoff2", "pair_zero", "l2-any")


def _syntactic_op(rng, decks, name):
    words = WORDS + _long_words(rng)
    if name == "l2-any":
        expected = [oracle.LANGUAGES["l2-any"](w) for w in words]
        return ("syntactic", (name, (), words), expected)
    count = RECOGNIZER_ORBITS[name]
    orbits = tuple(sorted(rng.sample(range(count), rng.randrange(1, count))))
    expected = [oracle.recognizer_orbit(name, w) in orbits for w in words]
    return ("syntactic", (name, orbits, words), expected)


def _plant_syntactic(rounds):
    """Flip one predicate orbit of the first pair_zero op, keeping its answer."""
    r, i, (kind, (name, orbits, words), expected) = _first(
        rounds, lambda op: op[1][0] == "pair_zero"
    )
    flipped = tuple(sorted(set(orbits) ^ {0}))
    rounds[r][i] = (kind, (name, flipped, words), expected)


def run_syntactic(params, budget):
    name, orbits, words = params
    if name == "l2-any":
        lang = catalog_language(name)
    else:
        m = builder(name)
        reps = orbit_reps(m.carrier)
        pred = FsSubset.from_elements(m.carrier, (), [reps[i] for i in orbits])
        lang = Language(letters_map(name, m), pred)
    syn_lang, _ = syntactic_of_language(lang, budget=budget)
    return [member(syn_lang, Word.of_atoms(w)) for w in words]


# --- fs-boolean: S-orbit enumeration and fssets normalization --------------

# carriers with trivial position groups, as the subset oracle requires
CARRIER_DIMS = {"pair_zero": (0, 1, 2, 0), "l0_recognizer": (0, 1, 1, 2, 2)}
UNIVERSE = range(6)
OUTSIDE = (100, 101)  # atoms in no support: they make infinite S-orbits
PROBE_FRESH = (50, 51)  # stand for every atom outside the op's supports
SUPPORT_SIZES = (3, 4, 5)
# Hulls are 10x cheaper than boolean cases; one in three keeps the median
# inside the boolean block. A round holds every (carrier, kind, support
# size), since the support size sets most of an op's cost.
BOOLEAN_ROUND = tuple(
    (carrier, kind, size)
    for carrier in CARRIER_DIMS
    for kind in ("distributivity", "demorgan", "hull")
    for size in SUPPORT_SIZES
)


def _random_subset(rng, dims, support):
    """Elements covering the support's atoms, some reaching outside it."""
    positive = [i for i, d in enumerate(dims) if d > 0]
    elements = []
    uncovered = set(support)
    while uncovered or len(elements) < 2:
        orbit = rng.choice(positive)
        first = rng.choice(sorted(uncovered or support))
        rest = [a for a in support + list(OUTSIDE) if a != first]
        atoms = [first] + rng.sample(rest, dims[orbit] - 1)
        rng.shuffle(atoms)
        elements.append((orbit, tuple(atoms)))
        uncovered -= set(atoms)
    if rng.random() < 0.3:
        elements.append((rng.choice([i for i, d in enumerate(dims) if d == 0]), ()))
    return tuple(support), tuple(elements)


def _boolean_op(rng, decks, carrier, kind, size):
    """All operands of one op share one support of the given size."""
    dims = CARRIER_DIMS[carrier]
    support = sorted(rng.sample(UNIVERSE, size))
    n = 3 if kind == "distributivity" else (2 if kind == "demorgan" else 1)
    subsets = [_random_subset(rng, dims, support) for _ in range(n)]
    probes = oracle.probe_points(dims, support + list(PROBE_FRESH))

    def inside(k, x):
        return oracle.subset_member(x, set(support), subsets[k][1])

    if kind == "distributivity":
        expected = [inside(0, x) and (inside(1, x) or inside(2, x)) for x in probes]
        params = (carrier, kind, subsets, (), probes)
    elif kind == "demorgan":
        expected = [not (inside(0, x) or inside(1, x)) for x in probes]
        params = (carrier, kind, subsets, (), probes)
    else:
        elements = subsets[0][1]
        s_prime = tuple(sorted(rng.sample(support, rng.randrange(size))))
        expected = [
            oracle.subset_member(x, set(s_prime), elements) for x in probes
        ]
        params = (carrier, kind, subsets, s_prime, probes)
    # the law holds / the hull is supported by S'
    return ("fs-boolean", params, (True, expected))


def _plant_boolean(rounds):
    """Give the first De Morgan op's u one more element, keeping its answer."""
    r, i, (kind, params, expected) = _first(rounds, lambda op: op[1][1] == "demorgan")
    carrier, name, subsets, s_prime, probes = params
    extra = probes[expected[1].index(True)]  # outside u and v by the oracle
    (support, elements), v = subsets
    wrong = [(support, elements + (extra,)), v]
    rounds[r][i] = (kind, (carrier, name, wrong, s_prime, probes), expected)


def run_boolean(params, budget):
    carrier_name, kind, subsets, s_prime, probes = params
    carrier = strong_set(CARRIER_DIMS[carrier_name])
    fs = [
        FsSubset.from_elements(
            carrier, support, [Element(carrier, o, atoms) for o, atoms in elements]
        )
        for support, elements in subsets
    ]
    if kind == "distributivity":
        u, v, w = fs
        result = fs_boolean("intersect", u, fs_boolean("union", v, w))
        other = fs_boolean(
            "union", fs_boolean("intersect", u, v), fs_boolean("intersect", u, w)
        )
        verdict = result == other
    elif kind == "demorgan":
        u, v = fs
        result = fs_boolean("complement", fs_boolean("union", u, v))
        other = fs_boolean(
            "intersect", fs_boolean("complement", u), fs_boolean("complement", v)
        )
        verdict = result == other
    else:
        result = hull(s_prime, fs[0], budget=budget)
        verdict = result.support <= frozenset(s_prime)
    return (verdict, [fs_member(result, Element(carrier, o, t)) for o, t in probes])


# --- construct: the write side ---------------------------------------------

BOUND0 = ("trivial", "cyclic2", "cyclic3")
BOUND1 = ("cutoff1", "first_proj", "last_proj", "zero_adjoined", "barred")
LIGHT_PAIRS = [(a, b) for a in BOUND0 for b in BOUND0 + BOUND1]
HEAVY_PAIRS = [
    (a, b)
    for i, a in enumerate(BOUND1)
    for b in BOUND1[i:]
    if (a, b) != ("barred", "barred")
]
# trivial x trivial has no orbit besides the unit, so no unit row to corrupt
CORRUPTIBLE_PAIRS = [p for p in LIGHT_PAIRS if p != ("trivial", "trivial")]
LETTER_MAPS = (
    "trivial", "first_proj", "last_proj", "zero_adjoined", "barred",
    "cutoff1", "pair_zero", "cutoff2", "l0_recognizer",
)
JOIN_PAIRS = [
    (a, b)
    for i, a in enumerate(LETTER_MAPS)
    for b in LETTER_MAPS[i:]
    if (a, b) != ("cutoff2", "l0_recognizer")
]
STAGE_LANGUAGES = ("first-a", "last-a", "l0", "l2-any", "l2-fixed")
CONSTRUCT_ROUND = (
    "product-light", "product-heavy", "product-corrupt",
    "join", "join", "stage", "distance",
)


def _construct_op(rng, decks, kind):
    if kind.startswith("product"):
        pairs = {
            "product-light": LIGHT_PAIRS,
            "product-heavy": HEAVY_PAIRS,
            "product-corrupt": CORRUPTIBLE_PAIRS,
        }[kind]
        n1, n2 = decks.draw(kind, pairs)
        if rng.random() < 0.5:
            n1, n2 = n2, n1
        corrupt = rng.randrange(1000) if kind == "product-corrupt" else None
        return ("product", (n1, n2, corrupt), (corrupt is None, True))
    if kind == "join":
        n1, n2 = decks.draw(kind, JOIN_PAIRS)
        bound = rng.choice(("first-letter", "endpoints"))
        values = [
            (oracle.letter_map_value(n1, w), oracle.letter_map_value(n2, w))
            for w in SHORT_WORDS
        ]
        expected = (
            oracle.join_is_bounded(n1, n2, bound, SHORT_WORDS),
            oracle.partition(values),
            True,
        )
        return ("join", (n1, n2, bound, SHORT_WORDS), expected)
    if kind == "stage":
        langs = tuple(rng.sample(STAGE_LANGUAGES, decks.draw(kind, range(2, 6))))
        expected = (
            [[oracle.LANGUAGES[n](w) for w in SHORT_WORDS] for n in langs],
            True,
            True,
        )
        return ("stage", (langs, SHORT_WORDS), expected)
    # d_s on word pairs, their swaps and an atom-renamed copy
    perm = list(range(6))
    rng.shuffle(perm)
    pairs = []
    for _ in range(6):
        v = tuple(rng.randrange(4) for _ in range(rng.randrange(4)))
        w = tuple(rng.randrange(4) for _ in range(rng.randrange(4)))
        pairs.append((v, w, tuple(perm[a] for a in v), tuple(perm[a] for a in w)))
    expected = [
        (d, d, d, True)
        for d in (oracle.first_letter_distance(v, w) for v, w, _, _ in pairs)
    ]
    return ("distance", (pairs,), (expected, True))


def _plant_construct(rounds):
    """Corrupt the first valid product's table, keeping the answer 'valid'."""
    r, i, (kind, (n1, n2, _), expected) = _first(
        rounds, lambda op: op[0] == "product" and op[1][2] is None
    )
    rounds[r][i] = (kind, (n1, n2, 0), expected)


def _corrupted(m, choice):
    """m with unit . x sent to the unit for one non-unit orbit of x: the
    left-unit law fails, so the table is invalid whatever else it holds."""
    u = m.unit.orbit
    rows = [
        p
        for p, (i, j) in enumerate(m.product.factors)
        if i == u and j != u
    ]
    bad = rows[choice % len(rows)]
    assignment = list(m.mult.assignment)
    assignment[bad] = Assignment(u, ())
    mult = EquivariantMap(m.product.set, m.carrier, assignment)
    return NominalMonoid(m.carrier, m.unit, mult, m.product)


def _bound(name):
    return first_letter_bound() if name == "first-letter" else endpoints_bound()


def run_construct(kind, params, budget):
    if kind == "product":
        n1, n2, corrupt = params
        m = product_monoid(builder(n1), builder(n2), budget=budget).monoid
        checked = m if corrupt is None else _corrupted(m, corrupt)
        return (validate_monoid(checked, budget=budget).ok, roundtrip_ok(m))
    if kind == "join":
        n1, n2, bound, words = params
        jn = join_s_bounded(
            letters_map(n1), letters_map(n2), _bound(bound), budget=budget
        )
        values = [jn.genmap.eval_word(Word.of_atoms(w).letters) for w in words]
        return (jn.bound_report.ok, oracle.partition(values), roundtrip_ok(jn.monoid))
    if kind == "stage":
        names, words = params
        langs = [catalog_language(n) for n in names]
        stage = build_stage(
            atoms_set(), endpoints_bound(), [lang.genmap for lang in langs],
            budget=budget,
        )
        answers = []
        identity = True
        for lang in langs:
            c = clopen_of_language(stage, lang)
            back = language_of_clopen(stage, c)
            answers.append([member(back, Word.of_atoms(w)) for w in words])
            identity = identity and clopen_of_language(stage, back) == c
        return (answers, identity, roundtrip_ok(stage.monoid))
    (pairs,) = params
    s = first_letter_bound()
    scope = DsScope.exhaustive(2, 1)
    prepared = materialize_scope(atoms_set(), s, scope, budget=budget)
    out = []
    for v, w, pv, pw in pairs:
        v, w = Word.of_atoms(v), Word.of_atoms(w)
        res = d_s(v, w, s, scope, budget=budget, prepared=prepared)
        swapped = d_s(w, v, s, scope, budget=budget, prepared=prepared)
        renamed = d_s(
            Word.of_atoms(pv), Word.of_atoms(pw), s, scope,
            budget=budget, prepared=prepared,
        )
        cert_ok = res.certificate is None
        if not cert_ok:
            _, h, (hv, hw) = res.certificate
            cert_ok = hv != hw and (h.eval_word(v.letters), h.eval_word(w.letters)) == (hv, hw)
        out.append((res.value, swapped.value, renamed.value, cert_ok))
    return (out, all(roundtrip_ok(m) for m, _ in prepared))


# --- the workload table ----------------------------------------------------


class Decks:
    """Seeded draws without replacement, reshuffled when a deck runs out.

    Every item of a deck then appears about equally often in the rounds
    a seed generates, so the seed cannot tilt a run towards the dearest
    products or joins, which set the tail.
    """

    def __init__(self, rng):
        self.rng = rng
        self.decks = {}

    def draw(self, name, items):
        deck = self.decks.get(name)
        if not deck:
            deck = self.decks[name] = list(items)
            self.rng.shuffle(deck)
        return deck.pop()


class Workload:
    """A named op mix: ``make_rounds`` is set-up, ``run_op`` the timed part."""

    def __init__(self, name, round_kinds, make_op, plant, rounds, trace_rounds):
        self.name = name
        self.round_kinds = round_kinds
        self.make_op = make_op
        self.plant = plant
        self.rounds = rounds  # rounds generated in set-up; a run cycles through them
        self.trace_rounds = trace_rounds  # fixed batch of the traced run

    def make_rounds(self, seed, plant=False):
        rng = random.Random(f"{self.name}:{seed}")
        decks = Decks(rng)
        rounds = [
            [self.make_op(rng, decks, kind) for kind in self.round_kinds]
            for _ in range(self.rounds)
        ]
        if plant:
            self.plant(rounds)
        return rounds


def op_label(op):
    """The op's kind and main input, for the per-kind summary."""
    kind, params, _expected = op
    if kind == "syntactic":
        return f"syntactic {params[0]}"
    if kind == "fs-boolean":
        return f"{params[1]} {params[0]} |S|={len(params[2][0][0])}"
    if kind == "product":
        if params[2] is not None:
            return "product-corrupt"
        return "product-heavy" if set(params[:2]) <= set(BOUND1) else "product-light"
    return kind


def run_op(op, budget):
    """Execute one op through the library and return its answer."""
    kind, params, _expected = op
    if kind == "syntactic":
        return run_syntactic(params, budget)
    if kind == "fs-boolean":
        return run_boolean(params, budget)
    return run_construct(kind, params, budget)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "syntactic", SYNTACTIC_ROUND, _syntactic_op, _plant_syntactic,
            rounds=8, trace_rounds=1,
        ),
        Workload(
            "fs-boolean", BOOLEAN_ROUND,
            lambda rng, decks, stratum: _boolean_op(rng, decks, *stratum),
            _plant_boolean,
            rounds=24, trace_rounds=2,
        ),
        Workload(
            "construct", CONSTRUCT_ROUND, _construct_op, _plant_construct,
            rounds=64, trace_rounds=8,
        ),
    )
}
