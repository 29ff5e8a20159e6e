"""Omega-term proequations, truncation stages, and the pseudometric.

Limits of words are never materialized: a profinite word is either an
omega-term (evaluated through a morphism, with the omega as the unique
idempotent power) or an element of a finite truncation stage built by
iterated joins of s-bounded quotients. The pseudometric d_s is the
supremum of 2^{-orbit count} over separating monoids, computed over an
explicitly declared scope.
"""

from fractions import Fraction

from nommon.bounds import enumerate_s_bounded, is_s_bounded, join, msr_closure_suite
from nommon.errors import InvalidInput, ensure_budget
from nommon.fssets import preimage_subset
from nommon.monoid import (
    coimage,
    compose_morphisms,
    enumerate_small_monoids,
    omega_power,
)
from nommon.sets import Element


class OmegaTerm:
    """Unit | Letter(x) | Concat(terms) | Omega(term)."""

    __slots__ = ("kind", "args")

    def __init__(self, kind, args):
        self.kind = kind
        self.args = args

    @staticmethod
    def unit():
        return OmegaTerm("unit", ())

    @staticmethod
    def letter(x):
        return OmegaTerm("letter", (x,))

    @staticmethod
    def concat(*terms):
        alphabets = {a for t in terms for a in t.alphabets()}
        if len(alphabets) > 1:
            raise InvalidInput("all letters of a term must share the alphabet")
        return OmegaTerm("concat", tuple(terms))

    @staticmethod
    def omega(term):
        return OmegaTerm("omega", (term,))

    def alphabets(self):
        if self.kind == "letter":
            return {self.args[0].set}
        out = set()
        for t in self.args:
            if isinstance(t, OmegaTerm):
                out |= t.alphabets()
        return out

    def __eq__(self, other):
        return (
            isinstance(other, OmegaTerm)
            and self.kind == other.kind
            and self.args == other.args
        )

    def __hash__(self):
        return hash((self.kind, self.args))

    def __repr__(self):
        if self.kind == "letter":
            return f"Letter{self.args[0].tuple}"
        if self.kind == "unit":
            return "Unit"
        inner = ", ".join(map(repr, self.args))
        return f"{self.kind.capitalize()}({inner})"


def eval_omega_term(h0, t, budget=None):
    """Structural fold of a term through a generator map.

    Omega is the unique idempotent power, found by cycle arithmetic on
    ``budget``; the closed-form exponent is never expanded.
    """
    m = h0.monoid
    if t.kind == "unit":
        return m.unit
    if t.kind == "letter":
        return h0(t.args[0])
    if t.kind == "concat":
        out = m.unit
        for sub in t.args:
            out = m.multiply(out, eval_omega_term(h0, sub, budget))
        return out
    if t.kind == "omega":
        return omega_power(m, eval_omega_term(h0, t.args[0], budget), budget)
    raise InvalidInput(f"unknown term kind {t.kind!r}")


class EquationReport:
    """satisfies_explicit outcome; a counterexample is a morphism plus
    the two distinct evaluations."""

    def __init__(self, holds, counterexample=None):
        self.holds = holds
        self.counterexample = counterexample

    def __bool__(self):
        return self.holds

    def __repr__(self):
        return f"EquationReport(holds={self.holds})"


def satisfies_explicit(m, sigma, s, lhs, rhs, budget=None):
    """Does every s-bounded evaluation identify the two terms?"""
    budget = ensure_budget(budget)
    for h in enumerate_s_bounded(sigma, m, s, budget=budget):
        budget.tick()
        left = eval_omega_term(h, lhs, budget)
        right = eval_omega_term(h, rhs, budget)
        if left != right:
            return EquationReport(False, (h, left, right))
    return EquationReport(True)


def aperiodicity_equation():
    """x^omega . x = x^omega over the atom alphabet, x a single letter."""
    from nommon.sets import atoms_set

    a = Element(atoms_set(), 0, [0])
    x = OmegaTerm.letter(a)
    return OmegaTerm.concat(OmegaTerm.omega(x), x), OmegaTerm.omega(x)


def reiterman_instance_suite(equations, monoids, sigma, s, quotients=(), budget=None):
    """Closure probe for the satisfaction class of an equation list."""
    budget = ensure_budget(budget)

    def pred(m):
        return all(
            satisfies_explicit(m, sigma, s, lhs, rhs, budget=budget).holds
            for lhs, rhs in equations
        )

    return msr_closure_suite(pred, monoids, quotients, budget=budget)


# --- truncation stages ----------------------------------------------------


class TruncatedStage:
    """A finite stage of the limit: the join of finitely many s-bounded
    quotients, with projections recovering each of them. The join is
    s-bounded since each quotient is (the lemma on ``_join_into``)."""

    def __init__(self, alphabet, bound, quotients, join, projections):
        self.alphabet = alphabet
        self.bound = bound
        self.quotients = tuple(quotients)
        self.join = join
        self.projections = tuple(projections)

    @property
    def monoid(self):
        return self.join.monoid


def _require_s_bounded(q, s, budget):
    rep = is_s_bounded(q, s, budget=budget)
    if not rep.ok:
        raise InvalidInput(f"stage quotient is not s-bounded: {rep.witness}")


def build_stage(sigma, s, quotients, budget=None):
    """The stage joining the given s-bounded quotients, in order.

    Each quotient is checked against the bound once, and no join is:
    the first becomes the stage through its coimage, whose values have
    q's supports, and each later one is joined in as ``extend_stage``
    does.
    """
    budget = ensure_budget(budget)
    quotients = list(quotients)
    if not quotients:
        raise InvalidInput("a stage needs at least one quotient")
    stage = None
    for q in quotients:
        if q.sigma != sigma:
            raise InvalidInput("stage quotients must share the alphabet")
        _require_s_bounded(q, s, budget)
        if stage is None:
            genmap, incl = coimage(q)
            stage = TruncatedStage(sigma, s, [q], genmap, [incl])
        else:
            stage, _ = _join_into(stage, q, budget)
    return stage


def extend_stage(stage, q, budget=None):
    """Join one more s-bounded quotient in; also returns the refinement
    morphism from the new stage monoid onto the old one. Only ``q`` is
    checked against the bound."""
    budget = ensure_budget(budget)
    _require_s_bounded(q, stage.bound, budget)
    return _join_into(stage, q, budget)


def _join_into(stage, q, budget):
    """``extend_stage`` for a quotient already checked against the bound.

    *Lemma.* supp (h1(w), h2(w)) = supp h1(w) + supp h2(w) lies within
    s(w) exactly when both do, so the join of h1 and h2 is s-bounded
    exactly when both are, under a constant or a via-morphism bound.
    The stage's join and ``q`` are, so the new join is not checked.
    """
    jn = join(stage.join, q, budget)
    projections = [compose_morphisms(p, jn.left) for p in stage.projections]
    projections.append(jn.right)
    new = TruncatedStage(
        stage.alphabet, stage.bound, list(stage.quotients) + [q], jn.genmap, projections
    )
    return new, jn.left


def eta(stage, w):
    """The stage image of a word: its joined evaluation."""
    if w.alphabet is not stage.alphabet:
        raise InvalidInput("word alphabet does not match the stage")
    return stage.join.eval_word(w.letters)


def stage_eval(stage, i, x):
    """Project a stage element to the i-th quotient monoid."""
    return stage.projections[i](x)


def _quotient_index(stage, genmap):
    for i, q in enumerate(stage.quotients):
        if q == genmap:
            return i
    return None


def clopen_of_language(stage, lang):
    """The stage subset corresponding to a language recognized there."""
    if lang.genmap == stage.join:
        return lang.predicate
    i = _quotient_index(stage, lang.genmap)
    if i is None:
        raise InvalidInput("language is not recognized at this stage")
    return preimage_subset(stage.projections[i].map, lang.predicate)


def language_of_clopen(stage, c):
    """The language of a stage subset: membership of the eta-image."""
    from nommon.language import Language

    if c.carrier != stage.monoid.carrier:
        raise InvalidInput("subset does not live in the stage monoid")
    return Language(stage.join, c)


# --- the pseudometric -----------------------------------------------------


class DsScope:
    """Search scope for d_s: the fixed catalog (a lower bound) or the
    exhaustive enumeration of small monoids (exact within the caps)."""

    def __init__(self, kind, max_orbits=None, max_dim=None):
        if kind not in ("catalog", "exhaustive"):
            raise InvalidInput(f"unknown scope kind {kind!r}")
        self.kind = kind
        self.max_orbits = max_orbits
        self.max_dim = max_dim

    @staticmethod
    def catalog():
        return DsScope("catalog")

    @staticmethod
    def exhaustive(max_orbits, max_dim):
        return DsScope("exhaustive", max_orbits, max_dim)

    def describe(self):
        if self.kind == "catalog":
            return "catalog monoids (lower bound only)"
        return (
            f"exhaustive over monoids with <= {self.max_orbits} orbits, "
            f"orbit dimension <= {self.max_dim}"
        )

    @property
    def exhaustive_within_cap(self):
        return self.kind == "exhaustive"


def materialize_scope(sigma, s, scope, budget=None):
    """Precompute (monoid, s-bounded maps) pairs, fewest orbits first.

    Reusable across many d_s queries over the same scope.
    """
    budget = ensure_budget(budget)
    if scope.kind == "catalog":
        from nommon.catalog import builder, catalog_names

        monoids = [builder(n) for n in catalog_names()]
    else:
        monoids = enumerate_small_monoids(scope.max_orbits, scope.max_dim, budget=budget)
    monoids.sort(key=lambda m: len(m.carrier.orbits))
    return [
        (m, enumerate_s_bounded(sigma, m, s, budget=budget)) for m in monoids
    ]


class DyadicDistance:
    """An exact d_s value with its separation certificate."""

    def __init__(self, value, certificate, exhausted_scope, exhaustive):
        self.value = value
        self.certificate = certificate
        self.exhausted_scope = exhausted_scope
        self.exhaustive = exhaustive

    def __repr__(self):
        return f"DyadicDistance({self.value}, scope={self.exhausted_scope!r})"


def d_s(v, w, s, scope, budget=None, prepared=None):
    """sup of 2^{-orbit count} over scope monoids separating v and w.

    Monoids are scanned fewest-orbits-first, so the first s-bounded
    morphism with h(v) != h(w) realizes the supremum over the scope.
    """
    budget = ensure_budget(budget)
    if v.alphabet is not w.alphabet:
        raise InvalidInput("d_s needs words over one alphabet")
    if prepared is None:
        prepared = materialize_scope(v.alphabet, s, scope, budget=budget)
    for m, maps in prepared:
        for h in maps:
            budget.tick()
            hv = h.eval_word(v.letters)
            hw = h.eval_word(w.letters)
            if hv != hw:
                value = Fraction(1, 2 ** len(m.carrier.orbits))
                return DyadicDistance(
                    value, (m, h, (hv, hw)), scope.describe(), scope.exhaustive_within_cap
                )
    return DyadicDistance(Fraction(0), None, scope.describe(), scope.exhaustive_within_cap)
