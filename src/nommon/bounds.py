"""Support bounds and quotient classification.

A support bound caps supp h(w) for every word w, either by a constant
atom set or by supp q(w) for a reference evaluation q. Both make
s-boundedness decidable through the image submonoid of a pairing.
Quotient classification (support-preserving / support-reflecting /
MSR) is decided on orbit representatives, with an exhaustive subset
search for the MSR certificate.
"""

import itertools

from nommon.errors import CapExceeded, InvalidInput, ensure_budget
from nommon.monoid import (
    GeneratorMap,
    closed_orbit_indices,
    componentwise_monoid,
    enumerate_monoid_maps,
    product_monoid,
    submonoid_generated,
    validate_morphism,
)
from nommon.perm import Perm, fresh_stream
from nommon.sets import (
    ORBIT_CAP,
    Element,
    ProductSet,
    act,
    key_components,
    map_from_concrete,
    orbit_reps,
    pair_pattern,
    s_orbit_keys,
)

MSR_ORBIT_CAP = 12


class SupportBound:
    """Constant(S) or ViaMorphism(q0): s(w) = S or supp q(w)."""

    def __init__(self, variant, data, label=None):
        if variant not in ("constant", "via-morphism"):
            raise InvalidInput(f"unknown support bound variant {variant!r}")
        self.variant = variant
        self.data = data
        # named via-morphism bounds (first-letter, endpoints) carry their
        # name so the text format can serialize them
        self.label = label

    @staticmethod
    def constant(atoms):
        return SupportBound("constant", frozenset(atoms))

    @staticmethod
    def via_morphism(q0, label=None):
        if not isinstance(q0, GeneratorMap):
            raise InvalidInput("via-morphism bound needs a generator map")
        return SupportBound("via-morphism", q0, label)

    def __repr__(self):
        if self.variant == "constant":
            return f"SupportBound(constant {sorted(self.data)})"
        return "SupportBound(via morphism)"


def _pairing_image(h1, h2, budget):
    """The orbits of X x Y that the pairs (h1(w), h2(w)) meet, as a
    ``ProductSet`` of those orbits in key order, numbered as in
    ``product_set`` (the ordering lemma on ``ProductSet``).

    The closure runs on pair patterns, the ``ProductSet`` keys, from the
    unit's and the letters' keys. Each pair of a nonempty word w'a is
    (h1(w'), h2(w')) times (h1(a), h2(a)), so each reached key is
    multiplied out once by the letter pairs: u is the reached key's
    reference pair, and v one letter pair per Perm_{supp u}-orbit, as
    that orbit decides the orbit of u v: ``s_orbit_keys`` over
    ``letter_pairs``, one tick before each componentwise product. The
    walk starts at the second key: the first is the unit's, an orbit of
    one pair, so its products are the letter pairs, reached already.
    """
    m1, m2 = h1.monoid, h2.monoid
    dims = {}
    keys = []

    def reach(a, b):
        key = pair_pattern(a, b)[0]
        if key not in dims:
            if len(dims) >= ORBIT_CAP:
                raise CapExceeded(f"orbit cap {ORBIT_CAP} exceeded in a pairing image")
            dims[key] = len(set(key[1]) | set(key[3]))
            keys.append(key)
        return key

    reach(m1.unit, m2.unit)
    letters = dict.fromkeys(reach(h1(x), h2(x)) for x in orbit_reps(h1.sigma))
    letter_pairs = ProductSet(m1.carrier, m2.carrier, letters)
    for k in itertools.islice(keys, 1, None):  # keys grows while it is walked
        ux, uy = key_components(m1.carrier, m2.carrier, k, range(dims[k]))
        for j, t in s_orbit_keys(letter_pairs.set, dims[k], budget):
            vx, vy = letter_pairs.components(j, t)
            reach(m1.multiply(ux, vx), m2.multiply(uy, vy))
    return ProductSet(m1.carrier, m2.carrier, sorted(keys))


def first_letter_bound():
    """s(a1...an) = {a1}: supp of the first-letter evaluation."""
    from nommon.catalog import letters_map

    return SupportBound.via_morphism(letters_map("first_proj"), label="first-letter")


def endpoints_bound(budget=None):
    """s(a1...an) = {a1, an}: supp of the (first, last) evaluation, the
    join of the first- and last-letter maps (3 orbits), built per call
    on ``budget``."""
    from nommon.catalog import letters_map

    jn = join(letters_map("first_proj"), letters_map("last_proj"), budget)
    return SupportBound.via_morphism(jn.genmap, label="endpoints")


class BoundReport:
    """is_s_bounded outcome; witness is a violating image element."""

    def __init__(self, ok, witness=None):
        self.ok = ok
        self.witness = witness

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return f"BoundReport(ok={self.ok}, witness={self.witness})"


def is_s_bounded(h0, s, budget=None):
    """Does supp h(w) stay below the bound for every word w?

    Against a constant S, the orbits closed from the letter images are
    visited (``closed_orbit_indices``): supp <= S on a whole orbit forces
    dim 0, so the first positive-dim one gives a witness once its atoms
    leave S. Against supp q(w), each orbit that the pairs (h(w), q(w))
    reach (``_pairing_image``) is checked on its key's labels; its
    reference pair is the witness. One tick per orbit visited, in order;
    no image monoid is built.
    """
    budget = ensure_budget(budget)
    if s.variant == "constant":
        m = h0.monoid
        letters = orbit_reps(h0.sigma)
        for i in sorted(closed_orbit_indices(m, {h0(x).orbit for x in letters})):
            budget.tick()
            bad = Element(m.carrier, i, range(m.carrier.orbits[i].dim))
            if bad.tuple:
                gen = fresh_stream(set(bad.tuple) | s.data)
                for a in bad.tuple:
                    if a in s.data:
                        bad = act(Perm.swap(a, next(gen)), bad)
                return BoundReport(False, bad)
        return BoundReport(True)
    q0 = s.data
    if q0.sigma != h0.sigma:
        raise InvalidInput("bound and morphism have different alphabets")
    pairs = _pairing_image(h0, q0, budget)
    for p, desc in enumerate(pairs.set.orbits):
        budget.tick()
        _, x_labels, _, y_labels = pairs.patterns[p]
        if not set(x_labels) <= set(y_labels):
            return BoundReport(False, pairs.components(p, range(desc.dim)))
    return BoundReport(True)


class JoinResult:
    """Coimage of a pairing: joined evaluation, connecting morphisms and
    ``pairs``, the reached orbits of X x Y; ``bound_report`` is None
    unless ``join_s_bounded`` set it."""

    def __init__(self, genmap, left, right, bound_report, pairs):
        self.genmap = genmap
        self.monoid = genmap.monoid
        self.left = left
        self.right = right
        self.bound_report = bound_report
        self.pairs = pairs


def join(h1, h2, budget=None):
    """The join of two evaluations: the coimage of their pairing
    <h1, h2>: Sigma* -> M1 x M2.

    Only the orbits of X x Y the pairing reaches are built
    (``_pairing_image``); the joined monoid multiplies them
    componentwise, ``left`` and ``right`` are its projections, and a
    letter goes to the pair of its two images. The closure and the
    square of the reached orbits are charged to ``budget``.
    """
    budget = ensure_budget(budget)
    if h1.sigma != h2.sigma:
        raise InvalidInput("join needs a common alphabet")
    pairs = _pairing_image(h1, h2, budget)
    pm = componentwise_monoid(h1.monoid, h2.monoid, pairs, budget=budget)
    h0 = map_from_concrete(h1.sigma, pairs.set, lambda x: pairs.pair(h1(x), h2(x)))
    genmap = GeneratorMap(h1.sigma, pm.monoid, h0)
    return JoinResult(genmap, pm.proj1, pm.proj2, None, pairs)


def join_s_bounded(h1, h2, s, budget=None):
    """The join of two s-bounded quotients (``join``), re-verified
    against the bound s on the joined evaluation; the report rides
    along (a failing report demonstrates a codirectedness failure).
    """
    budget = ensure_budget(budget)
    jn = join(h1, h2, budget)
    jn.bound_report = is_s_bounded(jn.genmap, s, budget=budget)
    return jn


# --- quotient classification ----------------------------------------------


class ClassifyResult:
    """Flags plus certificates for a surjective morphism."""

    def __init__(self, support_preserving, support_reflecting, msr,
                 certificate, r_orbits, searched):
        self.support_preserving = support_preserving
        self.support_reflecting = support_reflecting
        self.msr = msr
        self.certificate = certificate
        self.r_orbits = r_orbits
        self.searched = searched

    def __repr__(self):
        return (
            f"ClassifyResult(preserving={self.support_preserving}, "
            f"reflecting={self.support_reflecting}, msr={self.msr})"
        )


def classify_quotient(e, budget=None):
    """support-preserving / support-reflecting / MSR flags for e.

    R_e is the set of orbits whose elements keep their full support
    under e; MSR holds iff some multiplication-closed union of R_e
    orbits containing the unit still covers the codomain. The subset
    search is exhaustive up to the orbit cap.
    """
    budget = ensure_budget(budget)
    m, n = e.dom, e.cod
    n_orbit_count = len(n.carrier.orbits)
    image_orbits = {a.orbit for a in e.map.assignment}
    if image_orbits != set(range(n_orbit_count)):
        raise InvalidInput("classification needs a surjective morphism")
    # supp e(x) = supp x on an orbit iff the image keeps every position
    r_orbits = frozenset(
        i
        for i, a in enumerate(e.map.assignment)
        if len(a.posmap) == m.carrier.orbits[i].dim
    )
    support_preserving = len(r_orbits) == len(m.carrier.orbits)
    reflected = {e.map.assignment[i].orbit for i in r_orbits}
    support_reflecting = reflected == set(range(n_orbit_count))
    if len(r_orbits) > MSR_ORBIT_CAP:
        raise CapExceeded(
            f"MSR search over {len(r_orbits)} orbits exceeds the cap {MSR_ORBIT_CAP}"
        )
    msr = False
    certificate = None
    candidates = sorted(r_orbits - {m.unit.orbit})
    searched = 0
    for size in range(len(candidates) + 1):
        for extra in itertools.combinations(candidates, size):
            budget.tick()
            searched += 1
            subset = frozenset(extra) | {m.unit.orbit}
            if closed_orbit_indices(m, subset) != subset:
                continue
            if {e.map.assignment[i].orbit for i in subset} != set(
                range(n_orbit_count)
            ):
                continue
            msr = True
            certificate = tuple(sorted(subset))
            break
        if msr:
            break
    return ClassifyResult(
        support_preserving, support_reflecting, msr, certificate, r_orbits, searched
    )


def recheck_msr_certificate(e, certificate):
    """Re-verify an MSR certificate directly: the restriction of e to
    the certified submonoid is surjective and support-preserving."""
    from nommon.monoid import submonoid_from_orbits
    from nommon.monoid import compose_morphisms

    sub = submonoid_from_orbits(e.dom, set(certificate))
    restricted = compose_morphisms(e, sub.inclusion)
    if not validate_morphism(restricted).ok:
        return False
    covered = {a.orbit for a in restricted.map.assignment}
    if covered != set(range(len(e.cod.carrier.orbits))):
        return False
    return all(
        len(a.posmap) == sub.monoid.carrier.orbits[i].dim
        for i, a in enumerate(restricted.map.assignment)
    )


def eq_msr_predicate(m):
    """supp(xy) empty only for pairs of empty support: no product orbit
    of positive dimension has an empty posmap."""
    return not any(
        a.posmap == () and desc.dim
        for a, desc in zip(m.mult.assignment, m.product.set.orbits)
    )


# --- enumeration and factorization ----------------------------------------


def enumerate_s_bounded(sigma, m, s, budget=None):
    """All s-bounded equivariant evaluations Sigma* -> M."""
    budget = ensure_budget(budget)
    return [
        gm
        for gm in enumerate_monoid_maps(sigma, m, budget=budget)
        if is_s_bounded(gm, s, budget=budget).ok
    ]


def factor_through(h0, e, s, budget=None):
    """Some s-bounded h' with e . h' = h0, or None after exhaustion."""
    budget = ensure_budget(budget)
    if e.cod != h0.monoid:
        raise InvalidInput("factorization target mismatch")
    letters = orbit_reps(h0.sigma)
    for cand in enumerate_s_bounded(h0.sigma, e.dom, s, budget=budget):
        budget.tick()
        if all(e(cand(x)) == h0(x) for x in letters):
            return cand
    return None


# --- pseudovariety closure probes -----------------------------------------


class SuiteReport:
    """Per-instance closure checks; failures carry the instance."""

    def __init__(self, checked, failures):
        self.checked = checked
        self.failures = tuple(failures)

    @property
    def ok(self):
        return not self.failures

    def __repr__(self):
        return f"SuiteReport(checked={self.checked}, failures={list(self.failures)})"


def msr_closure_suite(pred, monoids, quotients=(), budget=None):
    """Probe closure of a class under products, submonoids, and MSR
    quotients, on the given instances."""
    budget = ensure_budget(budget)
    failures = []
    checked = 0
    inside = [m for m in monoids if pred(m)]
    for m1, m2 in itertools.combinations_with_replacement(inside, 2):
        budget.tick()
        checked += 1
        if not pred(product_monoid(m1, m2, budget=budget).monoid):
            failures.append(("product", (m1, m2)))
    for m in inside:
        for r in orbit_reps(m.carrier):
            budget.tick()
            checked += 1
            sub = submonoid_generated(m, [r])
            if not pred(sub.monoid):
                failures.append(("submonoid", (m, r)))
    for e in quotients:
        if pred(e.dom) and classify_quotient(e, budget=budget).msr:
            budget.tick()
            checked += 1
            if not pred(e.cod):
                failures.append(("msr-quotient", e))
    return SuiteReport(checked, failures)
