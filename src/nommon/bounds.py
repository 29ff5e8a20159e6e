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
    enumerate_monoid_maps,
    product_monoid,
    restrict_to_orbits,
    submonoid_generated,
    validate_morphism,
)
from nommon.perm import Perm, fresh_stream
from nommon.sets import act, map_from_concrete, orbit_reps

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


def _pairing_image(m1, m2, gen_pairs, budget):
    """The submonoid of M1 x M2 generated by the given pairs.

    Built without ever constructing the full product monoid: pair
    orbits are closed under componentwise multiplication first (the
    closure stays small even when the full product would not), and
    only the reachable orbits get a monoid structure. The orbit of a
    product u v depends only on the Perm_{supp u}-orbit of v, so v runs
    over one tuple per such orbit (``orbit_tuples``, one tick each).

    Returns (monoid, pairs, embed, restrict) with embed/restrict the
    element-level coercions between the image carrier and X x Y.
    """
    from nommon.sets import Element, orbit_tuples, product_set

    pairs = product_set(m1.carrier, m2.carrier, budget=budget)

    def mult_pair(u, v):
        x1, x2 = pairs.unpair(u)
        y1, y2 = pairs.unpair(v)
        return pairs.pair(m1.multiply(x1, y1), m2.multiply(x2, y2))

    reachable = {pairs.pair(m1.unit, m2.unit).orbit}
    reachable |= {pairs.pair(a, b).orbit for a, b in gen_pairs}
    changed = True
    while changed:
        changed = False
        for i, j in itertools.product(sorted(reachable), repeat=2):
            di = pairs.set.orbits[i].dim
            dj = pairs.set.orbits[j].dim
            u = Element(pairs.set, i, range(di))
            for t in orbit_tuples(range(di), range(di, di + dj), dj):
                budget.tick()
                w = mult_pair(u, Element(pairs.set, j, t))
                if w.orbit not in reachable:
                    reachable.add(w.orbit)
                    changed = True
    mon, embed, restrict = restrict_to_orbits(
        pairs.set, reachable, pairs.pair(m1.unit, m2.unit), mult_pair
    )
    return mon, pairs, embed, restrict


def first_letter_bound():
    """s(a1...an) = {a1}: supp of the first-letter evaluation."""
    from nommon.catalog import letters_map

    return SupportBound.via_morphism(letters_map("first_proj"), label="first-letter")


def endpoints_bound():
    """s(a1...an) = {a1, an}: supp of the (first, last) evaluation."""
    from nommon.catalog import builder
    from nommon.sets import Element, atoms_set

    pm = product_monoid(builder("first_proj"), builder("last_proj"))
    sigma = atoms_set()
    h0 = map_from_concrete(
        sigma,
        pm.monoid.carrier,
        lambda a: pm.pairs.pair(
            Element(pm.pairs.left, 1, a.tuple), Element(pm.pairs.right, 1, a.tuple)
        ),
    )
    return SupportBound.via_morphism(
        GeneratorMap(sigma, pm.monoid, h0), label="endpoints"
    )


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

    The h-values form the submonoid generated by the letter images;
    for a via-morphism bound the pairing with the reference evaluation
    is generated instead and supp checked componentwise per orbit rep.
    """
    budget = ensure_budget(budget)
    sigma = h0.sigma
    letters = orbit_reps(sigma)
    if s.variant == "constant":
        sub = submonoid_generated(h0.monoid, [h0(x) for x in letters])
        for r in orbit_reps(sub.monoid.carrier):
            budget.tick()
            # the h-value set is equivariant, so supp <= S for the whole
            # orbit forces dim 0; a positive-dim orbit gives a witness
            # once its atoms are pushed outside S
            if r.tuple:
                bad = sub.inclusion(r)
                gen = fresh_stream(set(bad.tuple) | s.data)
                for a in bad.tuple:
                    if a in s.data:
                        bad = act(Perm.swap(a, next(gen)), bad)
                return BoundReport(False, bad)
        return BoundReport(True)
    q0 = s.data
    if q0.sigma != sigma:
        raise InvalidInput("bound and morphism have different alphabets")
    gen_pairs = [(h0(x), q0(x)) for x in letters]
    mon, pairs, embed, _restrict = _pairing_image(
        h0.monoid, q0.monoid, gen_pairs, budget
    )
    for r in orbit_reps(mon.carrier):
        budget.tick()
        a, b = pairs.unpair(embed(r))
        if not set(a.tuple) <= set(b.tuple):
            return BoundReport(False, (a, b))
    return BoundReport(True)


class JoinResult:
    """Coimage of a pairing: joined evaluation plus connecting morphisms."""

    def __init__(self, genmap, left, right, bound_report):
        self.genmap = genmap
        self.monoid = genmap.monoid
        self.left = left
        self.right = right
        self.bound_report = bound_report


def join_s_bounded(h1, h2, s, budget=None):
    """The join of two quotients: coimage of their pairing.

    The result is re-verified against the bound; the report rides
    along (a failing report demonstrates a codirectedness failure).
    """
    budget = ensure_budget(budget)
    if h1.sigma != h2.sigma:
        raise InvalidInput("join needs a common alphabet")
    gen_pairs = [(h1(x), h2(x)) for x in orbit_reps(h1.sigma)]
    mon, pairs, embed, restrict = _pairing_image(
        h1.monoid, h2.monoid, gen_pairs, budget
    )
    h0 = map_from_concrete(
        h1.sigma,
        mon.carrier,
        lambda x: restrict(pairs.pair(h1(x), h2(x))),
    )
    genmap = GeneratorMap(h1.sigma, mon, h0)
    from nommon.monoid import MonoidMorphism
    from nommon.sets import compose_maps

    embed_map = map_from_concrete(mon.carrier, pairs.set, embed)
    left = MonoidMorphism(mon, h1.monoid, compose_maps(pairs.proj_left, embed_map))
    right = MonoidMorphism(mon, h2.monoid, compose_maps(pairs.proj_right, embed_map))
    return JoinResult(genmap, left, right, is_s_bounded(genmap, s, budget=budget))


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


def classify_quotient(e, budget=None, orbit_cap=MSR_ORBIT_CAP):
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
    if len(r_orbits) > orbit_cap:
        raise CapExceeded(
            f"MSR search over {len(r_orbits)} orbits exceeds the cap {orbit_cap}"
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
    """supp(xy) empty only for pairs of empty support, on orbit reps."""
    for e in orbit_reps(m.product.set):
        if m.mult(e).tuple == () and e.tuple != ():
            return False
    return True


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
