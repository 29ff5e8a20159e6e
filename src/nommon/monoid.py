"""Orbit-finite nominal monoids: validation, constructions, powers.

A monoid is a carrier set, a unit element of empty support, and an
equivariant multiplication map carrier x carrier -> carrier stored on
canonical product-orbit representatives. Everything downstream
(morphisms, sub/quotient monoids, omega powers, enumeration) reduces
to finite computations on those representatives.
"""

import itertools
from math import factorial

from nommon.errors import CapExceeded, InvalidInput, ensure_budget
from nommon.fssets import member as fs_member
from nommon.perm import Perm, extend_injection, fresh_stream
from nommon.sets import (
    GROUP_CAP,
    Assignment,
    Element,
    EquivariantMap,
    OrbitDescriptor,
    OrbitFiniteSet,
    ProductSet,
    Report,
    act,
    check_map_well_defined,
    coset_breakers,
    elements_with_support,
    map_from_concrete,
    min_coset,  # unused here; the tests in perfbench/ read this binding
    orbit_reps,
    product_set,
    s_orbit_reps,
)


class NominalMonoid:
    """Carrier + unit + multiplication on canonical product orbits.

    Monoids are values: two are equal when carrier, unit and
    multiplication map are, whichever objects hold them.
    """

    def __init__(self, carrier, unit, mult, product=None):
        if unit.set != carrier:
            raise InvalidInput("unit must live in the carrier")
        self.carrier = carrier
        self.unit = unit
        self.product = product if product is not None else product_set(carrier, carrier)
        if mult.source != self.product.set or mult.target != carrier:
            raise InvalidInput("mult must map carrier x carrier to carrier")
        self.mult = mult
        self._cache = {}
        self._hash = hash((carrier, unit, mult))

    def multiply(self, x, y):
        key = (x, y)
        z = self._cache.get(key)
        if z is None:
            z = self.mult(self.product.pair(x, y))
            self._cache[key] = z
        return z

    def __eq__(self, other):
        return self is other or (
            isinstance(other, NominalMonoid)
            and self._hash == other._hash
            and self.carrier == other.carrier
            and self.unit == other.unit
            and self.mult == other.mult
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"NominalMonoid({len(self.carrier.orbits)} orbits)"


def monoid_from_concrete(carrier, unit, mult_value, product=None, budget=None):
    """Monoid whose multiplication is read off a concrete function.

    ``mult_value`` is evaluated once per product-orbit reference pair;
    its results must stay inside the pair's atoms (equivariance). The
    enumeration of carrier x carrier, when no product is passed in, is
    charged to ``budget``.
    """
    if product is None:
        product = product_set(carrier, carrier, budget=budget)

    def fn(e):
        x, y = product.unpair(e)
        return mult_value(x, y)

    mult = map_from_concrete(product.set, carrier, fn)
    return NominalMonoid(carrier, unit, mult, product)


def validate_monoid(m, budget=None):
    """Check the monoid axioms on canonical representatives.

    Associativity is verified on at least one triple per orbit of the
    triple product: x ranges over orbit reps, y over the carrier's
    Perm_{supp x}-orbit representatives and z over its
    Perm_{supp x + supp y}-orbit representatives (``s_orbit_reps``).
    Both sides of the law are equivariant, and every triple lies in the
    orbit of one of these, so the check is complete. The representatives
    are memoized per support for the length of the call; a memo hit
    charges the ticks of the enumeration it saves.
    """
    budget = ensure_budget(budget)
    memo = {}  # support -> (representatives, ticks of their enumeration)

    def reps_over(atoms):
        key = frozenset(atoms)
        hit = memo.get(key)
        if hit is None:
            used = budget.used
            reps = s_orbit_reps(m.carrier, key, budget=budget)
            memo[key] = (reps, budget.used - used)
            return reps
        reps, ticks = hit
        for _ in range(ticks):
            budget.tick()
        return reps

    failures = []
    if m.unit.tuple != ():
        failures.append(("unit-support", m.unit))
    wd = check_map_well_defined(m.mult)
    for orbit, gen in wd.failures:
        failures.append(("mult-ill-defined", (orbit, gen)))
    reps = orbit_reps(m.carrier)
    for x in reps:
        budget.tick()
        if m.multiply(m.unit, x) != x:
            failures.append(("left-unit", x))
        if m.multiply(x, m.unit) != x:
            failures.append(("right-unit", x))
    for x in reps:
        for y in reps_over(x.tuple):
            for z in reps_over(x.tuple + y.tuple):
                budget.tick()
                lhs = m.multiply(m.multiply(x, y), z)
                rhs = m.multiply(x, m.multiply(y, z))
                if lhs != rhs:
                    failures.append(("associativity", (x, y, z, lhs, rhs)))
    return Report(failures)


# --- powers ---------------------------------------------------------------


def _power_cycle(m, x):
    """Powers x, x^2, ... until the first repetition.

    Returns (powers, start, period): powers[i] = x^(i+1), and
    x^(start+1+period) = x^(start+1) is the first repeat.
    """
    powers = []
    seen = {}
    cur = x
    while cur not in seen:
        seen[cur] = len(powers)
        powers.append(cur)
        cur = m.multiply(cur, x)
    start = seen[cur]
    period = len(powers) - start
    return powers, start, period


def power(m, x, e):
    """x^e for an arbitrary-precision natural e, via cycle reduction."""
    if e < 0:
        raise InvalidInput("negative exponent")
    if e == 0:
        return m.unit
    powers, start, period = _power_cycle(m, x)
    if e <= len(powers):
        return powers[e - 1]
    # exponents e and start+1 + (e - start - 1) % period agree past the tail
    idx = start + (e - 1 - start) % period
    return powers[idx]


def omega_power(m, x):
    """The unique idempotent power of x."""
    powers, start, period = _power_cycle(m, x)
    idempotents = [
        p for p in powers[start : start + period] if m.multiply(p, p) == p
    ]
    if len(idempotents) != 1:
        raise InvalidInput(f"power cycle of {x} has {len(idempotents)} idempotents")
    return idempotents[0]


def factorial_power_index(n, start, period):
    """Index into the powers of ``_power_cycle`` that holds x^(n!).

    n! is never materialized: the running product i! is kept exactly
    while it still indexes the tail and the first pass of the cycle,
    and modulo the period after that.
    """
    last = start + period
    f = 1
    past_tail = False
    for i in range(2, n + 1):
        f *= i
        if past_tail:
            f %= period
            if f == 0:
                break
        elif f > last:
            past_tail = True
            f %= period
    if not past_tail:
        return f - 1
    # as in power: exponents past the tail repeat with the period
    return start + (f - 1 - start) % period


def check_omega_formula(m):
    """Does x^((n*k!)!) equal the idempotent power for every orbit rep?

    n is the orbit count and k the bound; the exponent is reduced
    along each power cycle by ``factorial_power_index``.
    """
    n = len(m.carrier.orbits) * factorial(m.carrier.bound)
    for x in orbit_reps(m.carrier):
        powers, start, period = _power_cycle(m, x)
        if powers[factorial_power_index(n, start, period)] != omega_power(m, x):
            return False
    return True


def is_aperiodic(m):
    """x^w . x = x^w on every orbit representative."""
    return all(
        m.multiply(omega_power(m, x), x) == omega_power(m, x)
        for x in orbit_reps(m.carrier)
    )


# --- morphisms ------------------------------------------------------------


class MonoidMorphism:
    """A structure-preserving equivariant map between monoids."""

    def __init__(self, dom, cod, emap):
        if emap.source != dom.carrier or emap.target != cod.carrier:
            raise InvalidInput("underlying map does not match the monoids")
        self.dom = dom
        self.cod = cod
        self.map = emap

    def __call__(self, x):
        return self.map(x)

    def __eq__(self, other):
        return (
            isinstance(other, MonoidMorphism)
            and self.dom == other.dom
            and self.cod == other.cod
            and self.map == other.map
        )

    def __hash__(self):
        return hash((self.dom, self.cod, self.map))


def validate_morphism(h, budget=None):
    """Unit preservation and multiplicativity on product-orbit reps."""
    budget = ensure_budget(budget)
    failures = []
    wd = check_map_well_defined(h.map)
    for orbit, gen in wd.failures:
        failures.append(("ill-defined", (orbit, gen)))
    if h(h.dom.unit) != h.cod.unit:
        failures.append(("unit", h.dom.unit))
    for e in orbit_reps(h.dom.product.set):
        budget.tick()
        x, y = h.dom.product.unpair(e)
        lhs = h(h.dom.multiply(x, y))
        rhs = h.cod.multiply(h(x), h(y))
        if lhs != rhs:
            failures.append(("mult", (x, y, lhs, rhs)))
    return Report(failures)


def identity_morphism(m):
    from nommon.sets import identity_map

    return MonoidMorphism(m, m, identity_map(m.carrier))


def compose_morphisms(g, h):
    """g after h."""
    from nommon.sets import compose_maps

    if h.cod != g.dom:
        raise InvalidInput("morphisms not composable")
    return MonoidMorphism(h.dom, g.cod, compose_maps(g.map, h.map))


# --- products -------------------------------------------------------------


class ProductMonoidResult:
    """Componentwise monoid on X x Y with projection morphisms."""

    def __init__(self, monoid, pairs, proj1, proj2):
        self.monoid = monoid
        self.pairs = pairs  # the carrier-level ProductSet of the two factors
        self.proj1 = proj1
        self.proj2 = proj2


def product_monoid(m, n, budget=None):
    budget = ensure_budget(budget)
    pairs = product_set(m.carrier, n.carrier, budget=budget)
    return componentwise_monoid(m, n, pairs, budget=budget)


def componentwise_monoid(m, n, pairs, budget=None):
    """The monoid on ``pairs``, a ProductSet over the carriers of m and
    n, multiplied componentwise, with its projections. ``pairs`` may
    hold only some orbits of X x Y: a multiplication-closed union with
    the unit pair's orbit. The square of ``pairs`` is enumerated on
    ``budget``."""
    unit = pairs.pair(m.unit, n.unit)

    def mult_value(x, y):
        x1, x2 = pairs.unpair(x)
        y1, y2 = pairs.unpair(y)
        return pairs.pair(m.multiply(x1, y1), n.multiply(x2, y2))

    prod = monoid_from_concrete(pairs.set, unit, mult_value, budget=budget)
    proj1 = MonoidMorphism(prod, m, pairs.proj_left)
    proj2 = MonoidMorphism(prod, n, pairs.proj_right)
    return ProductMonoidResult(prod, pairs, proj1, proj2)


# --- generator maps into a monoid (free-monoid morphisms) -----------------


class GeneratorMap:
    """An equivariant map h0: Sigma -> M, standing for its free
    extension Sigma* -> M via eval_word."""

    def __init__(self, sigma, monoid, h0):
        if h0.source != sigma or h0.target != monoid.carrier:
            raise InvalidInput("generator map must send Sigma into the carrier")
        self.sigma = sigma
        self.monoid = monoid
        self.h0 = h0

    def __call__(self, letter):
        return self.h0(letter)

    def eval_word(self, letters):
        out = self.monoid.unit
        for letter in letters:
            out = self.monoid.multiply(out, self.h0(letter))
        return out

    def __eq__(self, other):
        return (
            isinstance(other, GeneratorMap)
            and self.sigma == other.sigma
            and self.monoid == other.monoid
            and self.h0 == other.h0
        )

    def __hash__(self):
        return hash((self.sigma, self.monoid, self.h0))


def _orbit_assignment_choices(sigma, carrier, orbit_index, budget):
    """All per-orbit assignments compatible with the orbit's group (the
    reference letter is 0..d-1, so an image's atom tuple is its posmap)."""
    desc = sigma.orbits[orbit_index]
    return [
        Assignment(t.orbit, t.tuple)
        for t in elements_with_support(carrier, range(desc.dim), budget=budget)
        if not coset_breakers(t.tuple, desc.group, carrier.orbits[t.orbit].group)
    ]


def enumerate_monoid_maps(sigma, m, budget=None):
    """All equivariant maps Sigma -> M, as GeneratorMaps."""
    budget = ensure_budget(budget)
    choices = [
        _orbit_assignment_choices(sigma, m.carrier, i, budget)
        for i in range(len(sigma.orbits))
    ]
    maps = []
    for combo in itertools.product(*choices):
        budget.tick()
        emap = EquivariantMap(sigma, m.carrier, combo)
        maps.append(GeneratorMap(sigma, m, emap))
    return maps


# --- submonoids and images ------------------------------------------------


class SubMonoid:
    """An equivariant submonoid: a union of carrier orbits.

    ``restrict`` sends an ambient element of those orbits to the same
    point of the submonoid's carrier; it inverts ``inclusion``.
    """

    def __init__(self, monoid, inclusion, orbit_indices, restrict):
        self.monoid = monoid
        self.inclusion = inclusion
        self.orbit_indices = tuple(orbit_indices)
        self.restrict = restrict


def _mult_orbit_table(m):
    """Per product orbit: (left factor orbit, right factor orbit, result orbit)."""
    return [
        (i, j, m.mult.assignment[p].orbit)
        for p, (i, j) in enumerate(m.product.factors)
    ]


def closed_orbit_indices(m, start):
    """Least multiplication-closed orbit set containing start and the unit."""
    table = _mult_orbit_table(m)
    closed = set(start) | {m.unit.orbit}
    changed = True
    while changed:
        changed = False
        for i, j, r in table:
            if i in closed and j in closed and r not in closed:
                closed.add(r)
                changed = True
    return frozenset(closed)


def generating_orbits(m):
    """A least generating orbit set: orbit indices whose closure under
    multiplication (``closed_orbit_indices``) is every orbit of m, and
    from which no orbit can be dropped.

    Orbits are visited highest dimension first, and each is dropped
    when the others still close to every orbit; the unit orbit always
    goes, since the closure adds it. The product of two orbits maps
    onto its result orbit (an equivariant map is onto the orbit it maps
    into), so the elements of the kept orbits generate m as a monoid.
    """
    everything = frozenset(range(len(m.carrier.orbits)))
    kept = set(everything)
    for i in sorted(everything, key=lambda i: -m.carrier.orbits[i].dim):
        kept.discard(i)
        if closed_orbit_indices(m, kept) != everything:
            kept.add(i)
    return frozenset(kept)


def submonoid_from_orbits(m, indices):
    """Materialize a union of orbits (must be mult-closed) as a monoid.

    The submonoid's carrier lists the selected orbits in index order;
    ``restrict`` and the inclusion coerce elements between it and m.
    Its table is m's own, restricted: the product orbits whose factor
    orbits are both selected, renumbered in order, keep their
    assignments. By the ordering lemma on ``ProductSet`` these keys are
    those ``product_set`` lists for the submonoid's carrier, in its
    order, so nothing is multiplied or enumerated.
    """
    if m.unit.orbit not in indices:
        raise InvalidInput("a submonoid must contain the unit orbit")
    selected = sorted(indices)
    sub_set = OrbitFiniteSet([m.carrier.orbits[i] for i in selected])
    to_sub = {f: s for s, f in enumerate(selected)}

    def restrict(y):
        if y.orbit not in to_sub:
            raise InvalidInput("orbit set is not multiplication-closed")
        return Element(sub_set, to_sub[y.orbit], y.tuple)

    keys = []
    table = []
    for (i, x_labels, j, y_labels), a in zip(m.product.patterns, m.mult.assignment):
        if i in to_sub and j in to_sub:
            if a.orbit not in to_sub:
                raise InvalidInput("orbit set is not multiplication-closed")
            keys.append((to_sub[i], x_labels, to_sub[j], y_labels))
            table.append(Assignment(to_sub[a.orbit], a.posmap))
    product = ProductSet(sub_set, sub_set, keys)
    mult = EquivariantMap(product.set, sub_set, table)
    sub = NominalMonoid(sub_set, restrict(m.unit), mult, product)
    incl = EquivariantMap(
        sub_set, m.carrier, [Assignment(f, range(m.carrier.orbits[f].dim)) for f in selected]
    )
    return SubMonoid(sub, MonoidMorphism(sub, m, incl), selected, restrict)


def submonoid_generated(m, gens):
    """Least equivariant submonoid containing the generators' orbits."""
    return submonoid_from_orbits(m, closed_orbit_indices(m, {g.orbit for g in gens}))


def coimage(genmap):
    """Restrict a generator map onto the submonoid its letters generate.

    Returns (the generator map onto that submonoid, its inclusion
    morphism into the ambient monoid).
    """
    sub = submonoid_generated(
        genmap.monoid, [genmap(x) for x in orbit_reps(genmap.sigma)]
    )
    h0 = map_from_concrete(
        genmap.sigma, sub.monoid.carrier, lambda x: sub.restrict(genmap(x))
    )
    return GeneratorMap(genmap.sigma, sub.monoid, h0), sub.inclusion


# --- congruences and quotients --------------------------------------------


class Congruence:
    """A monoid congruence presented by its pair set in M x M."""

    def __init__(self, monoid, pairs):
        if pairs.carrier != monoid.product.set:
            raise InvalidInput("pair set must live in carrier x carrier")
        self.monoid = monoid
        self.pairs = pairs

    def related(self, x, y):
        return fs_member(self.pairs, self.monoid.product.pair(x, y))


class QuotientResult:
    """Quotient monoid with its projection morphism."""

    def __init__(self, monoid, projection, class_of):
        self.monoid = monoid
        self.projection = projection
        self.class_of = class_of


def quotient(m, cong, budget=None):
    """M / ~ for an equivariant congruence, with the projection.

    Each congruence class [x] is an element of the quotient; its least
    support (a subset of supp x, found by fresh-transposition tests)
    gives the dimension, and the permutations of that support fixing
    the class give the positional group.
    """
    budget = ensure_budget(budget)
    if cong.pairs.support:
        raise InvalidInput("quotient requires an equivariant congruence")
    related = cong.related
    carrier = m.carrier

    def class_support(x):
        atoms = sorted(x.tuple)
        b = next(fresh_stream(atoms))
        return tuple(
            a for a in atoms if not related(x, act(Perm.swap(a, b), x))
        )

    def alignments(src, src_sup, dst, dst_sup):
        """The sigma in Sym(d) for which a permutation sending src_sup[p]
        to dst_sup[sigma[p]] maps the class of src to that of dst, one
        tick per sigma tried."""
        d = len(dst_sup)
        avoid = set(dst.tuple) | set(src.tuple)
        for sigma in itertools.permutations(range(d)):
            budget.tick()
            pi = extend_injection(
                {src_sup[p]: dst_sup[sigma[p]] for p in range(d)},
                moved_from=src.tuple,
                avoid=avoid,
            )
            if related(act(pi, src), dst):
                yield sigma

    # entries: one per quotient orbit, (m_orbit, rep, support tuple)
    entries = []
    descriptors = []
    assignment = []
    for i, desc in enumerate(carrier.orbits):
        budget.tick()
        rep = Element(carrier, i, range(desc.dim))
        sup = class_support(rep)
        match = next(
            (
                (q, sigma)
                for q, (_, qrep, qsup) in enumerate(entries)
                if len(qsup) == len(sup)
                for sigma in alignments(qrep, qsup, rep, sup)
            ),
            None,
        )
        pos_of = {a: p for p, a in enumerate(rep.tuple)}
        if match is None:
            stab = list(alignments(rep, sup, rep, sup))
            if len(stab) > GROUP_CAP:
                raise CapExceeded("quotient orbit group exceeds the cap")
            entries.append((i, rep, sup))
            descriptors.append(OrbitDescriptor(len(sup), _group=tuple(sorted(stab))))
            assignment.append(
                Assignment(len(descriptors) - 1, tuple(pos_of[a] for a in sup))
            )
        else:
            q, sigma = match
            assignment.append(
                Assignment(q, tuple(pos_of[sup[sigma[p]]] for p in range(len(sup))))
            )

    q_set = OrbitFiniteSet(descriptors)
    proj_map = EquivariantMap(carrier, q_set, assignment)

    def lift(qx, avoid=()):
        i, rep, sup = entries[qx.orbit]
        pi = extend_injection(
            {sup[p]: qx.tuple[p] for p in range(len(sup))},
            moved_from=rep.tuple,
            avoid=set(qx.tuple) | set(rep.tuple) | set(avoid),
        )
        return act(pi, rep)

    def mult_value(qx, qy):
        lx = lift(qx)
        ly = lift(qy, avoid=lx.tuple)
        return proj_map(m.multiply(lx, ly))

    q_monoid = monoid_from_concrete(q_set, proj_map(m.unit), mult_value, budget=budget)
    projection = MonoidMorphism(m, q_monoid, proj_map)
    return QuotientResult(q_monoid, projection, proj_map)


# --- enumeration of small monoids and isomorphism -------------------------


def find_isomorphism(m, n, budget=None):
    """A monoid isomorphism m -> n, or None.

    Backtracking over orbit bijections (pruned by dimension and group
    order) and position alignments; candidates are validated as
    morphisms on product-orbit representatives.
    """
    budget = ensure_budget(budget)
    mo, no = m.carrier.orbits, n.carrier.orbits
    if len(mo) != len(no):
        return None
    if sorted((o.dim, len(o.group)) for o in mo) != sorted(
        (o.dim, len(o.group)) for o in no
    ):
        return None
    indices = range(len(no))
    for perm in itertools.permutations(indices):
        if perm[m.unit.orbit] != n.unit.orbit:
            continue
        if any(
            mo[i].dim != no[perm[i]].dim or len(mo[i].group) != len(no[perm[i]].group)
            for i in indices
        ):
            continue
        posmap_choices = []
        for i in indices:
            d = mo[i].dim
            tgt_group = no[perm[i]].group
            ok = []
            for sigma in itertools.permutations(range(d)):
                budget.tick()
                if not coset_breakers(sigma, mo[i].group, tgt_group):
                    ok.append(sigma)
            posmap_choices.append(ok)
        for combo in itertools.product(*posmap_choices):
            budget.tick()
            emap = EquivariantMap(
                m.carrier,
                n.carrier,
                [Assignment(perm[i], combo[i]) for i in indices],
            )
            cand = MonoidMorphism(m, n, emap)
            if validate_morphism(cand, budget=budget).ok:
                return cand
    return None


def _monoid_tables(carrier, unit, budget):
    """All multiplication assignments on the carrier with the given unit."""
    prod = product_set(carrier, carrier)
    choices = []
    for p, (i, j) in enumerate(prod.factors):
        ref = Element(prod.set, p, range(prod.set.orbits[p].dim))
        x, y = prod.unpair(ref)
        pos_of = {a: q for q, a in enumerate(ref.tuple)}
        if x == unit:
            forced = [y]
        elif y == unit:
            forced = [x]
        else:
            forced = elements_with_support(carrier, ref.tuple, budget=budget)
        opts = []
        for z in forced:
            posmap = tuple(pos_of[a] for a in z.tuple)
            opts.append(Assignment(z.orbit, posmap))
        choices.append(opts)
    for combo in itertools.product(*choices):
        budget.tick()
        yield prod, EquivariantMap(prod.set, carrier, combo)


def enumerate_small_monoids(max_orbits=2, max_dim=1, budget=None):
    """All valid monoids on small trivial-group carriers, up to iso.

    Carriers are coproducts of at most max_orbits orbits A^{#d} with
    d <= max_dim and trivial positional groups; one dim-0 orbit serves
    as the unit. Positional symmetries are out of scope at this size.
    """
    budget = ensure_budget(budget)
    found = []
    dim_lists = []
    for count in range(1, max_orbits + 1):
        for dims in itertools.combinations_with_replacement(range(max_dim + 1), count):
            if 0 in dims:
                dim_lists.append(dims)
    for dims in dim_lists:
        carrier = OrbitFiniteSet([OrbitDescriptor(d) for d in dims])
        unit = Element(carrier, dims.index(0), ())
        for prod, mult in _monoid_tables(carrier, unit, budget):
            try:
                cand = NominalMonoid(carrier, unit, mult, prod)
            except InvalidInput:
                continue
            if not validate_monoid(cand, budget=budget).ok:
                continue
            if any(find_isomorphism(cand, other, budget=budget) for other in found):
                continue
            found.append(cand)
    return found
