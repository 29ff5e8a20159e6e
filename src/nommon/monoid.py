"""Orbit-finite nominal monoids: validation, constructions, powers.

A monoid is a carrier set, a unit element of empty support, and an
equivariant multiplication map carrier x carrier -> carrier stored on
canonical product-orbit representatives. Everything downstream
(morphisms, sub/quotient monoids, omega powers, enumeration) reduces
to finite computations on those representatives.
"""

import itertools
from math import factorial

from nommon.errors import InvalidInput, ensure_budget
from nommon.perm import fresh_stream
from nommon.sets import (
    Assignment,
    Element,
    EquivariantMap,
    OrbitDescriptor,
    OrbitFiniteSet,
    ProductSet,
    Report,
    apply_map,
    check_map_well_defined,
    coset_breakers,
    elements_with_support,
    map_from_concrete,
    min_coset,
    orbit_reps,
    product_set,
    reference_posmap,
    s_orbit_reps,
)


# entries of one monoid's multiply memo; the benchmark's largest holds 684
MULTIPLY_CACHE_CAP = 1 << 14


class NominalMonoid:
    """Carrier + unit + multiplication on canonical product orbits.

    Monoids are values: two are equal when carrier, unit and
    multiplication map are, whichever objects hold them.
    """

    def __init__(self, carrier, unit, mult, product):
        if unit.set != carrier:
            raise InvalidInput("unit must live in the carrier")
        self.carrier = carrier
        self.unit = unit
        self.product = product
        if mult.source != self.product.set or mult.target != carrier:
            raise InvalidInput("mult must map carrier x carrier to carrier")
        self.mult = mult
        self._cache = {}
        self._hash = hash((carrier, unit, mult))

    def multiply(self, x, y):
        """x . y, memoized on the pair; the memo is cleared at a miss once
        it holds ``MULTIPLY_CACHE_CAP`` entries, so it stays bounded.

        A miss reads the table straight off the pair's product orbit:
        the pair's atoms in label order (``ProductSet.locate``), made
        canonical under the orbit's group as its element's tuple would
        be, give the result's atoms through the orbit's posmap. No
        product element is built or kept, and the result is the one
        ``self.mult(self.product.pair(x, y))`` gives, on any table.
        """
        c = self.carrier
        # carriers are interned, so an equal carrier is this very object
        if x.set is not c or y.set is not c:
            raise InvalidInput("multiply takes elements of the monoid's carrier")
        # plain tuples hash and compare in C; an element of the carrier is
        # its orbit and canonical tuple
        key = (x.orbit, x.tuple, y.orbit, y.tuple)
        z = self._cache.get(key)
        if z is None:
            if len(self._cache) >= MULTIPLY_CACHE_CAP:
                self._cache.clear()
            orbit, atoms = self.product.locate(x, y)
            moves = self.product.set.orbits[orbit].moves
            t = min_coset(atoms, moves) if moves else atoms
            a = self.mult.assignment[orbit]
            z = self._cache[key] = Element(c, a.orbit, [t[p] for p in a.posmap])
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


def monoid_from_concrete(carrier, unit, mult_value, budget=None):
    """Monoid whose multiplication is read off a concrete function.

    ``mult_value`` is evaluated once per product orbit, on its reference
    pair: a key (i, x_labels, j, y_labels) of ``product_set`` names the
    pair (x_labels in orbit i, y_labels in orbit j), whose atoms are the
    positions 0..d-1, so the result's canonical tuple is its posmap
    (``reference_posmap``, which also checks it). The enumeration of
    carrier x carrier is charged to ``budget``.
    """
    product = product_set(carrier, carrier, budget=budget)
    assignment = []
    for p, desc in enumerate(product.set.orbits):
        z = mult_value(*product.components(p, range(desc.dim)))
        assignment.append(Assignment(z.orbit, reference_posmap(z, carrier, desc.dim)))
    mult = EquivariantMap(product.set, carrier, assignment)
    return NominalMonoid(carrier, unit, mult, product)


def validate_monoid(m, budget=None):
    """Check the monoid axioms on canonical representatives.

    Associativity is verified by Light's test: on at least one triple
    (x, y, z) per orbit of the triple product with z in the
    ``generating_orbits`` G. x ranges over orbit reps, y over the
    carrier's Perm_{supp x}-orbit representatives and z over the
    Perm_{supp x + supp y}-orbit representatives of G's orbits
    (``s_orbit_reps``). Both sides of the law are equivariant, so this
    covers every triple with z in G's orbits. That is enough:

    - Let A be the set of g with (xy)g = x(yg) for all x and y. A is
      closed under products: for a, b in A, (xy)(ab) = ((xy)a)b =
      (x(ya))b = x((ya)b) = x(y(ab)).
    - A holds the unit whenever the unit laws hold, as (xy)1 = xy =
      x(y1). When they fail, the report fails anyway.
    - Every element of an orbit that ``closed_orbit_indices`` adds is a
      product of elements of the two factor orbits, since an
      equivariant map from one orbit is onto its target orbit. So A,
      holding G's orbits and the unit, holds every orbit.

    The failures are those of the check over every z, minus the
    associativity triples whose z lies outside G's orbits, in the same
    order. The representatives are memoized per support for the length
    of the call; a memo hit charges the ticks of the enumeration it
    saves.
    """
    budget = ensure_budget(budget)
    gens = tuple(sorted(generating_orbits(m)))
    memo = {}  # (support, orbits) -> (representatives, enumeration ticks)

    def reps_over(atoms, orbits=None):
        support = frozenset(atoms)
        hit = memo.get((support, orbits))
        if hit is None:
            used = budget.used
            reps = s_orbit_reps(m.carrier, support, budget=budget, orbits=orbits)
            memo[support, orbits] = (reps, budget.used - used)
            return reps
        reps, ticks = hit
        budget.tick(ticks)
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
            for z in reps_over(x.tuple + y.tuple, gens):
                budget.tick()
                lhs = m.multiply(m.multiply(x, y), z)
                rhs = m.multiply(x, m.multiply(y, z))
                if lhs != rhs:
                    failures.append(("associativity", (x, y, z, lhs, rhs)))
    return Report(failures)


# --- powers ---------------------------------------------------------------


def _power_cycle(m, x, budget):
    """Powers x, x^2, ... until the first repetition, one tick before
    each multiply.

    Returns (powers, start, period): powers[i] = x^(i+1), and
    x^(start+1+period) = x^(start+1) is the first repeat.
    """
    powers = []
    seen = {}
    cur = x
    while cur not in seen:
        seen[cur] = len(powers)
        powers.append(cur)
        budget.tick()
        cur = m.multiply(cur, x)
    start = seen[cur]
    period = len(powers) - start
    return powers, start, period


def power(m, x, e, budget=None):
    """x^e for an arbitrary-precision natural e, via cycle reduction."""
    if e < 0:
        raise InvalidInput("negative exponent")
    if e == 0:
        return m.unit
    powers, start, period = _power_cycle(m, x, ensure_budget(budget))
    if e <= len(powers):
        return powers[e - 1]
    # exponents e and start+1 + (e - start - 1) % period agree past the tail
    idx = start + (e - 1 - start) % period
    return powers[idx]


def _cycle_idempotent(m, x, powers, start, period):
    """The unique idempotent on the cycle of x's ``_power_cycle``."""
    idempotents = [
        p for p in powers[start : start + period] if m.multiply(p, p) == p
    ]
    if len(idempotents) != 1:
        raise InvalidInput(f"power cycle of {x} has {len(idempotents)} idempotents")
    return idempotents[0]


def omega_power(m, x, budget=None):
    """The unique idempotent power of x."""
    return _cycle_idempotent(m, x, *_power_cycle(m, x, ensure_budget(budget)))


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


def check_omega_formula(m, budget=None):
    """Does x^((n*k!)!) equal the idempotent power for every orbit rep?

    n is the orbit count and k the bound; the exponent is reduced
    along each power cycle by ``factorial_power_index``, and the
    idempotent is read off the same cycle.
    """
    budget = ensure_budget(budget)
    n = len(m.carrier.orbits) * factorial(m.carrier.bound)
    for x in orbit_reps(m.carrier):
        powers, start, period = _power_cycle(m, x, budget)
        omega = _cycle_idempotent(m, x, powers, start, period)
        if powers[factorial_power_index(n, start, period)] != omega:
            return False
    return True


def is_aperiodic(m, budget=None):
    """Does x^w . x = x^w hold on every orbit representative? Each rep
    x where it fails is a failure ("not-aperiodic", x)."""
    failures = []
    for x in orbit_reps(m.carrier):
        e = omega_power(m, x, budget)
        if m.multiply(e, x) != e:
            failures.append(("not-aperiodic", x))
    return Report(failures)


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
    for p, desc in enumerate(h.dom.product.set.orbits):
        budget.tick()
        x, y = h.dom.product.components(p, range(desc.dim))
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
    ``budget``.

    Each entry is read off the keys. A square key (p, _, q, labels) has
    as reference pair orbit p's reference pair (x1, x2), its pattern's
    label tuples, and the pair (y1, y2) of orbit q whose pattern labels
    are renamed through ``labels``; the entry is the orbit and tuple of
    ``pairs.pair(x1 y1, x2 y2)``, memoized for the length of the call.
    """
    unit = pairs.pair(m.unit, n.unit)
    square = product_set(pairs.set, pairs.set, budget=budget)
    refs = [pairs.components(p, range(desc.dim)) for p, desc in enumerate(pairs.set.orbits)]
    paired = {}  # (x1 y1, x2 y2) -> its element of pairs
    assignment = []
    for p, _, q, labels in square.patterns:
        x1, x2 = refs[p]
        y1, y2 = pairs.components(q, labels)
        xy = (m.multiply(x1, y1), n.multiply(x2, y2))
        z = paired.get(xy)
        if z is None:
            z = paired[xy] = pairs.pair(*xy)
        assignment.append(Assignment(z.orbit, z.tuple))
    mult = EquivariantMap(square.set, pairs.set, assignment)
    prod = NominalMonoid(pairs.set, unit, mult, square)
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
        multiply = self.monoid.multiply
        h0 = self.h0
        out = self.monoid.unit
        for letter in letters:
            out = multiply(out, apply_map(h0, letter))
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


def closed_orbit_indices(m, start):
    """Least multiplication-closed orbit set containing start and the unit."""
    # per product orbit: (left factor orbit, right factor orbit, result orbit)
    table = [
        (i, j, a.orbit) for (i, j), a in zip(m.product.factors, m.mult.assignment)
    ]
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


class QuotientResult:
    """Quotient monoid with its projection morphism."""

    def __init__(self, monoid, projection):
        self.monoid = monoid
        self.projection = projection


def quotient(m, cong, budget=None):
    """M / ~ for an equivariant congruence, with the projection.

    The pair set of an equivariant congruence is a union of orbits of
    M x M, so x ~ y iff the product orbit of (x, y) is kept. A kept key
    names a related pair (r_i, y): r_i is the rep of orbit i (atoms
    0..d_i-1), and y, in orbit j, has the key's y labels as its
    canonical tuple, so y is r_j with each atom a renamed to y[a]. All
    but the table is read off these keys, with no search:

    - If some kept key has factors (i, j) with i < j (take the least
      i), then [r_j] = [y] = [r_i]. So j's posmap puts at position p
      the place in y of the p-th atom of i's posmap (``EquivariantMap``
      stores it least under the quotient orbit's group).
    - Otherwise j leads a new quotient orbit. supp [r_j] is the
      intersection of supp y over the y ~ r_j, as (a b)x ~ x for a
      fresh b iff a is not in supp [x]. Every y ~ r_j is the image of a
      kept key's y under a stabilizer of r_j, which permutes 0..d_j-1
      by a reading of G_j and the other atoms freely. So the support is
      the atoms of 0..d_j-1 that every such y holds under every reading.
    - Its group, the relabelings of the support that keep [r_j], is
      generated, by the same stabilizer argument, by those that the
      kept keys of factors (j, j) give (y renames a to y[a]) and those
      of G_j. ``generate_group`` enforces ``GROUP_CAP``.

    One tick per carrier orbit; the table is then built over the
    quotient's own square on ``budget``.
    """
    budget = ensure_budget(budget)
    if cong.pairs.support:
        raise InvalidInput("quotient requires an equivariant congruence")
    carrier = m.carrier
    ys = [[] for _ in carrier.orbits]  # orbit i -> (j, y labels) of its kept keys
    least = {}  # orbit j -> (i, y labels) of the first kept key of factors (i, j), i < j
    # with empty support, each key of the pair set is (orbit, 0..d-1); product
    # orbits come in key order, so the first key of factors (i, j) has the least i
    for p in sorted(orbit for orbit, _ in cong.pairs.keys):
        i, _, j, y = m.product.patterns[p]
        ys[i].append((j, y))
        if i < j and j not in least:
            least[j] = (i, y)

    entries = []  # one per quotient orbit: (its first orbit, class support)
    descriptors = []
    assignment = []
    for j, desc in enumerate(carrier.orbits):
        budget.tick()
        if j in least:
            i, y = least[j]
            q = assignment[i].orbit
            position = {a: p for p, a in enumerate(y)}
            assignment.append(Assignment(q, [position[a] for a in assignment[i].posmap]))
            continue
        common = set(range(desc.dim)).intersection(*(y for _, y in ys[j]))
        sup = tuple(a for a in range(desc.dim) if all(g[a] in common for g in desc.group))
        index = {a: p for p, a in enumerate(sup)}
        readings = [y for k, y in ys[j] if k == j] + list(desc.moves)
        gens = [tuple(index[y[a]] for a in sup) for y in readings]
        entries.append((j, sup))
        descriptors.append(OrbitDescriptor(len(sup), gens))
        # r_j's atom a sits at position a, so sup is its own posmap
        assignment.append(Assignment(len(entries) - 1, sup))

    q_set = OrbitFiniteSet(descriptors)
    proj_map = EquivariantMap(carrier, q_set, assignment)

    def lift(qx):
        """The rep of qx's first orbit with its class support renamed to
        qx's atoms and every other atom fresh: any element of a class
        stands for it, as ~ is a congruence."""
        j, sup = entries[qx.orbit]
        names = dict(zip(sup, qx.tuple))
        fresh = fresh_stream(qx.tuple)
        atoms = range(carrier.orbits[j].dim)
        return Element(carrier, j, [names[a] if a in names else next(fresh) for a in atoms])

    def mult_value(qx, qy):
        return proj_map(m.multiply(lift(qx), lift(qy)))

    q_monoid = monoid_from_concrete(q_set, proj_map(m.unit), mult_value, budget=budget)
    return QuotientResult(q_monoid, MonoidMorphism(m, q_monoid, proj_map))


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
    for p, desc in enumerate(prod.set.orbits):
        # the reference pair's atoms are 0..d-1, so a result's tuple is its posmap
        atoms = range(desc.dim)
        x, y = prod.components(p, atoms)
        if x == unit:
            forced = [y]
        elif y == unit:
            forced = [x]
        else:
            forced = elements_with_support(carrier, atoms, budget=budget)
        choices.append([Assignment(z.orbit, z.tuple) for z in forced])
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
            cand = NominalMonoid(carrier, unit, mult, prod)
            if not validate_monoid(cand, budget=budget).ok:
                continue
            if any(find_isomorphism(cand, other, budget=budget) for other in found):
                continue
            found.append(cand)
    return found
