"""Builder catalog: the stock of concrete monoids used everywhere.

Each builder returns a validated-by-tests NominalMonoid. Where a
monoid recognizes a language, the canonical letter map A -> M is
available through letters_map, and the standard quotient morphisms
live in catalog_quotient.
"""

from nommon.errors import InvalidInput
from nommon.monoid import (
    GeneratorMap,
    MonoidMorphism,
    monoid_from_concrete,
)
from nommon.sets import (
    Element,
    OrbitDescriptor,
    OrbitFiniteSet,
    atoms_set,
    map_from_concrete,
    strong_set,
)


def trivial():
    carrier = strong_set([0])
    unit = Element(carrier, 0, ())
    return monoid_from_concrete(carrier, unit, lambda x, y: unit)


def cyclic(k):
    """Z/k as a nominal monoid with k one-point orbits."""
    if k < 1:
        raise InvalidInput("cyclic group order must be positive")
    carrier = strong_set([0] * k)
    unit = Element(carrier, 0, ())
    return monoid_from_concrete(
        carrier, unit, lambda x, y: Element(carrier, (x.orbit + y.orbit) % k, ())
    )


def _word_patterns(n):
    """First-occurrence patterns of words of length <= n, shortest first."""
    pats = [()]
    level = [()]
    for _ in range(n):
        nxt = []
        for p in level:
            width = max(p, default=-1) + 1
            for b in range(width + 1):
                nxt.append(p + (b,))
        pats.extend(nxt)
        level = nxt
    return pats


def cutoff(n):
    """The monoid A^{<=n}: words truncated to their first n letters."""
    pats = _word_patterns(n)
    dims = [max(p, default=-1) + 1 for p in pats]
    carrier = OrbitFiniteSet([OrbitDescriptor(d) for d in dims])
    index = {p: i for i, p in enumerate(pats)}

    def decode(x):
        return tuple(x.tuple[b] for b in pats[x.orbit])

    def encode(word):
        blocks = {}
        pat = []
        for a in word:
            if a not in blocks:
                blocks[a] = len(blocks)
            pat.append(blocks[a])
        return Element(carrier, index[tuple(pat)], blocks.keys())

    unit = Element(carrier, 0, ())
    m = monoid_from_concrete(
        carrier, unit, lambda x, y: encode((decode(x) + decode(y))[:n])
    )
    m.encode_word = encode
    m.decode_word = decode
    return m


def first_proj():
    """P1 on 1 + A: the first non-unit letter survives."""
    carrier = strong_set([0, 1])
    unit = Element(carrier, 0, ())
    return monoid_from_concrete(
        carrier, unit, lambda x, y: y if x == unit else x
    )


def last_proj():
    """P2 on 1 + A: the last non-unit letter survives."""
    carrier = strong_set([0, 1])
    unit = Element(carrier, 0, ())
    return monoid_from_concrete(
        carrier, unit, lambda x, y: x if y == unit else y
    )


def zero_adjoined():
    """N = 1 + A + 0 with x.y = 0 for x, y != 1."""
    carrier = strong_set([0, 1, 0])
    unit = Element(carrier, 0, ())
    zero = Element(carrier, 2, ())
    return monoid_from_concrete(
        carrier, unit, lambda x, y: y if x == unit else (x if y == unit else zero)
    )


def barred():
    """M = 1 + A + 1bar + Abar.

    The barred half multiplies by first-non-unit projection with unit
    1bar; for x, y != 1 the product is bar(x).bar(y), with bar
    idempotent. Orbits: 0 = 1, 1 = A, 2 = 1bar, 3 = Abar.
    """
    carrier = strong_set([0, 1, 0, 1])
    unit = Element(carrier, 0, ())
    one_bar = Element(carrier, 2, ())

    def bar(x):
        if x.orbit == 0:
            return one_bar
        if x.orbit == 1:
            return Element(carrier, 3, x.tuple)
        return x

    def mult_value(x, y):
        if x == unit:
            return y
        if y == unit:
            return x
        bx = bar(x)
        return bx if bx != one_bar else bar(y)

    return monoid_from_concrete(carrier, unit, mult_value)


def pair_zero():
    """M = 1 + A + A*A + 0: a.b = (a,b); all longer products hit 0.

    The source example leaves a.a open; it is set to 0, the only
    completion that keeps 0 absorbing and the multiplication
    associative. Orbits: 0 = 1, 1 = A, 2 = pairs, 3 = 0.
    """
    carrier = OrbitFiniteSet(
        [OrbitDescriptor(0), OrbitDescriptor(1), OrbitDescriptor(2), OrbitDescriptor(0)]
    )
    unit = Element(carrier, 0, ())
    zero = Element(carrier, 3, ())

    def mult_value(x, y):
        if x == unit:
            return y
        if y == unit:
            return x
        if x.orbit == 1 and y.orbit == 1 and x != y:
            return Element(carrier, 2, x.tuple + y.tuple)
        return zero

    return monoid_from_concrete(carrier, unit, mult_value)


def l0_recognizer():
    """Recognizer of 'some letter occurs twice in a row'.

    Non-unit elements are triples (first, last, flag); concatenation
    keeps the outer letters and ors the flags, setting the flag when
    the inner letters touch. Orbits: 0 = unit, then (first = last,
    first != last) x (flag 0, flag 1).
    """
    carrier = OrbitFiniteSet(
        [
            OrbitDescriptor(0),
            OrbitDescriptor(1),
            OrbitDescriptor(1),
            OrbitDescriptor(2),
            OrbitDescriptor(2),
        ]
    )
    unit = Element(carrier, 0, ())

    def encode(first, last, flag):
        if first == last:
            return Element(carrier, 1 + flag, (first,))
        return Element(carrier, 3 + flag, (first, last))

    def decode(x):
        if x.orbit in (1, 2):
            return x.tuple[0], x.tuple[0], x.orbit - 1
        return x.tuple[0], x.tuple[1], x.orbit - 3

    def mult_value(x, y):
        if x == unit:
            return y
        if y == unit:
            return x
        f1, l1, s1 = decode(x)
        f2, l2, s2 = decode(y)
        return encode(f1, l2, 1 if (s1 or s2 or l1 == f2) else 0)

    m = monoid_from_concrete(carrier, unit, mult_value)
    m.encode_state = encode
    m.decode_state = decode
    return m


_BUILDERS = {
    "trivial": trivial,
    "cyclic2": lambda: cyclic(2),
    "cyclic3": lambda: cyclic(3),
    "cutoff1": lambda: cutoff(1),
    "cutoff2": lambda: cutoff(2),
    "first_proj": first_proj,
    "last_proj": last_proj,
    "zero_adjoined": zero_adjoined,
    "barred": barred,
    "pair_zero": pair_zero,
    "l0_recognizer": l0_recognizer,
}


def builder(name):
    try:
        make = _BUILDERS[name]
    except KeyError:
        raise InvalidInput(f"unknown catalog monoid {name!r}") from None
    return make()


def catalog_names():
    return sorted(_BUILDERS)


def letters_map(name, m=None):
    """The canonical letter map A -> M for a recognizing catalog monoid."""
    sigma = atoms_set()
    if m is None:
        m = builder(name)
    if name in ("first_proj", "last_proj", "zero_adjoined", "barred", "pair_zero"):
        fn = lambda a: Element(m.carrier, 1, a.tuple)  # noqa: E731
    elif name in ("cutoff1", "cutoff2"):
        fn = lambda a: m.encode_word(a.tuple)  # noqa: E731
    elif name == "l0_recognizer":
        fn = lambda a: m.encode_state(a.tuple[0], a.tuple[0], 0)  # noqa: E731
    elif name == "trivial":
        fn = lambda a: m.unit  # noqa: E731
    else:
        raise InvalidInput(f"no canonical letter map for {name!r}")
    return GeneratorMap(sigma, m, map_from_concrete(sigma, m.carrier, fn))


def catalog_quotient(name):
    """Standard quotient morphisms onto zero_adjoined, from barred
    ('compare') or pair_zero ('no-s-quot'): each is the identity on
    1 + A and constant 0 on the other orbits."""
    domains = {"compare": barred, "no-s-quot": pair_zero}
    if name not in domains:
        raise InvalidInput(f"unknown catalog quotient {name!r}")
    dom = domains[name]()
    cod = zero_adjoined()
    zero = Element(cod.carrier, 2, ())
    targets = {0: lambda x: cod.unit, 1: lambda x: Element(cod.carrier, 1, x.tuple),
               2: lambda x: zero, 3: lambda x: zero}
    emap = map_from_concrete(dom.carrier, cod.carrier, lambda x: targets[x.orbit](x))
    return MonoidMorphism(dom, cod, emap)
