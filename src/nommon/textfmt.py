"""Line-oriented definition format for sets, monoids, and friends.

The format is diffable and hand-writable: atoms are bare identifiers
``a0, a1, ...``, orbits are declared by dimension plus positional
permutations, and multiplication has exactly one entry per orbit of
the carrier's square, written on a pair of that orbit with labels
``x0, x1, ...`` for its atoms::

    monoid N
      orbit dim 0
      orbit dim 1
      orbit dim 0
      unit 0
      mult 1(x0) . 1(x1) -> 2()
      ...
    end

Parsing yields validated objects or an error at the offending line;
serialization of canonical objects round-trips exactly.
"""

import re

from nommon.errors import InvalidInput, ensure_budget
from nommon.monoid import MonoidMorphism, NominalMonoid
from nommon.sets import (
    Assignment,
    Element,
    EquivariantMap,
    OrbitDescriptor,
    OrbitFiniteSet,
    product_set,
)


class TextFormatError(InvalidInput):
    """A syntax or consistency error with its 1-based line number."""

    def __init__(self, message, line):
        super().__init__(f"line {line}: {message}")
        self.line = line


class _at:
    """Error boundary of one line: a malformed token or value read on it
    is a TextFormatError at that line. An error already positioned at an
    inner line keeps its position."""

    __slots__ = ("line",)

    def __init__(self, line):
        self.line = line

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if kind is None or issubclass(kind, TextFormatError):
            return False
        if issubclass(kind, IndexError):
            raise TextFormatError("missing token or no such orbit", self.line) from None
        if issubclass(kind, (ValueError, InvalidInput)):
            raise TextFormatError(str(exc), self.line) from None
        return False


def _block(lines, head, start, rows):
    """Read the lines of a block up to its 'end': each nonblank line goes,
    inside its own error boundary, to rows[its first word](match, line),
    with the match of that row kind's pattern against the whole line."""
    for line, text in lines:
        words = text.split(None, 1)
        if words == ["end"]:
            return
        if words:
            with _at(line):
                kind = words[0]
                if kind not in rows:
                    raise InvalidInput(f"unexpected line in {head} block")
                pattern, usage = _ROWS[kind]
                m = pattern.fullmatch(text)
                if m is None:
                    raise InvalidInput(f"expected '{usage}'")
                rows[kind](m, line)
    raise TextFormatError(f"unterminated {head} block", start)


_ATOM = re.compile(r"^a(\d+)$")
_DIGITS = re.compile(r"\d+")
# a call 'i(x0 x1)': an orbit number and its arguments, each a number
# after a prefix letter, apart by whitespace
_ARGS = r"(\d+\(\s*(?:{0}\d+(?:\s+{0}\d+)*\s*)?\))"
_XS = _ARGS.format("x")
# one pattern per row kind, matched against the whole line, with the
# usage its error names
_ROWS = {
    kind: (re.compile(rf"\s*{kind}{rest}\s*"), f"{kind} {usage}")
    for kind, rest, usage in [
        ("orbit", r"\s+dim\s+(\d+)(?:\s+group((?:\s*\([\d\s]*\))+))?", "dim <n> [group (p ..) ..]"),
        ("unit", r"\s+(\d+)", "<orbit>"),
        ("mult", rf"\s+{_XS}\s*\.\s*{_XS}\s*->\s*{_XS}", "i(..) . j(..) -> r(..)"),
        ("map", rf"\s+{_XS}\s*->\s*{_XS}", "i(..) -> j(..)"),
        ("support", r"((?:\s+a\d+)*)", "a.. .."),
        ("element", rf"\s+{_ARGS.format('a')}", "i(a.. ..)"),
    ]
}


def _atom(token):
    m = _ATOM.match(token)
    if not m:
        raise InvalidInput(f"expected an atom like a0, got {token!r}")
    return int(m.group(1))


def _numbers(text):
    """The numbers in a row's text, in order: one digit scan."""
    return tuple(map(int, _DIGITS.findall(text)))


def _arrow(m):
    """The (orbit, labels) calls of a 'mult' or 'map' row's match; the
    labels of the last one, the value, must occur in the others."""
    calls = [(n[0], n[1:]) for n in map(_numbers, m.groups())]
    known = {label for _orbit, labels in calls[:-1] for label in labels}
    missing = [f"x{label}" for label in calls[-1][1] if label not in known]
    if missing:
        raise InvalidInput(f"result labels {missing} do not occur on the left")
    return calls


def _fmt_call(orbit, numbers, prefix="x"):
    return f"{orbit}({' '.join(f'{prefix}{n}' for n in numbers)})"


# --- carriers -------------------------------------------------------------


def _serialize_orbit(desc):
    line = f"  orbit dim {desc.dim}"
    nontrivial = [g for g in desc.group if g != tuple(range(desc.dim))]
    if nontrivial:
        perms = " ".join("(" + " ".join(map(str, g)) + ")" for g in nontrivial)
        line += f" group {perms}"
    return line


# --- multiplication entries -----------------------------------------------


def _mult_entries(m):
    """One '(pattern) . (pattern) -> value' line per product orbit, on its
    reference pair: the key's labels are the atoms, and the value is the
    posmap, which ``EquivariantMap`` stores least under its group."""
    return [
        "  mult {} . {} -> {}".format(
            _fmt_call(i, left), _fmt_call(j, right), _fmt_call(a.orbit, a.posmap)
        )
        for (i, left, j, right), a in zip(m.product.patterns, m.mult.assignment)
    ]


def _carrier_block(head, lines, start, budget):
    """The set or monoid of a block's lines."""
    orbits, units, mults = [], [], []

    def orbit(m, line):
        dim, group = m.groups()
        # each permutation '(p ..)' ends at its ')'
        gens = [_numbers(p) for p in (group or "").split(")")[:-1]]
        orbits.append(OrbitDescriptor(int(dim), gens))

    def unit(m, line):
        if units:
            raise InvalidInput("expected one 'unit <orbit>' line")
        units.append((int(m[1]), line))

    def mult(m, line):
        mults.append((_arrow(m), line))

    rows = {"orbit": orbit}
    if head == "monoid":
        rows.update(unit=unit, mult=mult)
    _block(lines, head, start, rows)
    if head == "set":
        return OrbitFiniteSet(orbits)
    if not units:
        raise InvalidInput("monoid block needs a 'unit <orbit>' line")
    return _build_monoid(OrbitFiniteSet(orbits), units[0], mults, budget)


def _build_monoid(carrier, unit_line, mult_lines, budget):
    """The monoid of its unit and mult lines, each read with its number.

    ``serialize`` writes each mult line on its product orbit's key: the
    labels are the atoms of the orbit's reference pair, the positions
    0..d-1, so the value's labels are its posmap. A line on a key is
    looked up by it. Any other line's labels are read as atoms, and
    ``product.pair`` finds the product orbit of its pair; the value
    moves to that orbit's reference pair. The enumeration of carrier x
    carrier is charged to ``budget``.
    """
    orbit, line = unit_line
    with _at(line):
        unit = Element(carrier, orbit, ())
    product = product_set(carrier, carrier, budget=budget)
    key_to_orbit = product.key_to_orbit
    assignment = [None] * len(product.patterns)
    for ((i, left), (j, right), (r, value)), line in mult_lines:
        with _at(line):
            p = key_to_orbit.get((i, left, j, right))
            if p is None:
                e = product.pair(Element(carrier, i, left), Element(carrier, j, right))
                p = e.orbit
                position = {a: k for k, a in enumerate(e.tuple)}
                value = [position[a] for a in value]
            if assignment[p] is not None:
                key = product.patterns[p]
                raise InvalidInput(f"second multiplication entry for pattern {key}")
            assignment[p] = Assignment(r, Element(carrier, r, value).tuple)
    if None in assignment:
        key = product.patterns[assignment.index(None)]
        raise InvalidInput(f"missing multiplication entry for pattern {key}")
    mult = EquivariantMap(product.set, carrier, assignment)
    return NominalMonoid(carrier, unit, mult, product)


# --- morphisms ------------------------------------------------------------


def _named(names_of, obj, role):
    name = names_of.get(obj)
    if name is None:
        raise InvalidInput(f"{role} must be serialized in the same document")
    return name


def _serialize_morphism(name, h, names_of):
    dom = _named(names_of, h.dom, "morphism domain")
    cod = _named(names_of, h.cod, "morphism codomain")
    lines = [f"morphism {name} : {dom} -> {cod}"]
    for i, a in enumerate(h.map.assignment):
        dim = h.dom.carrier.orbits[i].dim
        lines.append(f"  map {_fmt_call(i, range(dim))} -> {_fmt_call(a.orbit, a.posmap)}")
    lines.append("end")
    return lines


def _morphism_block(dom, cod, lines, start):
    assignment = [None] * len(dom.carrier.orbits)

    def map_line(m, line):
        (i, src), (j, tgt) = _arrow(m)
        dim = dom.carrier.orbits[i].dim
        if src != tuple(range(dim)):
            raise InvalidInput(f"source labels must be {_fmt_call(i, range(dim))}")
        if assignment[i] is not None:
            raise InvalidInput(f"duplicate map entry for orbit {i}")
        Element(cod.carrier, j, tgt)  # the target orbit takes these labels
        assignment[i] = Assignment(j, tgt)

    _block(lines, "morphism", start, {"map": map_line})
    if None in assignment:
        raise InvalidInput("map entries must cover every orbit")
    return MonoidMorphism(dom, cod, EquivariantMap(dom.carrier, cod.carrier, assignment))


# --- subsets, words, terms, bounds ----------------------------------------


def _serialize_subset(name, u, names_of):
    lines = [f"subset {name} of {_named(names_of, u.carrier, 'subset carrier')}"]
    if u.support:
        lines.append("  support " + " ".join(f"a{a}" for a in sorted(u.support)))
    for r in sorted(u.reps(), key=lambda e: (e.orbit, e.tuple)):
        lines.append("  element " + _fmt_call(r.orbit, r.tuple, "a"))
    lines.append("end")
    return lines


def _subset_block(carrier, lines, start, budget):
    from nommon.fssets import FsSubset

    supports, elements = [], []

    def support_line(m, line):
        if supports:
            raise InvalidInput("expected one 'support' line")
        supports.append(_numbers(m[1]))

    def element_line(m, line):
        orbit, *atoms = _numbers(m[1])
        elements.append(Element(carrier, orbit, atoms))

    rows = {"support": support_line, "element": element_line}
    _block(lines, "subset", start, rows)
    support = supports[0] if supports else ()
    return FsSubset.from_elements(carrier, support, elements, budget)


def _serialize_term(t):
    if t.kind == "unit":
        return "1"
    if t.kind == "letter":
        return f"a{t.args[0].tuple[0]}"
    if t.kind == "omega":
        return f"({_serialize_term(t.args[0])})^w"
    return " ".join(
        f"({_serialize_term(s)})" if s.kind == "concat" else _serialize_term(s)
        for s in t.args
    )


def _tokenize_term(text):
    tokens = re.findall(r"\(|\)\^w|\)|[^\s()]+", text)
    if "".join(tokens).replace(" ", "") != text.replace(" ", ""):
        raise InvalidInput(f"cannot tokenize term {text!r}")
    return tokens


def _parse_term(text):
    from nommon.prolimit import OmegaTerm
    from nommon.sets import atoms_set

    sigma = atoms_set()
    tokens = _tokenize_term(text)
    pos = 0

    def seq(depth):
        nonlocal pos
        items = []
        while pos < len(tokens) and tokens[pos] not in (")", ")^w"):
            tok = tokens[pos]
            if tok == "(":
                pos += 1
                inner = seq(depth + 1)
                if pos >= len(tokens):
                    raise InvalidInput("unbalanced '(' in term")
                closer = tokens[pos]
                pos += 1
                items.append(OmegaTerm.omega(inner) if closer == ")^w" else inner)
            elif tok == "1":
                pos += 1
                items.append(OmegaTerm.unit())
            else:
                pos += 1
                items.append(OmegaTerm.letter(Element(sigma, 0, [_atom(tok)])))
        if not items:
            return OmegaTerm.unit()
        if len(items) == 1:
            return items[0]
        return OmegaTerm.concat(*items)

    out = seq(0)
    if pos != len(tokens):
        raise InvalidInput("unbalanced ')' in term")
    return out


def _serialize_bound(name, s):
    if s.variant == "constant":
        atoms = " ".join(f"a{a}" for a in sorted(s.data))
        return f"bound {name} = constant {atoms}".rstrip()
    if s.label is None:
        raise InvalidInput("only constant and named via-morphism bounds serialize")
    return f"bound {name} = {s.label}"


def _parse_bound(tokens, budget):
    from nommon import bounds

    if not tokens:
        raise InvalidInput("empty bound definition")
    if tokens[0] == "constant":
        return bounds.SupportBound.constant(_atom(t) for t in tokens[1:])
    if tokens == ["first-letter"]:
        return bounds.first_letter_bound()
    if tokens == ["endpoints"]:
        return bounds.endpoints_bound(budget)
    raise InvalidInput(f"unknown bound {' '.join(tokens)!r}")


# --- documents ------------------------------------------------------------


def _parse_word(tokens):
    from nommon.language import Word

    return Word.of_atoms(_atom(t) for t in tokens)


# one-line declarations: (tokens after '=', budget) -> object
_ONE_LINE = {
    "word": lambda tokens, budget: _parse_word(tokens),
    "term": lambda tokens, budget: _parse_term(" ".join(tokens)),
    "bound": _parse_bound,
}


def _declaration(tokens, lines, start, out, budget):
    """(name, object) of the declaration that starts on this line; a
    block declaration reads its lines from ``lines``."""
    head, rest = tokens[0], tokens[1:]
    if head in ("set", "monoid"):
        if len(rest) != 1:
            raise InvalidInput(f"expected '{head} NAME'")
        return rest[0], _carrier_block(head, lines, start, budget)
    if head == "morphism":
        m = re.match(r"^(\S+)\s*:\s*(\S+)\s*->\s*(\S+)$", " ".join(rest))
        if not m:
            raise InvalidInput("expected 'morphism NAME : DOM -> COD'")
        dom, cod = (out.get(m.group(k)) for k in (2, 3))
        for name, obj in ((m.group(2), dom), (m.group(3), cod)):
            if not isinstance(obj, NominalMonoid):
                raise InvalidInput(f"unknown monoid {name!r}")
        return m.group(1), _morphism_block(dom, cod, lines, start)
    if head == "subset":
        if len(rest) != 3 or rest[1] != "of":
            raise InvalidInput("expected 'subset NAME of CARRIER'")
        carrier = out.get(rest[2])
        if isinstance(carrier, NominalMonoid):
            carrier = carrier.carrier
        if not isinstance(carrier, OrbitFiniteSet):
            raise InvalidInput(f"unknown set or monoid {rest[2]!r}")
        return rest[0], _subset_block(carrier, lines, start, budget)
    if head in _ONE_LINE:
        if len(rest) < 2 or rest[1] != "=":
            raise InvalidInput(f"expected '{head} NAME = ...'")
        return rest[0], _ONE_LINE[head](rest[2:], budget)
    raise InvalidInput(f"unknown declaration {head!r}")


def parse(document, budget=None):
    """Parse a definition document into an ordered name -> object dict.

    The enumeration of each monoid's carrier x carrier, the join of an
    endpoints bound and the normalization of each subset are charged to
    ``budget``.
    """
    budget = ensure_budget(budget)
    out = {}
    lines = enumerate(document.splitlines(), 1)
    for line, text in lines:
        tokens = text.split()
        if tokens and not tokens[0].startswith("#"):
            with _at(line):
                name, obj = _declaration(tokens, lines, line, out, budget)
            out[name] = obj
    return out


def serialize(objects):
    """Render a name -> object dict back to canonical document text."""
    from nommon.bounds import SupportBound
    from nommon.fssets import FsSubset
    from nommon.language import Word
    from nommon.prolimit import OmegaTerm

    # keyed on values, so that an equal monoid built elsewhere finds its name
    names_of = {}
    for name, obj in objects.items():
        if isinstance(obj, (OrbitFiniteSet, NominalMonoid)):
            names_of[obj] = name
        if isinstance(obj, NominalMonoid):
            names_of[obj.carrier] = name
    lines = []
    for name, obj in objects.items():
        if isinstance(obj, OrbitFiniteSet):
            lines.append(f"set {name}")
            lines.extend(_serialize_orbit(d) for d in obj.orbits)
            lines.append("end")
        elif isinstance(obj, NominalMonoid):
            lines.append(f"monoid {name}")
            lines.extend(_serialize_orbit(d) for d in obj.carrier.orbits)
            lines.append(f"  unit {obj.unit.orbit}")
            lines.extend(_mult_entries(obj))
            lines.append("end")
        elif isinstance(obj, MonoidMorphism):
            lines.extend(_serialize_morphism(name, obj, names_of))
        elif isinstance(obj, FsSubset):
            lines.extend(_serialize_subset(name, obj, names_of))
        elif isinstance(obj, Word):
            atoms = " ".join(f"a{x.tuple[0]}" for x in obj.letters)
            lines.append(f"word {name} = {atoms}".rstrip())
        elif isinstance(obj, OmegaTerm):
            lines.append(f"term {name} = {_serialize_term(obj)}")
        elif isinstance(obj, SupportBound):
            lines.append(_serialize_bound(name, obj))
        else:
            raise InvalidInput(f"cannot serialize object of type {type(obj).__name__}")
    return "\n".join(lines) + "\n"