import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from nommon import textfmt
from nommon.bounds import SupportBound, endpoints_bound, first_letter_bound
from nommon.catalog import builder, catalog_names, catalog_quotient
from nommon.errors import Budget, InvalidInput
from nommon.fssets import FsSubset
from nommon.language import Word, catalog_language
from nommon.monoid import identity_morphism, validate_monoid, validate_morphism
from nommon.prolimit import OmegaTerm
from nommon.sets import Element, OrbitDescriptor, OrbitFiniteSet, atoms_set
from nommon.textfmt import TextFormatError, _at, parse, serialize


# --- round trips ----------------------------------------------------------


def test_set_roundtrip_with_groups():
    x = OrbitFiniteSet([OrbitDescriptor(0), OrbitDescriptor(2, [(1, 0)])])
    text = serialize({"X": x})
    parsed = parse(text)
    assert parsed["X"] == x
    assert serialize(parsed) == text


@pytest.mark.parametrize("name", catalog_names())
def test_monoid_roundtrip(name):
    m = builder(name)
    text = serialize({"M": m})
    back = parse(text)["M"]
    assert back.carrier == m.carrier
    assert back.unit == m.unit
    assert back.mult == m.mult
    assert serialize({"M": back}) == text


def test_morphism_roundtrip():
    e = catalog_quotient("compare")
    doc = {"M": e.dom, "N": e.cod, "e": e}
    text = serialize(doc)
    back = parse(text)
    assert back["e"].map == e.map
    assert serialize(back) == text


def test_subset_roundtrip():
    l0 = catalog_language("l0")
    m = l0.genmap.monoid
    single = FsSubset.singleton(Element(m.carrier, 3, (1, 4)))
    doc = {"M": m, "P": l0.predicate, "Q": single}
    text = serialize(doc)
    back = parse(text)
    assert back["P"] == l0.predicate
    assert back["Q"] == single
    assert serialize(back) == text


def test_word_roundtrip():
    doc = {"w": Word.of_atoms((0, 2, 0)), "empty": Word.of_atoms(())}
    text = serialize(doc)
    back = parse(text)
    assert back["w"] == doc["w"]
    assert back["empty"] == doc["empty"]
    assert serialize(back) == text


def test_term_roundtrip():
    a = Element(atoms_set(), 0, [0])
    b = Element(atoms_set(), 0, [1])
    terms = {
        "t1": OmegaTerm.unit(),
        "t2": OmegaTerm.letter(a),
        "t3": OmegaTerm.concat(OmegaTerm.omega(OmegaTerm.letter(a)), OmegaTerm.letter(a)),
        "t4": OmegaTerm.omega(OmegaTerm.concat(OmegaTerm.letter(a), OmegaTerm.letter(b))),
    }
    text = serialize(terms)
    back = parse(text)
    assert back == terms
    assert serialize(back) == text


def test_bound_roundtrip():
    doc = {
        "s1": SupportBound.constant((0, 3)),
        "s2": first_letter_bound(),
        "s3": endpoints_bound(),
    }
    text = serialize(doc)
    back = parse(text)
    assert back["s1"].variant == "constant"
    assert back["s1"].data == frozenset({0, 3})
    assert back["s2"].variant == "via-morphism"
    assert serialize(back) == text


def test_parse_charges_an_endpoints_bound_to_its_budget():
    parsed, built = Budget(), Budget()
    parse("bound s = endpoints\n", parsed)
    endpoints_bound(built)
    assert parsed.used == built.used > 0


def test_parse_charges_a_subset_normalization_to_its_budget():
    a = atoms_set()
    text = serialize({"A": a, "u": FsSubset.singleton(Element(a, 0, [4]))})
    parsed, built = Budget(), Budget()
    parse(text, parsed)
    FsSubset.from_elements(a, {4}, [Element(a, 0, [4])], budget=built)
    assert parsed.used == built.used > 0


# --- hand-written documents -----------------------------------------------


HAND_WRITTEN_N = """\
monoid N
  orbit dim 0
  orbit dim 1
  orbit dim 0
  unit 0
  mult 0() . 0() -> 0()
  mult 0() . 1(x0) -> 1(x0)
  mult 0() . 2() -> 2()
  mult 1(x0) . 0() -> 1(x0)
  mult 1(x0) . 1(x0) -> 2()
  mult 1(x0) . 1(x1) -> 2()
  mult 1(x0) . 2() -> 2()
  mult 2() . 0() -> 2()
  mult 2() . 1(x0) -> 2()
  mult 2() . 2() -> 2()
end
"""


def test_hand_written_monoid_validates():
    m = parse(HAND_WRITTEN_N)["N"]
    assert validate_monoid(m).ok
    ref = builder("zero_adjoined")
    assert m.carrier == ref.carrier
    assert m.mult == ref.mult


# a unit, a zero and unordered pairs of atoms, whose products are zero
NULL_PAIRS = """\
monoid P
  orbit dim 0
  orbit dim 0
  orbit dim 2 group (1 0)
  unit 0
  mult 0() . 0() -> 0()
  mult 0() . 1() -> 1()
  mult 0() . 2(x0 x1) -> 2(x0 x1)
  mult 1() . 0() -> 1()
  mult 1() . 1() -> 1()
  mult 1() . 2(x0 x1) -> 1()
  mult 2(x0 x1) . 0() -> 2(x0 x1)
  mult 2(x0 x1) . 1() -> 1()
  mult 2(x0 x1) . 2(x0 x1) -> 1()
  mult 2(x0 x1) . 2(x0 x2) -> 1()
  mult 2(x0 x1) . 2(x2 x3) -> 1()
end
"""

COMPARE = catalog_quotient("compare")
COMPARE_MORPHISM = serialize({"M": COMPARE.dom, "N": COMPARE.cod}) + (
    "morphism e : M -> N\n"
    "  map 0() -> 0()\n"
    "  map 1(x0) -> 1(x0)\n"
    "  map 2() -> 2()\n"
    "  map 3(x0) -> 2()\n"
    "end\n"
)


# a unit and a zero
TWO_POINTS = """\
monoid T
  orbit dim 0
  orbit dim 0
  unit 0
  mult 0() . 0() -> 0()
  mult 0() . 1() -> 1()
  mult 1() . 0() -> 1()
  mult 1() . 1() -> 1()
end
"""

SUBSET = """\
set A
  orbit dim 1
  orbit dim 2
end
subset U of A
  support a0
  element 0(a0)
  element 1(a1 a0)
end
"""


def test_hand_written_pairs_validate():
    m = parse(NULL_PAIRS)["P"]
    assert validate_monoid(m).ok
    assert serialize({"P": m}) == NULL_PAIRS


@pytest.mark.parametrize("name", catalog_names())
def test_mult_lines_may_name_any_pair_of_their_orbit(name):
    # label k becomes x(7 - k) on every line: other pairs of the same
    # product orbits, with their values moved along
    m = builder(name)
    text = serialize({"M": m})
    renamed = re.sub(r"x(\d)", lambda g: f"x{7 - int(g.group(1))}", text)
    assert renamed != text or "x" not in text
    assert parse(renamed)["M"] == m


def test_mult_lines_may_read_a_pair_under_its_group():
    swapped = NULL_PAIRS.replace(
        "mult 2(x0 x1) . 0() -> 2(x0 x1)", "mult 2(x1 x0) . 0() -> 2(x0 x1)"
    )
    assert swapped != NULL_PAIRS
    assert parse(swapped) == parse(NULL_PAIRS)


def off_the_keys(document, renamed):
    """The document with every 'mult' line on another pair of its
    product orbit: each call of the unordered pairs (orbit 2) read the
    other way round, and on the lines whose index is in ``renamed`` the
    label k written x(9 - k)."""
    lines = document.splitlines(keepends=True)
    for n, text in enumerate(lines):
        if text.lstrip().startswith("mult"):
            text = re.sub(r"2\(x(\d) x(\d)\)", r"2(x\2 x\1)", text)
            if n in renamed:
                text = re.sub(r"x(\d)", lambda g: f"x{9 - int(g.group(1))}", text)
            lines[n] = text
    return "".join(lines)


@pytest.mark.parametrize("renamed", [(), range(100), range(0, 100, 2)])
def test_mult_lines_off_their_keys_parse_to_what_serialize_writes(renamed):
    moved = off_the_keys(NULL_PAIRS, renamed)
    assert "2(x0 x1)" not in moved
    m = parse(moved)["P"]
    assert serialize({"P": m}) == NULL_PAIRS
    assert m == parse(NULL_PAIRS)["P"]


def test_hand_written_morphism_validates():
    e = COMPARE
    back = parse(COMPARE_MORPHISM)["e"]
    assert validate_morphism(back).ok
    assert back.map == e.map


def swap_morphism(row):
    """NULL_PAIRS with an endomorphism whose pair row reads ``row``."""
    return NULL_PAIRS + (
        "morphism h : P -> P\n"
        "  map 0() -> 0()\n"
        "  map 1() -> 1()\n"
        f"  map 2(x0 x1) -> {row}\n"
        "end\n"
    )


def test_a_map_row_read_under_its_group_is_the_same_map():
    # both rows name the identity on unordered pairs
    given, swapped = (parse(swap_morphism(row)) for row in ("2(x0 x1)", "2(x1 x0)"))
    assert validate_morphism(given["h"]).ok and validate_morphism(swapped["h"]).ok
    assert given["h"] == swapped["h"]
    assert serialize(given) == serialize(swapped) == swap_morphism("2(x0 x1)")


def test_a_morphism_of_an_equal_monoid_built_elsewhere_serializes():
    # monoids hash by value, so the morphism finds its domain's name
    m = builder("first_proj")
    doc = {"M": m, "e": identity_morphism(builder("first_proj"))}
    text = serialize(doc)
    back = parse(text)
    assert back["e"] == doc["e"]
    assert serialize(back) == text


# --- errors ---------------------------------------------------------------


def test_unknown_declaration_is_positioned():
    with pytest.raises(TextFormatError) as exc:
        parse("word w = a0\nbogus thing\n")
    assert exc.value.line == 2


def test_unterminated_block():
    with pytest.raises(TextFormatError):
        parse("monoid M\n  orbit dim 0\n")


def test_missing_mult_entry():
    bad = HAND_WRITTEN_N.replace("  mult 1(x0) . 1(x1) -> 2()\n", "")
    with pytest.raises(TextFormatError):
        parse(bad)


def test_corrupted_entry_is_positioned():
    bad = HAND_WRITTEN_N.replace("mult 1(x0) . 2() -> 2()", "mult 1(x0 . 2() -> 2()")
    with pytest.raises(TextFormatError) as exc:
        parse(bad)
    assert exc.value.line == 12


def test_result_labels_must_occur_on_the_left():
    bad = HAND_WRITTEN_N.replace(
        "mult 1(x0) . 2() -> 2()", "mult 1(x0) . 2() -> 1(x7)"
    )
    with pytest.raises(TextFormatError):
        parse(bad)


def edited(base, old, new):
    """base with old replaced by new, and the number of its first line
    that changed."""
    doc = base.replace(old, new, 1)
    assert doc != base
    pairs = zip(base.splitlines(), doc.splitlines())
    return doc, next(n for n, (a, b) in enumerate(pairs, 1) if a != b)


def before_end(base, line):
    return edited(base, "end\n", f"  {line}\nend\n")


MALFORMED = {
    "mult-line-names-no-orbit": before_end(HAND_WRITTEN_N, "mult 3() . 0() -> 0()"),
    "mult-line-of-wrong-arity": before_end(HAND_WRITTEN_N, "mult 1(x0 x1) . 0() -> 1(x0)"),
    "mult-line-repeats-a-label": before_end(NULL_PAIRS, "mult 2(x0 x0) . 0() -> 0()"),
    # 2(x1 x0) is 2(x0 x1) read under the group, so this names a product
    # orbit that already has a line
    "second-line-by-group-reading": before_end(
        NULL_PAIRS, "mult 2(x0 x1) . 2(x1 x0) -> 2(x0 x1)"
    ),
    "unit-not-a-number": edited(HAND_WRITTEN_N, "unit 0", "unit x"),
    "group-not-numbers": edited(NULL_PAIRS, "group (1 0)", "group (a b)"),
    "map-to-no-orbit": edited(COMPARE_MORPHISM, "map 0() -> 0()", "map 0() -> 9()"),
    # lines on a product key, read by key, and the same lines off it
    "second-line-on-a-key": before_end(HAND_WRITTEN_N, "mult 1(x0) . 1(x1) -> 2()"),
    "value-names-no-orbit-on-a-key": edited(
        HAND_WRITTEN_N, "mult 2() . 2() -> 2()", "mult 2() . 2() -> 5()"
    ),
    "value-of-wrong-arity-on-a-key": edited(
        HAND_WRITTEN_N, "mult 1(x0) . 1(x1) -> 2()", "mult 1(x0) . 1(x1) -> 1(x0 x1)"
    ),
    "value-repeats-a-label-on-a-key": edited(
        NULL_PAIRS, "mult 2(x0 x1) . 2(x2 x3) -> 1()", "mult 2(x0 x1) . 2(x2 x3) -> 2(x1 x1)"
    ),
    "value-of-wrong-arity-off-a-key": edited(
        HAND_WRITTEN_N, "mult 1(x0) . 1(x1) -> 2()", "mult 1(x3) . 1(x5) -> 1(x3 x5)"
    ),
    "second-line-off-a-key": before_end(HAND_WRITTEN_N, "mult 1(x4) . 1(x2) -> 2()"),
    # -1 would index the last orbit
    "unit-negative": edited(TWO_POINTS, "unit 0", "unit -1"),
    "group-then-junk": edited(NULL_PAIRS, "group (1 0)", "group (1 0) junk"),
    "group-word-run-on": edited(NULL_PAIRS, "group (1 0)", "groupX (1 0)"),
    "second-support-line": edited(SUBSET, "  support a0\n", "  support a0\n  support a1\n"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_line_is_an_error_at_that_line(case):
    doc, line = MALFORMED[case]
    with pytest.raises(TextFormatError) as exc:
        parse(doc)
    assert exc.value.line == line


def test_an_inner_error_keeps_its_own_line():
    # the monoid block's line 13 fails inside the boundary of line 2, where
    # the block's declaration starts
    doc, line = edited(
        "word w = a0\n" + HAND_WRITTEN_N, "mult 1(x0) . 2() -> 2()", "mult 1(x0) . 2() -> 2(x0)"
    )
    assert line == 13
    with pytest.raises(TextFormatError) as exc:
        parse(doc)
    assert exc.value.line == line
    with pytest.raises(TextFormatError) as exc:
        with _at(2):
            with _at(7):
                raise InvalidInput("bad value")
    assert exc.value.line == 7
    assert str(exc.value) == "line 7: bad value"


def test_the_line_boundary_passes_other_errors_through():
    with pytest.raises(KeyError):
        with _at(3):
            raise KeyError("not a format error")
    with _at(3) as boundary:
        pass
    assert boundary.line == 3


def test_bad_atom_token():
    with pytest.raises(TextFormatError) as exc:
        parse("word w = a0 b1\n")
    assert exc.value.line == 1


def test_morphism_needs_known_monoids():
    with pytest.raises(TextFormatError):
        parse("morphism e : M -> N\nend\n")


def test_unbalanced_term():
    with pytest.raises(TextFormatError):
        parse("term t = (a0\n")


def test_hand_written_subset_reads_its_support():
    u = parse(SUBSET)["U"]
    assert u.support == frozenset({0})
    assert serialize({"A": u.carrier, "U": u}) == SUBSET


# --- the row patterns against the token reader ----------------------------


@st.composite
def calls(draw, prefix, bad):
    """'i(p0 p1)' with its spacing varied; if ``bad``, one piece of it is
    drawn from the malformed ones."""
    spots = ["orbit", "gap", "opener", "closer", "arg", "sep"]
    spot = draw(st.sampled_from(spots)) if bad else None

    def piece(name, good, wrong):
        return draw(st.sampled_from(wrong if spot == name else good))

    labels = [f"{prefix}{k}" for k in range(4)]
    other = "a" if prefix == "x" else "x"
    wrong_labels = ["y0", prefix, f"{prefix}1{prefix}2", f"{other}0", "-1", "0"]
    n = draw(st.integers(2 if spot == "sep" else 1 if spot == "arg" else 0, 3))
    wrong_arg = draw(st.integers(0, n - 1)) if spot == "arg" else None
    args = [draw(st.sampled_from(wrong_labels if k == wrong_arg else labels)) for k in range(n)]
    text = args[0] if args else ""
    for arg in args[1:]:
        text += piece("sep", [" ", " ", "  ", "\t"], ["", ","]) + arg
    pad = st.sampled_from(["", "", " ", "  "])
    return "".join([
        piece("orbit", ["0", "1", "2", "3", "01"], ["-1", "", "x"]),
        piece("gap", [""], [" "]),
        piece("opener", ["("], ["", "(("]),
        draw(pad) + text + draw(pad),
        piece("closer", [")"], ["", "))"]),
    ])


@st.composite
def rows(draw, kind):
    """A ``kind`` line with extra or missing whitespace; half of them have
    one malformed call or separator."""
    arity = {"mult": 3, "map": 2, "element": 1}[kind]
    # the index of the malformed call, or -1 for the dot, -2 for the arrow
    bad = draw(st.integers(-arity, arity - 1)) if draw(st.booleans()) else None
    parts = [draw(calls("a" if kind == "element" else "x", k == bad)) for k in range(arity)]
    dot = [" . ", ".", " .", ". "] if bad != -1 else [" , ", "", " .. "]
    arrow = [" -> ", "->", " ->", "-> "] if bad != -2 else [" - > ", " => ", " "]
    joins = {"mult": [dot, arrow], "map": [arrow], "element": []}[kind]
    body = parts[0] + "".join(draw(st.sampled_from(j)) + c for j, c in zip(joins, parts[1:]))
    lead = draw(st.sampled_from(["  ", ""]))
    gap = draw(st.sampled_from([" ", "\t", "  "]))
    trail = draw(st.sampled_from(["", " "]))
    return f"{lead}{kind}{gap}{body}{trail}"


def row_calls(kind, text):
    """The calls the row pattern of ``kind`` reads off the line."""
    m = textfmt._ROWS[kind][0].fullmatch(text)
    if m is None:
        raise InvalidInput(f"expected '{textfmt._ROWS[kind][1]}'")
    if kind == "element":
        orbit, *atoms = textfmt._numbers(m[1])
        return [(orbit, tuple(atoms))]
    return textfmt._arrow(m)


def fmt_row(kind, calls):
    written = [textfmt._fmt_call(i, args, "a" if kind == "element" else "x") for i, args in calls]
    sep = {"mult": [" . ", " -> "], "map": [" -> "], "element": []}[kind]
    return f"  {kind} " + "".join(c + s for c, s in zip(written, sep + [""]))


BASES = {
    "mult": [HAND_WRITTEN_N, NULL_PAIRS],
    "map": [COMPARE_MORPHISM],
    "element": [SUBSET],
}


def outcome(document):
    """The canonical text of a document, or the line and message of its
    error."""
    try:
        return serialize(parse(document))
    except TextFormatError as exc:
        return exc.line, str(exc)


@st.composite
def respaced(draw, text):
    """``text`` with none, one or two spaces or a tab before each of the
    pieces after its row word: a row of a document with its spacing varied."""
    word, rest = text.split(None, 1)
    spaces = st.sampled_from(["", " ", "  ", "\t"])
    return f"  {word} " + "".join(draw(spaces) + piece for piece in rest.split(" "))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(BASES)), st.data())
def test_row_patterns_read_what_the_token_reader_reads(kind, data):
    # a line put in place of a row of its kind in a document: drawn, or
    # that row respaced
    lines = data.draw(st.sampled_from(BASES[kind])).splitlines()
    n = data.draw(st.sampled_from([k for k, t in enumerate(lines) if t.split()[0] == kind]))
    text = data.draw(rows(kind) | respaced(lines[n]))
    doc = "\n".join(lines[:n] + [text] + lines[n + 1:]) + "\n"
    try:
        expected = reference.parse_row(text)
    except InvalidInput:
        expected = None
    try:
        got = row_calls(kind, text)
    except InvalidInput:
        got = None
    assert got == expected
    if expected is None:
        with pytest.raises(TextFormatError) as exc:
            parse(doc)
        assert exc.value.line == n + 1
    else:
        # the same as its calls written canonically
        canonical = "\n".join(lines[:n] + [fmt_row(kind, expected)] + lines[n + 1:]) + "\n"
        assert outcome(doc) == outcome(canonical)
