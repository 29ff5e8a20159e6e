import pytest

from nommon.catalog import builder
from nommon.cli import main
from nommon.errors import Budget
from nommon.language import catalog_language, syntactic_of_language
from nommon.monoid import identity_morphism, monoid_from_concrete, validate_monoid
from nommon.sets import OrbitDescriptor, OrbitFiniteSet
from nommon.textfmt import parse, serialize


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_aperiodic_holds(capsys):
    code, out = run(capsys, "aperiodic", "cutoff2")
    assert code == 0
    assert "cutoff2: aperiodic" in out


def test_aperiodic_refuted_with_witness(capsys):
    code, out = run(capsys, "aperiodic", "cyclic2")
    assert code == 1
    # the first failure is_aperiodic reports
    assert out.splitlines() == ["cyclic2: NOT aperiodic, witness orbit 1()"]


@pytest.mark.parametrize("name", ["cyclic3", "l0_recognizer"])
def test_aperiodic_budget_covers_the_power_cycles(capsys, name):
    # the unit's power cycle takes the one tick, and the next cycle runs out
    code, out = run(capsys, "aperiodic", name, "--budget", "1")
    assert code == 3
    assert "budget exhausted" in out


def test_member_yes(capsys):
    # [TRIVIAL] abba has the adjacent repeat bb
    code, out = run(capsys, "member", "l0", "a b b a")
    assert code == 0
    assert "member" in out


def test_member_no(capsys):
    code, out = run(capsys, "member", "l0", "a b c")
    assert code == 1
    assert "not a member" in out


def test_member_atom_tokens(capsys):
    code, _ = run(capsys, "member", "l0", "a0 a1 a1 a0")
    assert code == 0


def test_validate_catalog(capsys):
    code, out = run(capsys, "validate", "barred")
    assert code == 0
    assert "valid (4 orbits)" in out


def test_validate_file(tmp_path, capsys):
    doc = serialize({"n": builder("zero_adjoined")})
    path = tmp_path / "n.nom"
    path.write_text(doc)
    code, out = run(capsys, "validate", str(path))
    assert code == 0
    assert "n: valid" in out


def test_definition_files_apply_the_name_filter(tmp_path, capsys):
    m, n = builder("zero_adjoined"), builder("first_proj")
    doc = serialize(
        {"m": m, "n": n, "e": identity_morphism(m), "f": identity_morphism(n)}
    )
    path = tmp_path / "defs.nom"
    path.write_text(doc)
    code, out = run(capsys, "validate", str(path))
    assert code == 0 and "m: valid" in out and "n: valid" in out
    code, out = run(capsys, "validate", str(path), "--name", "n")
    assert code == 0 and out.splitlines() == ["n: valid (2 orbits)"]
    code, out = run(capsys, "validate", str(path), "--name", "e")
    assert code == 2 and "no monoid found" in out
    code, out = run(capsys, "classify-quotient", str(path))
    assert code == 2 and "exactly one morphism" in out
    code, out = run(capsys, "classify-quotient", str(path), "--name", "f")
    assert code == 0 and "support-preserving: yes" in out
    code, out = run(capsys, "classify-quotient", str(path), "--name", "m")
    assert code == 2 and "exactly one morphism" in out


def test_orbits_listing(capsys):
    code, out = run(capsys, "orbits", "l0_recognizer")
    assert code == 0
    assert "5 orbits" in out
    assert "orbit 3: dim 2" in out


def test_syntactic_summary(capsys):
    code, out = run(capsys, "syntactic", "l2-any")
    assert code == 0
    assert "dims [0, 1, 1, 2]" in out
    assert "maximal support size: 2" in out


def test_proeq_agreement(capsys):
    code, out = run(capsys, "proeq", "cutoff1")
    assert code == 0
    code, out = run(capsys, "proeq", "cyclic2")
    assert code == 1
    assert "REFUTED" in out


def test_classify_report(capsys):
    code, out = run(capsys, "classify-quotient", "compare")
    assert code == 0
    assert "support-reflecting: yes" in out
    assert "msr: no" in out
    assert "4 orbit subsets" in out


def test_classify_expectation_refuted(capsys):
    code, out = run(capsys, "classify-quotient", "ex-compare", "--expect", "msr")
    assert code == 1
    assert "expectation 'msr' refuted" in out


def test_factor_found_and_missing(capsys):
    code, out = run(capsys, "factor", "compare")
    assert code == 0
    assert "factorization found" in out
    code, out = run(capsys, "factor", "ex-no-s-quot")
    assert code == 1
    assert "no s-bounded factorization" in out


def test_factor_reads_a_quotient_from_a_file(tmp_path, capsys):
    # the codomain is matched as a monoid: first_proj shares its carrier
    # with cutoff1, whose letter map a parsed monoid cannot give
    m = builder("first_proj")
    path = tmp_path / "q.nom"
    path.write_text(serialize({"M": m, "e": identity_morphism(m)}))
    code, out = run(capsys, "factor", str(path))
    assert code == 0
    assert out.splitlines() == ["factorization found: a -> orbit 1(a)"]


def test_factor_refuses_a_codomain_outside_the_catalog(tmp_path, capsys):
    # 1 + A + 0 with a.b = a: no catalog monoid, so no letter map to factor
    carrier = OrbitFiniteSet([OrbitDescriptor(0), OrbitDescriptor(1), OrbitDescriptor(0)])
    unit, zero = carrier.element(0, ()), carrier.element(2, ())

    def mult(x, y):
        if x == unit or y == zero:
            return y
        return x

    m = monoid_from_concrete(carrier, unit, mult)
    assert validate_monoid(m).ok
    path = tmp_path / "q.nom"
    path.write_text(serialize({"M": m, "e": identity_morphism(m)}))
    code, out = run(capsys, "factor", str(path))
    assert code == 2
    assert "no catalog monoid" in out


def test_join_failure_witness(capsys):
    code, out = run(capsys, "join", "first_proj", "last_proj")
    assert code == 1
    assert "NOT s-bounded" in out
    assert "orbit 2(a b)" in out


def test_join_bounded(capsys):
    code, out = run(capsys, "join", "first_proj", "first_proj")
    assert code == 0
    assert "re-verifies" in out


def test_dist_values(capsys):
    code, out = run(capsys, "dist", "a b", "a c")
    assert code == 0
    assert "d_s = 0" in out
    code, out = run(capsys, "dist", "a b", "b a")
    assert code == 0
    assert "d_s = 1/4" in out
    assert "2-orbit monoid" in out


def test_dist_catalog_scope_labeled(capsys):
    code, out = run(capsys, "dist", "a b", "b a", "--scope", "catalog")
    assert code == 0
    assert "lower bound" in out


def test_dist_takes_scope_size(capsys):
    code, out = run(capsys, "dist", "a b", "b a", "--max-orbits", "1")
    assert code == 0
    assert "<= 1 orbits" in out


@pytest.mark.parametrize("flag", ["--max-orbits", "--max-dim"])
def test_scope_size_is_dist_only(capsys, flag):
    code, _ = run(capsys, "validate", "trivial", flag, "3")
    assert code == 2


def test_stage_roundtrip(capsys):
    code, out = run(capsys, "stage", "first-a", "last-a", "l0")
    assert code == 0
    assert "5 orbits" in out
    assert "verified" in out


def test_stage_rejects_unbounded(capsys):
    code, out = run(capsys, "stage", "last-a", "--bound", "first-letter")
    assert code == 2
    assert "input error" in out


def test_budget_exhaustion(capsys):
    code, out = run(capsys, "dist", "a b", "b a", "--budget", "50")
    assert code == 3
    assert "budget exhausted" in out


def test_syntactic_budget_exhaustion(capsys):
    # the whole computation takes more ticks than the budget given here
    full = Budget()
    syntactic_of_language(catalog_language("l0"), budget=full)
    assert full.used > 500
    code, out = run(capsys, "syntactic", "l0", "--budget", "500")
    assert code == 3
    assert "budget exhausted" in out


def test_validate_file_budget_covers_the_parse(tmp_path, capsys):
    # a unit and a left-zero band on 4-sets of atoms: parsing enumerates
    # 212 tuples of its square, more than Light's test saves on the
    # 21,465 ticks of the associativity check over every z
    carrier = OrbitFiniteSet(
        [OrbitDescriptor(0), OrbitDescriptor(4, [(1, 0, 2, 3), (1, 2, 3, 0)])]
    )
    unit = carrier.element(0, ())
    band = monoid_from_concrete(carrier, unit, lambda x, y: y if x == unit else x)
    doc = serialize({"band": band})
    parsing, validating = Budget(), Budget()
    assert validate_monoid(parse(doc, parsing)["band"], budget=validating).ok
    limit = 21_550
    assert validating.used <= limit < parsing.used + validating.used
    path = tmp_path / "band.nom"
    path.write_text(doc)
    code, out = run(capsys, "validate", str(path), "--budget", str(limit))
    assert code == 3
    assert "budget exhausted" in out


def test_join_budget_exhaustion(capsys):
    from nommon.bounds import first_letter_bound, join_s_bounded
    from nommon.catalog import letters_map

    full = Budget()
    join_s_bounded(
        letters_map("first_proj"), letters_map("last_proj"), first_letter_bound(),
        budget=full,
    )
    limit = str(full.used - 1)
    code, out = run(capsys, "join", "first_proj", "last_proj", "--budget", limit)
    assert code == 3
    assert "budget exhausted" in out


def test_stage_budget_exhaustion(capsys):
    from nommon.bounds import endpoints_bound
    from nommon.prolimit import build_stage
    from nommon.sets import atoms_set

    full = Budget()
    quotients = [catalog_language(n).genmap for n in ("first-a", "last-a", "l0")]
    build_stage(atoms_set(), endpoints_bound(), quotients, budget=full)
    limit = str(full.used - 1)
    code, out = run(capsys, "stage", "first-a", "last-a", "l0", "--budget", limit)
    assert code == 3
    assert "budget exhausted" in out


def test_unknown_language(capsys):
    code, out = run(capsys, "member", "nosuch", "a")
    assert code == 2
    assert "input error" in out


def test_bad_word_token(capsys):
    code, out = run(capsys, "member", "l0", "a b!")
    assert code == 2


def test_bad_subcommand(capsys):
    code = main(["frobnicate"])
    capsys.readouterr()
    assert code == 2


def test_json_report(capsys):
    import json

    code, out = run(capsys, "validate", "barred", "--format", "json-report")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "validate"
    assert payload["exit"] == 0
    assert payload["report"] == ["barred: valid (4 orbits)"]


TRIVIAL = "monoid M\n  orbit dim 0\n  unit 0\n  mult 0() . 0() -> 0()\nend\n"


@pytest.mark.parametrize(
    "old, new",
    [("end", "  mult 1() . 0() -> 0()\nend"), ("unit 0", "unit x")],
    ids=["stray-mult-line", "unit-not-a-number"],
)
def test_validate_rejects_a_malformed_file(tmp_path, capsys, old, new):
    path = tmp_path / "m.nom"
    path.write_text(TRIVIAL.replace(old, new))
    code, out = run(capsys, "validate", str(path))
    assert code == 2
    assert "input error: line" in out
