import pytest

from nommon.catalog import builder
from nommon.cli import main
from nommon.textfmt import serialize


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
    assert "NOT aperiodic" in out and "witness" in out


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
    code, out = run(capsys, "syntactic", "l0", "--budget", "1000")
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


def test_seed_always_printed(capsys):
    _, out = run(capsys, "orbits", "trivial", "--seed", "7")
    assert "seed: 7" in out
