"""Checks of the benchmark itself: planted wrong answers are caught, traced
counts repeat exactly, and the harness fails loudly without the library.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (puts src/ on the path)
import workloads  # noqa: E402
import layers  # noqa: E402
from nommon.errors import InvalidInput  # noqa: E402
from nommon.language import catalog_language, syntactic_of_language  # noqa: E402

CHEAP_SYNTACTIC = ("pair_zero", "cutoff2")


def _cheap(name, ops):
    """Ops of a round that take well under a second each."""
    if name == "syntactic":
        return [op for op in ops if op[1][0] in CHEAP_SYNTACTIC]
    return ops


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_planted_wrong_answer_is_counted_failed(name):
    wl = workloads.WORKLOADS[name]
    clean = wl.make_rounds(7)
    planted = wl.make_rounds(7, plant=True)
    changed = [
        (c, p)
        for rc, rp in zip(clean, planted)
        for c, p in zip(rc, rp)
        if c != p
    ]
    assert len(changed) == 1
    clean_op, planted_op = changed[0]
    assert clean_op[2] == planted_op[2]  # the oracle's answer is unchanged
    assert run.run_checked(workloads, clean_op)[2]
    batch = _cheap(name, [op for ops in planted[:2] for op in ops])
    assert planted_op in batch
    failed = [op for op in batch if not run.run_checked(workloads, op)[2]]
    assert failed == [planted_op]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_and_verdicts_repeat(name):
    wl = workloads.WORKLOADS[name]
    batch = _cheap(name, wl.make_rounds(3)[0])

    def counts():
        _, results, tracer = run.trace_batch(workloads, batch)
        calls = {k: v for k, v in tracer.metrics().items() if k.endswith(".calls")}
        ticks = sum(r[3] for r in results)
        return calls, ticks, [r[1] for r in results], all(r[2] for r in results)

    first = counts()
    assert first[3]
    assert any(v for v, _unit in first[0].values())
    assert counts() == first


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_second_seed_has_no_failures(name):
    batch = _cheap(name, workloads.WORKLOADS[name].make_rounds(11)[0])
    assert all(run.run_checked(workloads, op)[2] for op in batch)


def test_same_seed_repeats_across_processes():
    """Counts do not depend on string hashing or on the process."""
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "fs-boolean", "--seed", "5", "--seconds", "1", "--trace", "1"],
            capture_output=True, text=True, env=env, timeout=170, check=True,
        )
        lines = out.stdout.splitlines()
        result = json.loads(lines[-1])
        digest = lines[0].split("verdict digest ")[1]
        counts = {
            k: v["value"]
            for k, v in result["metrics"].items()
            if k.endswith(".calls") or k == "budget.ticks"
        }
        outputs.append((result["correct"], digest, counts))
    assert outputs[0][0]
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_output_matches_benchmark_json(trace, section):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        declared = {m["name"]: m["unit"] for m in json.load(f)[section]}
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "construct",
         "--seed", "1", "--seconds", "0.01", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_tracer_restores_every_binding():
    import nommon.monoid
    import nommon.sets

    originals = (nommon.sets.Element.__init__, nommon.monoid.min_coset, workloads.member)
    tracer = layers.Tracer()
    tracer.install(extra_modules=[workloads])
    try:
        assert hasattr(nommon.monoid.min_coset, "__wrapped__")
        assert hasattr(workloads.member, "__wrapped__")
    finally:
        tracer.uninstall()
    assert (nommon.sets.Element.__init__, nommon.monoid.min_coset, workloads.member) == originals


@pytest.mark.parametrize("name", ["first-a", "last-a", "l2-fixed"])
def test_excluded_languages_still_raise(name):
    with pytest.raises(InvalidInput, match="equivariant congruence"):
        syntactic_of_language(catalog_language(name))


def test_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "construct",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert not any(line.startswith("{") for line in out.stdout.splitlines())
