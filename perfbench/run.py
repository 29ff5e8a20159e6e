"""nommon's benchmark: seeded verdict workloads, end to end and per layer.

    python3 perfbench/run.py --workload syntactic --seed 1 --seconds 40 --trace 0

Runs one workload (``syntactic``, ``fs-boolean`` or ``construct``; see
``workloads.py``) in one process and one thread, closed loop: the next
verdict starts when the previous one has returned. Every verdict is
checked against ``oracle.py``.

With ``--trace 0`` it runs whole rounds of operations until ``--seconds``
have passed and reports the end-to-end metrics. With ``--trace 1`` it runs
the workload's fixed trace batch twice, untraced and then with every
layer wrapped (``layers.py``), and reports the per-layer metrics; their
counts repeat exactly for a given seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before
it give the same numbers for reading, with the run's provenance.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# measure the checkout's own source, never an installed copy
if not os.path.isdir(os.path.join(SRC, "nommon")):
    sys.exit(f"perfbench: no nommon sources under {SRC}")
sys.path.insert(0, SRC)

import layers  # noqa: E402

SETUP_REPEATS = 5
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
OWN_MODULES = ("workloads", "oracle")


def setup(name, seed):
    """Import nommon and the workload afresh, then generate the inputs."""
    for mod in list(sys.modules):
        if mod in OWN_MODULES or mod == "nommon" or mod.startswith("nommon."):
            del sys.modules[mod]
    workloads = importlib.import_module("workloads")
    wl = workloads.WORKLOADS[name]
    return workloads, wl, wl.make_rounds(seed)


def freeze_inputs():
    """The pre-generated inputs of a run are the harness's state, not part
    of any verdict's heap: keep them out of the collector's scans."""
    gc.collect()
    gc.freeze()


def git_commit():
    """The checked-out commit, read from .git without starting git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed):
    from nommon.kernel import USING_COMPILED

    return {
        "seed": seed,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "using_compiled": USING_COMPILED,
    }


def run_checked(workloads, op):
    """One verdict under its own budget: (seconds, answer, correct, ticks)."""
    from nommon.errors import Budget

    budget = Budget()
    # start from a heap holding no garbage of earlier verdicts, as a fresh
    # command-line call would
    gc.collect()
    t0 = time.perf_counter()
    try:
        answer = workloads.run_op(op, budget)
    except Exception as exc:  # noqa: BLE001 - a raising verdict is a failed one
        answer = f"raised {type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    return dt, answer, answer == op[2], budget.used


def tail(latencies):
    """The highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    i = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def timed(args):
    """End-to-end run: whole rounds until the time is up."""
    setups = []
    for k in range(SETUP_REPEATS):
        t0 = START if k == 0 else time.perf_counter()
        workloads, wl, rounds = setup(args.workload, args.seed)
        setups.append(time.perf_counter() - t0)
    freeze_inputs()
    latencies = []
    by_label = {}
    failures = []
    started = time.perf_counter()
    r = 0
    while True:
        for op in rounds[r % len(rounds)]:
            dt, answer, ok, _ = run_checked(workloads, op)
            latencies.append(dt)
            by_label.setdefault(workloads.op_label(op), []).append(dt)
            if not ok:
                failures.append((op[0], answer))
        r += 1
        if time.perf_counter() - started >= args.seconds:
            break
    n = len(latencies)
    tail_ms, tail_pct = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "verdicts_per_s": ((n - len(failures)) / sum(latencies), "1/s"),
        "verdict_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "verdict_tail_ms": (1000 * tail_ms, "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }
    print(f"workload {args.workload}: {r} rounds, {n} verdicts, closed loop, 1 thread")
    for item in workloads.EXCLUDED.get(args.workload, ()):
        print(f"  left out: {item}")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "verdict_tail_ms":
            note = f"  (p{tail_pct:.1f} of {n} samples, {min(n - 1, TAIL_BEYOND)} beyond)"
        if name == "setup_s":
            note = f"  (median of {SETUP_REPEATS} set-ups)"
        print(f"  {name:<16} {value:12.4f} {unit}{note}")
    print(f"  {'failed_frac':<16} {len(failures) / n:12.4f}  ({len(failures)} of {n})")
    print("  set-ups (s): " + " ".join(f"{t:.4f}" for t in setups))
    print("  median ms by kind:")
    for label, times in sorted(by_label.items()):
        print(f"    {label:<28} {1000 * statistics.median(times):10.2f}  ({len(times)})")
    return n, failures, metrics


def trace_batch(workloads, batch):
    """Run a batch untraced, then traced.

    Returns (untraced seconds, per-op results of the traced pass, tracer).
    """
    untraced_s = sum(run_checked(workloads, op)[0] for op in batch)
    tracer = layers.Tracer()
    tracer.install(extra_modules=[workloads])
    try:
        results = [run_checked(workloads, op) for op in batch]
    finally:
        tracer.uninstall()
    return untraced_s, results, tracer


def traced(args):
    """Per-layer run over the workload's fixed trace batch."""
    workloads, wl, rounds = setup(args.workload, args.seed)
    freeze_inputs()
    batch = [op for ops in rounds[: wl.trace_rounds] for op in ops]
    untraced_s, results, tracer = trace_batch(workloads, batch)
    traced_s = sum(dt for dt, _, _, _ in results)
    failures = [(op[0], answer) for op, (_, answer, ok, _) in zip(batch, results) if not ok]
    totals = tracer.layer_totals()
    attributed = sum(self_s for _, self_s in totals.values())
    metrics = tracer.metrics()
    metrics["budget.ticks"] = (sum(t for _, _, _, t in results), "ticks")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    metrics["trace.unattributed_s"] = (traced_s - attributed, "s")
    digest = hashlib.sha256(repr([a for _, a, _, _ in results]).encode()).hexdigest()
    print(f"workload {args.workload}: trace batch of {len(batch)} verdicts "
          f"({wl.trace_rounds} rounds), verdict digest {digest[:16]}")
    print(f"  traced {traced_s:.3f} s, untraced {untraced_s:.3f} s, "
          f"overhead ratio {traced_s / untraced_s:.2f}")
    print("  self time by layer, sorted:")
    for layer, (calls, self_s) in sorted(totals.items(), key=lambda kv: -kv[1][1]):
        if calls:
            callers = ", ".join(
                f"{caller} {n}"
                for (callee, caller), (n, _, _) in sorted(tracer.stats.items())
                if callee == layer
            )
            print(f"    {layer:<20} {self_s:9.4f} s {100 * self_s / traced_s:5.1f}%"
                  f"  {calls:>10} calls, from {callers}")
    print(f"    {'(unattributed)':<20} {traced_s - attributed:9.4f} s "
          f"{100 * (traced_s - attributed) / traced_s:5.1f}%")
    for name, _, _ in layers.EXTRAS:
        print(f"  {name:<34} {metrics[name][0]:.6g}")
    print(f"  {'budget.ticks':<34} {metrics['budget.ticks'][0]}")
    return len(batch), failures, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("syntactic", "fs-boolean", "construct"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    attempted, failures, metrics = (traced if args.trace else timed)(args)
    for kind, answer in failures[:5]:
        print(f"  FAILED {kind}: {str(answer)[:200]}")
    print("provenance " + json.dumps(provenance(args.seed)))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
