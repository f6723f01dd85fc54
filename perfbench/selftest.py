#!/usr/bin/env python3
"""Self-test of the repo benchmark: proves each of its checks can fire.

    python3 perfbench/selftest.py [--workload fig2_hotspot] [--seed 2005]

Cases, each run through perfbench/run.py exactly as the benchmark runs:
  1. BENCHMARK.json and perfbench/spec.json declare the same workloads and
     metrics, and every metric carries a host/sim label.
  2. A clean --trace 0 run passes every check and prints exactly the
     declared end-to-end names; a clean --trace 1 run passes every check
     (including the traced-equals-untraced and same-as-earlier-run checks)
     and prints exactly the declared per-layer names.
  3. A deliberately wrong expected count (events + 1) fails the run.
  4. A perturbed seed (seed + 1) checked against the seed's counts fails.
  5. In a directory holding only BENCHMARK.json and perfbench/, run.py exits
     non-zero without printing a result.
A failing run must print "correct": false and count every join as failed.
Exits 0 when every case behaves as stated.
"""
import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_build" / "selftest"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

failures = []


def expect(condition, what):
    print(("ok   " if condition else "FAIL ") + what, flush=True)
    if not condition:
        failures.append(what)


def bench(root, workload, seed, trace, extra=()):
    """Runs the benchmark; returns (exit code, result or None, stdout)."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), *extra]
    done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result, done.stdout


def results_file(workload, seed, trace):
    path = ROOT / ".bench_build" / "results" / f"{workload}-{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def check_declarations(bench_spec, spec):
    names = [w["name"] for w in bench_spec["workloads"]]
    expect(names == list(spec["workloads"]), "workloads match spec.json")
    for group in ("end_to_end", "per_layer"):
        declared = [m["name"] for m in bench_spec[group]]
        expect(declared == list(spec[group]), f"{group} names match spec.json")
        expect(all(spec[group][n]["label"] in ("host", "sim") for n in declared),
               f"every {group} metric is labelled host or sim")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="fig2_hotspot")
    parser.add_argument("--seed", type=int, default=2005)
    args = parser.parse_args()
    w, seed = args.workload, args.seed

    bench_spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    check_declarations(bench_spec, spec)
    e2e = {m["name"] for m in bench_spec["end_to_end"]}
    layer = {m["name"] for m in bench_spec["per_layer"]}

    code, result, _ = bench(ROOT, w, seed, 0)
    expect(code == 0 and result is not None and set(result) == RESULT_KEYS,
           "clean trace-0 run prints the result object")
    if result is None:
        return 1
    expect(result["correct"] and result["failed"] == 0,
           "clean trace-0 run passes every check")
    expect(set(result["metrics"]) == e2e,
           "trace-0 names equal BENCHMARK.json end_to_end")
    signature = results_file(w, seed, 0)["sim"]

    code, result, _ = bench(ROOT, w, seed, 1)
    expect(code == 0 and result is not None and result["correct"],
           "clean trace-1 run passes every check")
    if result is not None:
        expect(set(result["metrics"]) == layer,
               "trace-1 names equal BENCHMARK.json per_layer")
    checks = {name for name, _, _ in results_file(w, seed, 1)["checks"]}
    expect({"traced_equals_untraced", "same_as_earlier_run"} <= checks,
           "trace-1 run compared traced and earlier counts")

    SCRATCH.mkdir(parents=True, exist_ok=True)
    wrong = json.loads(json.dumps(signature))
    wrong["counts"]["events"] += 1
    wrong_path = SCRATCH / "wrong_events.json"
    wrong_path.write_text(json.dumps(wrong))
    _, result, _ = bench(ROOT, w, seed, 0, ["--expect", str(wrong_path)])
    expect(result is not None and not result["correct"]
           and result["failed"] == result["attempted"],
           "a wrong expected event count fails the run")

    right_path = SCRATCH / "seed_counts.json"
    right_path.write_text(json.dumps(signature))
    _, result, _ = bench(ROOT, w, seed + 1, 0, ["--expect", str(right_path)])
    expect(result is not None and not result["correct"]
           and result["failed"] == result["attempted"],
           "a perturbed seed fails against the seed's counts")

    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench" / path.name)
    code, result, _ = bench(bare, w, seed, 0)
    expect(code != 0 and result is None,
           "without the sources run.py exits non-zero and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
