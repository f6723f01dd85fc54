#!/usr/bin/env python3
"""The repo benchmark: host cost and simulated client experience of Matrix.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--expect <counts.json>]

Run from the root of a checkout.  It builds perfbench/ (the Matrix library
from src/ plus perfbench/workload.cpp) into .bench_build/, then:

  --trace 0  repeats the workload, one fresh process per repetition, while
             another fits in --seconds (at least MIN_REPS repetitions), and
             prints every end-to-end metric: wall_s as the sum over run_until
             slices of each slice's fastest repetition (fastest_slices_s),
             setup_s as the lowest per-repetition median set-up,
             peak_rss_mb as the median repetition, and sim metrics from the
             simulation (identical in every repetition of one seed, which is
             checked).
  --trace 1  runs one untraced and one traced repetition and prints every
             per-layer metric; spans go to .bench_build/spans/.

Every run applies the correctness checks (offered bots joined and admitted,
zero drops, simulated counts identical across repetitions, the traced run's
counts equal to the untraced run's, counts equal to an earlier run of the
same seed and binary in this checkout, and --expect when given) and counts
the joins of a failing repetition as failed.  The last stdout line is the
result object the benchmark contract defines.  Metric names, units and
directions are declared in BENCHMARK.json; host/sim labels, shard counts and
per-layer targets in perfbench/spec.json.
"""
import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench_workload"
MIN_REPS = 3
REP_TIMEOUT_S = 150


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds perfbench/ into .bench_build/; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(BUILD), "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(step))
            return False
    return BINARY.exists()


def child_env():
    # The program must see only the deployment and scenario the seed makes,
    # so drop the process-level MATRIX_* overrides (threads, scheduler,
    # tracing, load policy).
    return {k: v for k, v in os.environ.items() if not k.startswith("MATRIX_")}


def run_rep(name, workload, seed, mode, spans=None):
    cmd = [str(BINARY), "--workload", name, "--seed", str(seed),
           "--shards", str(workload["shards"]),
           "--sim-seconds", str(workload["sim_seconds"]),
           "--slice-seconds", str(workload["slice_seconds"]),
           "--mode", mode, "--setup-trials", str(workload["setup_trials"])]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=child_env(), timeout=REP_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}: "
                           f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def sim_signature(rep):
    """The simulated outcome of one repetition, compared exactly."""
    return {"counts": rep["counts"], "sim": rep["sim"]}


def mismatches(expected, observed):
    """Names whose values differ between two sim signatures."""
    diff = []
    for group in ("counts", "sim"):
        for key, value in expected.get(group, {}).items():
            if observed[group].get(key) != value:
                diff.append(f"{group}.{key}: expected {value!r}, "
                            f"got {observed[group].get(key)!r}")
    return diff


class Checks:
    """Correctness checks; a failing repetition fails all of its joins."""

    def __init__(self):
        self.results = []  # (name, ok, detail)

    def check(self, name, ok, detail=""):
        self.results.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.results)


def apply_checks(checks, reps, traced, workload, expect, cache_path):
    """Applies every check; returns the set of repetition indices that fail."""
    failing = set()
    all_reps = reps + ([traced] if traced else [])
    offered = workload["offered_clients"]
    for i, rep in enumerate(all_reps):
        c = rep["counts"]
        ok = checks.check(f"rep{i}.shards", c["shards"] == workload["shards"],
                          f"{c['shards']} shards, spec.json says "
                          f"{workload['shards']}")
        ok &= checks.check(f"rep{i}.offered_joined", c["joined"] == offered,
                           f"{c['joined']} joined of {offered} offered")
        ok &= checks.check(f"rep{i}.admitted", c["admitted"] == c["joined"],
                           f"{c['admitted']} of {c['joined']} admitted")
        ok &= checks.check(f"rep{i}.zero_drops", c["dropped"] == 0,
                           f"{c['dropped']} dropped")
        ok &= checks.check(f"rep{i}.replays", rep["replays_ok"])
        if not ok:
            failing.add(i)

    reference = sim_signature(reps[0])
    for i, rep in enumerate(all_reps[1:], start=1):
        diff = mismatches(reference, sim_signature(rep))
        name = "traced_equals_untraced" if traced is rep else f"rep{i}.same_sim"
        if not checks.check(name, not diff, "; ".join(diff[:3])):
            failing.update({0, i})

    # Same seed, same binary, earlier run in this checkout.
    if cache_path.exists():
        diff = mismatches(json.loads(cache_path.read_text()), reference)
        if not checks.check("same_as_earlier_run", not diff,
                            "; ".join(diff[:3])):
            failing.update(range(len(all_reps)))
    elif checks.ok:
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        cache_path.write_text(json.dumps(reference, sort_keys=True))

    if expect is not None:
        diff = mismatches(expect, reference)
        if not checks.check("expected_counts", not diff, "; ".join(diff[:3])):
            failing.update(range(len(all_reps)))
    return failing


def fastest_slices_s(reps):
    """Sum over run_until slices of the fastest repetition's wall for it.

    Every repetition of one seed does the same simulated work in each
    slice (the checks prove the counts equal), and other load on a shared
    host only ever adds time, in bursts of a few seconds.  So each slice's
    minimum is its least disturbed timing, and their sum is steadier than
    any one repetition's wall.  Unsliced workloads have one slice, so this
    is the fastest repetition."""
    slices = [r["host"]["slice_wall_s"] for r in reps]
    if len({len(s) for s in slices}) != 1:
        raise RuntimeError("repetitions ran different numbers of slices")
    return sum(min(column) for column in zip(*slices))


def end_to_end_metrics(reps, join_ok_ratio):
    sim = reps[0]["sim"]
    return {
        "wall_s": fastest_slices_s(reps),
        # Each repetition sets up setup_trials times in a row, so its median
        # reads the host as it was then; the lowest of those medians is the
        # least disturbed, for the same reason as in fastest_slices_s.
        "setup_s": min(statistics.median(r["host"]["setup_s"]) for r in reps),
        "peak_rss_mb": statistics.median(r["host"]["peak_rss_mb"] for r in reps),
        "client_latency_mean_ms": sim["client_latency_mean_ms"],
        "client_latency_p99_ms": sim["client_latency_p99_ms"],
        "switch_latency_mean_ms": sim["switch_latency_mean_ms"],
        "switch_latency_p95_ms": sim["switch_latency_p95_ms"],
        "join_ok_ratio": join_ok_ratio,
    }


def per_layer_metrics(plain, traced):
    c = traced["counts"]
    h = plain["host"]
    lay = traced["layer"]
    shards = max(1, c["shards"])
    mean_shard = c["shard_total_events"] / shards
    grown_mb = max(0.0, traced["host"]["peak_rss_mb"] - lay["rss_after_setup_mb"])
    return {
        "net.events": c["events"],
        "net.events_per_s": c["events"] / h["wall_s"],
        "net.peak_pending": c["peak_pending"],
        "net.sched_ns_per_op": lay["sched_ns_per_op"],
        "net.messages": c["messages"],
        "net.bytes": c["bytes"],
        "net.send_ns": lay["send_ns"],
        "net.buffer_reuse_ratio": c["buffers_reused"] / max(1, c["buffers_acquired"]),
        "net.windows": c["windows"],
        "net.cross_shard_msgs": c["cross_shard_msgs"],
        "net.barrier_stall_s": h["barrier_stall_s"],
        "net.shard_balance_ratio": (c["shard_busiest_events"] / mean_shard
                                    if mean_shard > 0 else 1.0),
        "core.codec.encode_ns": lay["encode_ns"],
        "core.codec.decode_ns": lay["decode_ns"],
        "core.codec.frame_parse_ns": lay["frame_parse_ns"],
        "core.routing.find_ns": lay["find_ns"],
        "core.routing.build_ms": lay["build_ms"],
        "core.topology.splits": c["topology.splits_completed"],
        "core.topology.reclaims": c["topology.reclaims_completed"],
        "core.topology.table_updates": c["topology.table_updates"],
        "core.topology.packets_fanned_out": c["topology.packets_fanned_out"],
        "core.topology.split_latency_ms": traced["sim"]["split_latency_mean_ms"],
        "core.topology.peak_active_servers": lay["peak_active_servers"],
        "game.actions": c["clients.actions"],
        "game.redirected": c["clients.redirected"],
        "game.migrated": c["clients.migrated"],
        "game.client_latency_p50_ms": traced["sim"]["client_latency_p50_ms"],
        "game.switch_latency_p50_ms": traced["sim"]["switch_latency_p50_ms"],
        "game.peak_queue_msgs": lay["peak_queue_msgs"],
        "game.client_latency.count": c["client_latency.count"],
        "game.switch_latency.count": c["switch_latency.count"],
        "sim.rss_after_setup_mb": lay["rss_after_setup_mb"],
        "sim.bytes_per_client": grown_mb * 1048576.0 / max(1, lay["peak_clients"]),
        "obs.trace_overhead_ratio": lay["trace_overhead_ratio"],
        "obs.collect_ms": lay["collect_ms"],
        "control.joins_denied": c["admission.joins_denied"],
        "control.joins_deferred": c["admission.joins_deferred"],
        "control.queue_parked": c["admission.queue.parked"],
        "control.directives_broadcast": c["admission.directives_broadcast"],
        "policy.arbitrated_requests": c["pool.arbitrated_requests"],
        "policy.contested_rounds": c["pool.contested_rounds"],
    }


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    # An exported source tree is not a git repository; never report the
    # HEAD of a repository that happens to enclose it.
    if not (ROOT / ".git").exists():
        return "none"
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    return sha.stdout.strip() if sha.returncode == 0 else "none"


def host_context(rep, load_avg):
    h = rep["host"]
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "compiler": h["compiler"],
        "build_type": h["build_type"],
        "git_sha": git_sha(),
        "src_sha256_16": source_digest(),
        "shards": h["shards"],
        "shard_threads": h["shards"] if h["threads"] and h["shards"] > 1 else 0,
        "load_avg_1m_at_start": load_avg,
    }


def binary_digest():
    return hashlib.sha256(BINARY.read_bytes()).hexdigest()[:16]


def print_span_summary(spans_path):
    """Per span name: count, total and self seconds (duration minus the
    part covered by child spans)."""
    by_name = {}
    for line in spans_path.read_text().splitlines():
        span = json.loads(line)
        n, total, self_s = by_name.get(span["name"], (0, 0.0, 0.0))
        by_name[span["name"]] = (n + 1, total + span["end_s"] - span["start_s"],
                                 self_s + span["self_s"])
    for name, (n, total, self_s) in by_name.items():
        print(f"# span {name:24} n={n:<4} total={total:9.4f}s self={self_s:9.4f}s")


def print_table(metrics, declared, spec_metrics, counts_for):
    print(f"{'metric':34} {'value':>18} {'unit':7} {'label':5} samples")
    for name, value in metrics.items():
        unit = declared[name]["unit"]
        label = spec_metrics[name]["label"]
        samples = counts_for.get(name, "")
        print(f"{name:34} {value:18.6f} {unit:7} {label:5} {samples}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--expect", type=Path,
                        help="JSON of expected counts/sim values to check")
    args = parser.parse_args()

    load_avg = os.getloadavg()[0]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    if args.workload not in spec["workloads"]:
        log(f"perfbench: unknown workload {args.workload}")
        return 2
    workload = spec["workloads"][args.workload]
    if not build():
        return 1

    start = time.monotonic()
    trials = workload["setup_trials"]
    traced = None
    if args.trace:
        reps = [run_rep(args.workload, workload, args.seed, "plain")]
        spans = BUILD / "spans" / f"{args.workload}-{args.seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        traced = run_rep(args.workload, workload, args.seed, "traced", spans)
    else:
        # Start another repetition only while the slowest one so far still
        # fits in --seconds, so a run ends close to --seconds.
        reps = []
        slowest = 0.0
        while (len(reps) < MIN_REPS or
               time.monotonic() - start + slowest <= args.seconds):
            rep_start = time.monotonic()
            reps.append(run_rep(args.workload, workload, args.seed, "plain"))
            slowest = max(slowest, time.monotonic() - rep_start)
    measured_s = time.monotonic() - start

    checks = Checks()
    cache = (BUILD / "counts" /
             f"{args.workload}-{args.seed}-{binary_digest()}.json")
    expect = json.loads(args.expect.read_text()) if args.expect else None
    failing = apply_checks(checks, reps, traced, workload, expect, cache)
    all_reps = reps + ([traced] if traced else [])
    attempted = sum(r["counts"]["joined"] for r in all_reps)
    failed = sum(r["counts"]["joined"] if i in failing
                 else r["counts"]["joined"] - r["counts"]["admitted"]
                 for i, r in enumerate(all_reps))

    first = reps[0]
    if args.trace:
        metrics = per_layer_metrics(first, traced)
        declared = {m["name"]: m for m in bench["per_layer"]}
        spec_metrics = spec["per_layer"]
        counts_for = {}
    else:
        metrics = end_to_end_metrics(reps, 1.0 - failed / max(1, attempted))
        declared = {m["name"]: m for m in bench["end_to_end"]}
        spec_metrics = spec["end_to_end"]
        c = first["counts"]
        counts_for = {
            "wall_s": f"n={len(reps)} reps",
            "setup_s": f"n={len(reps)}x{trials} set-ups",
            "peak_rss_mb": f"n={len(reps)} reps",
            "client_latency_mean_ms": f"n={c['client_latency.count']}",
            "client_latency_p99_ms": f"n={c['client_latency.count']}",
            "switch_latency_mean_ms": f"n={c['switch_latency.count']}",
            "switch_latency_p95_ms": f"n={c['switch_latency.count']}",
            "join_ok_ratio": f"n={attempted} joins",
        }
    unknown = sorted(set(metrics) - set(declared))
    if unknown:
        log(f"perfbench: metrics not declared in BENCHMARK.json: {unknown}")
        return 1

    context = host_context(first, load_avg)
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"reps={len(all_reps)} measured={measured_s:.1f}s")
    print("# host " + json.dumps(context, sort_keys=True))
    print_table(metrics, declared, spec_metrics, counts_for)
    if traced is not None:
        print_span_summary(spans)
    for name, ok, detail in checks.results:
        if not ok:
            print(f"# check FAILED {name}: {detail}")
    print(f"# checks {sum(ok for _, ok, _ in checks.results)}/"
          f"{len(checks.results)} passed")

    result = {
        "correct": checks.ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": declared[name]["unit"]}
                    for name, value in metrics.items()},
    }
    results_dir = BUILD / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"result": result, "host": context,
                              "rep_wall_s": [r["host"]["wall_s"] for r in all_reps],
                              "rep_setup_median_s": [
                                  statistics.median(r["host"]["setup_s"])
                                  for r in all_reps],
                              "checks": checks.results,
                              "sim": sim_signature(first)}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
