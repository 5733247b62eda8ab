#!/usr/bin/env python3
"""The repo benchmark: build, run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload etcd-ycsb-a --seed 1 --seconds 20 \
        --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. The first call configures and builds
perfbench/ (which builds the dicho library from src/) into .bench_build/;
later calls rebuild incrementally. Each workload runs in its own
single-threaded process. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. See README.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "dicho_perfbench"
STAMP_FILE = ROOT / ".bench_build" / "last_stamp.json"

WORKLOADS = [
    "etcd-ycsb-a",
    "harmony-ycsb-open",
    "tidb-smallbank-skew",
    "spanner-ycsb-xshard",
]

# name -> unit. The untraced run reports these; BENCHMARK.json lists the same.
END_TO_END = {
    "setup_s": "s",
    "host_ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "modeled_tps": "1/s",
    "modeled_p50_ms": "ms",
    "modeled_p999_ms": "ms",
    "ops_ok_share": "share",
}

# Printed beside the end-to-end metrics but not gated: the raw host figures
# behind the reference-normalized setup_s and host_ops_per_s, the reference
# kernel's time, and the three of the nine end-to-end metrics that read 0 on
# some workload (the first two are also reported per layer when traced).
PRINTED_ONLY = {
    "setup_s_raw": "s",
    "host_ops_per_s_raw": "1/s",
    "reference_ms": "ms",
    "modeled_qps": "1/s",
    "modeled_query_p50_ms": "ms",
    "ops_failed_share": "share",
}

PER_LAYER = {
    "workload.gen_us_per_op": "us",
    "workload.gen_share": "share",
    "sim.events_per_op": "count",
    "sim.events_per_host_s": "1/s",
    "sim.net_msgs_per_op": "count",
    "sim.net_bytes_per_op": "B",
    "systems.load_us_per_record": "us",
    "adt.mpt_node_bytes_per_write": "B",
    "adt.mpt_batch_reuse_hits": "count",
    "consensus.raft_log_entries": "count",
    "consensus.raft_commit_p50_ms": "ms",
    "storage.btree_bytes": "B",
    "runtime.ops_per_batch": "count",
    "runtime.mempool_peak": "count",
    "runtime.inflight_peak": "count",
    "runtime.busiest_node_cpu_util": "share",
    "phase.consensus_p50_ms": "ms",
    "phase.read_p50_ms": "ms",
    "phase.proposal_p50_ms": "ms",
    "phase.order_p50_ms": "ms",
    "phase.execute_p50_ms": "ms",
    "phase.parse_p50_ms": "ms",
    "phase.prewrite_p50_ms": "ms",
    "phase.commit_p50_ms": "ms",
    "txn.abort_rate": "share",
    "txn.aborts.write_conflict": "count",
    "txn.aborts.contention": "count",
    "txn.aborts.constraint": "count",
    "txn.aborts.unavailable": "count",
    "txn.aborts.other": "count",
    "tidb.txn_retries": "count",
    "txn.lock_waits": "count",
    "sharding.two_pc_rounds_per_txn": "count",
    "host.cpu_s": "s",
    "host.sys_s": "s",
    "host.minor_faults": "count",
    "obs.trace_overhead": "ratio",
    "modeled_qps": "1/s",
    "modeled_query_p50_ms": "ms",
}

# The modeled results and deterministic work counters the self-test
# requires to repeat exactly for one seed.
DETERMINISTIC = [
    "modeled_tps", "modeled_qps", "modeled_p50_ms", "modeled_p999_ms",
    "modeled_query_p50_ms", "window_committed", "attempted", "committed",
    "aborted", "answered", "events", "net_messages", "net_bytes",
    "mpt_node_bytes", "inputs_digest",
]

# Host facts that decide whether two results can be compared.
STAMP_KEYS = [
    "hardware_concurrency", "sha256_path", "compiler", "build_type",
    "DICHO_SIM_THREADS", "DICHO_BENCH_THREADS",
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally. Build output goes to
    stderr so the last stdout line stays the result."""
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1),
         "--target", "dicho_perfbench"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def run_binary(workload, seed, seconds, trace, extra=()):
    env = dict(os.environ)
    # One process, one simulation thread: no partitioned engine workers and
    # no parallel sweep pool.
    env["DICHO_SIM_THREADS"] = "1"
    env["DICHO_BENCH_THREADS"] = "1"
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit():
    """The checkout's commit when it is a git work tree, else 'unknown'."""
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def stamp_of(report):
    stamp = {k: report[k] for k in STAMP_KEYS}
    stamp["commit"] = git_commit()
    return stamp


def compare_stamp(stamp):
    """Flags a result whose host stamp differs from the previous result's in
    this checkout: its host-time numbers are not comparable."""
    note = "no previous result"
    if STAMP_FILE.exists():
        previous = json.loads(STAMP_FILE.read_text())
        differs = [k for k in STAMP_KEYS if previous.get(k) != stamp.get(k)]
        note = ("NOT COMPARABLE with previous result (differs in "
                + ", ".join(differs) + ")") if differs else \
            "comparable with previous result"
    STAMP_FILE.parent.mkdir(parents=True, exist_ok=True)
    STAMP_FILE.write_text(json.dumps(stamp, sort_keys=True) + "\n")
    return note


def end_to_end(report):
    attempted = report["attempted"]
    failed_ops = report["aborted"] + report["unresolved"]
    failed_share = failed_ops / attempted if report["correct"] else 1.0
    values = {k: report[k] for k in END_TO_END if k in report}
    values.update({k: report[k] for k in PRINTED_ONLY if k in report})
    values["ops_failed_share"] = failed_share
    values["ops_ok_share"] = 1.0 - failed_share
    return values


def run(args):
    build()
    report = run_binary(args.workload, args.seed, args.seconds, args.trace)
    stamp = stamp_of(report)
    print("stamp: " + json.dumps(stamp, sort_keys=True))
    print("stamp check: " + compare_stamp(stamp))
    if not report["correct"]:
        print("correctness gate FAILED: " + report["failure"])
    if args.trace:
        units = PER_LAYER
        values = report["per_layer"]
        print(f"busiest node: {report['busiest_node'] or 'none registered'}")
    else:
        units = END_TO_END
        values = end_to_end(report)
        for name, unit in {**END_TO_END, **PRINTED_ONLY}.items():
            print(f"{args.workload:20s} {name:22s} {values[name]:>16.6g} "
                  f"{unit}")
        print(f"{args.workload:20s} {'reps':22s} {report['reps']:>16.6g}")
    correct = bool(report["correct"])
    attempted = int(report["attempted"])
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def self_test(_args):
    """Each workload twice at a short length with one seed: modeled results
    and deterministic counters must repeat exactly and the gate must pass.
    A second seed must change the generated inputs."""
    build()
    ok = True
    for workload in WORKLOADS:
        a = run_binary(workload, 1, 0, 0, ["--quick"])
        b = run_binary(workload, 1, 0, 0, ["--quick"])
        c = run_binary(workload, 2, 0, 0, ["--quick"])
        problems = [f"{k} differs ({a[k]} vs {b[k]})"
                    for k in DETERMINISTIC if a[k] != b[k]]
        problems += [f"seed {r['seed']:g}: {r['failure']}"
                     for r in (a, b, c) if not r["correct"]]
        if a["inputs_digest"] == c["inputs_digest"]:
            problems.append("a second seed left the inputs unchanged")
        print(f"{workload:20s} {'ok' if not problems else 'FAIL'}")
        for p in problems:
            print("    " + p)
        ok = ok and not problems
    manifest = ROOT / "BENCHMARK.json"
    if manifest.exists():
        spec = json.loads(manifest.read_text())
        listed = {
            "workloads": [w["name"] for w in spec["workloads"]],
            "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
        }
        expected = {"workloads": WORKLOADS, "end_to_end": END_TO_END,
                    "per_layer": PER_LAYER}
        for key, want in expected.items():
            if listed[key] != want:
                print(f"BENCHMARK.json {key} does not match run.py")
                ok = False
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test(args)
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            RuntimeError, OSError, ValueError) as err:
        log(f"perfbench: {err}")
        sys.exit(1)
