#!/usr/bin/env python3
"""End-to-end benchmark of the RobustScaler serving stack.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

The first form builds the benchmark binary (``perfbench/``, a Cargo package
of its own, into ``$CARGO_TARGET_DIR`` or ``.bench_build``), runs one
workload in a process of its own and prints, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones, plus ``peak_rss_mb``, the
peak resident set of the workload's process as the kernel reports it on
exit. With ``--trace 1`` they are the per-layer spans and counters; a
per-layer metric a workload never enters reads 0. Lines before the result
give the set-up samples, the plan digest, the reuse shares and the outcome of
every correctness check.

``--workload all`` runs every workload, untraced and traced, plus one
untraced run on a second seed (``seed + 1``) that no bound gates, and prints
every metric with its unit.

Checkpoints and hibernation pages are written through the program's
storage interface into process memory, the role tmpfs would play: the
benchmark reads and writes only inside its checkout, and a disk-backed
checkout would put fsync latency into the timings.

Each workload takes its set-up samples and restores at even steps through
the timed loop, and reports a low percentile (``common::QUIET``) of them and
of its per-episode timings, so a slow phase of a shared host moves the
samples it falls on, not the result.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("diurnal-1t", "fleet-churn")
# Hard cap on one workload process, below the 180 s a run may take.
TIMEOUT_S = 170


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Build the benchmark binary and return its path."""
    if not os.path.isdir(os.path.join(ROOT, "crates", "online")):
        die("the repository's crates are missing; run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    command = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    result = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr)
    if result.returncode != 0:
        die("build failed")
    binary = os.path.join(ROOT, target, "release", "perfbench")
    if not os.path.isfile(binary):
        die(f"built binary not found at {binary}")
    return binary


def run_workload(binary, workload, seed, seconds, trace):
    """Run one workload in its own process; return (notes, result)."""
    command = [
        binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(TIMEOUT_S, child.kill)
    watchdog.start()
    reaped = False
    try:
        output = child.stdout.read()
        child.stdout.close()
        _, status, usage = os.wait4(child.pid, 0)
        reaped = True
        child.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
        if not reaped:
            # Interrupted: stop the workload and wait for it to end.
            child.kill()
            child.wait()
    lines = output.strip().splitlines()
    if child.returncode != 0 or not lines:
        die(f"{workload} exited with code {child.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        die(f"{workload} printed no result")
    if not trace:
        # ru_maxrss is in KiB on Linux.
        result["metrics"]["peak_rss_mb"] = {"value": usage.ru_maxrss / 1024.0, "unit": "MB"}
    return ["durable state: in-memory storage (nproc 2 machine)"] + lines[:-1], result


def run_all(binary, seed, seconds):
    """Every workload untraced and traced, and untraced on a second seed."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for run_seed, trace, label in (
            (seed, 0, "end-to-end"),
            (seed, 1, "per-layer"),
            (seed + 1, 0, "second seed, not gated"),
        ):
            notes, result = run_workload(binary, workload, run_seed, seconds, trace)
            print(f"== {workload}, seed {run_seed}, {label}")
            for note in notes:
                print(f"   {note}")
            print(f"   correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"   {name:<40} {metric['value']:>14.6g} {metric['unit']}")
                if run_seed == seed:
                    combined["metrics"][f"{workload}/{name}"] = metric
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
    print(json.dumps(combined))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated run unwinds, so the workload process it started ends too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds < 1:
        die("--seconds must be at least 1")
    binary = build()
    if args.workload == "all":
        run_all(binary, args.seed, args.seconds)
        return
    notes, result = run_workload(binary, args.workload, args.seed, args.seconds, args.trace)
    for note in notes:
        print(note)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
