#!/usr/bin/env python3
"""End-to-end reservation-service benchmark: build, run, steadiness check.

One run (what BENCHMARK.json's "command" invokes):

    python3 perfbench/run.py --workload region_day --seed 1 --seconds 30 --trace 0

builds the product library and the benchmark binary from the checkout's
sources (CMake, into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench), then runs one measurement.  The last stdout line
is the result object {"correct", "attempted", "failed", "metrics"}; the
exit code is 0 only when every correctness check passed.

Steadiness mode runs every workload repeatedly, alternating the workload
order, one fresh seed per round, and prints each metric's median,
quartiles and spread (interquartile range / median) against its bound:

    python3 perfbench/run.py --steady --runs 10 [--workloads a,b] [--smoke]

Round 0 uses seed 0 and must see failed == 0 on every workload, so each
workload measures planning rather than load shedding.  --seconds defaults
to BENCHMARK.json's run_seconds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build():
    """Configures (once) and builds vor_e2e; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"run.py: no product sources under {ROOT / 'src'}; "
            "run from a full checkout")
        sys.exit(2)
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", "4",
                  "--target", "vor_e2e"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-8000:])
            log(f"run.py: build step failed: {' '.join(step)}")
            sys.exit(2)
    return out / "vor_e2e"


def run_once(binary, workload, seed, seconds, trace, smoke, echo=True):
    """Runs one measurement; returns (exit code, parsed result or None)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", str(ROOT / ".bench_out")]
    if smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} seed {seed} exceeded {RUN_TIMEOUT_S} s")
        return 1, None
    if echo:
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, result


def load_contract():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def steady(args, binary):
    contract = load_contract()
    metric_defs = contract["per_layer" if args.trace else "end_to_end"]
    names = [w["name"] for w in contract["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    values = {w: {m["name"]: [] for m in metric_defs} for w in workloads}
    ok = True
    for round_index in range(args.runs):
        seed = round_index
        order = workloads if round_index % 2 == 0 else workloads[::-1]
        for workload in order:
            started = time.monotonic()
            code, result = run_once(binary, workload, seed, args.seconds,
                                    args.trace, args.smoke, echo=False)
            elapsed = time.monotonic() - started
            if code != 0 or result is None or not result.get("correct"):
                log(f"{workload} seed {seed}: FAILED (exit {code})")
                ok = False
                continue
            if round_index == 0 and result["failed"] != 0:
                log(f"{workload} seed {seed}: {result['failed']} failed "
                    "operations; the workload sheds load")
                ok = False
            for name, series in values[workload].items():
                series.append(result["metrics"][name]["value"])
            log(f"{workload} seed {seed}: ok in {elapsed:.1f} s")

    summary = {}
    for workload in workloads:
        print(f"\n{workload}")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        summary[workload] = {}
        for m in metric_defs:
            series = values[workload][m["name"]]
            if len(series) < 2:
                continue
            q1, med, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                verdict = "ok" if spread <= bound / 3 else (
                    "WIDE" if spread <= bound else "OVER")
                if spread > bound:
                    ok = False
            summary[workload][m["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "values": series}
            print(f"  {m['name']:34} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bound if bound is not None else '':>6} "
                  f"{verdict}")
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    with open(out / f"steady-trace{args.trace}.json", "w") as f:
        json.dump(summary, f, indent=1)
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int,
                        help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small traces, for the benchmark's own tests")
    parser.add_argument("--steady", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        help="comma-separated subset for --steady")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = load_contract()["run_seconds"]

    if args.steady:
        return steady(args, build())
    if args.workload is None or args.seed is None or args.seed < 0:
        parser.error("--workload and a non-negative --seed are required")
    binary = build()
    code, result = run_once(binary, args.workload, args.seed, args.seconds,
                            args.trace, args.smoke)
    if result is None and code == 0:
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
