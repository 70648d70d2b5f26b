#!/usr/bin/env python3
"""Served-stack benchmark: build, run one workload, compare, self-test.

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
                           [--out FILE]
  python3 perfbench/run.py --compare OLD.jsonl NEW.jsonl
  python3 perfbench/run.py --self-test

Run mode builds the library and the benchmark from this checkout
(cmake, into .bench_build/perfbench), runs one workload and passes
its output through: the last line of stdout is the result object.
--out appends the run's full record (environment, request counts,
result) to FILE as one JSON line, the input of --compare.
"""

import argparse
import fcntl
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("rpc-small", "bulk-sharded", "update-mix")
# Variables that change what is measured; the benchmark refuses them.
PINNED_ENV = ("SMASH_FORCE_ISA", "SMASH_TILE", "SMASH_TILE_COLS",
              "SMASH_NET_FAULTS", "SMASH_TRACE", "SMASH_BENCH_SCALE")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configure once, then build incrementally; returns the binary."""
    if not (ROOT / "src" / "serve" / "session.hh").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a "
             "checkout of the whole repository")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                          str(out), "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out), "-j",
                      str(os.cpu_count() or 1)])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail("build failed: " + " ".join(step), 1)
    return out / "smash_perfbench"


def run_once(binary, workload, seed, seconds, trace, extra=(), env=None):
    """Run the binary; returns (exit code, stdout lines)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(build_dir() / "run"), *extra]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    sys.stderr.write(done.stderr)
    return done.returncode, done.stdout.strip().splitlines()


def parse_lines(lines):
    """The env and requests lines, and the result (last line)."""
    record = {}
    for line in lines[:-1]:
        try:
            record.update(json.loads(line))
        except json.JSONDecodeError:
            pass
    result = json.loads(lines[-1]) if lines else None
    return record, result


def cmd_run(args):
    binary = build()
    code, lines = run_once(binary, args.workload, args.seed, args.seconds,
                           args.trace)
    for line in lines:
        print(line)
    if args.out and lines:
        record, result = parse_lines(lines)
        record.update(workload=args.workload, seed=args.seed,
                      seconds=args.seconds, trace=args.trace, result=result)
        with open(args.out, "a") as f:
            f.write(json.dumps(record) + "\n")
    return code


# --- Compare mode. ---

def load_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else math.inf
    return med, q1, q3, spread


def cmd_compare(old_path, new_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    metrics.update({m["name"]: m for m in spec["per_layer"]})
    old, new = load_records(old_path), load_records(new_path)
    print(f"{'workload':13s} {'metric':30s} {'old median [q1, q3]':>30s} "
          f"{'new median [q1, q3]':>30s} {'shift':>8s} {'bound':>6s}  verdict")
    for workload in WORKLOADS:
        for name, m in metrics.items():
            a = [r["result"]["metrics"][name]["value"] for r in old
                 if r["workload"] == workload and
                 name in r["result"]["metrics"]]
            b = [r["result"]["metrics"][name]["value"] for r in new
                 if r["workload"] == workload and
                 name in r["result"]["metrics"]]
            if not a or not b:
                continue
            ma, qa1, qa3, sa = summary(a)
            mb, qb1, qb3, sb = summary(b)
            shift = (mb - ma) / abs(ma) if ma else math.inf
            worse = shift if m["better"] == "lower" else -shift
            bound = m.get("bound")
            if bound is None:
                verdict = "(no bound)"
            elif sa > bound or sb > bound:
                verdict = "unresolved (spread over bound)"
            elif worse > bound:
                verdict = "REGRESSED"
            elif -worse > bound:
                verdict = "improved"
            else:
                verdict = "within bound"
            print(f"{workload:13s} {name:30s} "
                  f"{ma:12.4g} [{qa1:.4g}, {qa3:.4g}]".ljust(76) +
                  f"{mb:12.4g} [{qb1:.4g}, {qb3:.4g}]".ljust(31) +
                  f"{shift:+8.1%} " +
                  (f"{bound:6.2f}" if bound is not None else "     -") +
                  f"  {verdict}")
    return 0


# --- Self-test. ---

def cmd_self_test():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    binary = build()
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines = run_once(binary, workload, 1, 1, trace)
            where = f"{workload} trace={trace}"
            if code != 0 or not lines:
                problems.append(f"{where}: exit {code}")
                continue
            _, result = parse_lines(lines)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] != 0 or \
                    result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"failed={result['failed']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                missing = sorted(set(want[trace]) - set(got))
                extra = sorted(set(got) - set(want[trace]))
                wrong = sorted(k for k in got if k in want[trace] and
                               got[k] != want[trace][k])
                problems.append(f"{where}: missing {missing} extra {extra} "
                                f"wrong units {wrong}")
            for k, v in result["metrics"].items():
                if not isinstance(v["value"], (int, float)) or \
                        not math.isfinite(v["value"]):
                    problems.append(f"{where}: {k} is not a number")
            print(f"self-test: {where}: {len(got)} metrics, "
                  f"{result['attempted']} requests checked", flush=True)
    # A deliberately wrong oracle must be caught.
    code, lines = run_once(binary, "rpc-small", 1, 1, 0, ["--break-oracle"])
    _, result = parse_lines(lines)
    if code == 0 or not result or result["correct"]:
        problems.append("a wrong oracle was not caught")
    else:
        print("self-test: wrong oracle caught", flush=True)
    # A pinned variable must stop the run before it prints a result.
    env = dict(os.environ, SMASH_TRACE="1")
    code, lines = run_once(binary, "rpc-small", 1, 1, 0, env=env)
    if code == 0 or lines:
        problems.append("SMASH_TRACE did not stop the run")
    else:
        print("self-test: pinned environment refused", flush=True)
    for p in problems:
        print(f"self-test FAILED: {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.compare:
        return cmd_compare(*args.compare)
    for name in PINNED_ENV:
        if name in os.environ:
            fail(f"refusing to run: {name} is set and would change what "
                 "is measured")
    if args.self_test:
        return cmd_self_test()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    return cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
