#!/usr/bin/env python3
"""Builds and runs the mmdb benchmark (see perfbench/README.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload oltp --seed 1 --seconds 25 --trace 0
      Builds the benchmark (Release, into .bench_build/) if needed, runs one
      workload once and prints its result line last, after checking that it
      holds exactly the metrics BENCHMARK.json names, in their units. With
      --trace 1 the line carries the per-layer metrics, and the full traced
      report is written to .bench_out/trace-<workload>-seed<seed>.json.

  python3 perfbench/run.py steady --workload oltp --runs 10 [--seconds S]
      Runs one workload N times with seeds 1..N and prints each metric's
      median, quartiles and spread (interquartile range over median) next to
      the bound BENCHMARK.json gives it.

  python3 perfbench/run.py overhead --workload oltp --seed 1 [--seconds S]
      Runs one seed untraced and traced and prints the tracing overhead: the
      traced end-to-end metrics minus the untraced ones.

  python3 perfbench/run.py selftest [--seconds 2]
      Checks the output oracles: every workload must pass as is, and must be
      reported incorrect when one row of a result it checks is perturbed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["oltp", "analytic", "ingest", "restart"]
RUN_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds the benchmark; exits on failure."""
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", "4"])
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            sys.exit("benchmark build failed: " + " ".join(step))
    return out / "mmdb_perfbench"


def trace_file(workload, seed):
    return ROOT / ".bench_out" / f"trace-{workload}-seed{seed}.json"


def run_once(binary, workload, seed, seconds, trace, perturb=False):
    """Runs the benchmark program once; returns (exit code, stdout)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        trace_file(workload, seed).parent.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(trace_file(workload, seed))]
    if perturb:
        cmd.append("--perturb")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"{workload} seed {seed}: no result in {RUN_TIMEOUT_S} s")
    return proc.returncode, proc.stdout


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def manifest():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def bounds():
    return {m["name"]: m.get("bound") for m in manifest()["end_to_end"]}


def manifest_mismatch(result, trace):
    """Why `result` does not hold exactly the manifest's end-to-end (or,
    traced, per-layer) metrics in their units; None when it does."""
    if not isinstance(result, dict) or not isinstance(result.get("metrics"),
                                                      dict):
        return "no result line"
    want = {m["name"]: m["unit"]
            for m in manifest()["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        return f"missing {missing}, not in manifest {extra}, wrong unit {units}"
    return None


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as the acceptance check takes it."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def cmd_run(argv):
    p = argparse.ArgumentParser(description="Run one workload once.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    binary = build()
    code, stdout = run_once(binary, args.workload, args.seed, args.seconds,
                            args.trace == 1)
    if code != 0:
        return code
    try:
        mismatch = manifest_mismatch(result_of(stdout), args.trace == 1)
    except json.JSONDecodeError:
        mismatch = "the last line is not JSON"
    if mismatch:
        print(f"result does not match BENCHMARK.json: {mismatch}",
              file=sys.stderr)
        return 1
    sys.stdout.write(stdout)
    return 0


def cmd_steady(argv):
    p = argparse.ArgumentParser(prog="run.py steady")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float)
    p.add_argument("--seed-base", type=int, default=1)
    args = p.parse_args(argv)
    args.seconds = args.seconds or manifest()["run_seconds"]
    if args.runs < 2:
        sys.exit("--runs must be at least 2")
    binary = build()
    values, shares = {}, set()
    for i in range(args.runs):
        seed = args.seed_base + i
        code, stdout = run_once(binary, args.workload, seed, args.seconds,
                                False)
        result = result_of(stdout) if code == 0 else None
        if result is None or not result["correct"]:
            sys.exit(f"seed {seed}: run failed or incorrect")
        mismatch = manifest_mismatch(result, False)
        if mismatch:
            sys.exit(f"seed {seed}: result does not match BENCHMARK.json: "
                     f"{mismatch}")
        shares.add((result["failed"] * 10**9) // result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: attempted {result['attempted']} failed "
              f"{result['failed']}", file=sys.stderr)
    bound_of = bounds()
    print(f"{args.workload}: {args.runs} runs of {args.seconds:g} s; "
          f"failed share {'constant' if len(shares) == 1 else 'VARIES'}")
    print(f"{'metric':<20}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}"
          f"{'bound':>7}  verdict")
    for name, vals in values.items():
        median, q1, q3, rel = spread(vals)
        bound = bound_of.get(name)
        if bound is None:
            verdict = "no bound"
        else:
            verdict = ("ok" if rel < bound / 3 else
                       "within bound" if rel <= bound else "TOO NOISY")
        print(f"{name:<20}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}{rel:>9.4f}"
              f"{bound if bound is not None else '-':>7}  {verdict}")
    return 0


def cmd_overhead(argv):
    p = argparse.ArgumentParser(prog="run.py overhead")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    args = p.parse_args(argv)
    args.seconds = args.seconds or manifest()["run_seconds"]
    binary = build()
    code, stdout = run_once(binary, args.workload, args.seed, args.seconds,
                            False)
    plain = result_of(stdout)
    traced_code, _ = run_once(binary, args.workload, args.seed, args.seconds,
                              True)
    if code != 0 or traced_code != 0 or plain is None:
        sys.exit("run failed")
    traced = json.loads(trace_file(args.workload, args.seed).read_text())
    print(f"{args.workload} seed {args.seed}: traced minus untraced")
    for name, metric in plain["metrics"].items():
        base = metric["value"]
        with_trace = traced["end_to_end"].get(name, {}).get("value")
        if with_trace is None:
            continue
        delta = with_trace - base
        rel = delta / base if base else float("nan")
        print(f"{name:<20}{base:>14.6g}{with_trace:>14.6g}{delta:>+14.6g}"
              f"{rel:>+9.2%} {metric['unit']}")
    return 0


def cmd_selftest(argv):
    p = argparse.ArgumentParser(prog="run.py selftest")
    p.add_argument("--seconds", type=float, default=2)
    args = p.parse_args(argv)
    binary = build()
    ok = True
    for workload in WORKLOADS:
        for perturb in (False, True):
            code, stdout = run_once(binary, workload, 1, args.seconds, False,
                                    perturb)
            result = result_of(stdout)
            reported = None if code != 0 or result is None else result["correct"]
            passed = reported is (not perturb)
            ok = ok and passed
            print(f"{workload:<9} {'perturbed' if perturb else 'as is':<10} "
                  f"correct={reported}  {'PASS' if passed else 'FAIL'}")
    return 0 if ok else 1


def main():
    commands = {"steady": cmd_steady, "overhead": cmd_overhead,
                "selftest": cmd_selftest}
    if len(sys.argv) > 1 and sys.argv[1] in commands:
        return commands[sys.argv[1]](sys.argv[2:])
    return cmd_run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
