#!/usr/bin/env python3
"""Steadiness check: run the benchmark on several seeds and compare spreads with the bounds.

Run from the root of a checkout:

    python3 perfbench/steadiness.py                       # ten seeds on every workload
    python3 perfbench/steadiness.py --seeds 1             # every metric once per workload
    python3 perfbench/steadiness.py --workload paper_grid --seeds 5
    python3 perfbench/steadiness.py --sets 2              # also compare two sets' medians
    python3 perfbench/steadiness.py --counts              # traced run twice, counts must repeat

For each end-to-end metric it prints the median of the runs and the distance
between their first and third quartiles as a share of the median. A spread
must stay within the metric's bound in BENCHMARK.json, and the aim is a third
of it. Set k uses seeds (k-1)*N+1 .. k*N for N = --seeds. With --sets 2 the
second set's median must not be worse than the first's by more than the bound.
The exit code is 1 if a spread is WIDE, a median REGRESSED or, with --counts,
a count differs between the two traced runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    """The run's result line and the causes it names for failed scenarios."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), [line.strip() for line in lines if line.startswith("  cause:")]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def check_set(spec: dict, workload: str, seeds: range, seconds: int) -> tuple[dict[str, float], bool]:
    """Medians of the end-to-end metrics, and whether every spread is within its bound."""
    runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
    results = [result for result, _ in runs]
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    print(f"{workload}: seeds {seeds.start}..{seeds.stop - 1}, "
          f"{sum(not r['correct'] for r in results)} runs with failed checks")
    medians, steady = {}, True
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in results]
        medians[name] = statistics.median(values)
        line = f"  {name:<18} median {medians[name]:<14.6g} {metric['unit']:<8}"
        if len(values) > 1:
            share = spread(values)
            verdict = "ok" if share <= metric["bound"] / 3 else (
                "within bound" if share <= metric["bound"] else "WIDE")
            steady &= verdict != "WIDE"
            line += f" spread {share:.4f} bound {metric['bound']}  {verdict}"
        print(line)
        print("    runs: " + " ".join(f"{v:.6g}" for v in values))
    print(f"  {'failed_share':<18} {failed / attempted:<21.6g} share    "
          f"({failed} of {attempted} scenarios)")
    for cause in sorted({c for _, causes in runs for c in causes}):
        print(f"  {cause}")
    return medians, steady


def check_counts(spec: dict, workload: str, seed: int, seconds: int) -> bool:
    """Whether every count of two traced runs on the same seed is identical."""
    first, second = (run_once(workload, seed, seconds, 1)[0] for _ in range(2))
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] != "s"]
    differ = [n for n in counts if first["metrics"][n]["value"] != second["metrics"][n]["value"]]
    print(f"{workload}: {len(counts) - len(differ)} of {len(counts)} counts repeat exactly"
          + (f"; differ: {differ}" if differ else ""))
    return not differ


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--counts", action="store_true")
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    passed = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        if args.counts:
            passed &= check_counts(spec, workload, 1, seconds)
            continue
        sets = []
        for i in range(args.sets):
            medians, steady = check_set(
                spec, workload, range(i * args.seeds + 1, (i + 1) * args.seeds + 1), seconds)
            sets.append(medians)
            passed &= steady
        for later in sets[1:]:
            for metric in spec["end_to_end"]:
                name, a, b = metric["name"], sets[0][metric["name"]], later[metric["name"]]
                worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
                passed &= worse <= metric["bound"]
                print(f"  {name:<18} second set worse by {worse:+.4f} (bound {metric['bound']})"
                      f"  {'ok' if worse <= metric['bound'] else 'REGRESSED'}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
