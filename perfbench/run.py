#!/usr/bin/env python3
"""embudget benchmark: one workload, one seed, one fresh measuring process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 35 --trace 0

Prints a human-readable report and, as the last line, one JSON object with
`correct`, `attempted`, `failed` and `metrics`. With --trace 0 the metrics are
the end-to-end metrics listed in BENCHMARK.json, with --trace 1 the per-layer
ones. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
# Every run must end within 180 s; leave room to report and clean up.
CHILD_TIMEOUT_S = 170.0


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _format(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main() -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "embudget" / "__init__.py").is_file():
        return _fail(f"no embudget sources under {root / 'src'}; run from a checkout root")
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        return _fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    runs_dir = root / ".perfbench_runs"
    run_dir = runs_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        experiment = workloads.write_experiment(args.workload, args.seed, root, run_dir)
        result_path = run_dir / "result.json"
        command = [
            sys.executable, str(HERE / "child.py"),
            "--root", str(root), "--experiment", str(experiment), "--out", str(run_dir / "out"),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--spans", str(runs_dir / f"spans-{args.workload}-seed{args.seed}.json"),
            "--result", str(result_path),
        ]
        with open(run_dir / "child.log", "w") as log:
            try:
                child = subprocess.run(command, stdout=log, cwd=root,
                                       timeout=CHILD_TIMEOUT_S - (time.monotonic() - started))
            except subprocess.TimeoutExpired:
                return _fail("measuring process ran out of time and was stopped")
        if child.returncode != 0 or not result_path.is_file():
            return _fail(f"measuring process exited with {child.returncode}")
        result = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    measured = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        return _fail(f"measuring process did not report {missing}")

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"runs {result['runs']}  scenarios {result['scenarios']}  "
          f"simulated steps per run {result['sim_steps']}")
    for m in wanted:
        print(f"  {m['name']:<32} {_format(measured[m['name']]):>14} {m['unit']}")
    for name in sorted(set(measured) - {m["name"] for m in wanted}):
        print(f"  {name:<32} {_format(measured[name]):>14}")
    print(f"  {'failed_share':<32} {failed / attempted:>14.6g} share "
          f"({failed} of {attempted} scenarios)")
    if result["failed_labels"]:
        print(f"  failed scenarios: {', '.join(result['failed_labels'])}")
    for cause in result["causes"]:
        print(f"  cause: {cause}")
    print(f"  output digest {result['output_digest']}  "
          f"solo-run digest {result['reference_digest']}")
    for problem in result["problems"]:
        print(f"  check failed: {problem}")

    print(json.dumps({
        "correct": not result["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
