"""Batch front-end: validate experiment files, run the scenario grid, write CSVs."""

from __future__ import annotations

import argparse
import hashlib
import platform
import sys
from pathlib import Path

from . import __version__
from .engine import ScenarioError, run_matrix
from .experiment import ExperimentError, build_scenarios, load_experiment, validate
from .reporting import ColumnStats, buckets_csv, csv_name, steps_csv, summarize, summary_csv


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="embudget",
        description="Simulate emissions-budget policies for a self-adaptive application.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment file and write report CSVs")
    run_p.add_argument("experiment", type=Path)
    run_p.add_argument("--out", type=Path, default=None, help="output directory override")
    run_p.add_argument("--dry-run", action="store_true",
                       help="validate and print the scenario plan without running")
    run_p.add_argument("--scenario", action="append", default=None, metavar="LABEL",
                       help="only run the named scenario (repeatable)")
    run_p.add_argument("--seed", type=int, default=None, help="workload seed override")
    run_p.add_argument("--workers", type=int, default=1,
                       help="scenario-level parallelism (results are order-stable)")

    val_p = sub.add_parser("validate", help="print diagnostics for an experiment file")
    val_p.add_argument("experiment", type=Path)
    return parser


def _write_manifest(out_dir: Path, experiment_path: Path, n_scenarios: int, status: str,
                    completed: list[str]) -> None:
    digest = hashlib.sha256(experiment_path.read_bytes()).hexdigest()
    lines = [
        f"experiment: {experiment_path}",
        f"sha256: {digest}",
        f"embudget_version: {__version__}",
        f"python: {platform.python_version()}",
        f"scenarios: {n_scenarios}",
        f"status: {status}",
    ]
    lines += [f"completed: {label}" for label in completed]
    # surrogateescape writes back the bytes of a path the locale could not decode.
    (out_dir / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8",
                                          errors="surrogateescape")


def _say(line: str) -> None:
    """Print `line` to stdout, escaping any character the stream cannot encode."""
    encoding = sys.stdout.encoding or "utf-8"
    print(line.encode(encoding, "backslashreplace").decode(encoding))


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    try:
        experiment = load_experiment(args.experiment)
    except ExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        diagnostics = validate(experiment)
        for diag in diagnostics:
            _say(diag)
        return 0 if not diagnostics else 1

    try:
        scenarios = build_scenarios(experiment, labels=args.scenario,
                                    seed_override=args.seed)
    except ExperimentError as exc:
        lines = [f"invalid: {p}" for p in exc.problems] or [f"error: {exc}"]
        print("\n".join(lines), file=sys.stderr)
        return 2

    if args.dry_run:
        _say(f"{len(scenarios)} scenario(s):")
        for s in scenarios:
            _say(f"  {s.label}: policy={s.policy.kind} horizon={s.horizon}s "
                 f"trace={s.trace.zone_label} seed={s.seed}")
        return 0

    out_dir = args.out if args.out is not None else experiment.output_dir
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_manifest(out_dir, args.experiment, len(scenarios), "started", [])
    except OSError as exc:
        print(f"error: cannot write outputs to {out_dir}: {exc}", file=sys.stderr)
        return 2

    completed: list[str] = []
    try:
        reports = run_matrix(scenarios, workers=max(1, args.workers))
        # Reports share the arrays of equal columns: each statistic once per array.
        stats = ColumnStats()
        rows = []
        for report in reports:
            if "steps" in experiment.outputs:
                (out_dir / csv_name("steps", report.label)).write_text(
                    steps_csv(report), encoding="utf-8")
            if "buckets" in experiment.outputs:
                (out_dir / csv_name("buckets", report.label)).write_text(
                    buckets_csv(report, stats=stats), encoding="utf-8")
            rows.append(summarize(report, experiment.prices, stats))
            completed.append(report.label)
            _say(f"{report.label}: finished_tasks={report.finished_tasks} "
                 f"emissions_total_g={stats.fsum(report.emission_g):.2f}")
        (out_dir / "summary.csv").write_text(summary_csv(rows), encoding="utf-8")
        _write_manifest(out_dir, args.experiment, len(scenarios), "completed", completed)
    except (ScenarioError, OSError) as exc:  # OSError: an output could not be written
        _write_manifest(out_dir, args.experiment, len(scenarios), "failed", completed)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
