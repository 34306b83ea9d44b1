"""Measurement process: drives embudget.cli.main on one experiment file in a fresh interpreter.

Started by run.py, never imported. It writes one JSON result file and prints
only what the program under test prints. See README.md for what is measured.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import math
import resource
import statistics
import sys
import time
from collections import deque
from pathlib import Path

# An untraced run makes at least this many timed `embudget run`s, each after
# SETUPS_PER_RUN timed set-ups (paper_grid fits only a few runs in a window,
# so one set-up per run would leave setup_s a median of a handful); a traced
# run at least MIN_TRACED_RUNS traced ones, so that their counts can be compared.
MIN_RUNS = 4
SETUPS_PER_RUN = 3
MIN_TRACED_RUNS = 2

# Time of calibrate() on the reference host (2-core x86-64 VM, Python 3.11)
# when nothing else slows it; end-to-end times are scaled to this speed.
CALIBRATION_REF_S = 0.023

# Columns of SimulationReport whose bytes make up a scenario's per-step hash.
STEP_COLUMNS = ("power_w", "emission_g", "allowance_g", "utilization", "queued_demand",
                "completions", "drops", "action", "node_index")

REPLAY_LEAK = ("build_scenarios hands one mutable replay Task list to every scenario and "
               "serial run_matrix reuses it, so later scenarios start from tasks an earlier "
               "scenario already finished or dropped")


class _Item:
    __slots__ = ("key", "weight", "done")

    def __init__(self, key: int, weight: float) -> None:
        self.key = key
        self.weight = weight
        self.done = 0.0


def calibrate() -> float:
    """Seconds for a fixed loop with the simulator's mix of work.

    Object allocation, a FIFO deque, a heap and float math, as in the task
    queue and step loop. The loop never changes, so its time measures how fast
    the host runs Python at that moment.
    """
    start = time.perf_counter()
    acc = 0.0
    fifo: deque = deque()
    heap: list = []
    for i in range(20_000):
        item = _Item(i, (i * 7919) % 1000 * 0.5)
        fifo.append(item)
        heapq.heappush(heap, (item.weight, i, item))
        acc += math.exp(-item.weight * 1e-3)
        if len(fifo) > 200:
            fifo.popleft().done += acc * 1e-9
            heapq.heappop(heap)
    return time.perf_counter() - start


def _import_embudget(root: Path):
    sys.path.insert(0, str(root / "src"))
    import embudget
    import embudget.cli
    if not Path(embudget.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"embudget imported from {embudget.__file__}, not from {root / 'src'}")
    return embudget


class Harness:
    """Runs `embudget run` and captures the reports run_matrix returns.

    It wraps cli.run_matrix to record when the run phase starts and keep the
    returned reports, so the benchmark can check outputs and time run_matrix
    plus report writing. (measure() also wraps engine.run_scenario to sample
    the host speed between scenarios.)
    """

    def __init__(self, embudget, experiment: Path, out_dir: Path) -> None:
        self.embudget = embudget
        self.experiment = experiment
        self.out_dir = out_dir
        self.prices = embudget.experiment.load_experiment(experiment).prices
        self._run_matrix = embudget.cli.run_matrix
        embudget.cli.run_matrix = self._hooked_run_matrix
        self._started = 0.0
        self._configs: list = []
        self._reports: list = []

    def _hooked_run_matrix(self, configs, workers=1):
        self._started = time.perf_counter()
        self._configs = list(configs)
        self._reports = self._run_matrix(configs, workers=workers)
        return self._reports

    def setup_once(self) -> float:
        """load_experiment + validate + build_scenarios, as `embudget run` does them."""
        exp = self.embudget.experiment
        start = time.perf_counter()
        loaded = exp.load_experiment(self.experiment)
        problems = exp.validate(loaded)
        scenarios = exp.build_scenarios(loaded)
        elapsed = time.perf_counter() - start
        if problems or not scenarios:
            raise SystemExit(f"experiment does not validate: {problems}")
        return elapsed

    def labels(self) -> list[str]:
        exp = self.embudget.experiment
        return [s.label for s in exp.build_scenarios(exp.load_experiment(self.experiment))]

    def run(self, main, extra: tuple[str, ...] = ()) -> dict:
        """One `embudget run` from main() entry to return, plus its checked outputs."""
        argv = ["run", str(self.experiment), "--out", str(self.out_dir), "--workers", "1", *extra]
        self._configs, self._reports = [], []
        gc.collect()
        start = self._started = time.perf_counter()
        try:
            code = main(argv)
        except Exception as exc:  # the benchmark counts a crash as failed scenarios
            code = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        configs, reports = self._configs, self._reports
        self._configs, self._reports = [], []
        records = [scenario_record(r, self.prices) for r in reports] if code == 0 else []
        return {
            "code": code,
            "wall_s": end - start,
            "run_phase_s": end - self._started,
            "steps": sum(c.horizon for c in configs),
            "shared_replay": _shared_replay(configs),
            "records": records,
            "problems": check_outputs(configs, reports, self.out_dir) if code == 0 else [],
        }


def _shared_replay(configs) -> list[bool]:
    """Per scenario: does it get the same replay list object as an earlier scenario?"""
    seen, shared = set(), []
    for c in configs:
        key = id(c.tasks) if c.tasks is not None else None
        shared.append(key is not None and key in seen)
        seen.add(key)
    return shared


def scenario_record(report, prices) -> tuple:
    """The simulated statistics compared between grid and solo runs."""
    from embudget.reporting import summarize
    digest = hashlib.sha256()
    for name in STEP_COLUMNS:
        digest.update(getattr(report, name).tobytes())
    return (report.label, repr(summarize(report, prices)), report.finished_tasks,
            report.dropped_tasks, report.admitted_tasks, report.pending_tasks,
            repr(report.budget_spent_g), digest.hexdigest())


def check_outputs(configs, reports, out_dir: Path) -> list[str]:
    """Invariants every report and the written summary must meet."""
    problems = []
    if [c.label for c in configs] != [r.label for r in reports]:
        problems.append("reports do not match the scenario order")
    for c, r in zip(configs, reports):
        if any(len(getattr(r, name)) != c.horizon for name in STEP_COLUMNS):
            problems.append(f"{r.label}: per-step columns are not {c.horizon} long")
        if r.admitted_tasks != r.finished_tasks + r.dropped_tasks + r.pending_tasks:
            problems.append(f"{r.label}: admitted != finished + dropped + pending")
        if sum(r.completions) != r.finished_tasks or sum(r.drops) != r.dropped_tasks:
            problems.append(f"{r.label}: per-step completions/drops do not sum to the totals")
        total = c.policy.budget_total_g
        if total is not None and r.budget_spent_g > total * (1 + 1e-9):
            problems.append(f"{r.label}: spent {r.budget_spent_g} g of a {total} g budget")
    rows = (out_dir / "summary.csv").read_text().splitlines()[1:]
    written = [(row.split(",")[0], int(row.split(",")[-1])) for row in rows]
    if written != [(r.label, r.finished_tasks) for r in reports]:
        problems.append("summary.csv does not match the reports")
    return problems


def compare(runs: list[dict], reference: dict[str, tuple]) -> dict:
    """Count scenarios that raised or differ from the same scenario run alone."""
    attempted = failed = 0
    failed_labels: set[str] = set()
    causes: set[str] = set()
    for run in runs:
        attempted += len(reference)
        if run["code"] != 0:
            failed += len(reference)
            failed_labels.update(reference)
            causes.add(f"embudget run exited with {run['code']}")
            continue
        for record, shared in zip(run["records"], run["shared_replay"]):
            if record != reference[record[0]]:
                failed += 1
                failed_labels.add(record[0])
                causes.add(REPLAY_LEAK if shared else "output differs from the scenario run alone")
    return {"attempted": attempted, "failed": failed,
            "failed_labels": sorted(failed_labels), "causes": sorted(causes)}


def _digest(records) -> str:
    return hashlib.sha256(repr(records).encode()).hexdigest()[:16]


def reference_records(harness: Harness, main) -> dict[str, tuple]:
    """Each scenario alone from a fresh load, as `embudget run --scenario LABEL`."""
    reference = {}
    for label in harness.labels():
        run = harness.run(main, ("--scenario", label))
        if run["code"] != 0 or len(run["records"]) != 1:
            raise SystemExit(f"solo run of {label} failed with exit code {run['code']}")
        reference[label] = run["records"][0]
    return reference


def _completed(runs: list[dict]) -> list[dict]:
    completed = [run for run in runs if run["code"] == 0]
    if not completed:
        raise SystemExit(f"no run of the grid completed: {runs[0]['code']}")
    return completed


def summarize_runs(runs: list[dict], reference: dict[str, tuple], metrics: dict) -> dict:
    """The result file: metrics plus the checks every mode makes."""
    problems = sorted({p for run in runs for p in run["problems"]})
    completed = _completed(runs)
    if len({repr(run["records"]) for run in completed}) > 1:
        problems.append("repeated runs of the same grid gave different outputs")
    return {
        "metrics": metrics,
        "runs": len(runs),
        "scenarios": len(reference),
        "sim_steps": completed[0]["steps"],
        "problems": problems,
        "output_digest": _digest(completed[0]["records"]),
        "reference_digest": _digest(list(reference.values())),
        **compare(runs, reference),
    }


def _rss_mb() -> float:
    """High-water RSS of this process so far (ru_maxrss is in KiB on Linux), in 10^6 bytes."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def measure(embudget, harness: Harness, seconds: float) -> dict:
    # The interpreter, yaml, embudget and this harness, before any
    # simulation: the part of peak_rss_mb that the program's data does not set.
    rss_after_import = _rss_mb()
    reference = reference_records(harness, embudget.cli.main)

    # On a shared host the CPU speed swings by a fifth or more, within a
    # second as well as over minutes. Each run is scaled by the calibration
    # loop timed just before and after it and before every scenario, so a
    # run of many scenarios gets many samples of the speed it ran at. The
    # in-run loops are timed and taken off the run's wall and run-phase times.
    samples: list[float] = []
    run_scenario = embudget.engine.run_scenario

    def sampled_run_scenario(config):
        samples.append(calibrate())
        return run_scenario(config)

    embudget.engine.run_scenario = sampled_run_scenario
    runs = []
    before = calibrate()
    deadline = time.perf_counter() + seconds
    while len(runs) < MIN_RUNS or time.perf_counter() < deadline:
        # A set-up takes tens of milliseconds, shorter than the swings, so
        # each one is scaled by the loops just before and after it alone.
        setups = []
        for _ in range(SETUPS_PER_RUN):
            setup = harness.setup_once()
            after = calibrate()
            setups.append(setup * CALIBRATION_REF_S / ((before + after) / 2))
            before = after
        samples.clear()
        run = harness.run(embudget.cli.main)
        in_run = sum(samples)
        run["wall_s"] -= in_run
        run["run_phase_s"] -= in_run
        after = calibrate()
        run["speed"] = CALIBRATION_REF_S / statistics.fmean([before, *samples, after])
        run["setup_s"] = setups
        runs.append(run)
        before = after
    embudget.engine.run_scenario = run_scenario
    peak_rss = _rss_mb()
    completed = _completed(runs)
    return summarize_runs(runs, reference, {
        "sim_steps_per_s": statistics.median(
            r["steps"] / (r["run_phase_s"] * r["speed"]) for r in completed),
        "wall_s": statistics.median(r["wall_s"] * r["speed"] for r in completed),
        "setup_s": statistics.median(s for r in runs for s in r["setup_s"]),
        "peak_rss_mb": peak_rss,
        "host.rss_after_import_mb": rss_after_import,
        "host.rss_growth_mb": peak_rss - rss_after_import,
        "host.speed": statistics.median(r["speed"] for r in runs),
        "host.wall_s_unscaled": statistics.median(r["wall_s"] for r in completed),
    })


def trace(embudget, harness: Harness, seconds: float, spans_path: Path) -> dict:
    """Alternate untraced and traced runs; layer metrics come from the fastest traced run."""
    from tracer import Tracer

    reference = reference_records(harness, embudget.cli.main)
    untraced, traced = [], []  # traced: (run, layer metrics, spans)
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_TRACED_RUNS or time.perf_counter() < deadline:
        untraced.append(harness.run(embudget.cli.main))
        tracer = Tracer()
        tracer.install(embudget)
        try:
            run = harness.run(tracer.wrap("cli.main", embudget.cli.main))
        finally:
            tracer.restore()
        traced.append((run, tracer.metrics(), tracer.spans))

    problems = []
    counts = {name: value for name, value in traced[0][1].items() if not name.endswith("_s")}
    for run, layers, _ in traced:
        differ = [name for name, value in counts.items() if layers[name] != value]
        if differ:
            problems.append(f"counts {differ} differ between traced runs")
        records = run["records"]
        seen = (layers["engine.steps"], layers["queue.tasks_finished"],
                layers["queue.tasks_dropped"], layers["queue.tasks_admitted"])
        reported = (run["steps"], sum(r[2] for r in records), sum(r[3] for r in records),
                    sum(r[4] for r in records))
        if seen != reported:
            problems.append(f"traced counts {seen} disagree with the reports {reported}")

    fastest, metrics, spans = min(traced, key=lambda t: t[0]["wall_s"])
    spans_path.write_text(json.dumps(
        [{"id": i, "parent": p, "name": n, "start": s, "end": e} for i, p, n, s, e in sorted(spans)]))
    untraced_wall = min(run["wall_s"] for run in _completed(untraced))
    metrics["trace.wall_s"] = fastest["wall_s"]
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = fastest["wall_s"] - untraced_wall
    result = summarize_runs(untraced + [run for run, _, _ in traced], reference, metrics)
    result["problems"] += problems
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--experiment", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    embudget = _import_embudget(args.root)
    harness = Harness(embudget, args.experiment, args.out)
    if args.trace:
        result = trace(embudget, harness, args.seconds, args.spans)
    else:
        result = measure(embudget, harness, args.seconds)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
