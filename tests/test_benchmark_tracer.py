"""The names the benchmark's tracer wraps exist, and its counts agree with the reports.

perfbench/tracer.py times each layer by replacing module-level names (and
TaskQueue / EmissionsBudget methods) from outside; a renamed or removed name
makes `Tracer.install` fail with a KeyError. The file is imported as it is.
"""

import importlib.util
from pathlib import Path

import pytest

import embudget
import embudget.budget
import embudget.cli
import embudget.engine
import embudget.experiment
import embudget.workload
from embudget.workload import TaskTable, export_tasks_csv
from test_experiment_cli import replay_experiment, small_experiment

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer_class():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def traced_run(tracer_class, path, out, monkeypatch):
    """One traced `embudget run`; returns the layer metrics and the reports it produced."""
    reports = []

    def keeping_run_matrix(configs, workers=1):
        result = embudget.engine.run_matrix(configs, workers=workers)
        reports.extend(result)
        return result

    monkeypatch.setattr(embudget.cli, "run_matrix", keeping_run_matrix)
    tracer = tracer_class()
    tracer.install(embudget)
    try:
        code = tracer.wrap("cli.main", embudget.cli.main)(["run", str(path), "--out", str(out)])
    finally:
        tracer.restore()
    assert code == 0
    return tracer.metrics(), reports


@pytest.mark.parametrize("workload", ["generated", "replay"])
def test_traced_counts_match_reports(tmp_path, monkeypatch, workload):
    if workload == "replay":
        tasks = TaskTable((i, 2 * i, 2.0, 5.0, 2 * i + 30.0) for i in range(200))
        path = replay_experiment(tmp_path, export_tasks_csv(tasks))
    else:
        path = small_experiment(tmp_path)
    tracer_class = load_tracer_class()
    runs = [traced_run(tracer_class, path, tmp_path / f"out{i}", monkeypatch) for i in range(2)]

    for layers, reports in runs:
        assert len(reports) == 3
        assert layers["engine.steps"] == sum(r.horizon for r in reports)
        assert layers["queue.tasks_admitted"] == sum(r.admitted_tasks for r in reports)
        assert layers["queue.tasks_finished"] == sum(r.finished_tasks for r in reports)
        assert layers["queue.tasks_dropped"] == sum(r.dropped_tasks for r in reports)
        assert layers["carbon.parse_calls"] == 1
        assert layers["workload.tasks_imported"] == (200 if workload == "replay" else 0)
    counts = [{name: value for name, value in layers.items() if not name.endswith("_s")}
              for layers, _ in runs]
    assert counts[0] == counts[1]
    assert counts[0]["queue.tasks_finished"] > 0
