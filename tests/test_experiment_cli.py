import textwrap

import pytest
import yaml

import embudget.experiment
from embudget.cli import main
from embudget.engine import run_matrix
from embudget.experiment import (
    ExperimentError,
    build_scenarios,
    load_experiment,
    validate,
)
from embudget.presets import paper_grid_path
from embudget.workload import Task, export_tasks_csv

TRACE_CSV = textwrap.dedent("""\
    timestamp,intensity
    2024-01-01T00:00:00Z,120
    2024-01-01T01:00:00Z,340
    2024-01-01T02:00:00Z,210
""")


def write_experiment(tmp_path, body):
    trace = tmp_path / "trace.csv"
    trace.write_text(TRACE_CSV)
    path = tmp_path / "exp.yaml"
    path.write_text(body)
    return path


def small_experiment(tmp_path, horizon=600, trace_path="trace.csv"):
    return write_experiment(tmp_path, textwrap.dedent(f"""\
        output: results
        horizon_s: {horizon}
        outputs: {{steps: true, buckets: true}}
        cluster: {{preset: default, initial: medium}}
        workload:
          base_rate: 0.5
          peak_amplitudes: [0.0, 0.0]
          peak_times_s: [32400, 68400]
          peak_width_s: 3600
          task_cu: 2
          task_runtime_s: 5
          deadline_slack_s: 60
          seed: 3
        traces:
          T1:
            path: {trace_path}
        policies:
          unlimited: {{}}
          fixed: {{rate_g_per_s: 0.0166}}
          budget: {{total_g: 50.0}}
    """))


def experiment_with(tmp_path, key, value):
    """small_experiment with the value at dotted `key` replaced."""
    path = small_experiment(tmp_path)
    raw = yaml.safe_load(path.read_text())
    *parents, last = key.split(".")
    node = raw
    for name in parents:
        node = node[name]
    node[last] = value
    path.write_text(yaml.safe_dump(raw))
    return path


# Values that a domain constructor or a conversion in load_experiment rejects.
MALFORMED = {
    "budget_total_zero": ("policies.budget.total_g", 0),
    "fixed_rate_negative": ("policies.fixed.rate_g_per_s", -1),
    "peak_width_zero": ("workload.peak_width_s", 0),
    "node_capacity_zero": (
        "cluster", {"nodes": [{"name": "medium", "capacity": 0, "idle_w": 1, "peak_w": 2}]}),
    "trace_start_not_a_date": ("traces.T1.start", "notadate"),
    "seed_not_a_number": ("workload.seed", "x"),
    "horizon_not_a_number": ("horizon_s", "abc"),
    "horizon_infinite": ("horizon_s", float("inf")),
    "prices_not_a_list": ("prices", 5),
    "peak_amplitudes_not_a_list": ("workload.peak_amplitudes", 5),
    "policies_a_list": ("policies", ["a", "b"]),
    "cluster_a_list": ("cluster", [1, 2]),
    "trace_entry_a_string": ("traces", {"T1": "x"}),
}

# Values that, unchecked, would fail only once the run has started.
NOT_RUNNABLE = {
    "duplicate_node_names": (
        "cluster", {"nodes": [{"name": "a", "capacity": 10, "idle_w": 1, "peak_w": 2},
                              {"name": "a", "capacity": 20, "idle_w": 1, "peak_w": 2}],
                    "initial": "a"}, "duplicate node names"),
    "task_cu_zero": ("workload.task_cu", 0, "task CU and runtime"),
    "task_runtime_zero": ("workload.task_runtime_s", 0, "task CU and runtime"),
    "cu_jitter_above_one": ("workload.cu_jitter", 1.5, "jitter"),
}


class TestLoadExperiment:
    def test_bundled_grid_is_clean(self):
        experiment = load_experiment(paper_grid_path())
        assert validate(experiment) == []
        assert len(experiment.traces) == 6
        assert len(experiment.policies) == 3
        assert experiment.horizon == 604_800

    def test_small_file(self, tmp_path):
        experiment = load_experiment(small_experiment(tmp_path))
        assert validate(experiment) == []
        assert [name for name, _ in experiment.policies] == ["unlimited", "fixed", "budget"]
        assert experiment.policies[2][1].kind == "greedy_budget"

    def test_not_a_mapping(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("- just\n- a list\n")
        with pytest.raises(ExperimentError):
            load_experiment(path)

    def test_unknown_policy(self, tmp_path):
        path = write_experiment(tmp_path, "policies:\n  mystery: {}\n")
        with pytest.raises(ExperimentError, match="mystery"):
            load_experiment(path)

    def test_missing_required_workload_key(self, tmp_path):
        path = write_experiment(tmp_path, "workload:\n  base_rate: 1.0\n")
        with pytest.raises(ExperimentError, match="peak_amplitudes"):
            load_experiment(path)

    @pytest.mark.parametrize("key, value", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_value_is_one_error_line(self, tmp_path, capsys, key, value):
        path = experiment_with(tmp_path, key, value)
        with pytest.raises(ExperimentError, match="exp.yaml"):
            load_experiment(path)
        for command in ("validate", "run"):
            assert main([command, str(path)]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: ") and "exp.yaml" in err[0]
        assert not (tmp_path / "results").exists()


class TestValidate:
    def test_missing_trace_file_named(self, tmp_path):
        experiment = load_experiment(small_experiment(tmp_path, trace_path="nope.csv"))
        diags = validate(experiment)
        assert any("T1" in d and "nope.csv" in d for d in diags)

    def test_horizon_exceeds_window(self, tmp_path):
        experiment = load_experiment(small_experiment(tmp_path, horizon=999_999))
        diags = validate(experiment)
        assert any("horizon" in d for d in diags)

    def test_missing_workload(self, tmp_path):
        path = write_experiment(tmp_path, textwrap.dedent("""\
            traces:
              T1: {path: trace.csv}
            policies:
              unlimited: {}
        """))
        diags = validate(load_experiment(path))
        assert any("workload" in d for d in diags)

    def test_bad_price(self, tmp_path):
        path = small_experiment(tmp_path)
        text = path.read_text().replace("output: results", "output: results\nprices: [0, 80]")
        path.write_text(text)
        diags = validate(load_experiment(path))
        assert any("price" in d for d in diags)


class TestBuildScenarios:
    def test_grid_expansion(self, tmp_path):
        experiment = load_experiment(small_experiment(tmp_path))
        scenarios = build_scenarios(experiment)
        assert [s.label for s in scenarios] == ["unlimited_T1", "fixed_T1", "budget_T1"]

    def test_label_selection(self, tmp_path):
        experiment = load_experiment(small_experiment(tmp_path))
        scenarios = build_scenarios(experiment, labels=["fixed_T1"])
        assert [s.label for s in scenarios] == ["fixed_T1"]

    def test_unknown_label(self, tmp_path):
        experiment = load_experiment(small_experiment(tmp_path))
        with pytest.raises(ExperimentError, match="fixed_T9"):
            build_scenarios(experiment, labels=["fixed_T9"])

    def test_seed_override(self, tmp_path):
        experiment = load_experiment(small_experiment(tmp_path))
        scenarios = build_scenarios(experiment, seed_override=99)
        assert all(s.seed == 99 for s in scenarios)

    def test_replay_tasks(self, tmp_path):
        tasks = [Task(0, 0, 2.0, 5.0, 100.0), Task(1, 10, 2.0, 5.0, 110.0)]
        (tmp_path / "tasks.csv").write_text(export_tasks_csv(tasks))
        path = write_experiment(tmp_path, textwrap.dedent("""\
            horizon_s: 600
            workload: {replay: tasks.csv}
            traces:
              T1: {path: trace.csv}
            policies:
              unlimited: {}
        """))
        experiment = load_experiment(path)
        assert validate(experiment) == []
        scenarios = build_scenarios(experiment)
        assert len(scenarios[0].tasks) == 2

    def test_reports_every_problem_at_once(self, tmp_path):
        path = experiment_with(tmp_path, "traces", {"GONE": {"path": "gone.csv"},
                                                    "SHORT": {"path": "short.csv"}})
        (tmp_path / "short.csv").write_text(
            "timestamp,intensity\n2024-01-01T00:00:00Z,120\n2024-01-01T00:01:00Z,130\n")
        with pytest.raises(ExperimentError) as info:
            build_scenarios(load_experiment(path))
        message = str(info.value)
        assert len(info.value.problems) == 2
        assert "GONE" in message and "gone.csv" in message
        assert "SHORT" in message and "horizon 600s exceeds window span 120s" in message

    @pytest.mark.xfail(strict=True, reason="replay scenarios share one mutable Task list, so "
                       "a serial run hands later scenarios tasks an earlier one finished")
    def test_replay_results_do_not_depend_on_workers(self, tmp_path):
        tasks = [Task(i, i, 2.0, 5.0, i + 60.0) for i in range(300)]
        (tmp_path / "tasks.csv").write_text(export_tasks_csv(tasks))
        path = write_experiment(tmp_path, textwrap.dedent("""\
            horizon_s: 600
            workload: {replay: tasks.csv}
            traces:
              T1: {path: trace.csv}
            policies:
              unlimited: {}
              fixed: {rate_g_per_s: 0.0166}
        """))
        experiment = load_experiment(path)
        serial = run_matrix(build_scenarios(experiment), workers=1)
        parallel = run_matrix(build_scenarios(experiment), workers=2)
        assert [r.finished_tasks for r in serial] == [r.finished_tasks for r in parallel]


class TestCli:
    def test_validate_clean_exit_zero(self, tmp_path, capsys):
        assert main(["validate", str(small_experiment(tmp_path))]) == 0
        assert capsys.readouterr().out == ""

    def test_validate_broken_exit_one(self, tmp_path, capsys):
        path = small_experiment(tmp_path, trace_path="nope.csv")
        assert main(["validate", str(path)]) == 1
        assert "nope.csv" in capsys.readouterr().out

    def test_unparseable_exit_two(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("]]]")
        assert main(["validate", str(path)]) == 2

    def test_dry_run_prints_plan_and_writes_nothing(self, tmp_path, capsys):
        path = small_experiment(tmp_path)
        out = tmp_path / "dry_out"
        assert main(["run", str(path), "--dry-run", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "3 scenario(s)" in printed
        assert "fixed_T1" in printed
        assert not out.exists()

    def test_run_writes_outputs(self, tmp_path):
        path = small_experiment(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        summary = (out / "summary.csv").read_text()
        assert summary.startswith("scenario,")
        assert summary.count("\n") == 4  # header + 3 scenarios
        manifest = (out / "manifest.txt").read_text()
        assert "status: completed" in manifest
        assert "sha256: " in manifest
        for label in ("unlimited_T1", "fixed_T1", "budget_T1"):
            assert f"completed: {label}" in manifest
            assert (out / f"steps_{label}.csv").exists()
            assert (out / f"buckets_{label}.csv").exists()

    def test_run_invalid_experiment_exit_two(self, tmp_path, capsys):
        path = small_experiment(tmp_path, horizon=999_999)
        assert main(["run", str(path)]) == 2
        assert "invalid" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, problem", NOT_RUNNABLE.values(),
                             ids=NOT_RUNNABLE.keys())
    def test_not_runnable_refused_before_writing(self, tmp_path, capsys, key, value, problem):
        path = experiment_with(tmp_path, key, value)
        assert main(["validate", str(path)]) != 0
        captured = capsys.readouterr()
        assert problem in captured.out + captured.err
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert problem in capsys.readouterr().err
        assert not (out / "manifest.txt").exists()

    def test_run_parses_each_trace_once(self, tmp_path, monkeypatch):
        path = small_experiment(tmp_path)
        raw = yaml.safe_load(path.read_text())
        raw["traces"]["T2"] = {"path": "trace.csv"}
        path.write_text(yaml.safe_dump(raw))
        parse_trace = embudget.experiment.parse_trace
        calls = []

        def counting_parse_trace(*args, **kwargs):
            calls.append(kwargs.get("zone_label"))
            return parse_trace(*args, **kwargs)

        monkeypatch.setattr(embudget.experiment, "parse_trace", counting_parse_trace)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        assert sorted(calls) == ["T1", "T2"]

    def test_scenario_filter(self, tmp_path):
        path = small_experiment(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out),
                     "--scenario", "fixed_T1"]) == 0
        assert (out / "steps_fixed_T1.csv").exists()
        assert not (out / "steps_unlimited_T1.csv").exists()

    def test_unknown_scenario_exit_two(self, tmp_path, capsys):
        path = small_experiment(tmp_path)
        assert main(["run", str(path), "--scenario", "typo"]) == 2
        assert "typo" in capsys.readouterr().err
