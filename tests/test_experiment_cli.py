import textwrap

import pytest

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
