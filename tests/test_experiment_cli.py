import gc
import math
import os
import statistics
import subprocess
import sys
import textwrap
import weakref
from array import array
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

import embudget.cli
import embudget.engine
import embudget.experiment
from embudget.cli import main
from embudget.engine import REPORT_COLUMNS, run_matrix
from embudget.experiment import (
    ExperimentError,
    build_scenarios,
    load_experiment,
    validate,
)
from embudget.presets import paper_grid_path
from embudget.reporting import buckets_csv, summarize, summary_csv
from embudget.workload import TaskTable, WorkloadError, export_tasks_csv

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


def replay_experiment(tmp_path, tasks_csv):
    """small_experiment replaying `tasks_csv` instead of generating its workload.

    With `tasks_csv` None the replay file is not written.
    """
    if tasks_csv is not None:
        (tmp_path / "tasks.csv").write_text(tasks_csv)
    return experiment_with(tmp_path, "workload", {"replay": "tasks.csv"})


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
    "fixed_rate_nan": ("policies.fixed.rate_g_per_s", math.nan),
    "budget_total_nan": ("policies.budget.total_g", math.nan),
    "base_rate_nan": ("workload.base_rate", math.nan),
    "peak_amplitude_nan": ("workload.peak_amplitudes", [math.nan, 0.0]),
    "task_cu_nan": ("workload.task_cu", math.nan),
    "deadline_slack_nan": ("workload.deadline_slack_s", math.nan),
    "node_idle_nan": (
        "cluster", {"nodes": [{"name": "medium", "capacity": 9, "idle_w": math.nan, "peak_w": 2}]}),
    "node_peak_nan": (
        "cluster", {"nodes": [{"name": "medium", "capacity": 9, "idle_w": 1, "peak_w": math.nan}]}),
}

# Values that, unchecked, would fail only once the run has started.
NOT_RUNNABLE = {
    "duplicate_node_names": (
        "cluster", {"nodes": [{"name": "a", "capacity": 10, "idle_w": 1, "peak_w": 2},
                              {"name": "a", "capacity": 20, "idle_w": 1, "peak_w": 2}],
                    "initial": "a"}, "duplicate node names"),
    "task_cu_zero": ("workload.task_cu", 0, "task CU and runtime"),
    "task_runtime_zero": ("workload.task_runtime_s", 0, "task CU and runtime"),
    "task_cu_infinite": ("workload.task_cu", math.inf, "task CU and runtime"),
    "cu_jitter_above_one": ("workload.cu_jitter", 1.5, "jitter"),
    "price_nan": ("prices", [math.nan, 80], "carbon prices must be positive"),
    "trace_days_nan": ("traces.T1.days", math.nan, "trace T1: days must be finite and positive"),
}

TASKS_HEADER_AND_ROW = "id,arrival,cu,runtime,deadline\n0,0,2.0,5.0,60\n"

# Replay files that cannot run (None: no file), each with a piece of its one problem.
REPLAY_DEFECTS = {
    "missing_file": (None, "No such file"),
    "missing_columns": ("id,arrival\n1,2\n", "missing ['cu', 'runtime', 'deadline']"),
    "not_a_number": (TASKS_HEADER_AND_ROW + "x,1,2.0,5.0,61\n", "line 3: invalid literal"),
    "short": (TASKS_HEADER_AND_ROW + "1,1,2.0\n", "line 3: too few fields"),
    "duplicate_id": (TASKS_HEADER_AND_ROW + "0,1,2.0,5.0,61\n", "duplicate task id 0"),
    "nan_cu": (TASKS_HEADER_AND_ROW + "1,1,nan,5.0,61\n", "line 3: task 1: demand and runtime"),
    "inf_cu": (TASKS_HEADER_AND_ROW + "1,1,inf,5.0,61\n", "line 3: task 1: demand and runtime"),
    "huge_header": ("id," + "9" * 200_000 + "\n", "line 1: field larger than field limit"),
}

# Trace file -> the problem its line 3 has.
TRACE_DEFECTS = {
    **{cell: (TRACE_CSV.replace(",340", f",{cell}"), "intensity must be finite and >= 0")
       for cell in ("nan", "inf", "-5")},
    "short_row": ("intensity,timestamp\n120,2024-01-01T00:00:00Z\n340\n"
                  "210,2024-01-01T02:00:00Z\n", "fewer cells than the header"),
    "huge_cell": (TRACE_CSV.replace(",340", "," + "9" * 200_000), "field larger than field limit"),
    "bad_timestamp": (TRACE_CSV.replace("2024-01-01T01:00:00Z", "bogus"), "bad timestamp 'bogus'"),
}


def refused_before_writing(path, tmp_path, capsys):
    """The one problem `validate` prints (exit 1), which `run` refuses with (exit 2, no output)."""
    assert main(["validate", str(path)]) == 1
    printed = capsys.readouterr().out.splitlines()
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(printed) == 1 and err == [f"invalid: {printed[0]}"]
    assert not out.exists()
    return printed[0]


def in_ascii_locale(*args):
    """Run `python -m embudget.cli *args` under the C locale, without UTF-8 mode."""
    env = {**os.environ, "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C", "PYTHONUTF8": "0",
           "PYTHONPATH": str(Path(embudget.cli.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "embudget.cli", *map(str, args)],
                          env=env, capture_output=True)


def malformed_error_line(path, tmp_path, capsys):
    """The one `error:` line that `validate` and `run` both exit 2 with, writing nothing."""
    with pytest.raises(ExperimentError, match="exp.yaml"):
        load_experiment(path)
    for command in ("validate", "run"):
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "exp.yaml" in err[0]
    assert not (tmp_path / "results").exists()
    return err[0]


class TestLoadExperiment:
    def test_bundled_grid_is_clean(self):
        experiment = load_experiment(paper_grid_path())
        assert validate(experiment) == []
        assert len(experiment.traces) == 6
        assert len(experiment.policies) == 3
        assert experiment.horizon == 604_800

    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
    @pytest.mark.parametrize("experiment", ["paper_grid", "replay"])
    def test_libyaml_and_python_loaders_agree(self, tmp_path, monkeypatch, experiment):
        if experiment == "paper_grid":
            path = paper_grid_path()
        else:
            tasks = TaskTable((i, i, 2.0, 5.0, i + 60.0) for i in range(50))
            path = replay_experiment(tmp_path, export_tasks_csv(tasks))
        assert embudget.experiment._YAML_LOADER is yaml.CSafeLoader
        native = load_experiment(path)
        monkeypatch.setattr(embudget.experiment, "_YAML_LOADER", yaml.SafeLoader)
        python = load_experiment(path)
        assert native.problems == [] and native.traces
        if native.tasks is not None:
            assert list(native.tasks) == list(python.tasks)
        assert replace(native, tasks=None) == replace(python, tasks=None)

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
        malformed_error_line(experiment_with(tmp_path, key, value), tmp_path, capsys)

    @pytest.mark.parametrize("size, jitter", [("task_cu", "cu_jitter"),
                                              ("task_runtime_s", "runtime_jitter")])
    def test_jittered_size_overflow_is_one_error_line(self, tmp_path, capsys, size, jitter):
        path = experiment_with(tmp_path, f"workload.{size}", 1.7e308)
        raw = yaml.safe_load(path.read_text())
        raw["workload"][jitter] = 0.5
        path.write_text(yaml.safe_dump(raw))
        line = malformed_error_line(path, tmp_path, capsys)
        assert line.endswith("jittered task CU and runtime must be positive and finite")


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
        tasks = TaskTable([(0, 0, 2.0, 5.0, 100.0), (1, 10, 2.0, 5.0, 110.0)])
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

    def test_load_reads_each_file_once(self, tmp_path, monkeypatch):
        calls = []

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return counted

        for name in ("parse_trace", "import_tasks_csv"):
            monkeypatch.setattr(embudget.experiment, name,
                                counting(name, getattr(embudget.experiment, name)))
        path = replay_experiment(tmp_path, export_tasks_csv(TaskTable([(0, 0, 2.0, 5.0, 100.0)])))
        (tmp_path / "other.csv").write_text(TRACE_CSV)
        raw = yaml.safe_load(path.read_text())
        raw["traces"]["T2"] = {"path": "trace.csv"}
        raw["traces"]["T3"] = {"path": "other.csv"}
        path.write_text(yaml.safe_dump(raw))

        experiment = load_experiment(path)
        assert validate(experiment) == []
        first, second = build_scenarios(experiment), build_scenarios(experiment)
        assert validate(experiment) == []
        # Three labels name two files: one parse per file.
        assert sorted(calls) == ["import_tasks_csv", "parse_trace", "parse_trace"]
        assert [s.label for s in first] == [s.label for s in second] and len(first) == 9

    def test_labels_on_one_file_keep_their_own_window_and_zone(self, tmp_path):
        path = experiment_with(tmp_path, "traces", {
            "EARLY": {"path": "trace.csv", "days": 1 / 24},
            "LATE": {"path": "trace.csv", "start": "2024-01-01T01:00:00Z"},
            "WHOLE": {"path": "trace.csv"},
        })
        path.write_text(path.read_text().replace("horizon_s: 600", "horizon_s: 3600"))
        experiment = load_experiment(path)
        assert validate(experiment) == []
        traces = experiment.traces
        assert {label: (t.zone_label, t.values) for label, t in traces.items()} == {
            "EARLY": ("EARLY", (120.0,)),
            "LATE": ("LATE", (340.0, 210.0)),
            "WHOLE": ("WHOLE", (120.0, 340.0, 210.0)),
        }
        scenarios = build_scenarios(experiment, labels=[
            "unlimited_EARLY", "unlimited_LATE", "unlimited_WHOLE"])
        assert [s.trace.zone_label for s in scenarios] == ["EARLY", "LATE", "WHOLE"]

    def test_bad_file_is_one_problem_per_label(self, tmp_path):
        path = experiment_with(tmp_path, "traces", {
            "A": {"path": "trace.csv"}, "B": {"path": "gone.csv"}, "C": {"path": "trace.csv"}})
        (tmp_path / "trace.csv").write_text(TRACE_CSV.replace(",340", ",-5"))
        problem = "line 3: intensity must be finite and >= 0, got -5.0"
        problems = validate(load_experiment(path))
        assert len(problems) == 3
        assert problems[0] == f"trace A: {problem}" and problems[2] == f"trace C: {problem}"
        assert problems[1].startswith("trace B: ") and "gone.csv" in problems[1]

    @pytest.mark.parametrize("workload", ["replay", "generated"])
    def test_replay_results_do_not_depend_on_workers(self, tmp_path, workload):
        if workload == "replay":
            tasks = TaskTable((i, i, 2.0, 5.0, i + 60.0) for i in range(300))
            path = replay_experiment(tmp_path, export_tasks_csv(tasks))
        else:
            path = small_experiment(tmp_path)
        experiment = load_experiment(path)
        serial = run_matrix(build_scenarios(experiment), workers=1)
        parallel = run_matrix(build_scenarios(experiment), workers=2)
        assert serial == parallel
        assert all(r.finished_tasks > 0 for r in serial)


class TestCli:
    def test_validate_clean_exit_zero(self, tmp_path, capsys):
        assert main(["validate", str(small_experiment(tmp_path))]) == 0
        assert capsys.readouterr().out == ""

    def test_validate_broken_exit_one(self, tmp_path, capsys):
        path = small_experiment(tmp_path, trace_path="nope.csv")
        assert main(["validate", str(path)]) == 1
        assert "nope.csv" in capsys.readouterr().out

    def test_unparseable_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("]]]")
        for command in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path)]):
            assert main(command) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"error: {path}: not valid YAML: ")
            assert err[0].endswith(" at line 1, column 1")

    @pytest.mark.parametrize("loader", ["SafeLoader", "CSafeLoader"])
    def test_control_character_names_line_and_column(self, tmp_path, capsys, monkeypatch,
                                                     loader):
        # libyaml reports the offset in UTF-8 bytes (17), the Python reader in characters (15).
        if not hasattr(yaml, loader):
            pytest.skip("PyYAML built without libyaml")
        monkeypatch.setattr(embudget.experiment, "_YAML_LOADER", getattr(yaml, loader))
        path = tmp_path / "bad.yaml"
        path.write_text("a: \u00e9\u00e9\nb: 2\nc: x\x07y\n", encoding="utf-8")
        for command in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path)]):
            assert main(command) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"error: {path}: not valid YAML: ")
            assert "#x0007" in err[0] and err[0].endswith(" at line 3, column 5")

    def test_undecodable_experiment_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "exp.yaml"
        path.write_bytes(b"a: \xff\n")
        line = malformed_error_line(path, tmp_path, capsys)
        assert line.startswith(f"error: {path}: not valid UTF-8: ")

    @pytest.mark.parametrize("name, problem", [("trace.csv", "trace T1: "), ("tasks.csv", "replay ")],
                             ids=["trace", "replay"])
    def test_undecodable_input_file_is_one_problem(self, tmp_path, capsys, name, problem):
        path = replay_experiment(tmp_path, export_tasks_csv(TaskTable([(0, 0, 1.0, 5.0, 100.0)])))
        (tmp_path / name).write_bytes(b"\xff\n")
        line = refused_before_writing(path, tmp_path, capsys)
        assert line.startswith(problem) and "can't decode byte 0xff" in line

    def test_files_read_as_utf8_whatever_the_locale(self, tmp_path):
        path = small_experiment(tmp_path)
        path.write_text("# caf\u00e9\n" + path.read_text(encoding="utf-8"), encoding="utf-8")
        done = in_ascii_locale("validate", path)
        assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")

    def test_non_ascii_label_whatever_the_locale(self, tmp_path):
        text = experiment_with(tmp_path, "traces", {"Z\u00fcrich": {"path": "trace.csv"}}).read_text()
        # The file name too: the C locale decodes it to surrogates, which the manifest writes back.
        path = tmp_path / "Z\u00fcrich.yaml"
        path.write_text(text.replace("steps: true", "steps: false")
                        .replace("buckets: true", "buckets: false"), encoding="utf-8")
        out = tmp_path / "out"
        assert in_ascii_locale("validate", path).returncode == 0
        done = in_ascii_locale("run", path, "--out", out)
        assert (done.returncode, done.stderr) == (0, b"")
        assert b"unlimited_Z\\xfcrich: finished_tasks=" in done.stdout
        assert "unlimited_Z\u00fcrich," in (out / "summary.csv").read_text(encoding="utf-8")
        manifest = (out / "manifest.txt").read_bytes().splitlines()
        assert manifest[0] == b"experiment: " + os.fsencode(path)
        assert b"status: completed" in manifest
        # With steps on, the label names a file, which the locale cannot encode.
        path.write_text(text.replace("buckets: true", "buckets: false"), encoding="utf-8")
        out = tmp_path / "steps_out"
        done = in_ascii_locale("validate", path)
        assert done.returncode == 1 and b"Z\\xfcrich" in done.stdout
        done = in_ascii_locale("run", path, "--out", out)
        assert done.returncode == 2 and done.stderr.startswith(b"invalid: trace label ")
        assert not out.exists()

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
            calls.append(args[0])
            return parse_trace(*args, **kwargs)

        monkeypatch.setattr(embudget.experiment, "parse_trace", counting_parse_trace)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        # T1 and T2 name one file, which is parsed once.
        assert calls == [TRACE_CSV]
        assert (out / "steps_budget_T2.csv").exists()

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

    @pytest.mark.parametrize("tasks_csv, problem", REPLAY_DEFECTS.values(),
                             ids=REPLAY_DEFECTS.keys())
    def test_malformed_replay_row_is_one_error_line(self, tmp_path, capsys, tasks_csv, problem):
        line = refused_before_writing(replay_experiment(tmp_path, tasks_csv), tmp_path, capsys)
        assert line.startswith("replay ") and "tasks.csv" in line and problem in line

    @pytest.mark.parametrize("trace_csv, problem", TRACE_DEFECTS.values(),
                             ids=TRACE_DEFECTS.keys())
    def test_bad_trace_cell_is_one_invalid_line(self, tmp_path, capsys, trace_csv, problem):
        path = small_experiment(tmp_path)
        (tmp_path / "trace.csv").write_text(trace_csv)
        line = refused_before_writing(path, tmp_path, capsys)
        assert line.startswith(f"trace T1: line 3: {problem}")

    def test_infinite_days_is_one_trace_line(self, tmp_path, capsys):
        path = experiment_with(tmp_path, "traces.T1.days", math.inf)
        line = refused_before_writing(path, tmp_path, capsys)
        assert line == "trace T1: days must be finite and positive, not inf"

    @pytest.mark.parametrize("label, unsafe", [
        ("a/b", "/"), ("a,b", ","), ('"a"\r\nb', '\n\r"'), ("a\0b", "\0")],
        ids=["slash", "comma", "quote_crlf", "nul"])
    def test_unwritable_label_refused_before_writing(self, tmp_path, capsys, label, unsafe):
        # A missing file adds no second line, which would print the label raw.
        path = experiment_with(tmp_path, "traces", {label: {"path": "gone.csv"}})
        line = refused_before_writing(path, tmp_path, capsys)
        assert line == f"trace label {label!r}: outputs cannot hold {unsafe!r}"

    def test_slash_in_label_allowed_without_output_files(self, tmp_path):
        path = experiment_with(tmp_path, "traces", {"a/b": {"path": "trace.csv"}})
        path.write_text(path.read_text().replace("buckets: true", "buckets: false")
                        .replace("steps: true", "steps: false"))
        assert main(["validate", str(path)]) == 0
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        assert (out / "summary.csv").read_text(encoding="utf-8").count("_a/b,") == 3

    def test_out_naming_a_file_is_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("not a directory")
        assert main(["run", str(small_experiment(tmp_path)), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot write outputs to {out}: ")
        assert out.read_text() == "not a directory"

    def test_unwritable_output_fails_the_manifest(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "summary.csv").mkdir(parents=True)
        assert main(["run", str(small_experiment(tmp_path)), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "summary.csv" in err[0]
        manifest = (out / "manifest.txt").read_text(encoding="utf-8")
        assert "status: failed" in manifest and "completed: budget_T1" in manifest

    def test_generation_error_names_scenario(self, tmp_path, capsys, monkeypatch):
        def failing_generate(params, horizon, seed):
            raise WorkloadError("generator broke")

        monkeypatch.setattr(embudget.engine, "generate_diurnal_trace", failing_generate)
        out = tmp_path / "out"
        assert main(["run", str(small_experiment(tmp_path)), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "scenario 'unlimited_T1' failed: generator broke" in err
        assert "status: failed" in (out / "manifest.txt").read_text()


def shared_column_experiment(tmp_path):
    """small_experiment over two traces: the unlimited reports share their power column."""
    path = small_experiment(tmp_path)
    (tmp_path / "trace2.csv").write_text(TRACE_CSV.replace(",120", ",90"))
    raw = yaml.safe_load(path.read_text())
    raw["traces"]["T2"] = {"path": "trace2.csv"}
    path.write_text(yaml.safe_dump(raw))
    return path


@pytest.fixture
def run_reports(monkeypatch):
    """Each cli run's reports, as run_matrix returned them."""
    runs = []

    def keeping_run_matrix(configs, workers=1):
        runs.append(run_matrix(configs, workers=workers))
        return runs[-1]

    monkeypatch.setattr(embudget.cli, "run_matrix", keeping_run_matrix)
    return runs


class TestRunStatistics:
    """`embudget run` computes each statistic once per distinct column array."""

    def test_shared_power_median_computed_once(self, tmp_path, monkeypatch, run_reports):
        medians = []
        median = statistics.median

        def counting_median(data):
            medians.append(id(data))
            return median(data)

        monkeypatch.setattr(statistics, "median", counting_median)
        assert main(["run", str(shared_column_experiment(tmp_path)),
                     "--out", str(tmp_path / "out")]) == 0
        [reports] = run_reports
        power = [id(r.power_w) for r in reports]
        assert len(reports) == 6 and len(set(power)) < len(power)
        assert all(medians.count(i) == 1 for i in power), medians

    def test_outputs_equal_unshared_reports(self, tmp_path, run_reports):
        path = shared_column_experiment(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        [reports] = run_reports
        copies = [replace(r, **{name: array(getattr(r, name).typecode, getattr(r, name))
                                for name in REPORT_COLUMNS}) for r in reports]
        prices = load_experiment(path).prices
        assert (out / "summary.csv").read_text() == summary_csv(
            [summarize(r, prices) for r in copies])
        for r in copies:
            assert (out / f"buckets_{r.label}.csv").read_text() == buckets_csv(r)

    def test_no_column_outlives_the_run(self, tmp_path, monkeypatch):
        columns = []

        def watching_run_matrix(configs, workers=1):
            reports = run_matrix(configs, workers=workers)
            columns.extend(weakref.ref(getattr(r, name)) for r in reports
                           for name in REPORT_COLUMNS)
            return reports

        monkeypatch.setattr(embudget.cli, "run_matrix", watching_run_matrix)
        assert main(["run", str(shared_column_experiment(tmp_path)),
                     "--out", str(tmp_path / "out")]) == 0
        gc.collect()
        assert columns and all(ref() is None for ref in columns)
