import math
import random
from array import array
from collections import deque
from dataclasses import replace

import pytest

import embudget.engine
import embudget.workload

from conftest import constant_trace, make_config, simple_workload
from embudget.carbon import WS_PER_KWH, CarbonIntensityTrace
from embudget.cluster import LARGE, MEDIUM, PRESETS
from embudget.engine import (
    ACTION_NAMES,
    REPORT_COLUMNS,
    PolicySpec,
    ScenarioError,
    _share_columns,
    run_matrix,
    run_scenario,
)
from embudget.experiment import build_scenarios, load_experiment
from embudget.presets import paper_grid_path
from embudget.workload import TaskQueue, TaskTable, WorkloadError
from oracle import naive_run

EXACT_RATE = 10_080.0 / 604_800.0

UNLIMITED = PolicySpec("unlimited")
FIXED = PolicySpec("fixed", rate_g_per_s=EXACT_RATE)
BUDGET = PolicySpec("greedy_budget", budget_total_g=10_080.0)


def saturating_tasks(n=200, cu=5.0, runtime=200.0, deadline=1e9):
    return TaskTable((i, 0, cu, runtime, deadline) for i in range(n))


class TestSingleStep:
    def test_full_medium_at_unit_intensity(self):
        # CI of 3.6e6 g/kWh makes the conversion factor exactly 1 g/Ws
        trace = CarbonIntensityTrace("unit", 0, 3600, (3_600_000.0,))
        config = make_config("one", trace, 1, UNLIMITED,
                             tasks=TaskTable([(0, 0, 100.0, 1.0, 100.0)]),
                             cluster=(MEDIUM,), initial="medium")
        report = run_scenario(config)
        assert report.power_w[0] == 600.0
        assert report.emission_g[0] == 600.0


class TestZeroIntensity:
    def test_policies_agree_when_carbon_free(self):
        trace = constant_trace(0.0, hours=2)
        workload = simple_workload(base_rate=0.8, task_cu=3, task_runtime=8)
        counts = []
        for policy in (UNLIMITED, FIXED, BUDGET):
            report = run_scenario(make_config(policy.kind, trace, 7200, policy,
                                              workload=workload))
            counts.append(report.finished_tasks)
            assert math.fsum(report.emission_g) == 0.0
        assert counts[0] == counts[1] == counts[2] > 0


class TestFixedThrottling:
    def test_closed_form_total(self):
        trace = constant_trace(400.0)
        config = make_config("throttle", trace, 1000, FIXED,
                             tasks=saturating_tasks())
        report = run_scenario(config)
        total = math.fsum(report.emission_g)
        assert total == pytest.approx(EXACT_RATE * 1000, abs=1e-6)
        cap_w = EXACT_RATE / (400.0 / 3_600_000.0)
        for p in report.power_w:
            assert p == pytest.approx(cap_w, abs=1e-6)

    def test_per_step_rate_never_exceeded(self):
        trace = CarbonIntensityTrace("var", 0, 600, (100.0, 700.0, 1500.0, 2600.0, 50.0, 900.0))
        config = make_config("rate", trace, 3600, FIXED,
                             workload=simple_workload(base_rate=1.2, task_cu=4))
        report = run_scenario(config)
        for e in report.emission_g:
            assert e <= EXACT_RATE + 1e-9


class TestBudgetAccounting:
    def test_ledger_matches_step_emissions(self):
        trace = constant_trace(600.0)
        config = make_config("ledger", trace, 5000, BUDGET,
                             workload=simple_workload(base_rate=0.9, task_cu=4))
        report = run_scenario(config)
        assert report.budget_spent_g == pytest.approx(math.fsum(report.emission_g), abs=1e-9)

    def test_no_front_loading_over_run(self):
        trace = CarbonIntensityTrace("var", 0, 900, tuple([80.0, 950.0] * 4))
        config = make_config("nfl", trace, 7200, BUDGET,
                             workload=simple_workload(base_rate=1.5, task_cu=5))
        report = run_scenario(config)
        budget_rate = 10_080.0 / 7200  # budget is spread over this run's horizon
        spent = 0.0
        for t, e in enumerate(report.emission_g):
            spent += e
            assert spent <= budget_rate * (t + 1) + 1e-9

    def test_suspension_is_zero_power(self):
        # tiny budget + high intensity forces suspension quickly
        trace = constant_trace(2500.0)
        policy = PolicySpec("greedy_budget", budget_total_g=0.036)
        config = make_config("susp", trace, 600, policy,
                             tasks=saturating_tasks())
        report = run_scenario(config)
        suspended = [i for i in range(600) if report.action[i] == 2]
        assert suspended, "expected suspended steps"
        for i in suspended:
            assert report.power_w[i] == 0.0
            assert report.emission_g[i] == 0.0
            assert report.node_index[i] == -1


class TestStepInvariants:
    def test_emission_identity_and_clock(self):
        trace = CarbonIntensityTrace("v", 0, 600, (120.0, 450.0, 899.0, 40.0, 1300.0, 777.0))
        config = make_config("ident", trace, 3600, FIXED,
                             workload=simple_workload(base_rate=1.0, task_cu=3))
        report = run_scenario(config)
        assert report.horizon == 3600 == len(report.power_w)
        for t in range(3600):
            ci_ws = trace.values[t // 600] / 3_600_000.0
            assert report.emission_g[t] == report.power_w[t] * ci_ws
        for name in REPORT_COLUMNS:
            assert len(getattr(report, name)) == 3600
        assert set(report.action) <= set(range(len(ACTION_NAMES)))


class TestWorkloadIsolation:
    def test_identical_task_lists_across_policies(self):
        from embudget.workload import generate_diurnal_trace
        workload = simple_workload(base_rate=0.7, amplitudes=(0.4, 0.2))
        a = generate_diurnal_trace(workload, 7200, 9)
        b = generate_diurnal_trace(workload, 7200, 9)
        assert list(a) == list(b)


class TestSharedTasks:
    def test_one_task_list_serves_many_runs(self):
        tasks = TaskTable((i, i // 3, 4.0, 6.0, i // 3 + 20.0) for i in range(900))
        fresh = list(tasks)
        config = make_config("shared", constant_trace(300.0), 400, FIXED, tasks=tasks)
        first = run_scenario(config)
        assert first.finished_tasks > 0 and first.dropped_tasks > 0
        assert run_scenario(config) == first
        assert list(tasks) == fresh

    def test_run_matrix_generates_each_workload_once(self, monkeypatch):
        calls = []
        generate = embudget.engine.generate_diurnal_trace

        def counting_generate(*args):
            calls.append(args)
            return generate(*args)

        monkeypatch.setattr(embudget.engine, "generate_diurnal_trace", counting_generate)
        workload = simple_workload(base_rate=0.6)
        configs = [make_config(f"{policy.kind}_{ci}", constant_trace(ci), 1800, policy,
                               workload=workload, seed=4)
                   for policy in (UNLIMITED, FIXED) for ci in (100.0, 700.0)]
        reports = run_matrix(configs)
        assert len(calls) == 1
        assert reports == [run_scenario(c) for c in configs]


class TestValidation:
    def test_horizon_beyond_trace(self):
        config = make_config("bad", constant_trace(100.0, hours=1), 7200, UNLIMITED,
                             workload=simple_workload())
        with pytest.raises(ScenarioError):
            run_scenario(config)

    def test_unknown_initial_node(self):
        config = make_config("bad", constant_trace(100.0), 100, UNLIMITED,
                             workload=simple_workload(), initial="huge")
        with pytest.raises(ScenarioError):
            run_scenario(config)

    @pytest.mark.parametrize("rows, problem", [
        ([(0, 10, 1, 5, 100), (1, 5, 1, 5, 100)], "task 1 arrives out of order"),
        ([(i, i, 1, 5, 100) for i in range(50)] + [(0, 60, 1, 5, 100)],
         "duplicate task id 0"),
        ([(1, 0, 4, 3, 6.0), (0, 0, 4, 1, 6.0)], "task 0 arrives out of order"),
    ], ids=["out_of_order", "duplicate_id_at_the_end", "tie_out_of_id_order"])
    def test_bad_task_list_refused_before_step_0(self, rows, problem):
        # A bad list never becomes a table, so no config can carry it to a run.
        with pytest.raises(WorkloadError, match=f"^{problem}$"):
            TaskTable(rows)

    def test_tasks_not_a_table_refused_before_step_0(self, monkeypatch):
        def no_step(*args):
            raise AssertionError("a step ran")

        monkeypatch.setattr(embudget.engine, "choose_option", no_step)
        config = make_config("bad", constant_trace(100.0), 100, UNLIMITED,
                             tasks=[(0, 0, 1, 5, 100)])
        with pytest.raises(ScenarioError, match="^bad: tasks must be a TaskTable$"):
            run_scenario(config)

    def test_policy_spec_validation(self):
        with pytest.raises(ScenarioError):
            PolicySpec("fixed")
        with pytest.raises(ScenarioError):
            PolicySpec("greedy_budget", budget_total_g=-1.0)
        with pytest.raises(ScenarioError):
            PolicySpec("mystery")
        with pytest.raises(ScenarioError):
            PolicySpec("fixed", rate_g_per_s=math.nan)
        with pytest.raises(ScenarioError):
            PolicySpec("greedy_budget", budget_total_g=math.nan)


class TestRunMatrix:
    def test_empty_matrix_rejected(self):
        with pytest.raises(ScenarioError):
            run_matrix([])

    def test_invalid_grid_refused_before_any_run(self, monkeypatch):
        labels = []
        run = embudget.engine.run_scenario

        def recording_run(config):
            labels.append(config.label)
            return run(config)

        monkeypatch.setattr(embudget.engine, "run_scenario", recording_run)
        trace = constant_trace(100.0, hours=1)
        configs = [
            make_config("good", trace, 600, UNLIMITED, workload=simple_workload()),
            make_config("too_long", trace, 7200, UNLIMITED, workload=simple_workload()),
            make_config("a_list", trace, 600, UNLIMITED, tasks=[(0, 0, 1, 5, 100)]),
        ]
        with pytest.raises(ScenarioError) as refused:
            run_matrix(configs)
        assert str(refused.value) == ("too_long: horizon 7200s exceeds trace span 3600s; "
                                      "a_list: tasks must be a TaskTable")
        assert labels == []

    def test_identical_configs_identical_reports(self):
        trace = constant_trace(300.0)
        workload = simple_workload(base_rate=0.6)
        configs = [make_config("same", trace, 1800, FIXED, workload=workload)
                   for _ in range(2)]
        r1, r2 = run_matrix(configs)
        assert r1.power_w == r2.power_w
        assert r1.emission_g == r2.emission_g
        assert r1.finished_tasks == r2.finished_tasks

    def test_error_names_scenario(self):
        bad = make_config("broken_label", constant_trace(100.0, hours=1), 999_999,
                          UNLIMITED, workload=simple_workload())
        with pytest.raises(ScenarioError, match="broken_label"):
            run_matrix([bad])

    def test_output_order_matches_input(self):
        trace = constant_trace(300.0)
        workload = simple_workload(base_rate=0.5)
        configs = [make_config(f"s{i}", trace, 600, UNLIMITED, workload=workload)
                   for i in range(3)]
        reports = run_matrix(configs)
        assert [r.label for r in reports] == ["s0", "s1", "s2"]


class TestColumnSharing:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_equal_columns_are_one_array(self, workers):
        # Unlimited runs the same trajectory at any intensity; only emissions differ.
        workload = simple_workload(base_rate=0.6)
        configs = [make_config(f"unlimited_{ci}", constant_trace(ci), 1800, UNLIMITED,
                               workload=workload, seed=4) for ci in (100.0, 700.0)]
        low, high = run_matrix(configs, workers=workers)
        for name in REPORT_COLUMNS:
            if name == "emission_g":
                assert getattr(low, name) is not getattr(high, name)
            else:
                assert getattr(low, name) is getattr(high, name), name
        for report, config in zip((low, high), configs):
            solo = run_scenario(config)
            assert report == solo
            for name in REPORT_COLUMNS:
                assert getattr(report, name).tobytes() == getattr(solo, name).tobytes()

    def test_only_byte_identical_columns_merge(self):
        report = run_scenario(make_config("r", constant_trace(300.0), 2, UNLIMITED,
                                          tasks=TaskTable([])))
        seen = {}
        zero = _share_columns(replace(report, power_w=array("d", [0.0, 0.0])), seen)
        minus_zero = _share_columns(replace(report, power_w=array("d", [0.0, -0.0])), seen)
        assert zero.power_w == minus_zero.power_w
        assert zero.power_w is not minus_zero.power_w
        nan = _share_columns(replace(report, power_w=array("d", [math.nan])), seen)
        same_nan = _share_columns(replace(report, power_w=array("d", [math.nan])), seen)
        assert same_nan.power_w is nan.power_w


class TestPlanMemo:
    @pytest.fixture
    def plan_inputs(self, monkeypatch):
        """(node, demand, cap) of every choose_option call run_scenario makes."""
        calls = []
        choose = embudget.engine.choose_option

        def counting_choose(specs, cur, demand, cap):
            calls.append((cur, demand, cap))
            return choose(specs, cur, demand, cap)

        monkeypatch.setattr(embudget.engine, "choose_option", counting_choose)
        return calls

    # Unlimited, and a fixed rate whose cap on this trace (>= 1440 W) tops every
    # node's peak, both plan with no cap on every step.
    @pytest.mark.parametrize("policy", [UNLIMITED, PolicySpec("fixed", rate_g_per_s=0.2)],
                             ids=["unlimited", "fixed_above_peak"])
    def test_cap_free_run_plans_once_per_distinct_input(self, plan_inputs, policy):
        trace = CarbonIntensityTrace("v", 0, 100, (500.0, 80.0, 0.0, 320.0, 160.0, 410.0))
        config = make_config("memo", trace, 600, policy,
                             tasks=saturating_tasks(n=10, runtime=1000.0))
        report = run_scenario(config)
        assert set(report.queued_demand) == {50.0}
        inputs = [(cur, demand) for cur, demand, _ in plan_inputs]
        assert len(inputs) == len(set(inputs)) <= len(config.cluster)
        assert {cap for _, _, cap in plan_inputs} == {math.inf}

    @pytest.mark.parametrize("policy", [PolicySpec("fixed", rate_g_per_s=0.05),
                                        PolicySpec("greedy_budget", budget_total_g=50.0)],
                             ids=["fixed", "budget"])
    def test_cap_crossing_the_highest_peak_matches_oracle(self, policy):
        # At 0.05 g/s the fixed cap is 600 W at 300 g/kWh, 1800 W at 100 and exactly
        # LARGE's 1200 W peak at 150; it goes back to 600 W after each excursion.
        values = (300.0, 100.0, 300.0, 150.0, 0.0, 300.0, 900.0, 300.0, 120.0, 300.0)
        caps = [0.05 / (ci / WS_PER_KWH) for ci in values if ci > 0.0]
        assert min(caps) < LARGE.peak_power <= max(caps)
        rng = random.Random(3)
        arrivals = sorted(rng.randrange(0, 900) for _ in range(900))
        blueprint = [(tid, arrival, rng.randrange(1, 13), rng.randrange(1, 41),
                      arrival + rng.randrange(40, 300)) for tid, arrival in enumerate(arrivals)]
        cluster = PRESETS["default"]
        report = run_scenario(make_config(
            "cross", CarbonIntensityTrace("cross", 0, 100, values), 1000, policy,
            tasks=TaskTable(blueprint), cluster=cluster))
        powers, emissions, completions, drops = naive_run(
            values, 100, cluster, "medium", TaskTable(blueprint),
            policy.kind, rate=policy.rate_g_per_s, budget_total=policy.budget_total_g,
            horizon=1000)
        assert list(report.power_w) == powers
        assert list(report.emission_g) == emissions
        assert list(report.completions) == completions
        assert list(report.drops) == drops
        assert report.finished_tasks > 0 and report.dropped_tasks > 0


def window_trace(span, lo=0, hi=0, ci=500.0):
    """One value a second: `ci` g/kWh on steps lo to hi - 1, 0 g/kWh (no cap) elsewhere."""
    return CarbonIntensityTrace("w", 0, 1, tuple(ci if lo <= t < hi else 0.0 for t in range(span)))


def backlog_tasks(horizon, arrivals_end=None):
    """20 tasks at step 0, then two a second: more work than the large node serves.

    No task arrives from step `arrivals_end` on, if given.
    """
    rng = random.Random(5)
    rows = []
    for t in range(horizon if arrivals_end is None else arrivals_end):
        for _ in range(20 if t == 0 else 2):
            rows.append((len(rows), t, rng.uniform(2.0, 8.0), rng.uniform(10.0, 50.0),
                         t + rng.uniform(30.0, 120.0)))
    return TaskTable(rows)


def first_difference(a, b):
    return next((t for t, (x, y) in enumerate(zip(a, b)) if x != y), None)


@pytest.fixture
def walks(monkeypatch):
    """Scenario label -> walks over the queue's pending tasks, as each live allocation makes."""
    walked = {}
    count = [0]

    class CountingDeque(deque):
        def __iter__(self):
            count[0] += 1
            return super().__iter__()

    run = embudget.engine.run_scenario

    def counting_run(config):
        before = count[0]
        report = run(config)
        walked[config.label] = count[0] - before
        return report

    monkeypatch.setattr(embudget.workload, "deque", CountingDeque)
    monkeypatch.setattr(embudget.engine, "run_scenario", counting_run)
    return walked


# At 500 g/kWh, THROTTLE caps power at 400 W, below what the backlog asks for;
# STOP suspends. On a 0 g/kWh step both plan as UNLIMITED does.
THROTTLE = PolicySpec("fixed", rate_g_per_s=400.0 * 500.0 / WS_PER_KWH)
STOP = PolicySpec("fixed", rate_g_per_s=0.0)
H = 240

# Each grid runs over one shared table. A scenario is (label, policy, (lo, hi) of
# its trace's 500 g/kWh window, horizon). `differs` gives the first step at which
# a later scenario's power differs from the first scenario's. A label ending in
# "_again" gives its queue the inputs of an earlier run (most repeat the scenario
# before them), so its queue should never run live.
QUEUE_GRIDS = {
    "differs_at_step_0": (
        [("rec", UNLIMITED, (0, 0), H), ("later", THROTTLE, (0, H), H),
         ("later_again", THROTTLE, (0, H), H)], {"later": 0}),
    "differs_mid_run": (
        [("rec", UNLIMITED, (0, 0), H), ("later", THROTTLE, (120, H), H),
         ("later_again", THROTTLE, (120, H), H)], {"later": 120}),
    "differs_at_last_step": (
        [("rec", UNLIMITED, (0, 0), H), ("later", THROTTLE, (H - 1, H), H),
         ("later_again", THROTTLE, (H - 1, H), H)], {"later": H - 1}),
    "suspends_where_recorded_allocated": (
        [("rec", UNLIMITED, (0, 0), H), ("later", STOP, (100, 110), H),
         ("later_again", STOP, (100, 110), H)], {"later": 100}),
    "allocates_where_recorded_suspended": (
        [("rec", STOP, (100, 110), H), ("later", UNLIMITED, (0, 0), H),
         ("later_again", UNLIMITED, (0, 0), H)], {"later": 100}),
    "longer_horizon": (
        [("rec", UNLIMITED, (0, 0), H), ("later", UNLIMITED, (0, 0), 2 * H),
         ("later_again", UNLIMITED, (0, 0), 2 * H)], {"later": None}),
    # "earlier" leaves the first run before the latest one ("mid") did.
    "latest_run": (
        [("rec", UNLIMITED, (0, 0), H), ("mid", THROTTLE, (120, H), H),
         ("mid_again", THROTTLE, (120, H), H), ("earlier", THROTTLE, (60, H), H),
         ("stop", STOP, (100, 110), H), ("stop_again", STOP, (100, 110), H)],
        {"mid": 120, "earlier": 60, "stop": 100}),
    # The last scenario leaves both recorded runs and runs live.
    "last_leaves": (
        [("rec", UNLIMITED, (0, 0), H), ("mid", THROTTLE, (120, H), H),
         ("last", THROTTLE, (60, H), H)], {"mid": 120, "last": 60}),
    # The queue is empty from step 180 on (see QUIET_FROM), so the recorded run
    # allocates 0 CU where the later one suspends: that one follows throughout.
    "suspends_where_recorded_idled": (
        [("rec", UNLIMITED, (0, 0), H), ("stop_again", STOP, (200, 220), H)],
        {"stop_again": 200}),
    # The latest run ("short") ends before "later" leaves the first run, so
    # "later" replays; "later_again" then follows "later" from step 180.
    "latest_run_ended": (
        [("rec", UNLIMITED, (0, 0), H), ("short", THROTTLE, (60, H), 120),
         ("later", THROTTLE, (180, H), H), ("later_again", THROTTLE, (180, H), H)],
        {"short": 60, "later": 180}),
}

# Grids whose table has no arrivals from the given step on. The backlog's last
# deadline then passes within 120 steps, so from there on the queue is empty.
QUIET_FROM = {"suspends_where_recorded_idled": 60}


def queue_grid(scenarios, arrivals_end=None):
    tasks = backlog_tasks(2 * H, arrivals_end)
    return tasks, [make_config(label, window_trace(2 * H, lo, hi), horizon, policy, tasks=tasks)
                   for label, policy, (lo, hi), horizon in scenarios]


class TestQueueMemo:
    @pytest.mark.parametrize("grid", QUEUE_GRIDS)
    def test_grid_reports_equal_solo_runs(self, grid, walks):
        scenarios, differs = QUEUE_GRIDS[grid]
        tasks, configs = queue_grid(scenarios, QUIET_FROM.get(grid))
        reports = run_matrix(configs)
        assert tasks.queue_runs is None
        assert {label: n == 0 for label, n in walks.items()} == {
            label: label.endswith("_again") for label, *_ in scenarios}
        for report, config in zip(reports, configs):
            solo = run_scenario(config)
            for name in REPORT_COLUMNS:
                assert getattr(report, name).tobytes() == getattr(solo, name).tobytes(), name
            assert report == solo
        first = reports[0]
        for report in reports[1:]:
            if report.label in differs:
                assert first_difference(first.power_w, report.power_w) == differs[report.label]

    def test_last_scenario_over_a_table_records_nothing(self, monkeypatch):
        queues = []

        def keeping_queue(table, horizon):
            queues.append(TaskQueue(table, horizon))
            return queues[-1]

        monkeypatch.setattr(embudget.engine, "TaskQueue", keeping_queue)
        _, configs = queue_grid(QUEUE_GRIDS["last_leaves"][0])
        reports = run_matrix(configs)
        rec, mid, last = queues
        assert last._follow is None  # it left the recorded runs and ran live
        assert rec._inputs is not None and mid._inputs is not None
        assert last._inputs is None and last._used is None
        for report, config in zip(reports, configs):
            assert report == run_scenario(config)

    def test_workers_give_the_serial_reports(self):
        _, configs = queue_grid(QUEUE_GRIDS["latest_run"][0])
        assert run_matrix(configs, workers=2) == run_matrix(configs)

    def test_no_record_outlives_a_failed_grid(self, monkeypatch):
        tasks, configs = queue_grid(QUEUE_GRIDS["latest_run"][0])
        run = embudget.engine.run_scenario

        def failing_run(config):
            report = run(config)
            assert tasks.queue_runs  # runs are recorded while the grid runs
            if config.label == "mid_again":
                raise RuntimeError("stopped")
            return report

        monkeypatch.setattr(embudget.engine, "run_scenario", failing_run)
        with pytest.raises(ScenarioError, match="'mid_again' failed: stopped"):
            run_matrix(configs)
        assert tasks.queue_runs is None

    def test_bundled_grid_walks_live_in_at_most_five_scenarios(self, walks):
        # The 18 scenarios make 5 distinct queue runs. Four of those first
        # follow an earlier run, and leave it within 10 steps.
        experiment = load_experiment(paper_grid_path())
        horizon = 3 * 3600
        scale = horizon / experiment.horizon
        policies = [(name, replace(spec, budget_total_g=spec.budget_total_g * scale)
                     if spec.budget_total_g is not None else spec)
                    for name, spec in experiment.policies]
        run_matrix(build_scenarios(replace(experiment, horizon=horizon, policies=policies)))
        assert len(walks) == 18
        assert sum(n > 10 for n in walks.values()) <= 5, walks


class TestDeterminism:
    def test_rerun_bit_identical(self):
        trace = CarbonIntensityTrace("v", 0, 900, (90.0, 410.0, 980.0, 220.0,
                                                   660.0, 130.0, 850.0, 310.0))
        workload = simple_workload(base_rate=1.1, amplitudes=(0.5, 0.3))
        for policy in (UNLIMITED, FIXED, BUDGET):
            c = make_config("det", trace, 7200, policy, workload=workload)
            r1 = run_scenario(c)
            r2 = run_scenario(c)
            assert r1.power_w == r2.power_w
            assert r1.emission_g == r2.emission_g
            assert r1.action == r2.action
