import math

import pytest
from hypothesis import given, settings, strategies as st

from embudget.workload import (
    TASK_CSV_COLUMNS,
    DiurnalTraceParams,
    TaskQueue,
    TaskTable,
    WorkloadError,
    export_tasks_csv,
    generate_diurnal_trace,
    import_tasks_csv,
)


def params(base=0.5, amps=(0.0, 0.0), times=(32400.0, 68400.0), width=3600.0,
           cu=2.0, runtime=5.0, slack=100.0, **kw):
    return DiurnalTraceParams(
        base_rate=base, peak_amplitudes=amps, peak_times=times, peak_width=width,
        task_cu=cu, task_runtime=runtime, deadline_slack=slack, **kw)


def admitted(*rows):
    """A queue over the table of `rows`, with every task admitted."""
    q = TaskQueue(TaskTable(rows), 1000)
    q.admit(range(len(rows)))
    return q


class TestGenerator:
    def test_zero_rate_empty(self):
        assert len(generate_diurnal_trace(params(base=0.0), 3600, 1)) == 0

    def test_constant_unit_rate(self):
        tasks = generate_diurnal_trace(params(base=1.0), 60, 1)
        assert len(tasks) == 60
        assert tasks.arrival == tuple(range(60))

    def test_count_matches_quadrature_oracle(self):
        p = params(base=0.5, amps=(1.0, 0.0), times=(43200.0, 0.0), width=7200.0)
        horizon = 86400
        tasks = generate_diurnal_trace(p, horizon, 3)
        # trapezoid-rule integral of the rate curve
        integral = 0.0
        prev = p.rate_at(0)
        for t in range(1, horizon + 1):
            cur = p.rate_at(t)
            integral += 0.5 * (prev + cur)
            prev = cur
        assert abs(len(tasks) - round(integral)) <= 1

    def test_determinism(self):
        p = params(base=0.3, amps=(0.5, 0.2), cu_jitter=0.2, runtime_jitter=0.2)
        a = generate_diurnal_trace(p, 7200, 42)
        b = generate_diurnal_trace(p, 7200, 42)
        assert list(a) == list(b)

    def test_jitter_responds_to_seed(self):
        p = params(cu_jitter=0.3)
        a = generate_diurnal_trace(p, 600, 1)
        b = generate_diurnal_trace(p, 600, 2)
        assert a.arrival == b.arrival
        assert a.cu != b.cu

    @pytest.mark.parametrize("bad", [
        {"cu": 0.0}, {"runtime": 0.0}, {"slack": -1.0},
        {"cu_jitter": 1.5}, {"cu_jitter": -0.1}, {"runtime_jitter": 1.0},
        {"cu": math.nan}, {"runtime": math.nan}, {"slack": math.nan}, {"width": math.nan},
        {"base": math.nan}, {"base": math.inf},
        {"amps": (0.0, math.nan)}, {"amps": (math.inf, 0.0)},
        {"cu": math.inf}, {"runtime": math.inf},
        {"cu": 1.7e308, "cu_jitter": 0.5}, {"runtime": 1.7e308, "runtime_jitter": 0.5},
        {"cu": 5e-324, "cu_jitter": 0.9}, {"runtime": 5e-324, "runtime_jitter": 0.9},
    ])
    def test_params_that_would_make_invalid_tasks_rejected(self, bad):
        with pytest.raises(WorkloadError):
            params(**bad)

    def test_extreme_jittered_sizes_that_pass_generate(self):
        # Near the bounds the check allows, every jittered task still passes the row rule.
        largest = params(base=0.9, cu=1e308, cu_jitter=0.5,
                         runtime=1e308, runtime_jitter=0.5, slack=0.0)
        smallest = params(base=0.9, cu=1e-323, cu_jitter=0.4)  # 1e-323 * 0.6 == 5e-324
        for p in (largest, smallest):
            assert len(generate_diurnal_trace(p, 300, 4)) > 200

    def test_rate_is_circular_across_midnight(self):
        p = params(base=0.0, amps=(1.0, 0.0), times=(0.0, 0.0), width=3600.0)
        assert p.rate_at(86400 - 1800) == pytest.approx(p.rate_at(1800))


class TestTaskTable:
    def test_generated_table_is_clean(self):
        table = generate_diurnal_trace(params(base=0.7), 300, 5)
        assert len(table) > 0
        assert list(TaskTable(table)) == list(table)
        assert all(type(getattr(table, name)) is tuple for name in TASK_CSV_COLUMNS)

    def test_first_bad_task_named(self):
        late = [(0, 10, 1, 5, 100), (1, 5, 1, 5, 100), (2, 1, 1, 5, 100)]
        with pytest.raises(WorkloadError, match="^task 1 arrives out of order$"):
            TaskTable(late)
        twice = [(7, 0, 1, 5, 100), (7, 3, 1, 5, 100), (8, 4, 1, 5, 100)]
        with pytest.raises(WorkloadError, match="^duplicate task id 7$"):
            TaskTable(twice)
        with pytest.raises(WorkloadError,
                           match="^task 7 arrives out of order; duplicate task id 7$"):
            TaskTable([(7, 5, 1, 5, 100), (7, 3, 1, 5, 100)])


class TestAdmit:
    def test_three_arrivals(self):
        q = admitted(*[(i, i, 1, 5, 100) for i in range(3)])
        assert q.pending_count == 3

    @pytest.mark.parametrize("fields", [(math.nan, 5, 100), (1, math.nan, 100), (1, 5, math.nan),
                                        (math.inf, 5, 100), (1, math.inf, 100)],
                             ids=["cu", "runtime", "deadline", "cu_inf", "runtime_inf"])
    def test_nan_task_rejected(self, fields):
        with pytest.raises(WorkloadError, match="^task 0: "):
            TaskTable([(0, 0, *fields)])

    def test_zero_arrivals(self):
        q = TaskQueue(TaskTable([]), 1)
        q.admit(range(0))
        assert q.pending_count == 0


class TestStepAllocation:
    def test_full_rate_finishes_at_nominal_runtime(self):
        q = admitted((0, 0, 2, 5, 1000))  # W = 10 CU.s
        for step in range(5):
            used, done = q.step_allocation(2.0, step)
            assert used == 2.0
        assert done == 1
        assert q.finished_count == 1

    def test_degraded_rate_takes_longer(self):
        q = admitted((0, 0, 2, 5, 1000))
        completions = 0
        for step in range(10):
            _, done = q.step_allocation(1.0, step)
            completions += done
        assert completions == 1
        assert q.finished_count == 1

    def test_no_cu_no_progress(self):
        q = admitted((0, 0, 2, 5, 1000))
        used, done = q.step_allocation(0.0, 0)
        assert used == 0.0 and done == 0

    def test_fifo_front_first(self):
        q = admitted((0, 0, 4, 2, 1000), (1, 0, 4, 2, 1000))
        # The front gets its full 4 CU and the second the 2 left over, so the
        # front finishes at the next step and the second one step later.
        steps = [q.step_allocation(6.0, step) for step in range(3)]
        assert steps == [(6.0, 0), (6.0, 1), (4.0, 1)]
        assert q.finished_count == 2

    def test_capacity_respected(self):
        q = admitted(*[(i, 0, 3, 10, 1000) for i in range(5)])
        used, _ = q.step_allocation(7.5, 0)
        assert used <= 7.5

    def test_work_conservation(self):
        tasks = [(i, 0, 2, 7, 1000) for i in range(4)]
        q = admitted(*tasks)
        granted = 0.0
        completed = 0
        for step in range(20):
            used, done = q.step_allocation(3.0, step)
            granted += used
            completed += done
        assert completed == q.finished_count == len(tasks)
        assert granted == pytest.approx(sum(cu * runtime for _, _, cu, runtime, _ in tasks))


class TestDropExpired:
    def test_past_deadline_dropped(self):
        q = admitted((0, 0, 1, 5, 100))
        assert q.drop_expired(101) == 1
        assert q.dropped_count == 1 and q.pending_count == 0

    def test_boundary_kept_inclusive(self):
        q = admitted((0, 0, 1, 5, 100))
        assert q.drop_expired(100) == 0
        assert q.pending_count == 1

    def test_empty_queue(self):
        q = admitted()
        assert q.drop_expired(50) == 0

    def test_finished_tasks_not_double_counted(self):
        q = admitted((0, 0, 1, 2, 100))
        q.step_allocation(1.0, 0)
        q.step_allocation(1.0, 1)
        assert q.finished_count == 1
        assert q.drop_expired(500) == 0


class TestAccountingClosure:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(
        st.integers(min_value=0, max_value=50),   # arrival offset
        st.integers(min_value=1, max_value=4),    # cu
        st.integers(min_value=1, max_value=6),    # runtime
        st.integers(min_value=1, max_value=40),   # slack
    ), min_size=1, max_size=30), st.integers(min_value=0, max_value=9))
    def test_closure_every_step(self, raw, avail):
        raw.sort(key=lambda r: r[0])
        tasks = TaskTable((i, a, c, r, a + r + s) for i, (a, c, r, s) in enumerate(raw))
        q = TaskQueue(tasks, 120)
        i = 0
        for t in range(120):
            q.drop_expired(t)
            start = i
            while i < len(tasks) and tasks.arrival[i] <= t:
                i += 1
            q.admit(range(start, i))
            demand = q.pending_demand
            q.step_allocation(float(avail), t)
            assert q.queued_demand[t] == demand
            assert q.finished_count + q.dropped_count + q.pending_count == i
        assert sum(q.completions) == q.finished_count
        assert sum(q.drops) == q.dropped_count


class TestCsvRoundTrip:
    def test_export_import(self):
        tasks = generate_diurnal_trace(params(base=0.7), 300, 5)
        restored = import_tasks_csv(export_tasks_csv(tasks))
        assert list(restored) == list(tasks)

    def test_bad_header(self):
        with pytest.raises(WorkloadError):
            import_tasks_csv("id,arrival\n1,2\n")

    def test_duplicate_id_named(self):
        text = "id,arrival,cu,runtime,deadline\n7,0,1,5,100\n7,3,1,5,100\n"
        with pytest.raises(WorkloadError, match="duplicate task id 7"):
            import_tasks_csv(text)

