import math

import pytest
from hypothesis import given, settings, strategies as st

from embudget.workload import (
    DiurnalTraceParams,
    Task,
    TaskQueue,
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


class TestGenerator:
    def test_zero_rate_empty(self):
        assert generate_diurnal_trace(params(base=0.0), 3600, 1) == []

    def test_constant_unit_rate(self):
        tasks = generate_diurnal_trace(params(base=1.0), 60, 1)
        assert len(tasks) == 60
        assert [t.arrival for t in tasks] == list(range(60))

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
        assert a == b

    def test_jitter_responds_to_seed(self):
        p = params(cu_jitter=0.3)
        a = generate_diurnal_trace(p, 600, 1)
        b = generate_diurnal_trace(p, 600, 2)
        assert [t.arrival for t in a] == [t.arrival for t in b]
        assert [t.cu_demand for t in a] != [t.cu_demand for t in b]

    @pytest.mark.parametrize("bad", [
        {"cu": 0.0}, {"runtime": 0.0}, {"slack": -1.0},
        {"cu_jitter": 1.5}, {"cu_jitter": -0.1}, {"runtime_jitter": 1.0},
    ])
    def test_params_that_would_make_invalid_tasks_rejected(self, bad):
        with pytest.raises(WorkloadError):
            params(**bad)

    def test_rate_is_circular_across_midnight(self):
        p = params(base=0.0, amps=(1.0, 0.0), times=(0.0, 0.0), width=3600.0)
        assert p.rate_at(86400 - 1800) == pytest.approx(p.rate_at(1800))


class TestAdmit:
    def test_three_arrivals(self):
        q = TaskQueue()
        q.admit([Task(i, i, 1, 5, 100) for i in range(3)])
        assert len(q) == 3

    def test_out_of_order_rejected(self):
        q = TaskQueue()
        with pytest.raises(WorkloadError):
            q.admit([Task(0, 10, 1, 5, 100), Task(1, 5, 1, 5, 100)])

    def test_duplicate_id_rejected(self):
        q = TaskQueue()
        q.admit([Task(0, 0, 1, 5, 100)])
        with pytest.raises(WorkloadError):
            q.admit([Task(0, 1, 1, 5, 100)])

    def test_zero_arrivals(self):
        q = TaskQueue()
        q.admit([])
        assert len(q) == 0


class TestStepAllocation:
    def test_full_rate_finishes_at_nominal_runtime(self):
        q = TaskQueue()
        q.admit([Task(0, 0, 2, 5, 1000)])  # W = 10 CU.s
        for step in range(5):
            used, done = q.step_allocation(2.0, step)
            assert used == 2.0
        assert done == 1
        assert q.finished_count == 1

    def test_degraded_rate_takes_longer(self):
        q = TaskQueue()
        q.admit([Task(0, 0, 2, 5, 1000)])
        completions = 0
        for step in range(10):
            _, done = q.step_allocation(1.0, step)
            completions += done
        assert completions == 1
        assert q.finished_count == 1

    def test_no_cu_no_progress(self):
        q = TaskQueue()
        q.admit([Task(0, 0, 2, 5, 1000)])
        used, done = q.step_allocation(0.0, 0)
        assert used == 0.0 and done == 0

    def test_fifo_front_first(self):
        q = TaskQueue()
        q.admit([Task(0, 0, 4, 2, 1000), Task(1, 0, 4, 2, 1000)])
        used, _ = q.step_allocation(6.0, 0)
        assert used == 6.0
        tasks = q.pending_tasks()
        assert tasks[0].work_done == 4.0  # front got its full demand
        assert tasks[1].work_done == 2.0  # leftover only

    def test_capacity_respected(self):
        q = TaskQueue()
        q.admit([Task(i, 0, 3, 10, 1000) for i in range(5)])
        used, _ = q.step_allocation(7.5, 0)
        assert used <= 7.5

    def test_work_conservation(self):
        q = TaskQueue()
        tasks = [Task(i, 0, 2, 7, 1000) for i in range(4)]
        q.admit(tasks)
        granted = 0.0
        for step in range(20):
            used, _ = q.step_allocation(3.0, step)
            granted += used
        assert granted == pytest.approx(sum(t.work_done for t in tasks))


class TestDropExpired:
    def test_past_deadline_dropped(self):
        q = TaskQueue()
        q.admit([Task(0, 0, 1, 5, 100)])
        assert q.drop_expired(101) == 1
        assert q.dropped_count == 1 and len(q) == 0

    def test_boundary_kept_inclusive(self):
        q = TaskQueue()
        q.admit([Task(0, 0, 1, 5, 100)])
        assert q.drop_expired(100) == 0
        assert len(q) == 1

    def test_empty_queue(self):
        q = TaskQueue()
        assert q.drop_expired(50) == 0

    def test_finished_tasks_not_double_counted(self):
        q = TaskQueue()
        q.admit([Task(0, 0, 1, 2, 100)])
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
        tasks = [Task(i, a, c, r, a + r + s) for i, (a, c, r, s) in enumerate(raw)]
        q = TaskQueue()
        i = 0
        for t in range(120):
            q.drop_expired(t)
            batch = []
            while i < len(tasks) and tasks[i].arrival <= t:
                batch.append(tasks[i])
                i += 1
            q.admit(batch)
            q.step_allocation(float(avail), t)
            assert q.finished_count + q.dropped_count + len(q) == q.admitted_count


class TestCsvRoundTrip:
    def test_export_import(self):
        tasks = generate_diurnal_trace(params(base=0.7), 300, 5)
        restored = import_tasks_csv(export_tasks_csv(tasks))
        assert [(t.id, t.arrival, t.cu_demand, t.nominal_runtime, t.deadline) for t in tasks] == \
               [(t.id, t.arrival, t.cu_demand, t.nominal_runtime, t.deadline) for t in restored]

    def test_bad_header(self):
        with pytest.raises(WorkloadError):
            import_tasks_csv("id,arrival\n1,2\n")
