import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import constant_trace, make_config, option_power
from embudget.cluster import LARGE, MEDIUM, SMALL, ClusterError, NodeSpec
from embudget.engine import PolicySpec, run_scenario
from embudget.policies import MIGRATION_SAVING_FRACTION, choose_option
from embudget.workload import TaskTable, WorkloadError

specs = st.builds(
    NodeSpec,
    name=st.sampled_from(["a", "b", "c", "d"]),
    capacity=st.integers(min_value=1, max_value=500),
    idle_power=st.floats(min_value=0, max_value=200),
    peak_power=st.floats(min_value=201, max_value=2000),
)

SPECS = (SMALL, MEDIUM, LARGE)
S, M, L = range(3)


def one_step(spec, demand):
    """Report of one unconstrained engine step with `demand` CU queued on a one-node cluster."""
    tasks = TaskTable([(0, 0, demand, 10.0, 100.0)] if demand > 0 else [])
    config = make_config("one", constant_trace(400.0, hours=1), 1, PolicySpec("unlimited"),
                         tasks=tasks, cluster=(spec,), initial=spec.name)
    return run_scenario(config)


class TestNodePower:
    def test_medium_idle(self):
        assert one_step(MEDIUM, 0).power_w[0] == 50.0

    def test_medium_ten_percent(self):
        assert one_step(MEDIUM, 10).power_w[0] == pytest.approx(105.0)

    def test_medium_peak(self):
        assert one_step(MEDIUM, 100).power_w[0] == 600.0

    def test_small_peak_is_half(self):
        assert one_step(SMALL, 50).power_w[0] == 300.0

    def test_out_of_range(self):
        # demand beyond capacity saturates at full utilization, never past peak power
        report = one_step(MEDIUM, 101)
        assert report.utilization[0] == 1.0
        assert report.power_w[0] == 600.0

    @settings(max_examples=50, deadline=None)
    @given(specs)
    def test_endpoints(self, spec):
        assert one_step(spec, 0).power_w[0] == spec.idle_power
        assert one_step(spec, 2 * spec.capacity).power_w[0] == pytest.approx(
            spec.peak_power, rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(specs, st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1))
    def test_monotone(self, spec, f1, f2):
        # non-decreasing only: a subnormal utilization gap can vanish in the fp sum
        lo, hi = sorted([f1, f2])
        assert (one_step(spec, lo * spec.capacity).power_w[0]
                <= one_step(spec, hi * spec.capacity).power_w[0])


class TestNodeSpec:
    @pytest.mark.parametrize("idle, peak", [(math.nan, 10.0), (1.0, math.nan)],
                             ids=["idle", "peak"])
    def test_nan_power_rejected(self, idle, peak):
        with pytest.raises(ClusterError):
            NodeSpec("n", 10, idle, peak)


class TestUtilizationForCu:
    def test_paper_operating_point(self):
        assert one_step(MEDIUM, 54).utilization[0] == pytest.approx(0.54)

    def test_zero_demand(self):
        assert one_step(MEDIUM, 0).utilization[0] == 0.0

    def test_saturation(self):
        assert one_step(MEDIUM, 250).utilization[0] == 1.0

    def test_negative_rejected(self):
        with pytest.raises(WorkloadError):
            TaskTable([(0, 0, -1.0, 10.0, 100.0)])


class TestPowerCapInverse:
    def test_idle_exactly_affordable(self):
        assert choose_option((MEDIUM,), 0, 100, 50.0) == (0, 0.0)

    def test_hand_arithmetic(self):
        _, u = choose_option((MEDIUM,), 0, 100, 149.4)
        assert u == pytest.approx(0.1807, abs=1e-3)

    def test_below_idle_infeasible(self):
        assert choose_option((MEDIUM,), 0, 100, 49.0) == (None, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(specs, min_size=1, max_size=4), st.floats(min_value=0, max_value=3000),
           st.floats(min_value=0, max_value=1000), st.data())
    def test_inverse_consistency(self, cluster, cap, demand, data):
        cur = data.draw(st.none() | st.integers(min_value=0, max_value=len(cluster) - 1))
        idx, u = choose_option(cluster, cur, demand, cap)
        if idx is None:
            assert all(cap < spec.idle_power for spec in cluster)
            return
        spec = cluster[idx]
        power = option_power(spec, u)
        assert power <= cap + 1e-9
        if u < min(demand / spec.capacity, 1.0):  # throttled: the cap binds
            assert power == pytest.approx(cap, rel=1e-12)


class TestViableTargets:
    def test_downsize_beats_upsize(self):
        idx, u = choose_option(SPECS, M, 40, math.inf)
        assert idx == S
        assert option_power(SMALL, u) == pytest.approx(245.0)

    def test_no_capacity_no_target(self):
        assert choose_option(SPECS, L, 150, math.inf)[0] == L

    def test_idle_on_small_is_minimal(self):
        assert choose_option(SPECS, S, 0, math.inf) == (S, 0.0)

    def test_current_not_in_cluster(self):
        # a suspended application resumes on the cheapest node that serves the demand
        assert choose_option(SPECS, None, 10, math.inf) == (S, pytest.approx(0.2))

    def test_never_returns_current_or_occupied(self):
        # without the small node, nothing beats medium's power at 40 CU: stay put
        assert choose_option((MEDIUM, LARGE), 0, 40, math.inf) == (0, pytest.approx(0.4))

    def test_brute_force_strict_power_reduction(self):
        rng = random.Random(7)
        for _ in range(200):
            cluster = [
                NodeSpec(f"n{i}", rng.randint(10, 300),
                         float(rng.randint(0, 100)),
                         float(rng.randint(200, 1500)))
                for i in range(5)
            ]
            cur = rng.randrange(5)
            demand = float(rng.randint(0, 350))
            cap = rng.choice([math.inf, float(rng.randint(0, 1500))])
            idx, u = choose_option(cluster, cur, demand, cap)
            options = {}  # index -> (served CU, power) of every node the cap admits
            for i, spec in enumerate(cluster):
                if cap < spec.idle_power:
                    continue
                u_max = min(1.0, (cap - spec.idle_power) / (spec.peak_power - spec.idle_power))
                v = min(demand / spec.capacity, 1.0, u_max)
                options[i] = (v * spec.capacity, option_power(spec, v))
            if not options:
                assert idx is None
                continue
            served = u * cluster[idx].capacity
            best_served = max(s for s, _ in options.values())
            assert served == pytest.approx(best_served, abs=1e-6)
            if idx != cur:
                # among the nodes serving the most CU, a move goes to the cheapest
                assert option_power(cluster[idx], u) == pytest.approx(
                    min(p for s, p in options.values() if s >= best_served - 1e-9))
            if idx != cur and cur in options:
                # a migration serves more, or saves more than the hysteresis margin
                cur_served, cur_power = options[cur]
                gain = served - cur_served
                saving = cur_power - option_power(cluster[idx], u)
                assert gain > 1e-9 or saving > MIGRATION_SAVING_FRACTION * cur_power
