import math

import pytest
from hypothesis import given, settings, strategies as st

from conftest import option_power
from embudget.budget import EmissionsBudget
from embudget.carbon import WS_PER_KWH
from embudget.cluster import LARGE, MEDIUM, SMALL, NodeSpec
from embudget.engine import PolicySpec, ScenarioError
from embudget.policies import choose_option

EXACT_RATE = 10_080.0 / 604_800.0  # g/s
SPECS = (SMALL, MEDIUM, LARGE)
S, M, L = range(3)

node_specs = st.builds(
    NodeSpec,
    name=st.sampled_from(["a", "b", "c", "d"]),
    capacity=st.integers(min_value=1, max_value=500),
    idle_power=st.floats(min_value=0, max_value=200),
    peak_power=st.floats(min_value=201, max_value=2000),
)


def power_cap(allowance, ci_kwh):
    """The cap run_scenario passes to choose_option: grams per second over g/Ws."""
    ci_ws = ci_kwh / WS_PER_KWH
    return allowance / ci_ws if ci_ws > 0.0 else math.inf


class TestUnlimited:
    def test_operating_point(self):
        assert choose_option(SPECS, M, 54, math.inf) == (M, pytest.approx(0.54))

    def test_migrates_to_cheaper_idle(self):
        assert choose_option(SPECS, M, 0, math.inf) == (S, 0.0)

    def test_no_viable_target_scales(self):
        assert choose_option(SPECS, L, 150, math.inf) == (L, pytest.approx(0.75))

    def test_never_suspends(self):
        for cur in (None, S, M, L):
            for demand in (0, 10, 500):
                idx, _ = choose_option(SPECS, cur, demand, math.inf)
                assert idx is not None


class TestFixedRate:
    def test_throttles_to_cap(self):
        # single-node cluster: cap 149.4 W on medium
        cap = power_cap(0.0166, 400)
        idx, u = choose_option((MEDIUM,), 0, 100, cap)
        assert idx == 0
        assert u == pytest.approx(0.1807, abs=1e-3)
        assert u * MEDIUM.capacity == pytest.approx(18.07, abs=0.1)

    def test_falls_back_to_small_when_medium_idle_exceeds_limit(self):
        # medium idle emits 50 * 1220/3.6e6 = 16.94 mg/s > limit; small idle 8.47 mg/s fits
        idx, u = choose_option(SPECS, M, 20, power_cap(EXACT_RATE, 1220))
        assert idx == S
        assert 0.0 < u < 20 / SMALL.capacity

    def test_suspends_when_even_small_idle_does_not_fit(self):
        assert choose_option(SPECS, M, 20, power_cap(EXACT_RATE, 2500)) == (None, 0.0)

    def test_projected_emission_within_limit(self):
        for ci in (100, 400, 900, 1600):
            idx, u = choose_option(SPECS, M, 80, power_cap(EXACT_RATE, ci))
            if idx is None:
                continue
            emission = option_power(SPECS[idx], u) * (ci / WS_PER_KWH)
            assert emission <= EXACT_RATE + 1e-9

    def test_zero_intensity_unconstrained(self):
        cap = power_cap(EXACT_RATE, 0)
        assert cap == math.inf
        assert choose_option(SPECS, M, 54, cap) == choose_option(SPECS, M, 54, math.inf)


class TestGreedyBudget:
    def test_zero_surplus_degenerates_to_fixed(self):
        budget = EmissionsBudget(total=10_080.0, horizon=604_800.0)
        allowance = budget.greedy_allowance(0)
        assert allowance == EXACT_RATE
        for ci in (200, 400, 1220, 2500):
            assert (choose_option(SPECS, M, 80, power_cap(allowance, ci))
                    == choose_option(SPECS, M, 80, power_cap(EXACT_RATE, ci)))

    def test_surplus_burst_uses_large_node(self):
        allowance = EXACT_RATE + 1.0
        idx, u = choose_option(SPECS, L, 200, power_cap(allowance, 400))
        assert (idx, u) == (L, pytest.approx(1.0))
        spend = option_power(SPECS[idx], u) * (400 / WS_PER_KWH)
        assert spend == pytest.approx(0.1333, abs=1e-3)
        assert spend <= allowance

    def test_exhausted_budget_suspends(self):
        budget = EmissionsBudget(total=10_080.0, horizon=604_800.0)
        budget.record_emission(10_080.0)
        allowance = budget.greedy_allowance(0)
        assert allowance == 0.0
        assert choose_option(SPECS, M, 50, power_cap(allowance, 400)) == (None, 0.0)

    def test_requires_budget_state(self):
        with pytest.raises(ScenarioError):
            PolicySpec("greedy_budget")


class TestChooseOption:
    def test_suspend_when_nothing_fits(self):
        assert choose_option(SPECS, 1, 50.0, 10.0) == (None, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=0, max_value=400),
        st.floats(min_value=20, max_value=5000),
        st.floats(min_value=0, max_value=5000),
        st.integers(min_value=0, max_value=2),
    )
    def test_greedy_cap_dominates_fixed_cap(self, demand, cap_lo, extra, cur):
        lo_idx, lo_u = choose_option(SPECS, cur, demand, cap_lo)
        hi_idx, hi_u = choose_option(SPECS, cur, demand, cap_lo + extra)
        lo_served = lo_u * SPECS[lo_idx].capacity if lo_idx is not None else 0.0
        hi_served = hi_u * SPECS[hi_idx].capacity if hi_idx is not None else 0.0
        assert hi_served >= lo_served - 1e-9

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=0, max_value=400),
        st.floats(min_value=0, max_value=5000),
        st.integers(min_value=0, max_value=2),
    )
    def test_deterministic(self, demand, cap, cur):
        assert choose_option(SPECS, cur, demand, cap) == \
               choose_option(SPECS, cur, demand, cap)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(node_specs, min_size=1, max_size=4), st.floats(min_value=0, max_value=3000),
           st.just(0.0) | st.floats(min_value=0, max_value=1e9), st.data())
    def test_infinite_cap_same_as_highest_peak(self, cluster, demand, extra, data):
        # run_scenario plans every cap at or above the highest peak as an infinite
        # cap, so each such cap must choose exactly what no limit at all chooses.
        cur = data.draw(st.none() | st.integers(min_value=0, max_value=len(cluster) - 1))
        peak = max(spec.peak_power for spec in cluster)
        assert choose_option(cluster, cur, demand, math.inf) == \
               choose_option(cluster, cur, demand, peak + extra)

    def test_anti_thrash_keeps_current_for_tiny_saving(self):
        near_twin = SMALL.__class__("twin", SMALL.capacity, SMALL.idle_power - 0.1,
                                    SMALL.peak_power - 0.1)
        idx, _ = choose_option((SMALL, near_twin), 0, 10.0, math.inf)
        assert idx == 0  # 0.1 W saving is below the hysteresis margin


class TestChoiceInvariants:
    def test_migrate_targets_are_members(self):
        for cur in (None, S, M, L):
            for demand in (0, 40, 250):
                idx, _ = choose_option(SPECS, cur, demand, math.inf)
                assert idx in range(len(SPECS))

    def test_scale_bounds(self):
        for demand in (0, 37, 250):
            for cap in (0.0, 60.0, 400.0, math.inf):
                _, u = choose_option(SPECS, M, demand, cap)
                assert 0.0 <= u <= 1.0
