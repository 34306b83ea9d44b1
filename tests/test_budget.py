import math

import pytest
from hypothesis import given, settings, strategies as st

from conftest import constant_trace, make_config
from embudget.budget import (
    BudgetError,
    BudgetViolationError,
    EmissionsBudget,
    HorizonError,
)
from embudget.engine import ACTION_NAMES, PolicySpec, ScenarioError, run_scenario
from embudget.workload import TaskTable

WEEK = 604_800.0


def weekly_budget():
    return EmissionsBudget(total=10_080.0, horizon=WEEK)


class TestRecordEmission:
    def test_simple_spend(self):
        b = weekly_budget()
        b.record_emission(1.0)
        assert b.spent == 1.0

    def test_zero_spend(self):
        b = weekly_budget()
        b.record_emission(0.0)
        assert b.spent == 0.0

    def test_hard_cap_raises(self):
        b = weekly_budget()
        b.record_emission(10_080.0)
        with pytest.raises(BudgetViolationError):
            b.record_emission(0.001)

    def test_negative_rejected(self):
        with pytest.raises(BudgetError):
            weekly_budget().record_emission(-0.1)

    def test_nan_rejected(self):
        with pytest.raises(BudgetError):
            weekly_budget().record_emission(math.nan)


class TestGreedyAllowance:
    def test_first_second_is_base_rate(self):
        b = weekly_budget()
        assert b.greedy_allowance(0) == pytest.approx(10_080.0 / 604_800.0)

    def test_surplus_accumulates(self):
        b = weekly_budget()
        # zero spend through t=0..99, ask at t=100
        assert b.greedy_allowance(100) == pytest.approx(101 * (10_080.0 / 604_800.0))

    def test_steady_state_spend(self):
        b = weekly_budget()
        base = b.base_rate
        for t in range(50):
            allowance = b.greedy_allowance(t)
            assert allowance == pytest.approx(base)
            b.record_emission(allowance)

    def test_horizon_error(self):
        with pytest.raises(HorizonError):
            weekly_budget().greedy_allowance(WEEK)
        with pytest.raises(HorizonError):
            weekly_budget().greedy_allowance(math.nan)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=300))
    def test_no_front_loading_and_cap(self, fractions):
        b = EmissionsBudget(total=5.0, horizon=300.0)
        for t, frac in enumerate(fractions):
            allowance = b.greedy_allowance(t)
            assert allowance >= 0.0
            b.record_emission(frac * allowance)
            assert b.spent <= b.base_rate * (t + 1) + 1e-9
            assert b.spent <= b.total + 1e-9


def saturated_run(policy):
    """Two minutes at 400 g/kWh on the default cluster with more demand than it can serve."""
    tasks = TaskTable((i, 0, 5.0, 200.0, 1e9) for i in range(100))
    return run_scenario(make_config(policy.kind, constant_trace(400.0, hours=1), 120, policy,
                                    tasks=tasks))


def fixed_run(rate):
    return saturated_run(PolicySpec("fixed", rate_g_per_s=rate))


class TestFixedAllowance:
    def test_paper_rate(self):
        assert set(fixed_run(0.0166).allowance_g) == {0.0166}

    def test_zero_forces_suspension(self):
        report = fixed_run(0.0)
        assert {ACTION_NAMES[a] for a in report.action} == {"suspend"}
        assert set(report.emission_g) == {0.0}

    def test_huge_rate_unconstrained(self):
        assert fixed_run(1e9).power_w == saturated_run(PolicySpec("unlimited")).power_w

    def test_negative_rejected(self):
        with pytest.raises(ScenarioError):
            PolicySpec("fixed", rate_g_per_s=-1.0)


class TestState:
    def test_fresh(self):
        b = weekly_budget()
        assert b.remaining == 10_080.0
        assert b.spent == 0.0
        assert b.greedy_allowance(0) == b.base_rate  # nothing banked yet

    def test_exhausted(self):
        b = weekly_budget()
        b.record_emission(10_080.0)
        assert b.remaining == 0.0
        assert b.greedy_allowance(10) == 0.0

    def test_surplus_by_hand(self):
        b = weekly_budget()
        b.record_emission(2.0)
        # banked surplus 200 * rate - 2 g, plus this second's base allocation
        assert b.greedy_allowance(200) == pytest.approx(201 * (10_080.0 / 604_800.0) - 2.0)

    def test_surplus_identity(self):
        b = weekly_budget()
        for t in range(1000):
            b.record_emission(0.9 * b.greedy_allowance(t))
        assert b.greedy_allowance(1000) + b.spent == pytest.approx(b.base_rate * 1001, abs=1e-9)


class TestConservation:
    def test_compensated_sum_matches_fsum(self):
        b = weekly_budget()
        emissions = [0.0123456789 + 1e-7 * (i % 13) for i in range(100_000)]
        for e in emissions:
            b.record_emission(e)
        assert b.spent == pytest.approx(math.fsum(emissions), abs=1e-9)


class TestConstruction:
    def test_base_rate_full_precision(self):
        b = weekly_budget()
        assert b.base_rate == 10_080.0 / 604_800.0

    def test_bad_parameters(self):
        with pytest.raises(BudgetError):
            EmissionsBudget(0.0, 100.0)
        with pytest.raises(BudgetError):
            EmissionsBudget(10.0, 0.0)
        with pytest.raises(BudgetError):
            EmissionsBudget(math.nan, 100.0)
        with pytest.raises(BudgetError):
            EmissionsBudget(10.0, math.nan)
