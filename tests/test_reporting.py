import math
import statistics
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from embudget.carbon import WS_PER_KWH
from embudget.engine import SimulationReport
from embudget.reporting import (
    DEFAULT_PRICES_EUR_PER_TON,
    ColumnStats,
    ReportError,
    aggregate,
    buckets_csv,
    emission_cost_eur,
    steps_csv,
    summarize,
    summary_csv,
    trace_cv,
)


def make_report(power, emission, label="synthetic", trace_values=(100.0,),
                finished=0, budget_spent=None):
    n = len(power)
    return SimulationReport(
        label=label,
        horizon=n,
        node_names=("small", "medium", "large"),
        trace_values=tuple(trace_values),
        power_w=array("d", power),
        emission_g=array("d", emission),
        allowance_g=array("d", [math.inf] * n),
        utilization=array("d", [0.5] * n),
        queued_demand=array("d", [0.0] * n),
        completions=array("l", [0] * n),
        drops=array("l", [0] * n),
        action=array("b", [0] * n),
        node_index=array("b", [1] * n),
        finished_tasks=finished,
        dropped_tasks=0,
        admitted_tasks=finished,
        pending_tasks=0,
        budget_spent_g=budget_spent,
    )


class TestEmissionCost:
    def test_reference_points(self):
        # totals in kg at per-ton carbon prices
        assert emission_cost_eur(14.02, 700.0) == pytest.approx(9.82, abs=0.01)
        assert emission_cost_eur(40.95, 80.0) == pytest.approx(3.28, abs=0.01)
        assert emission_cost_eur(10.05, 150.0) == pytest.approx(1.51, abs=0.01)

    def test_zero(self):
        assert emission_cost_eur(0.0, 700.0) == 0.0

    @given(st.floats(min_value=0, max_value=100), st.floats(min_value=0, max_value=1000),
           st.floats(min_value=1, max_value=10))
    def test_linear_in_total(self, kg, price, k):
        assert emission_cost_eur(k * kg, price) == pytest.approx(
            k * emission_cost_eur(kg, price))


class TestSummarize:
    def test_constant_power_week(self):
        week = 604_800
        report = make_report([338.93] * week, [0.025] * week, trace_values=(250.0,) * 168)
        row = summarize(report)
        assert row.power_mean_w == pytest.approx(338.93)
        assert row.power_median_w == pytest.approx(338.93)
        assert row.energy_kwh == pytest.approx(56.94, abs=0.01)
        assert row.emissions_total_kg == pytest.approx(0.025 * week / 1000.0)

    def test_mean_median_diverge_with_suspension(self):
        power = [0.0] * 60 + [600.0] * 40
        report = make_report(power, [p * 1e-4 for p in power])
        row = summarize(report)
        assert row.power_median_w == 0.0  # suspended steps count
        assert row.power_mean_w == pytest.approx(240.0)

    def test_costs_sorted_by_price(self):
        report = make_report([100.0] * 10, [0.5] * 10)
        row = summarize(report, prices=(700.0, 80.0, 150.0))
        assert [p for p, _ in row.costs_eur] == [80.0, 150.0, 700.0]
        total_kg = 5.0 / 1000.0
        for price, cost in row.costs_eur:
            assert cost == emission_cost_eur(total_kg, price)

    def test_emissions_stats_in_mg(self):
        report = make_report([100.0] * 4, [0.001, 0.002, 0.003, 0.010])
        row = summarize(report)
        assert row.emissions_mean_mg == pytest.approx(4.0)
        assert row.emissions_median_mg == pytest.approx(2.5)

    def test_empty_report_rejected(self):
        with pytest.raises(ReportError):
            summarize(make_report([], []))


class TestAggregate:
    def test_week_in_six_hour_buckets(self):
        series = [1.0] * 604_800
        out = aggregate(series, 21_600)
        assert len(out) == 28
        assert all(v == pytest.approx(21_600.0) for v in out)

    def test_partial_tail_bucket(self):
        out = aggregate([2.0] * 10, 4)
        assert out == [8.0, 8.0, 4.0]

    def test_mean_mode(self):
        out = aggregate([1.0, 3.0, 5.0, 7.0], 2, "mean")
        assert out == [2.0, 6.0]

    def test_bad_args(self):
        with pytest.raises(ReportError):
            aggregate([1.0], 0)
        with pytest.raises(ReportError):
            aggregate([1.0], 2, "max")

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=200),
           st.integers(min_value=1, max_value=50))
    def test_sum_conservation(self, series, bucket):
        assert math.fsum(aggregate(series, bucket)) == pytest.approx(
            math.fsum(series), abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=200),
           st.integers(min_value=1, max_value=50))
    def test_mean_bounded_by_extremes(self, series, bucket):
        for v in aggregate(series, bucket, "mean"):
            assert min(series) - 1e-9 <= v <= max(series) + 1e-9


class TestTraceCv:
    def test_flat_trace_zero(self):
        assert trace_cv(make_report([1.0], [0.0], trace_values=(300.0,) * 24)) == 0.0

    def test_more_variable_trace_higher_cv(self):
        steady = make_report([1.0], [0.0], trace_values=(30.0, 32.0, 31.0, 30.0))
        swinging = make_report([1.0], [0.0], trace_values=(100.0, 700.0, 150.0, 620.0))
        assert trace_cv(swinging) > trace_cv(steady)


class TestCsvOutput:
    def test_summary_header_and_rounding(self):
        report = make_report([338.93] * 100, [0.0123456] * 100, label="row1", finished=7)
        text = summary_csv([summarize(report)])
        lines = text.strip().split("\n")
        assert lines[0] == ("scenario,power_mean_w,power_median_w,energy_kwh,"
                            "emissions_mean_mg,emissions_median_mg,emissions_total_kg,"
                            "cost_eur_80,cost_eur_150,cost_eur_700,finished_tasks")
        cells = lines[1].split(",")
        assert cells[0] == "row1"
        assert cells[1] == "338.93"
        assert cells[-1] == "7"

    def test_summary_requires_rows(self):
        with pytest.raises(ReportError):
            summary_csv([])

    def test_steps_csv_shape(self):
        report = make_report([100.0, 0.0], [0.01, 0.0])
        lines = steps_csv(report).strip().split("\n")
        assert len(lines) == 3
        assert lines[0].startswith("t,action,node,")
        assert lines[1].split(",")[0] == "0"

    def test_buckets_csv_shape(self):
        report = make_report([100.0] * 10, [0.01] * 10)
        lines = buckets_csv(report, bucket=4).strip().split("\n")
        assert len(lines) == 4  # header + ceil(10/4) buckets
        assert lines[1].split(",")[0] == "0"
        assert lines[2].split(",")[0] == "4"


def reference_summary(report, prices=DEFAULT_PRICES_EUR_PER_TON):
    """summarize's statistics computed directly, each read on its own."""
    power, emission = report.power_w, report.emission_g
    n = len(power)
    total_kg = math.fsum(emission) / 1000.0
    return (math.fsum(power) / n, statistics.median(power), math.fsum(power) / WS_PER_KWH,
            math.fsum(emission) / n * 1000.0, statistics.median(emission) * 1000.0, total_kg,
            tuple((p, total_kg / 1000.0 * p) for p in sorted(prices)))


def reference_buckets(report, bucket):
    """buckets_csv's text from aggregate in its sum and mean modes."""
    completions = aggregate(report.completions, bucket, "sum")
    emissions = aggregate(report.emission_g, bucket, "sum")
    emission_means = aggregate(report.emission_g, bucket, "mean")
    power_means = aggregate(report.power_w, bucket, "mean")
    lines = ["bucket_start_s,completions_sum,emission_sum_g,emission_mean_g,power_mean_w"]
    lines += [f"{i * bucket},{completions[i]:.0f},{emissions[i]:.9g},"
              f"{emission_means[i]:.9g},{power_means[i]:.6f}" for i in range(len(completions))]
    return "\n".join(lines) + "\n"


steps = st.lists(st.tuples(st.floats(0, 1e4), st.floats(0, 10), st.integers(0, 50)),
                 min_size=1, max_size=60)


class TestColumnStats:
    @settings(max_examples=60, deadline=None)
    @given(steps, st.integers(1, 25))
    def test_alone_gives_the_direct_statistics(self, rows, bucket):
        power, emission, completions = zip(*rows)
        report = make_report(power, emission)
        report.completions = array("l", completions)
        row = summarize(report, (700.0, 80.0))
        assert (row.power_mean_w, row.power_median_w, row.energy_kwh, row.emissions_mean_mg,
                row.emissions_median_mg, row.emissions_total_kg,
                row.costs_eur) == reference_summary(report, (700.0, 80.0))
        assert buckets_csv(report, bucket) == reference_buckets(report, bucket)

    def test_shared_memo_gives_each_report_its_own_values(self):
        shared_power = array("d", [0.0, 600.0, 250.0, 250.0, 90.5])
        reports = [make_report([0.0] * 5, [k * 1e-3 for k in range(5)], label=label)
                   for label in ("a", "b", "c")]
        reports[0].power_w = reports[1].power_w = shared_power
        reports[2].emission_g = reports[1].emission_g
        stats = ColumnStats()
        for report in reports + reports:
            assert summarize(report, stats=stats) == summarize(report)
            assert buckets_csv(report, 2, stats) == reference_buckets(report, 2)
            assert stats.fsum(report.emission_g) == math.fsum(report.emission_g)

    def test_each_statistic_once_per_array(self, monkeypatch):
        calls = []

        def counting(name, fn):
            def counted(column, *args):
                calls.append((name, id(column), *args))
                return fn(column, *args)
            return counted

        monkeypatch.setattr(math, "fsum", counting("fsum", math.fsum))
        monkeypatch.setattr(statistics, "median", counting("median", statistics.median))
        report = make_report([1.0, 2.0, 3.0], [0.1, 0.2, 0.3])
        other = make_report([0.0] * 3, [0.5] * 3)
        other.power_w = report.power_w
        stats = ColumnStats()
        for r in (report, other):
            summarize(r, stats=stats)
            stats.fsum(r.emission_g)
        assert sorted(calls) == sorted([
            ("fsum", id(report.power_w)), ("median", id(report.power_w)),
            ("fsum", id(report.emission_g)), ("median", id(report.emission_g)),
            ("fsum", id(other.emission_g)), ("median", id(other.emission_g))])


class TestDefaults:
    def test_price_grid(self):
        assert DEFAULT_PRICES_EUR_PER_TON == (80.0, 150.0, 700.0)
