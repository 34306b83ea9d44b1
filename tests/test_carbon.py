import math

import pytest
from hypothesis import given, settings, strategies as st

from embudget.carbon import (
    CarbonIntensityTrace,
    ColumnMap,
    TraceError,
    coefficient_of_variation,
    parse_trace,
)
from embudget.cluster import MEDIUM
from embudget.engine import PolicySpec, ScenarioConfig, run_scenario
from embudget.workload import TaskTable

TWO_ROWS = "ts,ci\n2024-01-01T00:00Z,380\n2024-01-01T01:00Z,350\n"
CMAP = ColumnMap(timestamp="ts", intensity="ci")


class TestParseTrace:
    def test_two_row_csv(self):
        trace = parse_trace(TWO_ROWS, CMAP)
        assert trace.step == 3600
        assert trace.values == (380.0, 350.0)

    def test_gap_is_an_error(self):
        csv_text = ("ts,ci\n2024-01-01T00:00Z,380\n2024-01-01T01:00Z,360\n"
                    "2024-01-01T03:00Z,350\n")
        with pytest.raises(TraceError,
                           match="^gap between 1704070800 and 1704078000, expected step 3600$"):
            parse_trace(csv_text, CMAP)

    def test_missing_column(self):
        with pytest.raises(TraceError, match=r"^missing column 'ci' \(have \['ts', 'wrong'\]\)$"):
            parse_trace("ts,wrong\n2024-01-01T00:00Z,380\n", CMAP)

    def test_negative_intensity(self):
        with pytest.raises(TraceError):
            parse_trace("ts,ci\n2024-01-01T00:00Z,-5\n2024-01-01T01:00Z,4\n", CMAP)

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_not_finite_intensity(self, cell):
        with pytest.raises(TraceError, match="line 3"):
            parse_trace(f"ts,ci\n2024-01-01T00:00Z,5\n2024-01-01T01:00Z,{cell}\n", CMAP)

    def test_short_row_without_timestamp(self):
        with pytest.raises(TraceError, match="line 3: fewer cells than the header"):
            parse_trace("ci,ts\n380,2024-01-01T00:00Z\n130\n", CMAP)

    def test_cell_over_csv_field_limit(self):
        csv_text = TWO_ROWS.replace(",350", "," + "9" * 200_000)
        with pytest.raises(TraceError, match="line 3: field larger than field limit"):
            parse_trace(csv_text, CMAP)

    def test_week_long_synthetic_file(self):
        rows = ["ts,ci"]
        for h in range(168):
            rows.append(f"2024-01-{1 + h // 24:02d}T{h % 24:02d}:00Z,{100 + h}")
        trace = parse_trace("\n".join(rows), CMAP)
        assert len(trace.values) == 168
        assert trace.span == 604_800

    def test_unsorted_rows_are_sorted(self):
        csv_text = "ts,ci\n2024-01-01T01:00Z,350\n2024-01-01T00:00Z,380\n"
        trace = parse_trace(csv_text, CMAP)
        assert trace.values == (380.0, 350.0)


def g_per_watt_second(ci_kwh):
    """Emission per watt of one idle engine step at `ci_kwh` g/kWh."""
    config = ScenarioConfig("conv", CarbonIntensityTrace("c", 0, 3600, (ci_kwh,)), 1,
                            PolicySpec("unlimited"), cluster=(MEDIUM,), tasks=TaskTable([]))
    report = run_scenario(config)
    return report.emission_g[0] / report.power_w[0]


class TestConversion:
    def test_definition_forced(self):
        assert g_per_watt_second(3_600_000) == 1.0

    def test_zero(self):
        assert g_per_watt_second(0) == 0.0

    def test_hand_arithmetic(self):
        assert g_per_watt_second(400) == pytest.approx(1.1111111111e-4, rel=1e-9)

    def test_negative_rejected(self):
        with pytest.raises(TraceError):
            CarbonIntensityTrace("c", 0, 3600, (-1.0,))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_not_finite_rejected(self, value):
        with pytest.raises(TraceError):
            CarbonIntensityTrace("c", 0, 3600, (1.0, value))

    @settings(deadline=None)
    @given(st.floats(min_value=0, max_value=1e6, allow_nan=False))
    def test_round_trip(self, x):
        assert g_per_watt_second(x) * 3_600_000.0 == pytest.approx(x, rel=1e-15, abs=1e-300)


class TestCoefficientOfVariation:
    def test_constant_data(self):
        assert coefficient_of_variation([500, 500, 500]) == 0.0

    def test_by_hand(self):
        assert coefficient_of_variation([400, 600]) == pytest.approx(0.2)

    def test_single_sample(self):
        assert coefficient_of_variation([1]) == 0.0

    def test_zero_mean_undefined(self):
        with pytest.raises(ValueError):
            coefficient_of_variation([0, 0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            coefficient_of_variation([])

    @given(
        st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=2, max_size=50),
        st.floats(min_value=0.1, max_value=100.0),
    )
    def test_scale_invariance(self, values, k):
        cv = coefficient_of_variation(values)
        scaled = coefficient_of_variation([k * v for v in values])
        assert scaled == pytest.approx(cv, rel=1e-9, abs=1e-12)


class TestSliceWindow:
    year = CarbonIntensityTrace("y", 0, 3600, tuple(float(i % 700) + 1 for i in range(8760)))

    def test_week_slice(self):
        window = self.year.slice_window(0, 604_800)
        assert len(window.values) == 168

    def test_empty_window(self):
        with pytest.raises(TraceError, match="^window is empty or reversed$"):
            self.year.slice_window(3600, 3600)

    def test_idempotence(self):
        once = self.year.slice_window(3600, 608_400)
        twice = once.slice_window(3600, 608_400)
        assert once == twice

    def test_misaligned(self):
        with pytest.raises(TraceError, match="^window not aligned to trace step$"):
            self.year.slice_window(1800, 605_000)

    def test_values_bit_exact(self):
        window = self.year.slice_window(7200, 14_400)
        assert window.values == self.year.values[2:4]
