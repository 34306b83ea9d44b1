"""Summary statistics, emissions cost, and coarse time aggregation of reports."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

from .carbon import WS_PER_KWH, coefficient_of_variation
from .engine import ACTION_NAMES, SimulationReport

DEFAULT_PRICES_EUR_PER_TON = (80.0, 150.0, 700.0)
SIX_HOURS = 21_600


class ReportError(ValueError):
    pass


@dataclass(frozen=True)
class SummaryRow:
    """One scenario's summary in the shape of the results table."""

    label: str
    power_mean_w: float
    power_median_w: float
    energy_kwh: float
    emissions_mean_mg: float
    emissions_median_mg: float
    emissions_total_kg: float
    costs_eur: tuple[tuple[float, float], ...]  # (price EUR/t, cost EUR), price ascending
    finished_tasks: int


class ColumnStats:
    """The statistics reporting reads from report columns, each computed once per array.

    Reports from one run_matrix call may hold the same array for a column whose
    contents are byte-identical (see SimulationReport). One memo passed to
    summarize and buckets_csv for every report of a run computes each whole-column
    fsum, median and set of bucket sums once per distinct array, and a statistic
    read twice for one report once. Entries are keyed by the array's id() and hold
    the array, so no id is reused while the memo lives: make one per run and drop
    it with the run's reports. The columns must not change while it is in use.
    """

    def __init__(self) -> None:
        self._values: dict[tuple, tuple[Sequence[float], object]] = {}

    def _get(self, statistic, column: Sequence[float], *args):
        key = (statistic, id(column), *args)
        entry = self._values.get(key)
        if entry is None:
            entry = self._values[key] = (column, statistic(column, *args))
        return entry[1]

    def fsum(self, column: Sequence[float]) -> float:
        return self._get(math.fsum, column)

    def median(self, column: Sequence[float]) -> float:
        return self._get(statistics.median, column)

    def bucket_sums(self, column: Sequence[float], bucket: int) -> list[float]:
        """aggregate(column, bucket)."""
        return self._get(aggregate, column, bucket)


def emission_cost_eur(total_kg: float, price_eur_per_ton: float) -> float:
    """Cost of emissions at a carbon price; full precision, rounding is display-only."""
    return total_kg / 1000.0 * price_eur_per_ton


def summarize(report: SimulationReport,
              prices: Sequence[float] = DEFAULT_PRICES_EUR_PER_TON,
              stats: ColumnStats | None = None) -> SummaryRow:
    """Mean/median/total statistics over every horizon step, suspended steps included.

    `stats` is the run's column memo; without one, each statistic is computed here.
    """
    if report.horizon == 0 or len(report.power_w) == 0:
        raise ReportError("cannot summarize an empty report")
    if stats is None:
        stats = ColumnStats()
    power = report.power_w
    emission = report.emission_g
    n = len(power)
    power_total = stats.fsum(power)
    total_g = stats.fsum(emission)
    total_kg = total_g / 1000.0
    ordered_prices = sorted(prices)
    return SummaryRow(
        label=report.label,
        power_mean_w=power_total / n,
        power_median_w=stats.median(power),
        energy_kwh=power_total / WS_PER_KWH,
        emissions_mean_mg=total_g / n * 1000.0,
        emissions_median_mg=stats.median(emission) * 1000.0,
        emissions_total_kg=total_kg,
        costs_eur=tuple((p, emission_cost_eur(total_kg, p)) for p in ordered_prices),
        finished_tasks=report.finished_tasks,
    )


def aggregate(series: Sequence[float], bucket: int) -> list[float]:
    """Bucket a per-second series into sums; the last bucket may be partial."""
    if bucket <= 0:
        raise ReportError(f"bucket must be positive, got {bucket}")
    return [math.fsum(series[start:start + bucket]) for start in range(0, len(series), bucket)]


def trace_cv(report: SimulationReport) -> float:
    """Variability of the scenario's carbon intensity window (population CV)."""
    return coefficient_of_variation(report.trace_values)


def summary_csv(rows: Sequence[SummaryRow]) -> str:
    """Results-table-shaped CSV, one row per scenario."""
    if not rows:
        raise ReportError("no summary rows")
    prices = [p for p, _ in rows[0].costs_eur]
    header = (
        ["scenario", "power_mean_w", "power_median_w", "energy_kwh",
         "emissions_mean_mg", "emissions_median_mg", "emissions_total_kg"]
        + [f"cost_eur_{p:g}" for p in prices]
        + ["finished_tasks"]
    )
    lines = [",".join(header)]
    for row in rows:
        cells = [
            row.label,
            f"{row.power_mean_w:.2f}",
            f"{row.power_median_w:.2f}",
            f"{row.energy_kwh:.2f}",
            f"{row.emissions_mean_mg:.2f}",
            f"{row.emissions_median_mg:.2f}",
            f"{row.emissions_total_kg:.2f}",
        ]
        cells += [f"{cost:.2f}" for _, cost in row.costs_eur]
        cells.append(str(row.finished_tasks))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def csv_name(kind: str, label: str) -> str:
    """The file name of scenario `label`'s `kind` CSV, "steps" or "buckets"."""
    return f"{kind}_{label}.csv"


def steps_csv(report: SimulationReport) -> str:
    """Per-step CSV of a single scenario (one row per simulation second)."""
    # Node code -1 (suspended) indexes the trailing empty name.
    node_names = report.node_names + ("",)
    rows = zip(range(report.horizon), map(ACTION_NAMES.__getitem__, report.action),
               map(node_names.__getitem__, report.node_index), report.power_w,
               report.emission_g, report.allowance_g, report.completions, report.drops)
    lines = ["t,action,node,power_w,emission_g,allowance_g,completions,drops"]
    lines += ["%d,%s,%s,%.6f,%.9g,%.9g,%d,%d" % row for row in rows]
    return "\n".join(lines) + "\n"


def buckets_csv(report: SimulationReport, bucket: int = SIX_HOURS,
                stats: ColumnStats | None = None) -> str:
    """Plot-ready aggregates: summed completions/emissions and mean power per bucket.

    `stats` is the run's column memo; without one, each bucket sum is computed here.
    """
    if stats is None:
        stats = ColumnStats()
    completions = stats.bucket_sums(report.completions, bucket)
    emissions = stats.bucket_sums(report.emission_g, bucket)
    powers = stats.bucket_sums(report.power_w, bucket)
    n = len(report.power_w)
    lines = ["bucket_start_s,completions_sum,emission_sum_g,emission_mean_g,power_mean_w"]
    for i in range(len(completions)):
        start = i * bucket
        size = min(bucket, n - start)  # the last bucket may be partial
        lines.append(
            f"{start},{completions[i]:.0f},{emissions[i]:.9g},"
            f"{emissions[i] / size:.9g},{powers[i] / size:.6f}"
        )
    return "\n".join(lines) + "\n"
