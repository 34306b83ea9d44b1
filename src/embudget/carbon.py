"""Grid carbon intensity traces: CSV ingestion, lookups, unit conversion, variability."""

from __future__ import annotations

import csv
import io
import math
import statistics
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Sequence

# One kWh is 3.6e6 watt-seconds; dividing g/kWh by this yields g/Ws.
WS_PER_KWH = 3_600_000.0


class TraceError(ValueError):
    """Base class for trace ingestion/lookup problems."""


class TraceSchemaError(TraceError):
    """Required column missing or a cell is unparseable."""


class TraceGapError(TraceError):
    """Timestamps are non-monotonic or not evenly spaced."""


class TraceRangeError(TraceError):
    """Lookup or window outside the trace's covered interval."""


@dataclass(frozen=True)
class ColumnMap:
    """Names of the timestamp and intensity columns in a source CSV."""

    timestamp: str = "timestamp"
    intensity: str = "intensity"


@dataclass(frozen=True)
class CarbonIntensityTrace:
    """Time-indexed carbon intensity series in g CO2eq/kWh, fixed step, zero-order hold."""

    zone_label: str
    start_epoch: int
    step: int
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise TraceError("trace needs at least one value")
        if self.step <= 0:
            raise TraceError(f"step must be positive, got {self.step}")
        for v in self.values:
            if not (math.isfinite(v) and v >= 0):
                raise TraceError(f"carbon intensity must be finite and >= 0, got {v}")

    @property
    def span(self) -> int:
        """Covered duration in seconds."""
        return self.step * len(self.values)

    @property
    def end_epoch(self) -> int:
        return self.start_epoch + self.span

    def intensity_at(self, t: float) -> float:
        """Intensity (g/kWh) at `t` seconds since trace start, held constant per bucket."""
        if t < 0 or t >= self.span:
            raise TraceRangeError(f"t={t} outside [0, {self.span})")
        return self.values[int(t // self.step)]

    def slice_window(self, start_epoch: int, end_epoch: int) -> "CarbonIntensityTrace":
        """Sub-trace covering exactly [start_epoch, end_epoch), bit-exact values."""
        if end_epoch <= start_epoch:
            raise TraceRangeError("window is empty or reversed")
        if (start_epoch - self.start_epoch) % self.step or (end_epoch - self.start_epoch) % self.step:
            raise TraceRangeError("window not aligned to trace step")
        if start_epoch < self.start_epoch or end_epoch > self.end_epoch:
            raise TraceRangeError(
                f"window [{start_epoch}, {end_epoch}) outside trace "
                f"[{self.start_epoch}, {self.end_epoch})"
            )
        lo = (start_epoch - self.start_epoch) // self.step
        hi = (end_epoch - self.start_epoch) // self.step
        return CarbonIntensityTrace(self.zone_label, start_epoch, self.step, self.values[lo:hi])


def _parse_timestamp(raw: str) -> int:
    """ISO-8601 timestamp to UTC epoch seconds; naive timestamps are taken as UTC."""
    text = raw.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(text)
    except ValueError as exc:
        raise TraceSchemaError(f"bad timestamp {raw!r}") from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def parse_trace(csv_text: str, column_map: ColumnMap | None = None) -> CarbonIntensityTrace:
    """Parse an hourly-style CSV export into a trace with an empty zone label.

    Rows are sorted by timestamp; the step is inferred from the first two rows and
    every subsequent gap must match it (no silent filling).
    """
    cmap = column_map or ColumnMap()
    reader = csv.DictReader(io.StringIO(csv_text))
    rows: list[tuple[int, float]] = []
    try:
        if reader.fieldnames is None:
            raise TraceSchemaError("CSV has no header row")
        for col in (cmap.timestamp, cmap.intensity):
            if col not in reader.fieldnames:
                raise TraceSchemaError(f"missing column {col!r} (have {reader.fieldnames})")

        for row in reader:
            lineno = reader.line_num
            raw_ts, raw_ci = row[cmap.timestamp], row[cmap.intensity]
            if raw_ts is None or raw_ci is None:
                raise TraceSchemaError(f"line {lineno}: fewer cells than the header")
            try:
                ts = _parse_timestamp(raw_ts)
                ci = float(raw_ci)
            except TraceSchemaError as exc:
                raise TraceSchemaError(f"line {lineno}: {exc}") from exc
            except ValueError as exc:
                raise TraceSchemaError(f"line {lineno}: bad intensity {raw_ci!r}") from exc
            if not (math.isfinite(ci) and ci >= 0):
                raise TraceError(f"line {lineno}: intensity must be finite and >= 0, got {ci}")
            rows.append((ts, ci))
    except csv.Error as exc:  # e.g. a cell longer than csv.field_size_limit()
        # DictReader.line_num counts the rows it returned; its csv reader's counts this one.
        raise TraceSchemaError(f"line {reader.reader.line_num}: {exc}") from exc
    if not rows:
        raise TraceError("CSV contains no data rows")
    rows.sort(key=lambda r: r[0])

    if len(rows) == 1:
        step = 3600
    else:
        step = rows[1][0] - rows[0][0]
        if step <= 0:
            raise TraceGapError("duplicate or non-monotonic timestamps")
        for (a, _), (b, _) in zip(rows, rows[1:]):
            if b - a != step:
                raise TraceGapError(f"gap between {a} and {b}, expected step {step}")

    return CarbonIntensityTrace(
        zone_label="",
        start_epoch=rows[0][0],
        step=step,
        values=tuple(ci for _, ci in rows),
    )


def coefficient_of_variation(values: Sequence[float]) -> float:
    """Population standard deviation divided by the arithmetic mean."""
    if not values:
        raise ValueError("CV of empty series")
    mean = statistics.fmean(values)
    if mean == 0:
        raise ValueError("CV undefined for zero mean")
    return statistics.pstdev(values) / mean
