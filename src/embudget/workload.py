"""Synthetic diurnal task traces and the FIFO task queue with deadline expiry."""

from __future__ import annotations

import csv
import heapq
import io
import math
import random
from collections import deque
from dataclasses import dataclass

PENDING = 0
FINISHED = 1
DROPPED = 2

_COMPLETION_EPS = 1e-9

SECONDS_PER_DAY = 86400


class WorkloadError(ValueError):
    pass


@dataclass(slots=True)
class Task:
    """Unit of work needing cu_demand CU for nominal_runtime seconds before its deadline."""

    id: int
    arrival: int
    cu_demand: float
    nominal_runtime: float
    deadline: float
    total_work: float = 0.0  # CU-seconds, fixed at creation
    work_done: float = 0.0
    state: int = PENDING

    def __post_init__(self) -> None:
        if self.cu_demand <= 0 or self.nominal_runtime <= 0:
            raise WorkloadError(f"task {self.id}: demand and runtime must be positive")
        if self.deadline <= self.arrival:
            raise WorkloadError(f"task {self.id}: deadline must be after arrival")
        if self.total_work == 0.0:
            self.total_work = self.cu_demand * self.nominal_runtime


@dataclass(frozen=True)
class DiurnalTraceParams:
    """Arrival-rate curve: a base rate plus two Gaussian peaks per day (circular in time-of-day)."""

    base_rate: float            # tasks/second
    peak_amplitudes: tuple[float, float]
    peak_times: tuple[float, float]  # seconds of day
    peak_width: float           # Gaussian sigma, seconds
    task_cu: float
    task_runtime: float
    deadline_slack: float
    cu_jitter: float = 0.0      # fractional, sampled uniformly per task when > 0
    runtime_jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.base_rate < 0 or any(a < 0 for a in self.peak_amplitudes):
            raise WorkloadError("rates must be >= 0")
        if any(not 0 <= p < SECONDS_PER_DAY for p in self.peak_times):
            raise WorkloadError("peak times must lie within one day")
        if self.peak_width <= 0:
            raise WorkloadError("peak width must be positive")
        # Every generated task must be a valid Task: positive demand and runtime,
        # deadline after arrival.
        if self.task_cu <= 0 or self.task_runtime <= 0:
            raise WorkloadError("task CU and runtime must be positive")
        if self.deadline_slack < 0:
            raise WorkloadError("deadline slack must be >= 0")
        if not (0 <= self.cu_jitter < 1 and 0 <= self.runtime_jitter < 1):
            raise WorkloadError("cu and runtime jitter must lie in [0, 1)")

    def rate_at(self, t: float) -> float:
        """Arrival rate lambda(t) in tasks/second."""
        tod = t % SECONDS_PER_DAY
        rate = self.base_rate
        two_sigma_sq = 2.0 * self.peak_width * self.peak_width
        for amp, center in zip(self.peak_amplitudes, self.peak_times):
            if amp == 0.0:
                continue
            delta = abs(tod - center)
            if delta > SECONDS_PER_DAY / 2:
                delta = SECONDS_PER_DAY - delta
            rate += amp * math.exp(-(delta * delta) / two_sigma_sq)
        return rate


def generate_diurnal_trace(params: DiurnalTraceParams, horizon: int, seed: int) -> list[Task]:
    """Deterministic arrival realization: emit a task whenever the integrated rate crosses an integer.

    The seed only affects the optional per-task cu/runtime jitter; arrival times are
    identical across seeds so policies can be compared on the same rate curve.
    """
    if horizon <= 0:
        raise WorkloadError("horizon must be positive")
    rng = random.Random(seed)
    tasks: list[Task] = []
    acc = 0.0
    next_id = 0
    for t in range(horizon):
        acc += params.rate_at(t)
        while acc >= 1.0:
            acc -= 1.0
            cu = params.task_cu
            runtime = params.task_runtime
            if params.cu_jitter > 0:
                cu *= 1.0 + rng.uniform(-params.cu_jitter, params.cu_jitter)
            if params.runtime_jitter > 0:
                runtime *= 1.0 + rng.uniform(-params.runtime_jitter, params.runtime_jitter)
            tasks.append(Task(
                id=next_id,
                arrival=t,
                cu_demand=cu,
                nominal_runtime=runtime,
                deadline=t + runtime + params.deadline_slack,
            ))
            next_id += 1
    return tasks


class TaskQueue:
    """FIFO queue with accumulated-work progress and deadline-based drops."""

    def __init__(self) -> None:
        self._pending: deque[Task] = deque()
        self._deadline_heap: list[tuple[float, int, Task]] = []
        self._seen_ids: set[int] = set()
        self._last_arrival = -math.inf
        self.pending_count = 0
        self.pending_demand = 0.0  # sum of cu_demand over live pending tasks
        self.finished_count = 0
        self.dropped_count = 0
        self.admitted_count = 0

    def __len__(self) -> int:
        return self.pending_count

    def pending_tasks(self) -> list[Task]:
        return [t for t in self._pending if t.state == PENDING]

    def admit(self, tasks: list[Task]) -> None:
        """Append arrivals in order; arrivals must be sorted and ids unique."""
        for task in tasks:
            if task.arrival < self._last_arrival:
                raise WorkloadError(f"task {task.id} arrives out of order")
            if task.id in self._seen_ids:
                raise WorkloadError(f"duplicate task id {task.id}")
            self._seen_ids.add(task.id)
            self._last_arrival = task.arrival
            self._pending.append(task)
            heapq.heappush(self._deadline_heap, (task.deadline, task.id, task))
            self.pending_count += 1
            self.pending_demand += task.cu_demand
            self.admitted_count += 1

    def step_allocation(self, available_cu: float, now: float) -> tuple[float, int]:
        """Grant up to cu_demand CU per pending task, FIFO, for one 1 s step.

        Returns (used_cu, completions).
        """
        if available_cu < 0:
            raise WorkloadError("available CU must be >= 0")
        used = 0.0
        completions = 0
        remaining = available_cu
        for task in self._pending:
            if remaining <= 1e-12:
                break
            if task.state != PENDING:
                continue
            grant = task.cu_demand
            if grant > remaining:
                grant = remaining
            need = task.total_work - task.work_done
            if grant > need:
                grant = need
            task.work_done += grant
            used += grant
            remaining -= grant
            if task.total_work - task.work_done <= _COMPLETION_EPS:
                task.work_done = task.total_work
                task.state = FINISHED
                completions += 1
                self.finished_count += 1
                self.pending_count -= 1
                self.pending_demand -= task.cu_demand
        pending = self._pending
        while pending and pending[0].state != PENDING:
            pending.popleft()
        if self.pending_count == 0:
            self.pending_demand = 0.0
        return used, completions

    def drop_expired(self, now: float) -> int:
        """Remove every pending task whose deadline lies strictly before `now`."""
        dropped = 0
        heap = self._deadline_heap
        while heap and heap[0][0] < now:
            _, _, task = heapq.heappop(heap)
            if task.state != PENDING:
                continue
            task.state = DROPPED
            dropped += 1
            self.dropped_count += 1
            self.pending_count -= 1
            self.pending_demand -= task.cu_demand
        if dropped:
            pending = self._pending
            while pending and pending[0].state != PENDING:
                pending.popleft()
            if self.pending_count == 0:
                self.pending_demand = 0.0
        return dropped


def export_tasks_csv(tasks: list[Task]) -> str:
    """Serialize a task trace so identical workloads can be replayed elsewhere."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["id", "arrival", "cu", "runtime", "deadline"])
    for t in tasks:
        writer.writerow([t.id, t.arrival, t.cu_demand, t.nominal_runtime, t.deadline])
    return out.getvalue()


def import_tasks_csv(csv_text: str) -> list[Task]:
    reader = csv.DictReader(io.StringIO(csv_text))
    required = {"id", "arrival", "cu", "runtime", "deadline"}
    if reader.fieldnames is None or not required.issubset(reader.fieldnames):
        raise WorkloadError(f"task CSV needs columns {sorted(required)}")
    tasks = []
    for row in reader:
        tasks.append(Task(
            id=int(row["id"]),
            arrival=int(float(row["arrival"])),
            cu_demand=float(row["cu"]),
            nominal_runtime=float(row["runtime"]),
            deadline=float(row["deadline"]),
        ))
    tasks.sort(key=lambda t: (t.arrival, t.id))
    return tasks
