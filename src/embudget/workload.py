"""Synthetic diurnal task traces and the FIFO task queue with deadline expiry."""

from __future__ import annotations

import csv
import heapq
import io
import math
import random
from array import array
from collections import deque
from dataclasses import dataclass

_COMPLETION_EPS = 1e-9

SECONDS_PER_DAY = 86400

# Header of a task CSV, in the order export_tasks_csv writes it.
TASK_CSV_COLUMNS = ("id", "arrival", "cu", "runtime", "deadline")


class WorkloadError(ValueError):
    pass


def _check_row(tid, arrival, cu, runtime, deadline) -> None:
    """The row rule: finite positive demand and runtime, deadline after arrival."""
    if not (0 < cu < math.inf and 0 < runtime < math.inf):
        raise WorkloadError(f"task {tid}: demand and runtime must be positive and finite")
    if not deadline > arrival:
        raise WorkloadError(f"task {tid}: deadline must be after arrival")


class TaskTable:
    """A task list as read-only columns, in TASK_CSV_COLUMNS order, checked when made.

    Each row passes the row rule; rows are in (arrival, id) order, the order in
    which same-second arrivals are admitted, and each id appears once.

    `queue_runs` is None, except while a serial run_matrix shares the table
    among scenarios: then it lists the table's recorded queue runs, the first
    and the latest, both of the first's horizon (see TaskQueue). For the last
    scenario over the table it is a tuple: that queue follows the recorded
    runs but records nothing, since no later queue could read the record.
    """

    __slots__ = TASK_CSV_COLUMNS + ("queue_runs",)

    def __init__(self, rows) -> None:
        columns = ([], [], [], [], [])
        add_id, add_arrival, add_cu, add_runtime, add_deadline = (c.append for c in columns)
        seen: set[int] = set()
        last_arrival, last_id = -math.inf, 0
        for tid, arrival, cu, runtime, deadline in rows:
            _check_row(tid, arrival, cu, runtime, deadline)
            # (arrival, tid) < (last_arrival, last_id), without building the tuples.
            late = arrival <= last_arrival and (arrival < last_arrival or tid < last_id)
            if late or tid in seen:
                problems = [f"task {tid} arrives out of order"] if late else []
                if tid in seen:
                    problems.append(f"duplicate task id {tid}")
                raise WorkloadError("; ".join(problems))
            seen.add(tid)
            last_arrival, last_id = arrival, tid
            add_id(tid)
            add_arrival(arrival)
            add_cu(cu)
            add_runtime(runtime)
            add_deadline(deadline)
        self.id, self.arrival, self.cu, self.runtime, self.deadline = map(tuple, columns)
        self.queue_runs: list[TaskQueue] | tuple[TaskQueue, ...] | None = None

    def __len__(self) -> int:
        return len(self.id)

    def __iter__(self):
        return zip(self.id, self.arrival, self.cu, self.runtime, self.deadline)


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
        # An infinite rate would keep the generator emitting tasks forever; nan would emit none.
        if not all(0 <= r < math.inf for r in (self.base_rate, *self.peak_amplitudes)):
            raise WorkloadError("rates must be finite and >= 0")
        if any(not 0 <= p < SECONDS_PER_DAY for p in self.peak_times):
            raise WorkloadError("peak times must lie within one day")
        if not self.peak_width > 0:
            raise WorkloadError("peak width must be positive")
        # Every generated task must pass the row rule: finite positive demand and
        # runtime, deadline after arrival.
        if not (0 < self.task_cu < math.inf and 0 < self.task_runtime < math.inf):
            raise WorkloadError("task CU and runtime must be positive and finite")
        if not self.deadline_slack >= 0:
            raise WorkloadError("deadline slack must be >= 0")
        if not (0 <= self.cu_jitter < 1 and 0 <= self.runtime_jitter < 1):
            raise WorkloadError("cu and runtime jitter must lie in [0, 1)")
        # A jittered size lies between size * (1 - jitter) and size * (1 + jitter);
        # float rounding is monotone, so checking both ends checks every task.
        for size, jitter in ((self.task_cu, self.cu_jitter),
                             (self.task_runtime, self.runtime_jitter)):
            if not (0 < size * (1 - jitter) and size * (1 + jitter) < math.inf):
                raise WorkloadError("jittered task CU and runtime must be positive and finite")

    def deadlines_after_arrival(self, horizon: int) -> bool:
        """Whether every task generated over `horizon` seconds gets a deadline after its arrival.

        The generator computes a deadline as t + runtime + slack, which for a large
        arrival second t can round to t. That sum at the last second, with the
        smallest runtime the jitter allows, bounds every task: float spacing only
        grows with t, and below 2**52 each whole second is an even multiple of it,
        so rounding ties go down.
        """
        t = horizon - 1
        return t + self.task_runtime * (1.0 + -self.runtime_jitter) + self.deadline_slack > t

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


def generate_diurnal_trace(params: DiurnalTraceParams, horizon: int, seed: int) -> TaskTable:
    """Deterministic arrival realization: emit a task whenever the integrated rate crosses an integer.

    The seed only affects the optional per-task cu/runtime jitter; arrival times are
    identical across seeds so policies can be compared on the same rate curve.
    """
    if horizon <= 0:
        raise WorkloadError("horizon must be positive")
    return TaskTable(_diurnal_rows(params, horizon, random.Random(seed)))


def _diurnal_rows(params: DiurnalTraceParams, horizon: int, rng: random.Random):
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
            yield next_id, t, cu, runtime, t + runtime + params.deadline_slack
            next_id += 1


class TaskQueue:
    """FIFO queue over one TaskTable, with accumulated-work progress and deadline-based drops.

    The queue keeps each admitted task's progress in its own entry,
    [work_done, live, cu, total_work], and never writes to the table, so
    scenarios can share one table. The FIFO deque and the deadline heap hold
    the same entries; `live` is False once the task has finished or been
    dropped. The queue's only account of its tasks is its record of the run,
    three per-step columns for `horizon` steps that the step loop's report
    keeps: queued_demand (the demand step_allocation is called with, after the
    step's admissions), completions and drops.

    The step loop calls drop_expired, admit and step_allocation once a step,
    in that order; a suspended step allocates 0 CU. While the table lists
    recorded runs (`table.queue_runs`), the queue also logs each step's
    allocation input and used CU. The first queue over the table runs live
    and is its first recorded run. A later queue of that run's horizon follows
    it: while its allocation inputs equal the recorded ones, so do its state
    and its record, so its three columns are the run's own arrays and the
    three public methods answer from them in O(1), writing nothing but
    pending_demand. Where it leaves the first run, it follows the table's
    latest run if that run's inputs agree with the first's up to there.
    Otherwise it takes columns of its own, rebuilds its live state by
    replaying the followed run's inputs through the live code, continues
    live, and becomes the table's latest run. A queue over a tuple of runs
    (the table's last user) follows them the same way but never records; a
    queue of another horizon runs live and records nothing.
    """

    def __init__(self, table: TaskTable, horizon: int) -> None:
        self._table = table
        self._pending: deque[list] = deque()
        self._deadline_heap: list[tuple[float, int, list]] = []
        self.pending_demand = 0.0  # sum of cu over live pending tasks
        self._horizon = horizon
        # Step t's allocation input and used CU, while recording.
        self._inputs: array | None = None
        self._used: array | None = None
        # The recorded run answered from; None once live.
        self._follow: TaskQueue | None = None
        runs = table.queue_runs
        if runs and runs[0]._horizon == horizon:
            self._share(runs[0])
            return
        self._own_columns()
        if runs == []:  # the table's first queue
            self._record()
            runs.append(self)

    def admit(self, positions: range) -> None:
        """Append the tasks at `positions` of the table, in order."""
        if self._follow is not None:
            return
        table = self._table
        for i in positions:
            cu = table.cu[i]
            entry = [0.0, True, cu, cu * table.runtime[i]]
            self._pending.append(entry)
            heapq.heappush(self._deadline_heap, (table.deadline[i], table.id[i], entry))
            self.pending_demand += cu

    def step_allocation(self, available_cu: float, now: int) -> tuple[float, int]:
        """Grant each pending task up to its cu, FIFO, for one 1 s step.

        Returns (used_cu, completions). `available_cu` must be >= 0.
        """
        run = self._follow
        if run is not None:
            # 0.0 == -0.0 here, and either input allocates nothing.
            if available_cu == run._inputs[now]:
                return run._used[now], run.completions[now]
            self._leave(now)
            return self._allocate(available_cu, now)
        demand = self.pending_demand
        self.queued_demand[now] = demand
        used = 0.0
        completions = 0
        remaining = available_cu
        for entry in self._pending:
            if remaining <= 1e-12:
                break
            if not entry[1]:
                continue
            grant = cu = entry[2]
            if grant > remaining:
                grant = remaining
            total = entry[3]
            done = entry[0]
            need = total - done
            if grant > need:
                grant = need
            done += grant
            used += grant
            remaining -= grant
            if total - done <= _COMPLETION_EPS:
                entry[0] = total
                entry[1] = False
                completions += 1
                demand -= cu
            else:
                entry[0] = done
        if completions:
            self.completions[now] = completions
            pending = self._pending
            while pending and not pending[0][1]:
                pending.popleft()
            self.pending_demand = demand if pending else 0.0
        inputs = self._inputs
        if inputs is not None:
            inputs[now] = available_cu
            self._used[now] = used
        return used, completions

    def drop_expired(self, now: int) -> int:
        """Remove every pending task whose deadline lies strictly before `now`.

        While following, pending_demand reads the demand after this step's
        admissions from this call on.
        """
        run = self._follow
        if run is not None:
            self.pending_demand = run.queued_demand[now]
            return run.drops[now]
        dropped = 0
        heap = self._deadline_heap
        while heap and heap[0][0] < now:
            entry = heapq.heappop(heap)[2]
            if not entry[1]:
                continue
            entry[1] = False
            dropped += 1
            self.pending_demand -= entry[2]
        if dropped:
            self.drops[now] = dropped
            pending = self._pending
            while pending and not pending[0][1]:
                pending.popleft()
            if not pending:
                self.pending_demand = 0.0
        return dropped

    # The live code under private names: a rebuild replays through these, so a
    # wrapper around a public name sees only the step loop's calls.
    _admit = admit
    _allocate = step_allocation
    _drop = drop_expired

    def _record(self) -> None:
        self._inputs = array("d", [0.0]) * self._horizon
        self._used = array("d", [0.0]) * self._horizon

    def _own_columns(self) -> None:
        self.queued_demand = array("d", [0.0]) * self._horizon
        self.completions = array("l", [0]) * self._horizon
        self.drops = array("l", [0]) * self._horizon

    def _share(self, run: TaskQueue) -> None:
        """Follow `run`, holding its three columns as this queue's own.

        A run's record up to a step is that of any run whose inputs agree with
        it up to there.
        """
        self._follow = run
        self.queued_demand, self.completions, self.drops = (
            run.queued_demand, run.completions, run.drops)

    def _leave(self, step: int) -> None:
        """Stop following the run followed so far at `step`, its first differing input.

        The caller then repeats its call. A queue leaving the table's first
        run follows the table's latest run next, if that is another run whose
        inputs before `step` equal the first run's. Otherwise the queue takes
        columns of its own, replays steps 0 to `step` through the live code,
        allocating the followed run's inputs before `step`, and runs live; it
        records and becomes the latest run unless the table's runs are closed
        to new records (a tuple).
        """
        run = self._follow
        runs = self._table.queue_runs
        latest = runs[-1]
        # A follower follows the first run or the latest, so `latest is not run`
        # holds exactly when it leaves the first run for another one.
        if latest is not run and latest._inputs[:step] == run._inputs[:step]:
            self._share(latest)
            return
        self._follow = None
        self.pending_demand = 0.0
        self._own_columns()
        recording = isinstance(runs, list)
        if recording:
            self._record()
        inputs = run._inputs
        arrivals = self._table.arrival
        count = len(arrivals)
        i = 0
        for t in range(step + 1):
            self._drop(t)
            start = i
            while i < count and arrivals[i] <= t:
                i += 1
            if i > start:
                self._admit(range(start, i))
            if t < step:
                self._allocate(inputs[t], t)
        if recording:
            runs[1:] = [self]


def export_tasks_csv(tasks: TaskTable) -> str:
    """Serialize a task trace so identical workloads can be replayed elsewhere."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(TASK_CSV_COLUMNS)
    writer.writerows(tasks)
    return out.getvalue()


def import_tasks_csv(csv_text: str) -> TaskTable:
    """The task table of a task CSV, its rows sorted by (arrival, id).

    WorkloadError names a malformed line, or a task id that appears twice.
    """
    reader = csv.reader(io.StringIO(csv_text))
    rows = []
    append = rows.append
    try:
        header = next(reader, [])
        missing = [name for name in TASK_CSV_COLUMNS if name not in header]
        if not missing:
            i_id, i_arrival, i_cu, i_runtime, i_deadline = map(header.index, TASK_CSV_COLUMNS)
            for line in reader:
                if not line:
                    continue
                row = (int(line[i_id]), int(float(line[i_arrival])), float(line[i_cu]),
                       float(line[i_runtime]), float(line[i_deadline]))
                _check_row(*row)
                append(row)
    except IndexError:
        raise WorkloadError(f"line {reader.line_num}: too few fields") from None
    except (ValueError, OverflowError, csv.Error) as exc:
        raise WorkloadError(f"line {reader.line_num}: {exc}") from exc
    if missing:
        raise WorkloadError(f"task CSV needs columns {list(TASK_CSV_COLUMNS)}, missing {missing}")
    rows.sort(key=lambda row: (row[1], row[0]))
    return TaskTable(rows)
