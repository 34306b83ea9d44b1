"""Per-second MAPE-K simulation loop and the scenario/report data model."""

from __future__ import annotations

import math
from array import array
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from .budget import EmissionsBudget
from .carbon import WS_PER_KWH, CarbonIntensityTrace
from .cluster import PRESETS, NodeSpec, cluster_problems
from .policies import choose_option
from .workload import DiurnalTraceParams, TaskQueue, TaskTable, generate_diurnal_trace

# Action codes stored in SimulationReport.action; ACTION_NAMES[code] is the name.
_SCALE, _MIGRATE, _SUSPEND = 0, 1, 2
ACTION_NAMES = ("scale", "migrate", "suspend")

POLICY_KINDS = ("unlimited", "fixed", "greedy_budget")

# The per-step columns of a SimulationReport, one array each.
REPORT_COLUMNS = ("power_w", "emission_g", "allowance_g", "utilization", "queued_demand",
                  "completions", "drops", "action", "node_index")


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class PolicySpec:
    kind: str
    rate_g_per_s: float | None = None
    budget_total_g: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ScenarioError(f"unknown policy kind {self.kind!r}")
        if self.kind == "fixed" and (self.rate_g_per_s is None or not self.rate_g_per_s >= 0):
            raise ScenarioError("fixed policy needs rate_g_per_s >= 0")
        if self.kind == "greedy_budget" and (
                self.budget_total_g is None or not self.budget_total_g > 0):
            raise ScenarioError("greedy_budget policy needs budget_total_g > 0")


@dataclass
class ScenarioConfig:
    label: str
    trace: CarbonIntensityTrace
    horizon: int
    policy: PolicySpec
    cluster: tuple[NodeSpec, ...] = PRESETS["default"]
    initial_node: str = "medium"
    workload: DiurnalTraceParams | None = None
    seed: int = 0
    # Tasks to run, replayed or generated; read-only, so scenarios may share one.
    # None: run_scenario generates them from `workload`.
    tasks: TaskTable | None = None

    def validate(self) -> list[str]:
        problems = []
        if self.horizon <= 0:
            problems.append("horizon must be positive")
        elif self.horizon > self.trace.span:
            problems.append(f"horizon {self.horizon}s exceeds trace span {self.trace.span}s")
        problems += cluster_problems(self.cluster, self.initial_node)
        if self.tasks is not None:
            if not isinstance(self.tasks, TaskTable):
                problems.append("tasks must be a TaskTable")
        elif self.workload is None:
            problems.append("needs either a workload or a replay task list")
        return [f"{self.label}: {problem}" for problem in problems]


@dataclass
class SimulationReport:
    """Per-step series plus scenario metadata; read-only once produced.

    Reports from one run_matrix call may hold the same array object for a
    column whose contents are byte-identical, so callers must not write to them.
    Reporting relies on that too: within one run it computes each statistic once
    per distinct column array (see reporting.ColumnStats), keyed by the array's
    identity, so a column written to after it was read would report stale values.
    """

    label: str
    horizon: int
    node_names: tuple[str, ...]
    trace_values: tuple[float, ...]
    power_w: array
    emission_g: array
    allowance_g: array
    utilization: array
    queued_demand: array
    completions: array
    drops: array
    action: array
    node_index: array
    finished_tasks: int
    dropped_tasks: int
    admitted_tasks: int
    pending_tasks: int
    budget_spent_g: float | None


def run_scenario(config: ScenarioConfig) -> SimulationReport:
    """Execute the per-second control loop for one scenario.

    Step order is fixed: drop expired tasks, admit arrivals, monitor/analyze,
    plan, execute (allocate CU, account power and emissions). Changing the
    order changes results, so it is part of the external contract.
    """
    problems = config.validate()
    if problems:
        raise ScenarioError("; ".join(problems))

    tasks = config.tasks
    if tasks is None:
        tasks = generate_diurnal_trace(config.workload, config.horizon, config.seed)

    specs = tuple(config.cluster)
    names = tuple(s.name for s in specs)
    cur_idx: int | None = names.index(config.initial_node)

    policy = config.policy
    horizon = config.horizon
    budget = None
    if policy.kind == "greedy_budget":
        budget = EmissionsBudget(policy.budget_total_g, float(horizon))
    # Each policy is a per-second allowance in grams; the budget's changes every step.
    fixed_allowance = policy.rate_g_per_s if policy.kind == "fixed" else math.inf

    # A cap at or above every node's peak lets each node run at full utilization,
    # exactly as no cap does, so such caps plan as inf and share its decisions.
    cap_free = max(spec.peak_power for spec in specs)

    trace_values = config.trace.values
    trace_step = config.trace.step

    queue = TaskQueue(tasks, horizon)
    admit = queue.admit
    allocate = queue.step_allocation
    drop = queue.drop_expired

    # Columns start zeroed (action _SCALE); each step writes only the entries it
    # changes. The queue writes its own three, queued_demand, completions and
    # drops, which a later queue may answer from; the report keeps them.
    power_col = array("d", [0.0]) * horizon
    emission_col = array("d", [0.0]) * horizon
    allowance_col = array("d", [0.0]) * horizon
    util_col = array("d", [0.0]) * horizon
    action_col = array("b", [0]) * horizon
    node_col = array("b", [0]) * horizon

    inf = math.inf
    arrivals = tasks.arrival
    ntasks = len(arrivals)
    ai = 0
    ci_ws = 0.0
    # The plan phase is a pure function of (node, demand, cap): while the cap is
    # unchanged, each distinct (cur_idx, demand) is planned once.
    plans: dict[tuple[int | None, float], tuple[int | None, float]] = {}
    plans_cap: float | None = None

    for t in range(horizon):
        if t % trace_step == 0:
            ci_ws = trace_values[t // trace_step] / WS_PER_KWH

        drop(t)
        start = ai
        while ai < ntasks and arrivals[ai] <= t:
            ai += 1
        if ai > start:
            admit(range(start, ai))

        demand = queue.pending_demand
        allowance = budget.greedy_allowance(t) if budget is not None else fixed_allowance
        cap = allowance / ci_ws if ci_ws > 0.0 else inf
        if cap >= cap_free:
            cap = inf
        if cap != plans_cap:
            plans = {}
            plans_cap = cap
        key = (cur_idx, demand)
        plan = plans.get(key)
        if plan is None:
            plan = plans[key] = choose_option(specs, cur_idx, demand, cap)
        idx, planned_u = plan

        if idx is None:
            cur_idx = None
            action_col[t] = _SUSPEND
            node_col[t] = -1
            allocate(0.0, t)  # grants nothing: one allocation input every step
        else:
            if idx != cur_idx:
                action_col[t] = _MIGRATE
                cur_idx = idx
            spec = specs[idx]
            capacity = spec.capacity
            used, _ = allocate(planned_u * capacity, t)
            util = used / capacity
            power = spec.idle_power + (spec.peak_power - spec.idle_power) * util
            emission = power * ci_ws
            if budget is not None:
                budget.record_emission(emission)
            power_col[t] = power
            emission_col[t] = emission
            util_col[t] = util
            node_col[t] = idx

        allowance_col[t] = allowance

    return SimulationReport(
        label=config.label,
        horizon=horizon,
        node_names=names,
        trace_values=trace_values[: (horizon + trace_step - 1) // trace_step],
        power_w=power_col,
        emission_g=emission_col,
        allowance_g=allowance_col,
        utilization=util_col,
        queued_demand=queue.queued_demand,
        completions=queue.completions,
        drops=queue.drops,
        action=action_col,
        node_index=node_col,
        finished_tasks=queue.finished_count,
        dropped_tasks=queue.dropped_count,
        admitted_tasks=ai,
        pending_tasks=queue.pending_count,
        budget_spent_g=budget.spent if budget is not None else None,
    )


def run_matrix(configs: list[ScenarioConfig], workers: int = 1) -> list[SimulationReport]:
    """Run scenarios independently; output order matches input order.

    Each distinct generated workload (parameters, horizon, seed) is generated
    once and its task table handed to every scenario that uses it. Run
    serially, scenarios that share a table reuse each other's queue runs
    (see TaskQueue); no record of them outlives the call. Each report
    column byte-identical to an earlier report's is replaced by that array, so
    the grid keeps one copy of each distinct column. No config runs unless all
    are valid: one ScenarioError lists every problem.
    """
    if not configs:
        raise ScenarioError("scenario matrix is empty")
    problems = [problem for config in configs for problem in config.validate()]
    if problems:
        raise ScenarioError("; ".join(problems))
    configs = _with_generated_tasks(configs)
    seen: dict[tuple[str, int], array] = {}
    if workers > 1 and len(configs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return [_share_columns(r, seen) for r in pool.map(_run_labelled, configs)]
    # A table that two or more scenarios share records their queue runs, so a
    # later scenario reuses an earlier one's queue work while its inputs agree.
    users = Counter(id(c.tasks) for c in configs)
    shared = {id(c.tasks): c.tasks for c in configs if users[id(c.tasks)] > 1}.values()
    for table in shared:
        table.queue_runs = []
    reports = []
    try:
        for config in configs:
            table = config.tasks
            users[id(table)] -= 1
            if not users[id(table)] and table.queue_runs is not None:
                # No later scenario reads a record: the last one follows, records nothing.
                table.queue_runs = tuple(table.queue_runs)
            reports.append(_share_columns(_run_labelled(config), seen))
        return reports
    finally:
        for table in shared:
            table.queue_runs = None


def _share_columns(report: SimulationReport,
                   seen: dict[tuple[str, int], array]) -> SimulationReport:
    """Point each column of `report` at the byte-identical array `seen` already holds.

    `seen` maps (typecode, hash of the bytes) to the first column with that key. A hit
    counts only when the bytes match, so 0.0 and -0.0, or NaNs with different payloads,
    never merge.
    """
    for name in REPORT_COLUMNS:
        col = getattr(report, name)
        data = col.tobytes()
        earlier = seen.setdefault((col.typecode, hash(data)), col)
        if earlier is not col and earlier.tobytes() == data:
            setattr(report, name, earlier)
    return report


def _with_generated_tasks(configs: list[ScenarioConfig]) -> list[ScenarioConfig]:
    """Copies of `configs` in which every generated workload is already a task table."""
    generated: dict[tuple[DiurnalTraceParams, int, int], TaskTable] = {}
    out = []
    for config in configs:
        if config.tasks is None:
            key = (config.workload, config.horizon, config.seed)
            if key not in generated:
                try:
                    generated[key] = generate_diurnal_trace(*key)
                except Exception as exc:
                    raise ScenarioError(f"scenario {config.label!r} failed: {exc}") from exc
            config = replace(config, tasks=generated[key])
        out.append(config)
    return out


def _run_labelled(config: ScenarioConfig) -> SimulationReport:
    try:
        return run_scenario(config)
    except Exception as exc:
        raise ScenarioError(f"scenario {config.label!r} failed: {exc}") from exc
