"""Per-second MAPE-K simulation loop and the scenario/report data model."""

from __future__ import annotations

import math
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .budget import EmissionsBudget
from .carbon import WS_PER_KWH, CarbonIntensityTrace
from .cluster import PRESETS, NodeSpec
from .policies import choose_option
from .workload import DiurnalTraceParams, Task, TaskQueue, generate_diurnal_trace

# Action codes stored in SimulationReport.action; ACTION_NAMES[code] is the name.
_SCALE, _MIGRATE, _SUSPEND = 0, 1, 2
ACTION_NAMES = ("scale", "migrate", "suspend")

POLICY_KINDS = ("unlimited", "fixed", "greedy_budget")


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
        if self.kind == "fixed" and (self.rate_g_per_s is None or self.rate_g_per_s < 0):
            raise ScenarioError("fixed policy needs rate_g_per_s >= 0")
        if self.kind == "greedy_budget" and (self.budget_total_g is None or self.budget_total_g <= 0):
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
    tasks: list[Task] | None = None  # replay trace; overrides workload generation

    def validate(self) -> list[str]:
        problems = []
        if self.horizon <= 0:
            problems.append(f"{self.label}: horizon must be positive")
        elif self.horizon > self.trace.span:
            problems.append(
                f"{self.label}: horizon {self.horizon}s exceeds trace span {self.trace.span}s"
            )
        names = [s.name for s in self.cluster]
        if len(set(names)) != len(names):
            problems.append(f"{self.label}: duplicate node names in cluster")
        if self.initial_node not in names:
            problems.append(f"{self.label}: initial node {self.initial_node!r} not in cluster")
        if self.tasks is None and self.workload is None:
            problems.append(f"{self.label}: needs either a workload or a replay task list")
        return problems


@dataclass
class SimulationReport:
    """Per-step series plus scenario metadata; immutable once produced."""

    label: str
    horizon: int
    policy: PolicySpec
    node_names: tuple[str, ...]
    trace_zone: str
    trace_values: tuple[float, ...]
    trace_step: int
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

    @property
    def total_emissions_g(self) -> float:
        return math.fsum(self.emission_g)


def run_scenario(config: ScenarioConfig) -> SimulationReport:
    """Execute the per-second control loop for one scenario.

    Step order is fixed: drop expired tasks, admit arrivals, monitor/analyze,
    plan, execute (allocate CU, account power and emissions). Changing the
    order changes results, so it is part of the external contract.
    """
    problems = config.validate()
    if problems:
        raise ScenarioError("; ".join(problems))

    if config.tasks is not None:
        tasks = config.tasks
    else:
        tasks = generate_diurnal_trace(config.workload, config.horizon, config.seed)

    specs = tuple(config.cluster)
    names = tuple(s.name for s in specs)
    cur_idx: int | None = names.index(config.initial_node)

    policy = config.policy
    kind = policy.kind
    horizon = config.horizon
    budget = None
    if kind == "greedy_budget":
        budget = EmissionsBudget(policy.budget_total_g, float(horizon))
    rate = policy.rate_g_per_s if kind == "fixed" else None

    trace_values = config.trace.values
    trace_step = config.trace.step

    queue = TaskQueue()
    admit = queue.admit
    allocate = queue.step_allocation
    drop = queue.drop_expired

    power_col = array("d")
    emission_col = array("d")
    allowance_col = array("d")
    util_col = array("d")
    demand_col = array("d")
    completions_col = array("l")
    drops_col = array("l")
    action_col = array("b")
    node_col = array("b")

    inf = math.inf
    ntasks = len(tasks)
    ai = 0
    batch: list[Task] = []
    ci_ws = 0.0
    fixed_cap = inf

    for t in range(horizon):
        if t % trace_step == 0:
            ci_ws = trace_values[t // trace_step] / WS_PER_KWH
            if rate is not None:
                fixed_cap = rate / ci_ws if ci_ws > 0.0 else inf

        dropped = drop(t)
        while ai < ntasks and tasks[ai].arrival <= t:
            batch.append(tasks[ai])
            ai += 1
        if batch:
            admit(batch)
            batch.clear()

        demand = queue.pending_demand
        if kind == "unlimited":
            allowance = inf
            cap = inf
        elif kind == "fixed":
            allowance = rate
            cap = fixed_cap
        else:
            allowance = budget.greedy_allowance(t)
            cap = allowance / ci_ws if ci_ws > 0.0 else inf

        idx, planned_u = choose_option(specs, cur_idx, demand, cap)

        if idx is None:
            cur_idx = None
            power = 0.0
            emission = 0.0
            util = 0.0
            completions = 0
            action = _SUSPEND
            node_code = -1
        else:
            action = _SCALE if idx == cur_idx else _MIGRATE
            cur_idx = idx
            spec = specs[idx]
            capacity = spec.capacity
            used, completions = allocate(planned_u * capacity, t)
            util = used / capacity
            power = spec.idle_power + (spec.peak_power - spec.idle_power) * util
            emission = power * ci_ws
            if budget is not None:
                budget.record_emission(emission)
            node_code = idx

        power_col.append(power)
        emission_col.append(emission)
        allowance_col.append(allowance)
        util_col.append(util)
        demand_col.append(demand)
        completions_col.append(completions)
        drops_col.append(dropped)
        action_col.append(action)
        node_col.append(node_code)

    return SimulationReport(
        label=config.label,
        horizon=horizon,
        policy=policy,
        node_names=names,
        trace_zone=config.trace.zone_label,
        trace_values=trace_values[: (horizon + trace_step - 1) // trace_step],
        trace_step=trace_step,
        power_w=power_col,
        emission_g=emission_col,
        allowance_g=allowance_col,
        utilization=util_col,
        queued_demand=demand_col,
        completions=completions_col,
        drops=drops_col,
        action=action_col,
        node_index=node_col,
        finished_tasks=queue.finished_count,
        dropped_tasks=queue.dropped_count,
        admitted_tasks=queue.admitted_count,
        pending_tasks=queue.pending_count,
        budget_spent_g=budget.spent if budget is not None else None,
    )


def run_matrix(configs: list[ScenarioConfig], workers: int = 1) -> list[SimulationReport]:
    """Run scenarios independently; output order matches input order."""
    if not configs:
        raise ScenarioError("scenario matrix is empty")
    if workers > 1 and len(configs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_labelled, configs))
    return [_run_labelled(c) for c in configs]


def _run_labelled(config: ScenarioConfig) -> SimulationReport:
    try:
        return run_scenario(config)
    except ScenarioError:
        raise
    except Exception as exc:
        raise ScenarioError(f"scenario {config.label!r} failed: {exc}") from exc
