"""Experiment-file loading: YAML schema, validation diagnostics, scenario expansion."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import yaml

from .carbon import (
    CarbonIntensityTrace,
    ColumnMap,
    TraceError,
    _parse_timestamp,
    parse_trace,
)
from .cluster import PRESETS, NodeSpec, cluster_problems
from .engine import PolicySpec, ScenarioConfig
from .workload import DiurnalTraceParams, Task, WorkloadError, import_tasks_csv

_POLICY_ALIASES = {
    "unlimited": "unlimited",
    "fixed": "fixed",
    "budget": "greedy_budget",
    "greedy_budget": "greedy_budget",
}


class ExperimentError(ValueError):
    """An experiment file that cannot run; `problems` lists each reason validation found."""

    def __init__(self, message: str, problems: list[str] | None = None) -> None:
        super().__init__(message)
        self.problems = problems or []


@dataclass(frozen=True)
class TraceRef:
    label: str
    path: Path
    columns: ColumnMap
    start_epoch: int | None  # None means: use the file's own start
    days: float | None       # None means: whole file


@dataclass
class Experiment:
    path: Path
    output_dir: Path
    prices: tuple[float, ...]
    horizon: int | None
    outputs_steps: bool
    outputs_buckets: bool
    cluster: tuple[NodeSpec, ...]
    initial_node: str
    workload: DiurnalTraceParams | None
    seed: int
    replay_path: Path | None
    traces: list[TraceRef]
    policies: list[tuple[str, PolicySpec]]  # (label prefix, spec)


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ExperimentError(f"{context}: missing required key {key!r}")
    return mapping[key]


def load_experiment(path: str | Path) -> Experiment:
    """Parse an experiment YAML file. Raises ExperimentError on malformed structure."""
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text())
    except OSError as exc:
        raise ExperimentError(f"cannot read experiment file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ExperimentError(f"{path}: not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ExperimentError(f"{path}: top level must be a mapping")

    try:
        return _parse(raw, path)
    except (ValueError, TypeError, AttributeError, OverflowError) as exc:
        # Malformed values raise from the parsing or from the domain constructors.
        raise ExperimentError(f"{path}: {exc}") from exc


def _parse(raw: dict, path: Path) -> Experiment:
    base = path.parent

    cluster_cfg = raw.get("cluster", {}) or {}
    if "nodes" in cluster_cfg:
        specs = []
        for node in cluster_cfg["nodes"]:
            specs.append(NodeSpec(
                name=str(_require(node, "name", "cluster.nodes")),
                capacity=int(_require(node, "capacity", "cluster.nodes")),
                idle_power=float(_require(node, "idle_w", "cluster.nodes")),
                peak_power=float(_require(node, "peak_w", "cluster.nodes")),
            ))
        cluster = tuple(specs)
    else:
        preset = cluster_cfg.get("preset", "default")
        if preset not in PRESETS:
            raise ExperimentError(f"unknown cluster preset {preset!r}")
        cluster = PRESETS[preset]
    initial = cluster_cfg.get("initial", "medium")

    wl_cfg = raw.get("workload")
    workload = None
    seed = 0
    replay_path = None
    if wl_cfg:
        seed = int(wl_cfg.get("seed", 0))
        if "replay" in wl_cfg:
            replay_path = base / wl_cfg["replay"]
        else:
            workload = DiurnalTraceParams(
                base_rate=float(_require(wl_cfg, "base_rate", "workload")),
                peak_amplitudes=tuple(float(a) for a in _require(wl_cfg, "peak_amplitudes", "workload")),
                peak_times=tuple(float(p) for p in _require(wl_cfg, "peak_times_s", "workload")),
                peak_width=float(_require(wl_cfg, "peak_width_s", "workload")),
                task_cu=float(_require(wl_cfg, "task_cu", "workload")),
                task_runtime=float(_require(wl_cfg, "task_runtime_s", "workload")),
                deadline_slack=float(_require(wl_cfg, "deadline_slack_s", "workload")),
                cu_jitter=float(wl_cfg.get("cu_jitter", 0.0)),
                runtime_jitter=float(wl_cfg.get("runtime_jitter", 0.0)),
            )

    traces = []
    for label, tcfg in (raw.get("traces") or {}).items():
        cols = tcfg.get("columns", {}) or {}
        start = tcfg.get("start")
        traces.append(TraceRef(
            label=str(label),
            path=base / _require(tcfg, "path", f"traces.{label}"),
            columns=ColumnMap(
                timestamp=cols.get("timestamp", "timestamp"),
                intensity=cols.get("intensity", "intensity"),
            ),
            start_epoch=_parse_timestamp(str(start)) if start is not None else None,
            days=float(tcfg["days"]) if "days" in tcfg else None,
        ))

    policies = []
    for name, pcfg in (raw.get("policies") or {}).items():
        pcfg = pcfg or {}
        if name not in _POLICY_ALIASES:
            raise ExperimentError(
                f"unknown policy {name!r}; expected one of {sorted(_POLICY_ALIASES)}"
            )
        kind = _POLICY_ALIASES[name]
        if kind == "fixed":
            spec = PolicySpec("fixed", rate_g_per_s=float(_require(pcfg, "rate_g_per_s", name)))
        elif kind == "greedy_budget":
            spec = PolicySpec("greedy_budget", budget_total_g=float(_require(pcfg, "total_g", name)))
        else:
            spec = PolicySpec("unlimited")
        policies.append((str(name), spec))

    outputs = raw.get("outputs", {}) or {}
    return Experiment(
        path=path,
        output_dir=base / raw.get("output", "results"),
        prices=tuple(float(p) for p in raw.get("prices", (80.0, 150.0, 700.0))),
        horizon=int(raw["horizon_s"]) if "horizon_s" in raw else None,
        outputs_steps=bool(outputs.get("steps", True)),
        outputs_buckets=bool(outputs.get("buckets", True)),
        cluster=cluster,
        initial_node=str(initial),
        workload=workload,
        seed=seed,
        replay_path=replay_path,
        traces=traces,
        policies=policies,
    )


def load_trace(ref: TraceRef) -> CarbonIntensityTrace:
    """Read and window one referenced trace file."""
    text = ref.path.read_text()
    trace = parse_trace(text, ref.columns, zone_label=ref.label)
    if ref.start_epoch is not None or ref.days is not None:
        start = ref.start_epoch if ref.start_epoch is not None else trace.start_epoch
        if ref.days is not None:
            end = start + int(ref.days * 86400)
        else:
            end = trace.end_epoch
        return trace.slice_window(start, end)
    return trace


def _check(experiment: Experiment) -> tuple[list[str], dict[str, CarbonIntensityTrace]]:
    """Load every trace once; return all the reasons a run would not start, and the traces."""
    diags: list[str] = []
    if not experiment.traces:
        diags.append("no traces declared")
    if not experiment.policies:
        diags.append("no policies declared")
    if experiment.workload is None and experiment.replay_path is None:
        diags.append("no workload or replay declared")
    if experiment.replay_path is not None and not experiment.replay_path.exists():
        diags.append(f"replay file {experiment.replay_path} does not exist")
    if any(p <= 0 for p in experiment.prices):
        diags.append("carbon prices must be positive")
    diags += cluster_problems(experiment.cluster, experiment.initial_node)
    loaded = {}
    for ref in experiment.traces:
        try:
            trace = loaded[ref.label] = load_trace(ref)
        except (TraceError, OSError) as exc:
            diags.append(f"trace {ref.label}: {exc}")
            continue
        horizon = experiment.horizon if experiment.horizon is not None else trace.span
        if horizon <= 0:
            diags.append(f"trace {ref.label}: horizon must be positive")
        elif horizon > trace.span:
            diags.append(
                f"trace {ref.label}: horizon {horizon}s exceeds window span {trace.span}s"
            )
    return diags, loaded


def validate(experiment: Experiment) -> list[str]:
    """All the reasons a run would not start; empty list means it would."""
    return _check(experiment)[0]


def build_scenarios(experiment: Experiment, labels: list[str] | None = None,
                    seed_override: int | None = None) -> list[ScenarioConfig]:
    """Expand the policy x trace grid; raise ExperimentError listing every `validate` problem."""
    problems, loaded = _check(experiment)
    if problems:
        raise ExperimentError("; ".join(problems), problems)
    replay_tasks: list[Task] | None = None
    if experiment.replay_path is not None:
        try:
            replay_tasks = import_tasks_csv(experiment.replay_path.read_text())
        except (OSError, WorkloadError) as exc:
            raise ExperimentError(f"replay {experiment.replay_path}: {exc}") from exc

    scenarios = []
    for policy_name, policy_spec in experiment.policies:
        for ref in experiment.traces:
            label = f"{policy_name}_{ref.label}"
            if labels is not None and label not in labels:
                continue
            trace = loaded[ref.label]
            horizon = experiment.horizon if experiment.horizon is not None else trace.span
            scenarios.append(ScenarioConfig(
                label=label,
                trace=trace,
                horizon=horizon,
                policy=policy_spec,
                cluster=experiment.cluster,
                initial_node=experiment.initial_node,
                workload=experiment.workload,
                seed=seed_override if seed_override is not None else experiment.seed,
                tasks=replay_tasks,
            ))
    if labels is not None:
        missing = set(labels) - {s.label for s in scenarios}
        if missing:
            raise ExperimentError(f"unknown scenario labels: {sorted(missing)}")
    return scenarios
