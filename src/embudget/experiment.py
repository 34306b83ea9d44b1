"""Experiment-file loading: YAML schema, one check pass at load, scenario expansion."""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import yaml

from .carbon import (
    CarbonIntensityTrace,
    ColumnMap,
    _parse_timestamp,
    parse_trace,
)
from .cluster import PRESETS, NodeSpec, cluster_problems
from .engine import PolicySpec, ScenarioConfig
from .reporting import DEFAULT_PRICES_EUR_PER_TON
from .workload import DiurnalTraceParams, TaskTable, import_tasks_csv

# libyaml's parser when PyYAML was built with it; both loaders share the Python
# constructor and resolver, so a valid file loads to the same objects.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_POLICY_ALIASES = {
    "unlimited": "unlimited",
    "fixed": "fixed",
    "budget": "greedy_budget",
    "greedy_budget": "greedy_budget",
}


class ExperimentError(ValueError):
    """An experiment file that cannot run; `problems` lists each reason the check pass found."""

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
    """A loaded experiment file, with every trace and replay file it names read once."""

    output_dir: Path
    prices: tuple[float, ...]
    horizon: int | None
    outputs_steps: bool
    outputs_buckets: bool
    cluster: tuple[NodeSpec, ...]
    initial_node: str
    workload: DiurnalTraceParams | None
    seed: int
    policies: list[tuple[str, PolicySpec]]  # (label prefix, spec)
    # Filled by the check pass: each trace that loaded, by label; the replayed
    # task table (None when the workload is generated or the replay did not
    # load); and every reason a run would not start.
    traces: dict[str, CarbonIntensityTrace] = field(default_factory=dict)
    tasks: TaskTable | None = None
    problems: list[str] = field(default_factory=list)


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ExperimentError(f"{context}: missing required key {key!r}")
    return mapping[key]


def load_experiment(path: str | Path) -> Experiment:
    """Parse an experiment YAML file and run the check pass on it.

    Malformed structure, or an experiment file that is not UTF-8, raises
    ExperimentError. Every other reason the experiment would not run, such as a
    missing trace or a bad replay row, is recorded in `problems`; each distinct
    trace file and the replay file is read once, here. Every file is read as
    UTF-8, whatever the locale.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ExperimentError(f"cannot read experiment file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ExperimentError(f"{path}: not valid UTF-8: {exc}") from exc
    try:
        raw = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ExperimentError(f"{path}: not valid YAML: {_yaml_problem(exc, text)}") from exc
    if not isinstance(raw, dict):
        raise ExperimentError(f"{path}: top level must be a mapping")

    try:
        experiment, trace_refs, replay_path = _parse(raw, path)
    except (ValueError, TypeError, AttributeError, OverflowError) as exc:
        # Malformed values raise from the parsing or from the domain constructors.
        raise ExperimentError(f"{path}: {exc}") from exc
    _check(experiment, trace_refs, replay_path)
    return experiment


def _yaml_problem(exc: yaml.YAMLError, text: str) -> str:
    """A YAML error in one line: its problem and where in `text`, else the message."""
    mark = getattr(exc, "problem_mark", None)
    if mark is not None and exc.problem:
        return f"{exc.problem} at line {mark.line + 1}, column {mark.column + 1}"
    if isinstance(exc, yaml.reader.ReaderError):
        # A reader error has an offset, not a mark: the Python reader counts
        # characters, libyaml bytes of the UTF-8 text it was handed.
        if issubclass(_YAML_LOADER, yaml.reader.Reader):
            before = text[:exc.position]
        else:
            before = text.encode()[:exc.position].decode(errors="replace")
        # Every YAML line break is one to splitlines; the sentinel keeps the last line.
        lines = (before + "\0").splitlines()
        return (f"unacceptable character #x{exc.character:04x}: {exc.reason} "
                f"at line {len(lines)}, column {len(lines[-1])}")
    return " ".join(str(exc).split())


def _parse(raw: dict, path: Path) -> tuple[Experiment, list[TraceRef], Path | None]:
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
    experiment = Experiment(
        output_dir=base / raw.get("output", "results"),
        prices=tuple(float(p) for p in raw.get("prices", DEFAULT_PRICES_EUR_PER_TON)),
        horizon=int(raw["horizon_s"]) if "horizon_s" in raw else None,
        outputs_steps=bool(outputs.get("steps", True)),
        outputs_buckets=bool(outputs.get("buckets", True)),
        cluster=cluster,
        initial_node=str(initial),
        workload=workload,
        seed=seed,
        policies=policies,
    )
    return experiment, traces, replay_path


def load_trace(ref: TraceRef, parsed: dict) -> CarbonIntensityTrace:
    """Cut one referenced trace's window from its file, parsing the file unless `parsed` has it.

    `parsed` maps (resolved path, column map) to the file's whole trace, or to
    the ValueError its parse raised, so each distinct file is parsed once however
    many labels name it. A file that cannot be read or decoded is not recorded: each
    label naming it reads it again and reports the error under its own spelling of the path.
    """
    key = (os.path.realpath(ref.path), ref.columns)
    if key not in parsed:
        text = ref.path.read_text(encoding="utf-8")
        try:
            parsed[key] = parse_trace(text, ref.columns)
        except ValueError as exc:  # TraceError; its message names no path
            parsed[key] = exc
    whole = parsed[key]
    if isinstance(whole, ValueError):
        raise whole
    start = ref.start_epoch if ref.start_epoch is not None else whole.start_epoch
    if ref.days is None:
        end = whole.end_epoch
    elif 0 < ref.days < math.inf:
        end = start + int(ref.days * 86400)
    else:
        raise ValueError(f"days must be finite and positive, not {ref.days}")
    return replace(whole.slice_window(start, end), zone_label=ref.label)


def _check(experiment: Experiment, trace_refs: list[TraceRef], replay_path: Path | None) -> None:
    """The one check pass: read each distinct input file once and record every problem."""
    problems = experiment.problems
    if not trace_refs:
        problems.append("no traces declared")
    if not experiment.policies:
        problems.append("no policies declared")
    if experiment.workload is None and replay_path is None:
        problems.append("no workload or replay declared")
    if replay_path is not None:
        try:
            experiment.tasks = import_tasks_csv(replay_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # ValueError: WorkloadError or bad encoding
            problems.append(f"replay {replay_path}: {exc}")
    if any(not p > 0 for p in experiment.prices):
        problems.append("carbon prices must be positive")
    problems += cluster_problems(experiment.cluster, experiment.initial_node)
    # Every scenario label is an unquoted cell of the UTF-8 summary.csv and, with
    # steps or buckets on, part of output file names (a character the file system
    # encoding can write, UTF-8 can too).
    names_files = experiment.outputs_steps or experiment.outputs_buckets
    unsafe = ',"\r\n' + (f"{os.sep}{os.altsep or ''}\0" if names_files else "")
    encoding = sys.getfilesystemencoding() if names_files else "utf-8"
    parsed: dict = {}
    for ref in trace_refs:
        # A character its encoding cannot write encodes to nothing.
        bad = {c for c in ref.label if c in unsafe or not c.encode(encoding, "ignore")}
        if bad:  # the label's one problem: the lines below print it raw
            problems.append(f"trace label {ref.label!r}: outputs cannot hold {''.join(sorted(bad))!r}")
            continue
        try:
            trace = experiment.traces[ref.label] = load_trace(ref, parsed)
        except (OSError, ValueError) as exc:  # ValueError: TraceError or bad encoding
            problems.append(f"trace {ref.label}: {exc}")
            continue
        horizon = experiment.horizon if experiment.horizon is not None else trace.span
        if horizon <= 0:
            problems.append(f"trace {ref.label}: horizon must be positive")
        elif horizon > trace.span:
            problems.append(
                f"trace {ref.label}: horizon {horizon}s exceeds window span {trace.span}s"
            )


def validate(experiment: Experiment) -> list[str]:
    """All the reasons a run would not start, found at load; empty list means it would."""
    return experiment.problems


def build_scenarios(experiment: Experiment, labels: list[str] | None = None,
                    seed_override: int | None = None) -> list[ScenarioConfig]:
    """Expand the policy x trace grid; raise ExperimentError listing every `validate` problem."""
    if experiment.problems:
        raise ExperimentError("; ".join(experiment.problems), experiment.problems)

    scenarios = []
    for policy_name, policy_spec in experiment.policies:
        for trace_label, trace in experiment.traces.items():
            label = f"{policy_name}_{trace_label}"
            if labels is not None and label not in labels:
                continue
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
                tasks=experiment.tasks,
            ))
    if labels is not None:
        missing = set(labels) - {s.label for s in scenarios}
        if missing:
            raise ExperimentError(f"unknown scenario labels: {sorted(missing)}")
    return scenarios
