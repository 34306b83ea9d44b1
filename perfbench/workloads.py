"""Benchmark inputs: one experiment file per workload, made from the seed.

Every input is written into a fresh run directory; the simulator only ever
sees these files. Nothing here imports embudget, so the inputs do not depend
on the code under test.
"""

from __future__ import annotations

import random
from pathlib import Path

import yaml

WORKLOADS = ("paper_grid", "overload_small_tasks", "wide_cluster_replay")

# Horizons are short so that a run of --seconds holds several `embudget run`s
# whose scaled median is reported (see child.py). paper_grid keeps the bundled
# file's policies, cluster and workload and only shortens the horizon from a
# week to 10.5 h, 00:00 to 10:30: the night at the base rate, then the 09:00
# demand peak (sigma 1.5 h), where the published experiment migrates and
# throttles. budget.total_g is rescaled to the same g/s rate.
PAPER_GRID_HORIZON_S = 37800
OVERLOAD_HORIZON_S = 2400
WIDE_HORIZON_S = 3 * 3600

TRACE_COLUMNS = {"timestamp": "timestamp", "intensity": "ci_g_per_kwh"}

# Sixteen heterogeneous nodes: capacities from 20 to 400 CU with a mix of
# efficient and wasteful power curves, so choose_option has real trade-offs.
WIDE_CLUSTER = [
    {"name": f"n{i:02d}", "capacity": cap, "idle_w": idle, "peak_w": peak}
    for i, (cap, idle, peak) in enumerate([
        (20, 8.0, 110.0), (30, 20.0, 150.0), (40, 12.0, 210.0), (50, 25.0, 300.0),
        (60, 40.0, 280.0), (80, 30.0, 420.0), (90, 55.0, 400.0), (100, 50.0, 600.0),
        (120, 45.0, 560.0), (150, 90.0, 700.0), (160, 70.0, 820.0), (200, 100.0, 1200.0),
        (220, 140.0, 980.0), (260, 120.0, 1300.0), (300, 180.0, 1400.0), (400, 220.0, 2000.0),
    ])
]


def _trace_path(root: Path, name: str) -> str:
    return str(root / "src" / "embudget" / "data" / "traces" / name)


def _paper_grid(root: Path, seed: int) -> dict:
    # The bundled workload has no cu/runtime jitter, so the seed does not
    # change this workload's inputs.
    del seed
    spec = yaml.safe_load((root / "src" / "embudget" / "data" / "paper_grid.yaml").read_text())
    rate = spec["policies"]["budget"]["total_g"] / spec["horizon_s"]
    spec["horizon_s"] = PAPER_GRID_HORIZON_S
    spec["policies"]["budget"]["total_g"] = rate * PAPER_GRID_HORIZON_S
    for trace in spec["traces"].values():
        trace["path"] = _trace_path(root, Path(trace["path"]).name)
    return spec


def _overload_small_tasks(root: Path, seed: int) -> dict:
    # ~0.5 CU tasks at 8 to ~28 arrivals/s: peak demand exceeds the large
    # node's 200 CU, so hundreds of tasks are in service per step and the
    # deadline heap drops many of them. The budget is ~3/4 of what the
    # unlimited policy emits, so it throttles without suspending.
    return {
        "prices": [80, 150, 700],
        "horizon_s": OVERLOAD_HORIZON_S,
        "outputs": {"steps": False, "buckets": True},
        "cluster": {"preset": "default", "initial": "medium"},
        "workload": {
            "base_rate": 8.0,
            "peak_amplitudes": [20.0, 14.0],
            "peak_times_s": [800, 1800],
            "peak_width_s": 200,
            "task_cu": 0.5,
            "task_runtime_s": 20,
            "deadline_slack_s": 40,
            "cu_jitter": 0.5,
            "runtime_jitter": 0.5,
            "seed": seed,
        },
        "traces": {"DE": {"path": _trace_path(root, "de_synthetic.csv"),
                          "columns": TRACE_COLUMNS, "start": "2024-01-01T00:00Z", "days": 1}},
        "policies": {"unlimited": {}, "budget": {"total_g": 0.1 * OVERLOAD_HORIZON_S}},
    }


def replay_tasks_csv(seed: int, horizon: int) -> str:
    """Task list with a two-bump arrival rate and jittered demand and runtime."""
    rng = random.Random(seed)
    lines = ["id,arrival,cu,runtime,deadline"]
    acc = 0.0
    next_id = 0
    for t in range(horizon):
        phase = t / horizon
        acc += 0.75 + 1.25 * (4.0 * phase * (1.0 - phase)) ** 4 + rng.uniform(0.0, 0.5)
        while acc >= 1.0:
            acc -= 1.0
            cu = 8.0 * (1.0 + rng.uniform(-0.6, 0.6))
            runtime = 15.0 * (1.0 + rng.uniform(-0.6, 0.6))
            lines.append(f"{next_id},{t},{cu!r},{runtime!r},{t + runtime + 90.0!r}")
            next_id += 1
    return "\n".join(lines) + "\n"


def _wide_cluster_replay(root: Path, seed: int, run_dir: Path) -> dict:
    tasks = run_dir / "tasks.csv"
    tasks.write_text(replay_tasks_csv(seed, WIDE_HORIZON_S))
    return {
        "prices": [80, 150, 700],
        "horizon_s": WIDE_HORIZON_S,
        "outputs": {"steps": True, "buckets": True},
        "cluster": {"nodes": WIDE_CLUSTER, "initial": "n07"},
        "workload": {"replay": str(tasks)},
        "traces": {"DE": {"path": _trace_path(root, "de_synthetic.csv"),
                          "columns": TRACE_COLUMNS, "start": "2024-01-01T00:00Z", "days": 1}},
        "policies": {
            "unlimited": {},
            "fixed": {"rate_g_per_s": 0.09},
            "budget": {"total_g": 0.09 * WIDE_HORIZON_S},
        },
    }


def write_experiment(name: str, seed: int, root: Path, run_dir: Path) -> Path:
    """Write the workload's experiment file into run_dir and return its path."""
    if name == "paper_grid":
        spec = _paper_grid(root, seed)
    elif name == "overload_small_tasks":
        spec = _overload_small_tasks(root, seed)
    elif name == "wide_cluster_replay":
        spec = _wide_cluster_replay(root, seed, run_dir)
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    spec["output"] = str(run_dir / "out")
    path = run_dir / f"{name}.yaml"
    path.write_text(yaml.safe_dump(spec, sort_keys=False))
    return path
