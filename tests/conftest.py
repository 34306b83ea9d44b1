import pytest

from embudget.carbon import CarbonIntensityTrace
from embudget.cluster import PRESETS
from embudget.engine import PolicySpec, ScenarioConfig
from embudget.workload import DiurnalTraceParams


def constant_trace(ci: float, hours: int = 24, zone: str = "const") -> CarbonIntensityTrace:
    return CarbonIntensityTrace(zone, 0, 3600, (float(ci),) * hours)


def option_power(spec, u: float) -> float:
    """Linear power model, as the engine applies it to a chosen node and utilization."""
    return spec.idle_power + (spec.peak_power - spec.idle_power) * u


def simple_workload(base_rate: float = 0.5, task_cu: float = 2.0,
                    task_runtime: float = 10.0, deadline_slack: float = 60.0,
                    amplitudes=(0.0, 0.0), peak_times=(32400.0, 68400.0),
                    width: float = 3600.0) -> DiurnalTraceParams:
    return DiurnalTraceParams(
        base_rate=base_rate,
        peak_amplitudes=amplitudes,
        peak_times=peak_times,
        peak_width=width,
        task_cu=task_cu,
        task_runtime=task_runtime,
        deadline_slack=deadline_slack,
    )


def make_config(label: str, trace: CarbonIntensityTrace, horizon: int,
                policy: PolicySpec, workload=None, tasks=None,
                cluster=PRESETS["default"], initial="medium", seed=0) -> ScenarioConfig:
    return ScenarioConfig(
        label=label, trace=trace, horizon=horizon, policy=policy,
        cluster=cluster, initial_node=initial, workload=workload,
        seed=seed, tasks=tasks,
    )
