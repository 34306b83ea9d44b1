"""Discrete-event simulator for emissions-budget-constrained self-adaptive applications."""

__version__ = "0.1.0"

from .budget import EmissionsBudget
from .carbon import (
    CarbonIntensityTrace,
    ColumnMap,
    coefficient_of_variation,
    parse_trace,
)
from .cluster import LARGE, MEDIUM, SMALL, NodeSpec
from .engine import (
    PolicySpec,
    ScenarioConfig,
    SimulationReport,
    run_matrix,
    run_scenario,
)
from .policies import choose_option
from .reporting import SummaryRow, aggregate, summarize, summary_csv, trace_cv
from .workload import (
    DiurnalTraceParams,
    TaskQueue,
    TaskTable,
    generate_diurnal_trace,
)
