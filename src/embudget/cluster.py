"""Heterogeneous node profiles: capacity and the idle/peak endpoints of the power curve."""

from __future__ import annotations

from dataclasses import dataclass


class ClusterError(ValueError):
    pass


@dataclass(frozen=True)
class NodeSpec:
    """Hardware profile: capacity in CU and the idle/peak endpoints of the power curve."""

    name: str
    capacity: int
    idle_power: float
    peak_power: float

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ClusterError(f"{self.name}: capacity must be positive")
        if self.idle_power < 0:
            raise ClusterError(f"{self.name}: idle power must be >= 0")
        if self.peak_power <= self.idle_power:
            raise ClusterError(f"{self.name}: peak power must exceed idle power")


# Baseline medium profile; small/large are half/double across the board.
SMALL = NodeSpec("small", 50, 25.0, 300.0)
MEDIUM = NodeSpec("medium", 100, 50.0, 600.0)
LARGE = NodeSpec("large", 200, 100.0, 1200.0)

PRESETS: dict[str, tuple[NodeSpec, ...]] = {
    "default": (SMALL, MEDIUM, LARGE),
}


def cluster_problems(specs: tuple[NodeSpec, ...], initial_node: str) -> list[str]:
    """Why the application cannot start on `initial_node` of `specs`; empty when it can."""
    names = [s.name for s in specs]
    problems = []
    if len(set(names)) != len(names):
        problems.append(f"duplicate node names in cluster {names}")
    if initial_node not in names:
        problems.append(f"initial node {initial_node!r} not in cluster {names}")
    return problems
