"""Plan phase: pick the node and utilization that serve the most demand under a power cap."""

from __future__ import annotations

from typing import Sequence

from .cluster import NodeSpec

# Migrations with equal served CU must save at least this fraction of current
# power, otherwise the application stays put (hysteresis against thrashing).
MIGRATION_SAVING_FRACTION = 0.01

_SERVED_EPS = 1e-9


def choose_option(specs: Sequence[NodeSpec], current_index: int | None,
                  demand: float, power_cap: float) -> tuple[int | None, float]:
    """Pick the node and utilization serving the most CU under a power cap.

    Candidates are the current node plus every alternative in `specs`. Objective:
    maximize served CU, then minimize power; remaining ties prefer the smaller
    capacity, then the lexically smaller name. A migration that merely matches
    the current node's served CU must also beat its power by more than the
    hysteresis margin. Returns (index, utilization), or (None, 0.0) when not
    even idle power fits under the cap anywhere (suspend).
    """
    best = None  # (index, u, served, power, capacity, name)
    current = None
    for i, spec in enumerate(specs):
        idle = spec.idle_power
        span = spec.peak_power - idle
        if power_cap < idle:
            continue
        u_cap = (power_cap - idle) / span
        if u_cap > 1.0:
            u_cap = 1.0
        u = demand / spec.capacity
        if u > 1.0:
            u = 1.0
        if u > u_cap:
            u = u_cap
        served = u * spec.capacity
        power = idle + span * u
        entry = (i, u, served, power, spec.capacity, spec.name)
        if i == current_index:
            current = entry
        if best is None:
            best = entry
            continue
        if (served > best[2] + _SERVED_EPS
                or (served >= best[2] - _SERVED_EPS
                    and (power, spec.capacity, spec.name) < (best[3], best[4], best[5]))):
            best = entry
    if best is None:
        return None, 0.0
    if current is not None and best[0] != current[0]:
        gain = best[2] - current[2]
        saving = current[3] - best[3]
        if gain <= _SERVED_EPS and saving <= MIGRATION_SAVING_FRACTION * current[3]:
            return current[0], current[1]
    return best[0], best[1]
