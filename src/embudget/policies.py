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
    best = -1
    best_u = best_served = best_power = 0.0
    best_capacity = 0
    best_name = ""
    current_fits = False
    current_u = current_served = current_power = 0.0
    for i, spec in enumerate(specs):
        idle = spec.idle_power
        if power_cap < idle:
            continue
        span = spec.peak_power - idle
        capacity = spec.capacity
        u = demand / capacity
        if u > 1.0:
            u = 1.0
        # Rounding is monotone and span / span == 1, so (power_cap - idle) / span
        # is at most 1 below peak (no clamp needed) and at least 1 from peak up.
        if power_cap < spec.peak_power:
            u_cap = (power_cap - idle) / span
            if u > u_cap:
                u = u_cap
        served = u * capacity
        power = idle + span * u
        if i == current_index:
            current_fits = True
            current_u, current_served, current_power = u, served, power
        if best >= 0 and served <= best_served + _SERVED_EPS:
            # Within the served tie band: lower power wins, then (capacity, name).
            if served < best_served - _SERVED_EPS or power > best_power:
                continue
            if power == best_power and (capacity, spec.name) >= (best_capacity, best_name):
                continue
        best, best_u, best_served, best_power = i, u, served, power
        best_capacity, best_name = capacity, spec.name
    if best < 0:
        return None, 0.0
    if current_fits and best != current_index:
        gain = best_served - current_served
        saving = current_power - best_power
        if gain <= _SERVED_EPS and saving <= MIGRATION_SAVING_FRACTION * current_power:
            return current_index, current_u
    return best, best_u
