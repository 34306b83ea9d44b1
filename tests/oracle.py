"""Brute-force step evaluator, written independently of the engine.

Re-applies the linear power model, the g/kWh -> g/Ws conversion, and the
allowance formulas directly over plain lists, with no shared code beyond the
node spec container. Used to cross-check every step record the engine emits.
"""

from __future__ import annotations

import math


class NaiveTask:
    def __init__(self, tid, arrival, cu, runtime, deadline):
        self.tid = tid
        self.arrival = arrival
        self.cu = cu
        self.runtime = runtime
        self.deadline = deadline
        self.total = cu * runtime
        self.done = 0.0
        self.alive = True


def _candidate(spec, demand, cap):
    """(utilization, served, power) on one node under a power cap, or None."""
    idle = spec.idle_power
    dyn = spec.peak_power - idle
    if cap == math.inf:
        u_max = 1.0
    else:
        if cap < idle:
            return None
        u_max = (cap - idle) / dyn
        if u_max > 1.0:
            u_max = 1.0
    u_want = demand / spec.capacity
    if u_want > 1.0:
        u_want = 1.0
    u = u_want if u_want <= u_max else u_max
    return u, u * spec.capacity, idle + dyn * u


def _pick(specs, here, demand, cap):
    """Same objective as the planner: most served CU, then least power."""
    options = []
    for i, spec in enumerate(specs):
        cand = _candidate(spec, demand, cap)
        if cand is not None:
            options.append((i, spec) + cand)
    if not options:
        return None, 0.0
    winner = options[0]
    for opt in options[1:]:
        _, spec, _, served, power = opt
        if served > winner[3] + 1e-9:
            winner = opt
        elif served >= winner[3] - 1e-9:
            if (power, spec.capacity, spec.name) < (winner[4], winner[1].capacity, winner[1].name):
                winner = opt
    if here is not None:
        stay = next((o for o in options if o[0] == here), None)
        if stay is not None and winner[0] != here:
            if winner[3] - stay[3] <= 1e-9 and stay[4] - winner[4] <= 0.01 * stay[4]:
                winner = stay
    return winner[0], winner[2]


def naive_run(trace_values, trace_step, specs, initial_name, tasks, policy_kind,
              rate=None, budget_total=None, horizon=None):
    """Returns (powers, emissions, completions, drops) lists, one entry per simulation second."""
    queue = [NaiveTask(*row) for row in tasks]
    queue.sort(key=lambda nt: (nt.arrival, nt.tid))
    here = [s.name for s in specs].index(initial_name)
    base = budget_total / horizon if budget_total is not None else None
    spent = 0.0
    spent_comp = 0.0
    powers = []
    emissions = []
    completions = []
    drops = []
    admitted: list[NaiveTask] = []
    next_task = 0

    for t in range(horizon):
        ci_ws = trace_values[t // trace_step] / 3_600_000.0

        dropped = 0
        for task in admitted:
            if task.alive and task.deadline < t:
                task.alive = False
                dropped += 1
        drops.append(dropped)
        while next_task < len(queue) and queue[next_task].arrival <= t:
            admitted.append(queue[next_task])
            next_task += 1

        demand = sum(task.cu for task in admitted if task.alive)

        if policy_kind == "unlimited":
            cap = math.inf
        elif policy_kind == "fixed":
            cap = rate / ci_ws if ci_ws > 0.0 else math.inf
        else:
            allowance = base * (t + 1.0) - spent
            if allowance < 0.0:
                allowance = 0.0
            cap = allowance / ci_ws if ci_ws > 0.0 else math.inf

        here, u = _pick(specs, here, demand, cap)
        if here is None:
            powers.append(0.0)
            emissions.append(0.0)
            completions.append(0)
            continue

        spec = specs[here]
        remaining = u * spec.capacity
        used = 0.0
        finished = 0
        for task in admitted:
            if remaining <= 1e-12:
                break
            if not task.alive:
                continue
            grant = task.cu
            if grant > remaining:
                grant = remaining
            need = task.total - task.done
            if grant > need:
                grant = need
            task.done += grant
            used += grant
            remaining -= grant
            if task.total - task.done <= 1e-9:
                task.done = task.total
                task.alive = False
                finished += 1

        util = used / spec.capacity
        power = spec.idle_power + (spec.peak_power - spec.idle_power) * util
        emission = power * ci_ws
        if policy_kind == "greedy_budget":
            y = emission - spent_comp
            tmp = spent + y
            spent_comp = (tmp - spent) - y
            spent = tmp
        powers.append(power)
        emissions.append(emission)
        completions.append(finished)
        admitted = [task for task in admitted if task.alive]

    return powers, emissions, completions, drops
