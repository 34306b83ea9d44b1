"""Layer tracing from outside the program: wrap public calls where callers look them up.

Each wrapped call is one span. Spans of the per-step layers (queue, policies,
budget) are folded into per-layer totals as they end, because a run makes
millions of them; every other span is also kept whole, with its parent, and
written out when the run ends. A layer's self time is its total time minus the
time of the wrapped calls made inside it.
"""

from __future__ import annotations

import itertools
import time
from collections import defaultdict


def _report_bytes(report) -> int:
    return sum(col.itemsize * len(col) for col in (
        report.power_w, report.emission_g, report.allowance_g, report.utilization,
        report.queued_demand, report.completions, report.drops, report.action,
        report.node_index))


class Tracer:
    """Call `install`, run the program, then `restore` and read `metrics()`."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.child: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.unique: dict[str, set] = defaultdict(set)
        self.spans: list[tuple[int, int, str, float, float]] = []  # id, parent, name, start, end
        self._stack: list[list] = []  # [child seconds, span id] per open span
        self._ids = itertools.count()
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def wrap(self, layer, fn, note=None, keep_span=True):
        """Time fn as `layer`; note(args, kwargs, result) records counts after the call."""
        stack = self._stack
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter
        calls, total, child = self.calls, self.total, self.child

        def traced(*args, **kwargs):
            frame = [0.0, next(ids) if keep_span else -1]
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                calls[layer] += 1
                total[layer] += elapsed
                child[layer] += frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if keep_span:
                    spans.append((frame[1], parent, layer, start, end))
            if note is not None:
                note(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, layer: str, note=None, keep_span=True) -> None:
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(layer, original, note, keep_span))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def install(self, embudget) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        cli, experiment, engine = embudget.cli, embudget.experiment, embudget.engine
        counts, unique = self.counts, self.unique

        def add(key, fn):
            def note(args, kwargs, result):
                counts[key] += fn(args, kwargs, result)
            return note

        def parse_note(args, kwargs, result):
            text = args[0]
            columns = args[1] if len(args) > 1 else kwargs.get("column_map")
            unique["carbon.parse"].add((hash(text), len(text), columns))

        def generate_note(args, kwargs, result):
            unique["workload.generate"].add(tuple(args) + tuple(sorted(kwargs.items())))
            counts["workload.tasks_generated"] += len(result)

        def run_note(args, kwargs, result):
            counts["engine.steps"] += args[0].horizon
            counts["engine.report_bytes"] += _report_bytes(result)

        csv_note = add("reporting.csv_chars", lambda a, k, r: len(r))

        self.patch(cli, "load_experiment", "experiment.load")
        self.patch(cli, "validate", "experiment.validate")
        self.patch(cli, "build_scenarios", "experiment.build")
        self.patch(experiment, "parse_trace", "carbon.parse", parse_note)
        self.patch(experiment, "import_tasks_csv", "workload.import",
                   add("workload.tasks_imported", lambda a, k, r: len(r)))
        self.patch(engine, "run_scenario", "engine.run", run_note)
        self.patch(engine, "generate_diurnal_trace", "workload.generate", generate_note)
        self.patch(engine, "choose_option", "policies.choose",
                   add("policies.candidates", lambda a, k, r: len(a[0])), keep_span=False)
        queue = embudget.workload.TaskQueue
        self.patch(queue, "admit", "queue.admit",
                   add("queue.tasks_admitted", lambda a, k, r: len(a[1])), keep_span=False)
        self.patch(queue, "step_allocation", "queue.allocate",
                   add("queue.tasks_finished", lambda a, k, r: r[1]), keep_span=False)
        self.patch(queue, "drop_expired", "queue.drop",
                   add("queue.tasks_dropped", lambda a, k, r: r), keep_span=False)
        budget = embudget.budget.EmissionsBudget
        self.patch(budget, "greedy_allowance", "budget.allowance", keep_span=False)
        self.patch(budget, "record_emission", "budget.record", keep_span=False)
        self.patch(cli, "summarize", "reporting.summarize")
        self.patch(cli, "buckets_csv", "reporting.buckets", csv_note)
        self.patch(cli, "steps_csv", "reporting.steps_csv", csv_note)
        self.patch(cli, "summary_csv", "reporting.summary_csv", csv_note)

    # -- results ----------------------------------------------------------

    def self_time(self, layer: str) -> float:
        return self.total[layer] - self.child[layer]

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced since this tracer was made."""
        st = self.self_time
        calls, counts = self.calls, self.counts

        def ratio(layer):
            return len(self.unique[layer]) / calls[layer] if calls[layer] else 0.0

        return {
            "experiment.load_s": st("experiment.load"),
            "experiment.validate_s": st("experiment.validate"),
            "experiment.build_s": st("experiment.build"),
            "carbon.parse_s": st("carbon.parse"),
            "carbon.parse_calls": calls["carbon.parse"],
            "carbon.parse_unique_ratio": ratio("carbon.parse"),
            "workload.import_s": st("workload.import"),
            "workload.tasks_imported": int(counts["workload.tasks_imported"]),
            "workload.generate_s": st("workload.generate"),
            "workload.generate_calls": calls["workload.generate"],
            "workload.tasks_generated": int(counts["workload.tasks_generated"]),
            "workload.generate_unique_ratio": ratio("workload.generate"),
            "queue.admit_s": st("queue.admit"),
            "queue.allocate_s": st("queue.allocate"),
            "queue.drop_s": st("queue.drop"),
            "queue.tasks_admitted": int(counts["queue.tasks_admitted"]),
            "queue.tasks_finished": int(counts["queue.tasks_finished"]),
            "queue.tasks_dropped": int(counts["queue.tasks_dropped"]),
            "policies.choose_s": st("policies.choose"),
            "policies.choose_calls": calls["policies.choose"],
            "policies.candidates_per_call": (counts["policies.candidates"] / calls["policies.choose"]
                                             if calls["policies.choose"] else 0.0),
            "budget.allowance_s": st("budget.allowance"),
            "budget.record_s": st("budget.record"),
            "engine.run_s": self.total["engine.run"],
            "engine.self_s": st("engine.run"),
            "engine.steps": int(counts["engine.steps"]),
            "engine.report_mb": counts["engine.report_bytes"] / 1e6,
            "reporting.summarize_s": st("reporting.summarize"),
            "reporting.buckets_s": st("reporting.buckets"),
            "reporting.steps_csv_s": st("reporting.steps_csv"),
            "reporting.summary_csv_s": st("reporting.summary_csv"),
            "reporting.csv_mb": counts["reporting.csv_chars"] / 1e6,
            "cli.self_s": st("cli.main"),
        }
