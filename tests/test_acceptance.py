"""End-to-end acceptance gate.

Each test prints one [PASS]/[FAIL] line on the terminal (bypassing capture) so
a full run gives a nine-line scorecard in addition to the pytest verdict.
"""

import hashlib
import math
import random
import time

import pytest

from conftest import constant_trace, make_config, simple_workload
from embudget.carbon import CarbonIntensityTrace
from embudget.cli import main
from embudget.cluster import LARGE, MEDIUM, SMALL, NodeSpec
from embudget.engine import PolicySpec, run_scenario
from embudget.experiment import build_scenarios, load_experiment
from embudget.presets import paper_grid_path
from embudget.reporting import emission_cost_eur, summarize
from embudget.workload import DiurnalTraceParams, TaskTable

from oracle import naive_run

WEEK = 604_800
EXACT_RATE = 10_080.0 / 604_800.0


def announce(capsys, criterion, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")


# Published results-table values: (scenario, total kg, cost at 80/150/700 EUR/t).
COST_TABLE = [
    ("fixed_DE1", 8.55, 0.68, 1.28, 5.99),
    ("fixed_DE2", 9.24, 0.74, 1.39, 6.47),
    ("fixed_FR1", 0.37, 0.03, 0.06, 0.26),
    ("fixed_FR2", 1.15, 0.09, 0.17, 0.81),
    ("fixed_PL1", 10.05, 0.80, 1.51, 7.03),
    ("fixed_PL2", 10.05, 0.80, 1.51, 7.03),
    ("budget_DE1", 9.52, 0.76, 1.43, 6.67),
    ("budget_DE2", 9.59, 0.77, 1.44, 6.71),
    ("budget_FR1", 0.37, 0.03, 0.06, 0.26),
    ("budget_FR2", 1.15, 0.09, 0.17, 0.81),
    ("budget_PL1", 10.05, 0.80, 1.51, 7.03),
    ("budget_PL2", 10.05, 0.80, 1.51, 7.03),
    ("unlimited_DE1", 14.02, 1.12, 2.10, 9.82),
    ("unlimited_DE2", 15.19, 1.22, 2.28, 10.63),
    ("unlimited_FR1", 0.37, 0.03, 0.06, 0.26),
    ("unlimited_FR2", 1.15, 0.09, 0.17, 0.81),
    ("unlimited_PL1", 40.95, 3.28, 6.14, 28.66),
    ("unlimited_PL2", 32.50, 2.60, 4.88, 22.75),
]


def test_criterion_1_cost_reproduction(capsys):
    worst = 0.0
    for _, total_kg, *expected in COST_TABLE:
        for price, want in zip((80.0, 150.0, 700.0), expected):
            got = emission_cost_eur(total_kg, price)
            worst = max(worst, abs(got - want))
    ok = worst <= 0.01
    announce(capsys, 1, ok, f"54 cost cells, worst deviation {worst:.4f} EUR")
    assert ok


def test_criterion_2_energy_identity(capsys):
    pinned = NodeSpec("pin", 50, 338.93, 600.0)
    config = make_config("pin", constant_trace(100.0, hours=168), WEEK,
                         PolicySpec("unlimited"), tasks=TaskTable([]),
                         cluster=(pinned,), initial="pin")
    row = summarize(run_scenario(config))
    ok = (abs(row.energy_kwh - 56.94) <= 0.01
          and row.power_mean_w == pytest.approx(338.93)
          and row.power_median_w == pytest.approx(338.93))
    announce(capsys, 2, ok, f"constant 338.93 W week -> {row.energy_kwh:.4f} kWh")
    assert ok


def test_criterion_3_hard_cap_safety(capsys):
    rng = random.Random(1234)
    checked = 0
    worst_margin = -math.inf
    for i in range(100):
        horizon = rng.randrange(200, 500)
        n_hours = horizon // 60 + 1
        values = tuple(0.0 if rng.random() < 0.1 else rng.uniform(5.0, 1500.0)
                       for _ in range(n_hours))
        trace = CarbonIntensityTrace(f"r{i}", 0, 60, values)
        workload = simple_workload(
            base_rate=rng.uniform(0.2, 2.0),
            task_cu=float(rng.randrange(1, 7)),
            task_runtime=float(rng.randrange(1, 11)),
            deadline_slack=float(rng.randrange(20, 200)),
        )
        total = rng.uniform(0.001, 0.03) * horizon
        rate = rng.uniform(0.001, 0.03)

        greedy = run_scenario(make_config(
            f"g{i}", trace, horizon, PolicySpec("greedy_budget", budget_total_g=total),
            workload=workload, seed=i))
        base = total / horizon
        spent = 0.0
        for t, e in enumerate(greedy.emission_g):
            spent += e
            assert spent <= base * (t + 1) + 1e-9, f"front-loading at t={t} in g{i}"
        assert spent <= total + 1e-9, f"budget exceeded in g{i}"
        worst_margin = max(worst_margin, spent - total)

        fixed = run_scenario(make_config(
            f"f{i}", trace, horizon, PolicySpec("fixed", rate_g_per_s=rate),
            workload=workload, seed=i))
        for t, e in enumerate(fixed.emission_g):
            assert e <= rate + 1e-9, f"rate exceeded at t={t} in f{i}"
        checked += 1
    ok = checked == 100
    announce(capsys, 3, ok,
             f"{checked} random scenarios, worst budget margin {worst_margin:.2e} g")
    assert ok


def test_criterion_4_stable_grid_parity(capsys):
    day = 86_400
    workload = simple_workload(base_rate=0.6, task_cu=2.0, task_runtime=3.0,
                               deadline_slack=60.0)
    diffs = []
    for ci in (30.0, 750.0):
        trace = constant_trace(ci, hours=24)
        counts = {}
        for kind, policy in (("fixed", PolicySpec("fixed", rate_g_per_s=EXACT_RATE)),
                             ("budget", PolicySpec("greedy_budget", budget_total_g=10_080.0 / 7))):
            report = run_scenario(make_config(kind, trace, day, policy,
                                              workload=workload, seed=4))
            counts[kind] = report.finished_tasks
        diff = abs(counts["fixed"] - counts["budget"]) / max(counts.values())
        diffs.append((ci, counts["fixed"], counts["budget"], diff))
    ok = all(d[3] <= 0.001 for d in diffs)
    detail = "; ".join(f"CI {ci:g}: fixed {f} vs budget {b} ({d:.4%})"
                       for ci, f, b, d in diffs)
    announce(capsys, 4, ok, detail)
    assert ok


def test_criterion_5_variable_grid_benefit(capsys):
    # two days of 12 h low-CI / 12 h high-CI phases, demand spikes at 14:00
    # and 19:00 (inside the high phase)
    days = 2
    horizon = days * 86_400
    values = tuple(([50.0] * 12 + [700.0] * 12) * days)
    trace = CarbonIntensityTrace("alt", 0, 3600, values)
    workload = DiurnalTraceParams(
        base_rate=0.1, peak_amplitudes=(1.2, 1.2), peak_times=(50_400.0, 68_400.0),
        peak_width=5_400.0, task_cu=5.0, task_runtime=12.0, deadline_slack=120.0)
    total = 1_440.0 * days
    rate = total / horizon

    fixed = run_scenario(make_config("fixed", trace, horizon,
                                     PolicySpec("fixed", rate_g_per_s=rate),
                                     workload=workload, seed=5))
    greedy = run_scenario(make_config("greedy", trace, horizon,
                                      PolicySpec("greedy_budget", budget_total_g=total),
                                      workload=workload, seed=5))
    spent = math.fsum(greedy.emission_g)
    gain = greedy.finished_tasks / fixed.finished_tasks - 1.0
    ok = gain >= 0.10 and spent <= total + 1e-9
    announce(capsys, 5,
             ok, f"budget {greedy.finished_tasks} vs fixed {fixed.finished_tasks} "
                 f"tasks (+{gain:.1%}), spent {spent:.1f} of {total:.0f} g")
    assert ok


def replay_like_blueprint(rng):
    """Task fields in a replay's order, sorted by (arrival, id): ids out of arrival order,
    deadlines on a 50 s grid so they tie, and a task that arrives and expires before 0."""
    n = rng.randrange(20, 200)
    ids = rng.sample(range(3 * n), n)
    rows = [(ids[0], -20, rng.randrange(1, 7), rng.randrange(1, 16), -5.0)]
    for tid in ids[1:]:
        arrival = rng.randrange(0, 900)
        runtime = rng.randrange(1, 16)
        deadline = (arrival + runtime + rng.randrange(10, 300)) // 50 * 50 + 50
        rows.append((tid, arrival, rng.randrange(1, 7), runtime, deadline))
    return sorted(rows, key=lambda row: (row[1], row[0]))


def test_criterion_6_oracle_equivalence(capsys):
    rng = random.Random(99)
    replay_rng = random.Random(7)  # its own stream, so the generated runs stay as they were
    clusters = [(SMALL,), (SMALL, MEDIUM), (MEDIUM, LARGE), (SMALL, MEDIUM, LARGE)]
    scenarios = 0
    for i in range(20):
        horizon = 1000
        values = tuple(0.0 if rng.random() < 0.15 else rng.uniform(10.0, 1200.0)
                       for _ in range(10))
        trace = CarbonIntensityTrace(f"o{i}", 0, 100, values)
        cluster = rng.choice(clusters)
        initial = rng.choice(cluster).name
        if i < 15:
            arrivals = sorted(rng.randrange(0, 900) for _ in range(rng.randrange(20, 200)))
            blueprint = []
            for tid, arrival in enumerate(arrivals):
                cu = rng.randrange(1, 7)
                runtime = rng.randrange(1, 16)
                blueprint.append((tid, arrival, cu, runtime,
                                  arrival + runtime + rng.randrange(10, 300)))
        else:
            blueprint = replay_like_blueprint(replay_rng)
        for policy in (PolicySpec("unlimited"),
                       PolicySpec("fixed", rate_g_per_s=rng.uniform(0.001, 0.05)),
                       PolicySpec("greedy_budget", budget_total_g=rng.uniform(0.5, 50.0))):
            tasks = TaskTable(blueprint)
            report = run_scenario(make_config(
                f"o{i}_{policy.kind}", trace, horizon, policy, tasks=tasks,
                cluster=cluster, initial=initial))
            powers, emissions, completions, drops = naive_run(
                values, 100, cluster, initial, tasks, policy.kind,
                rate=policy.rate_g_per_s, budget_total=policy.budget_total_g,
                horizon=horizon)
            for t in range(horizon):
                assert report.power_w[t] == powers[t], \
                    f"{report.label}: power differs at t={t}"
                assert report.emission_g[t] == emissions[t], \
                    f"{report.label}: emission differs at t={t}"
            assert list(report.completions) == completions, f"{report.label}: completions differ"
            assert list(report.drops) == drops, f"{report.label}: drops differ"
            scenarios += 1
    ok = scenarios == 60
    announce(capsys, 6, ok, f"{scenarios} runs match the naive evaluator bit-for-bit")
    assert ok


def test_criterion_7_zero_intensity_equivalence(capsys):
    trace = constant_trace(0.0, hours=2)
    workload = simple_workload(base_rate=0.8, task_cu=3.0, task_runtime=8.0)
    counts = {}
    for policy in (PolicySpec("unlimited"),
                   PolicySpec("fixed", rate_g_per_s=EXACT_RATE),
                   PolicySpec("greedy_budget", budget_total_g=10_080.0)):
        counts[policy.kind] = run_scenario(
            make_config(policy.kind, trace, 7200, policy, workload=workload)
        ).finished_tasks
    ok = len(set(counts.values())) == 1 and all(c > 0 for c in counts.values())
    announce(capsys, 7, ok, f"finished tasks at CI=0: {counts}")
    assert ok


@pytest.fixture(scope="session")
def grid_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("grid1")
    started = time.perf_counter()
    rc = main(["run", str(paper_grid_path()), "--out", str(out)])
    elapsed = time.perf_counter() - started
    assert rc == 0
    return elapsed, (out / "summary.csv").read_bytes(), out


def test_criterion_8_determinism(grid_run, tmp_path, capsys):
    _, first, _ = grid_run
    out = tmp_path / "grid2"
    rc = main(["run", str(paper_grid_path()), "--out", str(out)])
    assert rc == 0
    second = (out / "summary.csv").read_bytes()
    ok = first == second
    announce(capsys, 8, ok, "two full-grid runs, summary CSVs byte-identical")
    assert ok


# sha256 of each output file of the bundled full-week grid. A change that moves
# any output on purpose updates this table and says why. manifest.txt is left
# out: it names the experiment file's path.
GRID_OUTPUT_SHA256 = {
    "summary.csv": "6b498d39dbb1d8c17d3188ec3c60856c2148d2a3532abb96a14d758dbf9657cb",
    "buckets_budget_DE1.csv": "29ebf5d91a1be95d42ef073309d48511a521619a68de9550092892f2ad25494a",
    "buckets_budget_DE2.csv": "29ebf5d91a1be95d42ef073309d48511a521619a68de9550092892f2ad25494a",
    "buckets_budget_FR1.csv": "ee0e2dc426ccc2d8773b1cb358d2acf23ab6cdeac128228fee3b78973c3eadb1",
    "buckets_budget_FR2.csv": "ee0e2dc426ccc2d8773b1cb358d2acf23ab6cdeac128228fee3b78973c3eadb1",
    "buckets_budget_PL1.csv": "b0bc1906dea920067746c90d786d2aff848533c20d6a288dd22b9163f5180db8",
    "buckets_budget_PL2.csv": "b0bc1906dea920067746c90d786d2aff848533c20d6a288dd22b9163f5180db8",
    "buckets_fixed_DE1.csv": "f52cd1ab8400d3fb675df97d369839e0ebcd865b694579970ee86e6e4b92e86c",
    "buckets_fixed_DE2.csv": "f52cd1ab8400d3fb675df97d369839e0ebcd865b694579970ee86e6e4b92e86c",
    "buckets_fixed_FR1.csv": "ee0e2dc426ccc2d8773b1cb358d2acf23ab6cdeac128228fee3b78973c3eadb1",
    "buckets_fixed_FR2.csv": "ee0e2dc426ccc2d8773b1cb358d2acf23ab6cdeac128228fee3b78973c3eadb1",
    "buckets_fixed_PL1.csv": "af461bb94d4c91be495e73b8903b4dc0252d476ec5c029536eb0e064d546f200",
    "buckets_fixed_PL2.csv": "af461bb94d4c91be495e73b8903b4dc0252d476ec5c029536eb0e064d546f200",
    "buckets_unlimited_DE1.csv": "ea4a8d7a88587b0c18510cbbe211d6761d8556eff4ad3723817fc26ef628bb57",
    "buckets_unlimited_DE2.csv": "ea4a8d7a88587b0c18510cbbe211d6761d8556eff4ad3723817fc26ef628bb57",
    "buckets_unlimited_FR1.csv": "ee0e2dc426ccc2d8773b1cb358d2acf23ab6cdeac128228fee3b78973c3eadb1",
    "buckets_unlimited_FR2.csv": "ee0e2dc426ccc2d8773b1cb358d2acf23ab6cdeac128228fee3b78973c3eadb1",
    "buckets_unlimited_PL1.csv": "f68d8bf97c03465e03133c1486f9d25fe9aec77de49145409c727891feb0c329",
    "buckets_unlimited_PL2.csv": "f68d8bf97c03465e03133c1486f9d25fe9aec77de49145409c727891feb0c329",
}


def test_grid_outputs_pinned(grid_run):
    _, _, out = grid_run
    written = sorted(p.name for p in out.glob("*.csv"))
    assert written == sorted(GRID_OUTPUT_SHA256)
    moved = [name for name, want in GRID_OUTPUT_SHA256.items()
             if hashlib.sha256((out / name).read_bytes()).hexdigest() != want]
    assert moved == []


def test_criterion_9_performance(grid_run, capsys):
    grid_elapsed, _, _ = grid_run
    experiment = load_experiment(paper_grid_path())
    scenario = build_scenarios(experiment, labels=["unlimited_DE1"])[0]
    started = time.perf_counter()
    run_scenario(scenario)
    single = time.perf_counter() - started
    ok = single < 10.0 and grid_elapsed < 120.0
    announce(capsys, 9,
             ok, f"one week in {single:.1f} s, 18-scenario grid in {grid_elapsed:.1f} s")
    assert ok
