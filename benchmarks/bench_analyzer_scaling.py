"""Extension C — empirical degradation of the recovery analyzer.

The CTMC postulates μ_k = f(μ₁, k): alert processing slows as work
queues up, because the analyzer re-checks dependences over the log.
This bench *measures* that on the real analyzer: damage analysis time
as a function of log size, and per-alert analysis time as a function of
how many alerts are batched — the operational justification for the
``1/k``-style families used in Figures 4–6.

Expected shape: super-linear growth of total analysis time with log
size; per-alert cost growing with batch size (so the *rate* μ_k falls).
"""

from __future__ import annotations

import random
import time

from repro.core.analyzer import RecoveryAnalyzer
from repro.report.tables import Table
from repro.sim.recovery_sim import run_pipeline
from repro.sim.workload import WorkloadConfig, WorkloadGenerator

LOG_SIZES = [40, 80, 160, 320]
BATCHES = [1, 2, 4, 8]


def build_attacked_system(n_tasks_total, seed=0):
    per_wf = max(4, n_tasks_total // 4)
    gen = WorkloadGenerator(
        WorkloadConfig(n_workflows=4, tasks_per_workflow=per_wf,
                       branch_probability=0.3),
        random.Random(seed),
    )
    workload = gen.generate()
    campaign = gen.pick_attacks(workload, n_attacks=8)
    result = run_pipeline(workload, campaign, seed=seed)
    return result


def measure_scaling():
    rows = []
    for size in LOG_SIZES:
        attacked = build_attacked_system(size)
        analyzer = RecoveryAnalyzer(
            attacked.log, attacked.specs_by_instance
        )
        alerts = list(attacked.malicious_ground_truth) or [
            attacked.log.normal_records()[0].uid
        ]
        t0 = time.perf_counter()
        analyzer.analyze(alerts[:1])
        single = time.perf_counter() - t0
        per_alert = {}
        for batch in BATCHES:
            chosen = (alerts * batch)[:batch]
            t0 = time.perf_counter()
            analyzer.analyze(chosen)
            per_alert[batch] = (time.perf_counter() - t0) / batch
        rows.append(
            (size, len(attacked.log.normal_records()), single, per_alert)
        )
    return rows


def test_analyzer_scaling(save_table, benchmark):
    rows = benchmark.pedantic(measure_scaling, rounds=1, iterations=1)

    table = Table(
        "Extension C: recovery-analyzer cost vs log size and batch size",
        ["target size", "log records", "analyze 1 alert (s)"]
        + [f"per-alert, batch {b} (s)" for b in BATCHES],
    )
    for size, n_records, single, per_alert in rows:
        table.add_row(
            size, n_records, single, *[per_alert[b] for b in BATCHES]
        )

    # Total analysis time grows with the log (the μ-degradation driver):
    singles = [r[2] for r in rows]
    assert singles[-1] > singles[0]
    save_table("analyzer_scaling", table.render())
