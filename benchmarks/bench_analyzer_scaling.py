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

from repro.core.undo_redo import find_redo_tasks, find_undo_tasks
from repro.report.tables import Table
from repro.sim.recovery_sim import run_pipeline
from repro.sim.workload import WorkloadConfig, WorkloadGenerator
from repro.workflow.dependency import DependencyAnalyzer

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


def decide(uids, index):
    """Theorems 1–2 for ``uids``, as a batch heal decides them."""
    undo = find_undo_tasks(index, uids)
    return undo, find_redo_tasks(index, undo.definite)


def measure_scaling():
    rows = []
    for size in LOG_SIZES:
        attacked = build_attacked_system(size)
        alerts = list(attacked.malicious_ground_truth) or [
            attacked.log.normal_records()[0].uid
        ]
        # The first analysis builds the log's dependency index; the
        # batches then decide on it too, so their per-alert times leave
        # out the build (a heal builds its one index before deciding).
        t0 = time.perf_counter()
        index = DependencyAnalyzer(attacked.log,
                                   attacked.specs_by_instance)
        decide(alerts[:1], index)
        single = time.perf_counter() - t0
        per_alert, work = {}, {}
        for batch in BATCHES:
            chosen = (alerts * batch)[:batch]
            t0 = time.perf_counter()
            undo, redo = decide(chosen, index)
            per_alert[batch] = (time.perf_counter() - t0) / batch
            work[batch] = f"{len(undo.definite)}/{len(redo.definite)}"
        rows.append((size, len(attacked.log.normal_records()), single,
                     per_alert, work))
    return rows


def test_analyzer_scaling(save_table, benchmark):
    rows = benchmark.pedantic(measure_scaling, rounds=1, iterations=1)

    # The committed table holds only what every machine reproduces: the
    # log each size builds and the Theorem 1/2 sets each batch decides.
    table = Table(
        "Extension C: recovery-analyzer work vs log size and batch size",
        ["target size", "log records"]
        + [f"undo/redo, batch {b}" for b in BATCHES],
    )
    # The wall times go to stdout only (``pytest -s``).
    timings = Table(
        "Extension C: recovery-analyzer wall time (this machine)",
        ["target size", "analyze 1 alert (s)"]
        + [f"per-alert, batch {b} (s)" for b in BATCHES],
    )
    for size, n_records, single, per_alert, work in rows:
        table.add_row(size, n_records, *[work[b] for b in BATCHES])
        timings.add_row(size, single, *[per_alert[b] for b in BATCHES])
    print()
    print(timings.render())

    # Total analysis time grows with the log (the μ-degradation driver):
    singles = [r[2] for r in rows]
    assert singles[-1] > singles[0]
    save_table("analyzer_scaling", table.render())
