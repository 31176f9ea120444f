"""Extension H — the operational system exhibits the model's phases.

Figure 5's λ sweep, re-run on the *full stack*: Poisson attack arrivals
execute real attacked workflows, the real analyzer scans alerts, and
real audited heals commit the repairs.  No exponential abstractions —
the queueing behaviour emerges from the architecture and the actual
recovery code.

Asserted shapes (the operational mirror of Figure 5(a)):

- P(NORMAL) decreases monotonically with λ; high at light load;
- the SCAN fraction and the alert-loss fraction rise with λ and
  dominate in overload;
- at every load level, all committed heals audit strictly correct and
  every injected attack is eventually repaired — the self-healing
  guarantee holds under sustained pressure, not just in single-shot
  scenarios.
"""

from __future__ import annotations

import random

from repro.markov.stg import StateCategory
from repro.obs.events import EventBus
from repro.obs.metrics import PipelineMetrics
from repro.report.series import Series, format_series
from repro.sim.fullstack import FullStackConfig, FullStackSimulator

LAMBDAS = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
HORIZON = 60.0


def sweep_fullstack():
    out = {
        "P(NORMAL)": Series("P(NORMAL)"),
        "P(SCAN)": Series("P(SCAN)"),
        "P(RECOVERY)": Series("P(RECOVERY)"),
        "loss": Series("alert loss fraction"),
        "repaired": Series("instances repaired"),
    }
    audits = []
    snapshot = None
    for lam in LAMBDAS:
        cfg = FullStackConfig(
            arrival_rate=lam, scan_time=1 / 15,
            unit_recovery_time=1 / 20, alert_buffer=6, recovery_buffer=6,
        )
        # Observe the overload point through the obs layer so the
        # persisted snapshot records loss counts and queue high-water
        # marks alongside the figure series.
        bus = metrics = None
        if lam == LAMBDAS[-1]:
            bus = EventBus()
            metrics = PipelineMetrics().attach(bus)
            metrics.start(0.0)
        result = FullStackSimulator(cfg, random.Random(7),
                                    bus=bus).run(HORIZON)
        if metrics is not None:
            metrics.finalize(HORIZON)
            snapshot = metrics
        out["P(NORMAL)"].add(lam, result.category_occupancy[
            StateCategory.NORMAL])
        out["P(SCAN)"].add(lam, result.category_occupancy[
            StateCategory.SCAN])
        out["P(RECOVERY)"].add(lam, result.category_occupancy[
            StateCategory.RECOVERY])
        out["loss"].add(lam, result.loss_fraction)
        out["repaired"].add(lam, result.repaired_instances)
        audits.append(
            result.all_heals_audited_ok
            and result.repaired_instances >= result.attacks
        )
    return out, audits, snapshot


def test_fullstack_phases(save_table, save_metrics, benchmark):
    series, audits, snapshot = benchmark.pedantic(
        sweep_fullstack, rounds=1, iterations=1
    )

    assert all(audits)  # correctness held at every load level
    assert snapshot is not None and snapshot.alerts_lost.value > 0

    normals = series["P(NORMAL)"].ys
    assert normals[0] > 0.9
    assert all(a >= b - 0.02 for a, b in zip(normals, normals[1:]))
    assert normals[-1] < 0.05

    assert series["P(SCAN)"].y_at(LAMBDAS[-1]) > 0.85
    assert series["loss"].y_at(0.25) == 0.0
    assert series["loss"].y_at(8.0) > 0.2
    losses = series["loss"].ys
    assert all(a <= b + 0.02 for a, b in zip(losses, losses[1:]))

    save_table(
        "fullstack_phases",
        format_series(
            "Extension H: full-stack operational sweep "
            f"(horizon {HORIZON:g}, real heals, all audited)",
            list(series.values()),
            x_label="lambda",
        ),
    )
    save_metrics("fullstack_phases", snapshot.registry)
