"""Extension E — bursty arrivals vs the Poisson assumption.

Section IV-D acknowledges that real intrusions arrive in bursts but
adopts Poisson arrivals for tractability; Section VI compensates by
advising designers to size the alert buffer "according to the peak rate
the system wants to handle".  This bench quantifies the gap: the same
recovery pipeline is driven by a Poisson stream and by MMPP streams of
*identical mean rate* but increasing peak-to-mean ratio, across buffer
sizes.

Expected shape: at equal mean load, burstier streams lose strictly more
alerts.  Moreover, with the realistic ``1/k`` degradation the Figure
4(b) effect compounds the problem: *larger buffers do not reduce bursty
loss* — a burst fills the queue, processing degrades, and the loss
episode lasts longer.  Both observations support the Section VI
guideline to size for the peak rate (and to improve algorithms) rather
than to grow buffers for the mean rate.
"""

from __future__ import annotations

import random

from repro.markov.stg import RecoverySTG
from repro.report.series import Series, format_series
from repro.sim.bursty import BurstModel, BurstySimulator
from repro.sim.ctmc_sim import GillespieSimulator

MEAN_RATE = 1.0
PEAK_TO_MEAN = [3.0, 8.0]
BUFFERS = [4, 8, 12]
HORIZON = 40_000.0
SEEDS = 3


def compute_bursty_comparison():
    series = {"poisson": Series("poisson")}
    for ptm in PEAK_TO_MEAN:
        series[ptm] = Series(f"bursty peak/mean={ptm:g}")
    for buffer in BUFFERS:
        stg = RecoverySTG.paper_default(
            arrival_rate=MEAN_RATE, buffer_size=buffer
        )
        loss = 0.0
        for seed in range(SEEDS):
            sim = GillespieSimulator(stg, random.Random(seed))
            loss += sim.run(HORIZON).loss_time_fraction
        series["poisson"].add(buffer, loss / SEEDS)
        for ptm in PEAK_TO_MEAN:
            model = BurstModel.with_mean(
                MEAN_RATE, peak_to_mean=ptm, mean_burst_length=4.0
            )
            loss = 0.0
            for seed in range(SEEDS):
                sim = BurstySimulator(stg, model, random.Random(seed))
                loss += sim.run(HORIZON).loss_time_fraction
            series[ptm].add(buffer, loss / SEEDS)
    return series


def test_bursty_arrivals(save_table, benchmark):
    series = benchmark.pedantic(
        compute_bursty_comparison, rounds=1, iterations=1
    )

    for buffer in BUFFERS:
        poisson = series["poisson"].y_at(buffer)
        for ptm in PEAK_TO_MEAN:
            assert series[ptm].y_at(buffer) > poisson, (buffer, ptm)
        # Burstier ⇒ lossier at equal mean rate.
        assert series[8.0].y_at(buffer) >= series[3.0].y_at(buffer)

    # Growing the buffer does NOT cure bursty loss under 1/k
    # degradation (the Figure 4(b) effect): the gap to Poisson stays
    # wide at the largest buffer.
    for ptm in PEAK_TO_MEAN:
        assert series[ptm].y_at(BUFFERS[-1]) >= series[ptm].y_at(
            BUFFERS[0]
        ) * 0.5  # no order-of-magnitude improvement from buffers
    assert series[8.0].y_at(BUFFERS[-1]) > 10 * max(
        series["poisson"].y_at(BUFFERS[-1]), 1e-6
    )

    save_table(
        "bursty_arrivals",
        format_series(
            "Extension E: loss-time fraction, Poisson vs bursty "
            f"arrivals (mean rate {MEAN_RATE:g}, horizon {HORIZON:g})",
            list(series.values()),
            x_label="buffer",
        ),
    )
