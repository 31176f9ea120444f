"""Extension F — closing the loop: CTMC parameters measured from code.

Section VI, step one, tells designers to *evaluate* μ_k and ξ_k of
their actual analyzing/scheduling algorithms before any buffer sizing.
This bench does exactly that for this repository's implementation:

1. measure the real recovery analyzer's alert-processing rate and the
   real batch heal's unit rate at growing batch sizes;
2. fit ``rate_k = r₁ / k^α`` power laws (the CTMC's degradation family);
3. instantiate the CTMC with the *fitted shapes*, α clamped to
   [0, 1.5] (bases normalized to the paper's μ₁=15, ξ₁=20 scale so
   results are comparable), and run the Section VI design procedure on
   it.

The fitted exponents are printed, not asserted: the analyzer orders no
unit against another and the heal merges its batch, so neither does
per-unit work that grows with the batch, and a wall-clock α near zero
(or below it) has either sign by timing noise.  Asserted: the
calibrated model admits a feasible design at λ=1.  The rates, fits and
design are this machine's and go to stdout; ``results/calibration.txt``
records only the work each rate times, which every machine reproduces.
"""

from __future__ import annotations

from repro.markov.calibration import (
    _alerts,
    _attacked_pipeline,
    _decided,
    fit_power_law,
    measure_recovery_rates,
    measure_scan_rates,
)
from repro.markov.degradation import power_law
from repro.markov.design import design_system
from repro.report.tables import Table

BATCHES = (1, 2, 4, 8)


def clamp_alpha(alpha):
    """A fitted exponent as a CTMC degradation exponent in [0, 1.5]."""
    return min(max(alpha, 0.0), 1.5)


def calibrate():
    scan_rates = measure_scan_rates(batch_sizes=BATCHES, repeats=2)
    recovery_rates = measure_recovery_rates(unit_counts=BATCHES,
                                            repeats=2)
    scan_fit = fit_power_law(scan_rates)
    recovery_fit = fit_power_law(recovery_rates)
    return scan_rates, recovery_rates, scan_fit, recovery_fit


def batch_work(k):
    """The deterministic work behind the rates at batch size ``k``: the
    definite Theorem 1/2 sets of the analysed batch and the undos and
    redos of its heal, on the pipelines the measurements time."""
    attacked = _attacked_pipeline(0, max(BATCHES))
    alerts = _alerts(attacked, k)
    undo_analysis, redo_analysis = _decided(attacked, alerts)
    report = attacked.manager.heal(alerts)
    return (len(undo_analysis.definite), len(redo_analysis.definite),
            len(report.undone), len(report.redone))


def test_calibrated_model(save_table, benchmark):
    scan_rates, recovery_rates, scan_fit, recovery_fit = (
        benchmark.pedantic(calibrate, rounds=1, iterations=1)
    )

    # Rates, fits and the design they size are wall-clock numbers of
    # this machine: printed (``pytest -s``), not committed.
    rates = Table(
        "Extension F: measured processing rates and power-law fits",
        ["k", "scan rate (alerts/s)", "recovery rate (units/s)"],
    )
    for k in BATCHES:
        rates.add_row(k, scan_rates[k], recovery_rates[k])
    print()
    print(rates.render())
    print(f"fits: mu_k = {scan_fit.base:.1f}/k^{scan_fit.alpha:.2f} "
          f"(rms {scan_fit.residual:.3f}), "
          f"xi_k = {recovery_fit.base:.1f}/k^{recovery_fit.alpha:.2f} "
          f"(rms {recovery_fit.residual:.3f})")

    # Instantiate the model with the fitted *shapes* at the paper's
    # rate scale and size a system for lambda=1, epsilon=1e-2.
    result = design_system(
        arrival_rate=1.0,
        epsilon=1e-2,
        scan=power_law(15.0, clamp_alpha(scan_fit.alpha)),
        recovery=power_law(20.0, clamp_alpha(recovery_fit.alpha)),
        max_buffer=30,
    )
    assert result.feasible, result.summary()
    print(f"calibrated design: {result.summary()}")

    work = Table(
        "Extension F: the work each measured rate times",
        ["k", "definite undos", "definite redos", "heal undone",
         "heal redone"],
    )
    for k in BATCHES:
        work.add_row(k, *batch_work(k))
    save_table("calibration", work.render())
