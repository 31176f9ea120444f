"""Extension F — closing the loop: CTMC parameters measured from code.

Section VI, step one, tells designers to *evaluate* μ_k and ξ_k of
their actual analyzing/scheduling algorithms before any buffer sizing.
This bench does exactly that for this repository's implementation:

1. measure the real recovery analyzer's alert-processing rate and the
   real healer's unit-execution rate at growing batch sizes;
2. fit ``rate_k = r₁ / k^α`` power laws (the CTMC's degradation family);
3. instantiate the CTMC with the *fitted shapes* (bases normalized to
   the paper's μ₁=15, ξ₁=20 scale so results are comparable) and run
   the Section VI design procedure on it.

Asserted: both fitted schedules degrade (α > 0) — the empirical
justification for the paper's decreasing μ_k/ξ_k assumption — and the
calibrated model admits a feasible design at λ=1.
"""

from __future__ import annotations

from repro.markov.calibration import (
    fit_power_law,
    measure_recovery_rates,
    measure_scan_rates,
)
from repro.markov.degradation import power_law
from repro.markov.design import design_system
from repro.report.tables import Table

BATCHES = (1, 2, 4, 8)


def calibrate():
    scan_rates = measure_scan_rates(batch_sizes=BATCHES, repeats=2)
    recovery_rates = measure_recovery_rates(unit_counts=BATCHES,
                                            repeats=2)
    scan_fit = fit_power_law(scan_rates)
    recovery_fit = fit_power_law(recovery_rates)
    return scan_rates, recovery_rates, scan_fit, recovery_fit


def test_calibrated_model(save_table, benchmark):
    scan_rates, recovery_rates, scan_fit, recovery_fit = (
        benchmark.pedantic(calibrate, rounds=1, iterations=1)
    )

    table = Table(
        "Extension F: measured processing rates and power-law fits",
        ["k", "scan rate (alerts/s)", "recovery rate (units/s)"],
    )
    for k in BATCHES:
        table.add_row(k, scan_rates[k], recovery_rates[k])
    fit_note = (
        f"\nfits: mu_k = {scan_fit.base:.1f}/k^{scan_fit.alpha:.2f} "
        f"(rms {scan_fit.residual:.3f}), "
        f"xi_k = {recovery_fit.base:.1f}/k^{recovery_fit.alpha:.2f} "
        f"(rms {recovery_fit.residual:.3f})"
    )

    # Both real algorithms degrade with queue size — the paper's
    # assumption, measured.
    assert scan_fit.alpha > 0.0
    assert recovery_fit.alpha > 0.0

    # Instantiate the model with the fitted *shapes* at the paper's
    # rate scale and size a system for lambda=1, epsilon=1e-2.
    result = design_system(
        arrival_rate=1.0,
        epsilon=1e-2,
        scan=power_law(15.0, min(scan_fit.alpha, 1.5)),
        recovery=power_law(20.0, min(recovery_fit.alpha, 1.5)),
        max_buffer=30,
    )
    assert result.feasible, result.summary()
    design_note = f"\ncalibrated design: {result.summary()}"

    save_table(
        "calibration", table.render() + fit_note + design_note
    )
