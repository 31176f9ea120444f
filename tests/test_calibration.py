"""Tests for CTMC calibration from measured analyzer/healer timings."""

import pytest

from repro.errors import ModelError
from repro.markov.calibration import (
    fit_power_law,
    measure_recovery_rates,
    measure_scan_rates,
)


class TestFitPowerLaw:
    def test_exact_power_law_recovered(self):
        rates = {k: 12.0 / k ** 0.7 for k in (1, 2, 4, 8, 16)}
        fit = fit_power_law(rates)
        assert fit.base == pytest.approx(12.0, rel=1e-6)
        assert fit.alpha == pytest.approx(0.7, abs=1e-6)
        assert fit.residual < 1e-9

    def test_constant_rates_give_zero_alpha(self):
        fit = fit_power_law({k: 5.0 for k in (1, 2, 4)})
        assert fit.alpha == pytest.approx(0.0, abs=1e-9)
        assert fit.base == pytest.approx(5.0)

    def test_noisy_rates_still_fit(self):
        rates = {1: 10.0, 2: 5.4, 4: 2.4, 8: 1.3}
        fit = fit_power_law(rates)
        assert 0.8 <= fit.alpha <= 1.2
        assert fit.residual < 0.2

    def test_validation(self):
        with pytest.raises(ModelError):
            fit_power_law({1: 5.0})
        with pytest.raises(ModelError):
            fit_power_law({1: 5.0, 2: 0.0})


class TestMeasurements:
    def test_scan_rates_measured_and_positive(self):
        rates = measure_scan_rates(batch_sizes=(1, 4), repeats=1)
        assert set(rates) == {1, 4}
        assert all(r > 0 for r in rates.values())

    def test_recovery_rates_measured_and_positive(self):
        rates = measure_recovery_rates(unit_counts=(1, 2), repeats=1)
        assert set(rates) == {1, 2}
        assert all(r > 0 for r in rates.values())
