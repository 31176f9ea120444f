"""Tests for the MMPP bursty-arrival extension.

The (burst phase, STG state) product chain is solved exactly, so the
degenerate corners of the MMPP parameter space must reproduce the
Poisson STG's Definition 3 loss to rounding, not to sampling error.
"""

import pytest

from repro.errors import ModelError
from repro.markov.bursty import BurstModel, _product_chain, bursty_loss
from repro.markov.metrics import loss_probability
from repro.markov.steady_state import steady_state
from repro.markov.stg import RecoverySTG


def poisson_loss(stg: RecoverySTG) -> float:
    return loss_probability(stg, steady_state(stg.ctmc()))


def phase_occupancy(stg: RecoverySTG, burst: BurstModel):
    """``{phase: {State: π}}`` of the product chain's steady state."""
    chain = _product_chain(stg, burst)
    out = {}
    for (phase, state), p in zip(chain.states, steady_state(chain)):
        out.setdefault(phase, {})[state] = p
    return out


class TestBurstModel:
    def test_mean_rate(self):
        model = BurstModel(quiet_rate=0.0, burst_rate=10.0,
                           onset_rate=1.0, decay_rate=9.0)
        assert model.burst_fraction == pytest.approx(0.1)
        assert model.mean_rate == pytest.approx(1.0)

    def test_with_mean_hits_target(self):
        for mean in (0.5, 1.0, 2.0):
            for ptm in (2.0, 5.0, 10.0):
                model = BurstModel.with_mean(
                    mean, peak_to_mean=ptm, mean_burst_length=2.0
                )
                assert model.mean_rate == pytest.approx(mean)
                assert model.burst_rate == pytest.approx(mean * ptm)

    def test_validation(self):
        with pytest.raises(ModelError):
            BurstModel(-1, 1, 1, 1)
        with pytest.raises(ModelError):
            BurstModel(0, 1, 0, 1)  # never any arrival
        with pytest.raises(ModelError):
            BurstModel.with_mean(1.0, peak_to_mean=1.0,
                                 mean_burst_length=1.0)
        with pytest.raises(ModelError):
            BurstModel.with_mean(1.0, peak_to_mean=2.0,
                                 mean_burst_length=1.0, quiet_rate=3.0)


class TestBurstySimulator:
    """The exact product chain that replaced the sampled MMPP loop."""

    def test_mean_arrival_rate_realized(self):
        """The phase marginal is the burst fraction, so the chain's
        long-run arrival rate is the model's mean rate."""
        stg = RecoverySTG.paper_default(buffer_size=10)
        model = BurstModel.with_mean(1.0, peak_to_mean=4.0,
                                     mean_burst_length=3.0)
        occ = phase_occupancy(stg, model)
        in_burst = sum(occ[1].values())
        assert in_burst == pytest.approx(model.burst_fraction, abs=1e-12)
        realized = (in_burst * model.burst_rate
                    + sum(occ[0].values()) * model.quiet_rate)
        assert realized == pytest.approx(model.mean_rate, abs=1e-12)

    def test_degenerate_model_matches_poisson(self):
        """A 'burst' model whose two phases share one rate is Poisson;
        its loss must match the analytic steady state."""
        stg = RecoverySTG.paper_default(arrival_rate=2.0, buffer_size=5)
        model = BurstModel(quiet_rate=2.0, burst_rate=2.0,
                           onset_rate=1.0, decay_rate=1.0)
        assert bursty_loss(stg, model) == pytest.approx(
            poisson_loss(stg), abs=1e-12
        )

    def test_bursty_worse_than_poisson_at_same_mean(self):
        """The headline claim behind Section VI's peak-rate sizing."""
        mean = 1.0
        stg = RecoverySTG.paper_default(arrival_rate=mean, buffer_size=6)
        model = BurstModel.with_mean(mean, peak_to_mean=8.0,
                                     mean_burst_length=4.0)
        assert bursty_loss(stg, model) > 10 * poisson_loss(stg)


class TestAdversarialModels:
    """Degenerate and hostile corners of the MMPP parameter space."""

    def test_permanent_burst_is_poisson_at_peak(self):
        """onset > 0, decay = 0: one transition into a burst that never
        ends — the long-run process is Poisson at the peak rate."""
        model = BurstModel(quiet_rate=0.0, burst_rate=3.0,
                           onset_rate=5.0, decay_rate=0.0)
        assert model.burst_fraction == pytest.approx(1.0)
        assert model.mean_rate == pytest.approx(3.0)
        stg = RecoverySTG.paper_default(arrival_rate=3.0, buffer_size=5)
        assert bursty_loss(stg, model) == pytest.approx(
            poisson_loss(stg), abs=1e-12
        )

    def test_burst_that_never_starts_is_quiet_poisson(self):
        """onset = 0 with a positive quiet rate: the burst phase is
        unreachable and the stream is plain Poisson (with decay = 0
        too, a two-phase chain would have two closed classes)."""
        stg = RecoverySTG.paper_default(arrival_rate=1.0, buffer_size=5)
        for decay_rate in (1.0, 0.0):
            model = BurstModel(quiet_rate=1.0, burst_rate=50.0,
                               onset_rate=0.0, decay_rate=decay_rate)
            assert model.burst_fraction == 0.0
            assert model.mean_rate == pytest.approx(1.0)
            assert bursty_loss(stg, model) == pytest.approx(
                poisson_loss(stg), abs=1e-12
            )

    def test_extreme_peak_saturates_tiny_buffer(self):
        """A 100x peak against a one-slot buffer: most arrivals come in
        bursts, and most burst arrivals find the buffer full."""
        stg = RecoverySTG.paper_default(buffer_size=1)
        model = BurstModel.with_mean(1.0, peak_to_mean=100.0,
                                     mean_burst_length=5.0)
        occ = phase_occupancy(stg, model)
        full = stg.alert_buffer
        lost_rate = sum(
            p * rate
            for phase, rate in ((0, model.quiet_rate),
                                (1, model.burst_rate))
            for s, p in occ[phase].items() if s.alerts == full
        )
        assert lost_rate / model.mean_rate > 0.5
        assert 0 < bursty_loss(stg, model) < model.burst_fraction

    def test_mean_unreachable_quiet_rate_rejected(self):
        # quiet_rate == mean makes p = 0: no valid burst fraction.
        with pytest.raises(ModelError):
            BurstModel.with_mean(1.0, peak_to_mean=2.0,
                                 mean_burst_length=1.0, quiet_rate=1.0)
