"""Tests for the Gillespie simulation of the recovery STG.

The simulated trajectory is the CTMC, so long-run occupancies must agree
with the analytic steady state — the cross-validation the paper lacks.
"""

import random

import pytest

from repro.errors import SimulationError
from repro.markov.metrics import loss_probability
from repro.markov.steady_state import steady_state
from repro.markov.stg import RecoverySTG, State
from repro.sim.ctmc_sim import GillespieSimulator


class TestTrajectory:
    def test_occupancy_sums_to_one(self, small_stg):
        sim = GillespieSimulator(small_stg, random.Random(1))
        result = sim.run(horizon=200.0)
        assert sum(result.occupancy.values()) == pytest.approx(1.0)
        assert sum(result.category_occupancy.values()) == pytest.approx(1.0)

    def test_matches_analytic_steady_state(self, small_stg):
        chain = small_stg.ctmc()
        pi = steady_state(chain)
        sim = GillespieSimulator(small_stg, random.Random(7))
        result = sim.run(horizon=20_000.0)
        for state in small_stg.states:
            analytic = pi[chain.index_of(state)]
            empirical = result.occupancy.get(state, 0.0)
            assert empirical == pytest.approx(analytic, abs=0.02)

    def test_empirical_loss_matches_analytic(self):
        stg = RecoverySTG.paper_default(arrival_rate=2.0, buffer_size=5)
        pi = steady_state(stg.ctmc())
        analytic = loss_probability(stg, pi)
        sim = GillespieSimulator(stg, random.Random(11))
        result = sim.run(horizon=20_000.0)
        empirical = sum(
            frac
            for s, frac in result.occupancy.items()
            if s.alerts == stg.alert_buffer
        )
        assert empirical == pytest.approx(analytic, abs=0.03)

    def test_deterministic_per_seed(self, small_stg):
        r1 = GillespieSimulator(small_stg, random.Random(3)).run(100.0)
        r2 = GillespieSimulator(small_stg, random.Random(3)).run(100.0)
        assert r1.occupancy == r2.occupancy
        assert r1.jumps == r2.jumps

    def test_loss_time_fraction_tracks_full_alert_queue(self, small_stg):
        sim = GillespieSimulator(small_stg, random.Random(5))
        result = sim.run(horizon=500.0)
        expected = sum(
            frac
            for s, frac in result.occupancy.items()
            if s.alerts == small_stg.alert_buffer
        )
        assert result.loss_time_fraction == pytest.approx(expected)

    def test_overloaded_system_actually_loses_alerts(self):
        stg = RecoverySTG.paper_default(arrival_rate=6.0, buffer_size=3)
        sim = GillespieSimulator(stg, random.Random(2))
        result = sim.run(horizon=2_000.0)
        assert result.arrivals_lost > 0
        assert 0.0 < result.alert_loss_fraction <= 1.0
        assert result.arrivals >= result.arrivals_lost

    def test_quiet_system_loses_nothing(self):
        stg = RecoverySTG.paper_default(arrival_rate=0.05)
        sim = GillespieSimulator(stg, random.Random(4))
        result = sim.run(horizon=1_000.0)
        assert result.arrivals_lost == 0
        assert result.alert_loss_fraction == 0.0

    def test_custom_start_state(self, small_stg):
        start = State(small_stg.alert_buffer, small_stg.recovery_buffer)
        sim = GillespieSimulator(small_stg, random.Random(9))
        result = sim.run(horizon=50.0, start=start)
        assert start in result.occupancy

    def test_zero_horizon_rejected(self, small_stg):
        with pytest.raises(SimulationError):
            GillespieSimulator(small_stg).run(horizon=0.0)

    def test_no_arrivals_absorbs_at_normal(self):
        stg = RecoverySTG.paper_default(arrival_rate=0.0, buffer_size=3)
        sim = GillespieSimulator(stg, random.Random(1))
        result = sim.run(horizon=100.0, start=State(0, 3))
        # Drains the recovery queue then parks at NORMAL forever.
        assert result.occupancy[State(0, 0)] > 0.9
        assert result.arrivals == 0
