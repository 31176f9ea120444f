"""Tests for loss probability, ε-convergence and expected queue lengths."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.markov.metrics import (
    category_probabilities,
    epsilon_convergence,
    expected_alerts,
    expected_lost_alerts,
    expected_recovery_units,
    loss_probability,
)
from repro.markov.steady_state import steady_state
from repro.markov.stg import RecoverySTG, State, StateCategory


def point_mass(stg, state):
    return stg.initial_distribution(state)


class TestLossProbability:
    def test_mass_on_right_edge_counted(self, small_stg):
        A = small_stg.alert_buffer
        pi = point_mass(small_stg, State(A, 2))
        assert loss_probability(small_stg, pi) == 1.0

    def test_mass_elsewhere_not_counted(self, small_stg):
        pi = point_mass(small_stg, State(0, 0))
        assert loss_probability(small_stg, pi) == 0.0

    def test_partial_mass(self, small_stg):
        A = small_stg.alert_buffer
        chain = small_stg.ctmc()
        pi = np.zeros(len(small_stg.states))
        pi[chain.index_of(State(A, 0))] = 0.25
        pi[chain.index_of(State(0, 0))] = 0.75
        assert loss_probability(small_stg, pi) == pytest.approx(0.25)

    def test_shape_checked(self, small_stg):
        with pytest.raises(ModelError):
            loss_probability(small_stg, np.array([1.0]))

    def test_overloaded_system_loses(self):
        stg = RecoverySTG.paper_default(arrival_rate=4.0)
        pi = steady_state(stg.ctmc())
        assert loss_probability(stg, pi) > 0.5


class TestCategoryProbabilities:
    def test_sums_to_one(self, paper_stg):
        pi = steady_state(paper_stg.ctmc())
        cats = category_probabilities(paper_stg, pi)
        assert sum(cats.values()) == pytest.approx(1.0)
        assert set(cats) == set(StateCategory)

    def test_point_mass_classified(self, small_stg):
        cats = category_probabilities(
            small_stg, point_mass(small_stg, State(0, 3))
        )
        assert cats[StateCategory.RECOVERY] == 1.0


class TestExpectations:
    def test_point_mass_expectations(self, small_stg):
        pi = point_mass(small_stg, State(3, 2))
        assert expected_alerts(small_stg, pi) == 3.0
        assert expected_recovery_units(small_stg, pi) == 2.0

    def test_expectations_grow_with_load(self):
        lo = RecoverySTG.paper_default(arrival_rate=0.5)
        hi = RecoverySTG.paper_default(arrival_rate=3.0)
        e_lo = expected_recovery_units(lo, steady_state(lo.ctmc()))
        e_hi = expected_recovery_units(hi, steady_state(hi.ctmc()))
        assert e_hi > e_lo


class TestEpsilonConvergence:
    def test_matches_steady_state_loss(self, paper_stg):
        pi = steady_state(paper_stg.ctmc())
        assert epsilon_convergence(paper_stg) == pytest.approx(
            loss_probability(paper_stg, pi)
        )

    def test_accepts_explicit_distribution(self, small_stg):
        A = small_stg.alert_buffer
        pi = point_mass(small_stg, State(A, 0))
        assert epsilon_convergence(small_stg, pi) == 1.0

    def test_good_system_small_epsilon(self, paper_stg):
        assert epsilon_convergence(paper_stg) < 0.01


class TestExpectedLostAlerts:
    def test_good_system_loses_nothing(self, paper_stg):
        assert expected_lost_alerts(paper_stg, 4.0) < 1e-4

    def test_poor_system_losses_grow_with_time(self):
        stg = RecoverySTG.paper_default(mu1=2.0, xi1=3.0)
        early = expected_lost_alerts(stg, 10.0)
        late = expected_lost_alerts(stg, 100.0)
        assert late > early
        # At steady state the poor system loses ≈0.9 alerts per unit
        # time (λ=1, loss ≈ 0.9); over the 100-unit transient it loses
        # a substantial fraction of the ~100 arrivals.
        assert late > 30.0

    def test_matches_loss_rate_times_edge_time(self, small_stg):
        """Consistency with the definition λ · (time on right edge)."""
        from repro.markov.transient import cumulative_times

        chain = small_stg.ctmc()
        pi0 = small_stg.initial_distribution()
        t = 7.5
        lt = cumulative_times(chain, pi0, t)
        edge_time = sum(
            lt[chain.index_of(s)] for s in small_stg.loss_states()
        )
        assert expected_lost_alerts(small_stg, t) == pytest.approx(
            small_stg.arrival_rate * edge_time
        )

    def test_gillespie_agrees_with_expected_losses(self):
        """The expected loss count matches the simulated loss count."""
        import random

        from repro.sim.ctmc_sim import GillespieSimulator

        stg = RecoverySTG.paper_default(arrival_rate=2.0, buffer_size=4)
        horizon = 5_000.0
        analytic = 0.0
        # At this horizon the chain is essentially stationary; use the
        # stationary loss rate to avoid a giant cumulative solve.
        pi = steady_state(stg.ctmc())
        analytic = stg.arrival_rate * loss_probability(stg, pi) * horizon
        sim = GillespieSimulator(stg, random.Random(8))
        result = sim.run(horizon=horizon)
        assert result.arrivals_lost == pytest.approx(analytic, rel=0.15)
