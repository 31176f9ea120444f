"""Tests for the Section VI design-guideline automation."""

import pytest

from repro.markov.degradation import constant, inverse_k
from repro.markov.design import (
    cost_effective_rate,
    design_system,
    peak_resilience,
    sweep_buffer_sizes,
)
from repro.markov.stg import RecoverySTG


class TestSweep:
    def test_sweep_covers_requested_sizes(self):
        losses = sweep_buffer_sizes(
            1.0, constant(15.0), constant(20.0), sizes=[2, 4, 8]
        )
        assert set(losses) == {2, 4, 8}
        assert all(0.0 <= lp <= 1.0 for lp in losses.values())

    def test_no_degradation_larger_buffer_helps(self):
        """Figure 4(a): slow/no degradation ⇒ loss falls with size."""
        losses = sweep_buffer_sizes(
            5.0, constant(15.0), constant(20.0), sizes=list(range(2, 12))
        )
        values = [losses[n] for n in sorted(losses)]
        assert values[0] > values[-1]
        # Monotone non-increasing (tiny numerical wiggle tolerated).
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


class TestDesignSystem:
    def test_feasible_configuration(self):
        result = design_system(
            arrival_rate=1.0,
            epsilon=0.01,
            scan=inverse_k(15.0),
            recovery=inverse_k(20.0),
        )
        assert result.feasible
        assert result.achieved_epsilon <= 0.01
        assert result.buffer_size >= 2
        assert "feasible" in result.summary()

    def test_chooses_smallest_adequate_buffer(self):
        result = design_system(
            arrival_rate=1.0,
            epsilon=0.01,
            scan=inverse_k(15.0),
            recovery=inverse_k(20.0),
        )
        for n, loss in result.swept.items():
            if n < result.buffer_size:
                assert loss > 0.01

    def test_infeasible_configuration_reported(self):
        """A hopeless system (λ far above service capacity) cannot reach
        a tiny ε by buffer sizing alone."""
        result = design_system(
            arrival_rate=5.0,
            epsilon=1e-6,
            scan=inverse_k(2.0),
            recovery=inverse_k(3.0),
            max_buffer=10,
        )
        assert not result.feasible
        assert result.achieved_epsilon > 1e-6
        assert "INFEASIBLE" in result.summary()

    def test_stops_growing_when_loss_rises(self):
        result = design_system(
            arrival_rate=2.0,
            epsilon=1e-9,
            scan=inverse_k(4.0),
            recovery=inverse_k(5.0),
            max_buffer=30,
        )
        # The sweep must not have run all the way to 30 once the loss
        # started increasing (degraded rates make big buffers harmful).
        assert not result.feasible
        assert max(result.swept) < 30


class TestCostEffectiveRate:
    def test_knee_exists_for_paper_parameters(self):
        """Cases 3/4: beyond a specific value (~15-20 at λ=1), more
        rate buys nothing."""
        knee_mu = cost_effective_rate(1.0, "mu", other_rate=20.0)
        assert 10.0 <= knee_mu <= 20.0
        knee_xi = cost_effective_rate(1.0, "xi", other_rate=15.0)
        assert 15.0 <= knee_xi <= 25.0

    def test_knee_grows_with_attack_rate(self):
        low = cost_effective_rate(0.5, "mu", other_rate=20.0)
        high = cost_effective_rate(1.5, "mu", other_rate=20.0)
        assert high >= low

    def test_rates_beyond_knee_do_not_help(self):
        from repro.markov.degradation import inverse_k as inv
        from repro.markov.metrics import category_probabilities
        from repro.markov.steady_state import steady_state
        from repro.markov.stg import RecoverySTG, StateCategory

        knee = cost_effective_rate(1.0, "mu", other_rate=20.0,
                                   tolerance=0.02)

        def p_normal(mu1):
            stg = RecoverySTG(1.0, inv(mu1), inv(20.0), 15)
            pi = steady_state(stg.ctmc())
            return category_probabilities(stg, pi)[StateCategory.NORMAL]

        assert p_normal(knee * 2) - p_normal(knee) < 0.05

    def test_invalid_which_rejected(self):
        with pytest.raises(ValueError):
            cost_effective_rate(1.0, "sigma", other_rate=1.0)


class TestPeakResilience:
    def test_good_system_withstands_horizon(self, paper_stg):
        t = peak_resilience(paper_stg, epsilon=0.05, horizon=10.0)
        assert t == 10.0

    def test_poor_system_breaks_after_a_few_units(self):
        """Case 6: the under-provisioned system resists ≈5 time units."""
        stg = RecoverySTG.paper_default(mu1=2.0, xi1=3.0)
        t = peak_resilience(stg, epsilon=0.05, horizon=50.0, step=0.5)
        assert 2.0 <= t <= 20.0

    def test_resilience_shrinks_with_attack_rate(self):
        mild = RecoverySTG.paper_default(arrival_rate=1.0, mu1=2.0, xi1=3.0)
        harsh = RecoverySTG.paper_default(arrival_rate=3.0, mu1=2.0, xi1=3.0)
        t_mild = peak_resilience(mild, epsilon=0.05, horizon=40.0, step=0.5)
        t_harsh = peak_resilience(harsh, epsilon=0.05, horizon=40.0, step=0.5)
        assert t_harsh <= t_mild
