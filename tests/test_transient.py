"""Tests for transient analysis (Equations 2 and 3)."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from repro.errors import ModelError
from repro.markov import transient
from repro.markov.ctmc import CTMC
from repro.markov.degradation import power_law
from repro.markov.steady_state import steady_state
from repro.markov.stg import RecoverySTG
from repro.markov.transient import (
    cumulative_times,
    transient_probabilities,
    transient_probabilities_expm,
)


def two_state(a=2.0, b=3.0):
    return CTMC.from_rates(["on", "off"], {("on", "off"): a,
                                           ("off", "on"): b})


def augmented_cumulative_times(q, pi0, t):
    """Equation 3 through the 2n×2n augmented exponential (reference).

    With ``M = [[Q, 0], [I, 0]]`` and ``y(0) = [0, π(0)]``,
    ``y(t) = y(0) e^{Mt}`` holds ``l(t)`` in its first block.
    """
    n = q.shape[0]
    m = np.zeros((2 * n, 2 * n))
    m[:n, :n] = q
    m[n:, :n] = np.eye(n)
    y0 = np.concatenate([np.zeros(n), pi0])
    return (y0 @ expm(m * t))[:n]


def assert_matches_reference(chain, pi0, t):
    lt = cumulative_times(chain, pi0, t, backend="dense")
    ref = augmented_cumulative_times(chain.generator, pi0, t)
    assert np.abs(lt - ref).max() <= 1e-9 * t


class TestEquation2:
    def test_closed_form_two_state(self):
        """π_on(t) = b/(a+b) + a/(a+b)·e^{-(a+b)t} starting at on."""
        a, b = 2.0, 3.0
        chain = two_state(a, b)
        pi0 = chain.point_distribution("on")
        for t in (0.1, 0.5, 1.0, 3.0):
            pi_t = transient_probabilities(chain, pi0, t)
            expected = b / (a + b) + (a / (a + b)) * np.exp(-(a + b) * t)
            assert pi_t[0] == pytest.approx(expected, abs=1e-9)

    def test_uniformization_matches_expm(self, paper_stg):
        chain = paper_stg.ctmc()
        pi0 = paper_stg.initial_distribution()
        for t in (0.25, 1.0, 4.0):
            uni = transient_probabilities(chain, pi0, t)
            exp = transient_probabilities_expm(chain, pi0, t)
            assert np.abs(uni - exp).max() < 1e-8

    def test_t_zero_returns_initial(self, paper_stg):
        chain = paper_stg.ctmc()
        pi0 = paper_stg.initial_distribution()
        assert transient_probabilities(chain, pi0, 0.0) == pytest.approx(pi0)

    def test_long_horizon_converges_to_steady_state(self, small_stg):
        # The full 15-buffer system mixes extremely slowly (its congested
        # region is metastable); the small instance converges quickly.
        chain = small_stg.ctmc()
        pi0 = small_stg.initial_distribution()
        pi_inf = steady_state(chain)
        pi_t = transient_probabilities(chain, pi0, 100.0)
        assert np.abs(pi_t - pi_inf).max() < 1e-8

    def test_uniformization_stable_at_huge_horizons(self, small_stg):
        """λt ≈ 2·10⁴ exercises the log-space weight recurrence."""
        chain = small_stg.ctmc()
        pi0 = small_stg.initial_distribution()
        pi_inf = steady_state(chain)
        pi_t = transient_probabilities(chain, pi0, 1000.0)
        assert np.abs(pi_t - pi_inf).max() < 1e-8

    def test_distribution_preserved(self, paper_stg):
        chain = paper_stg.ctmc()
        pi0 = paper_stg.initial_distribution()
        pi_t = transient_probabilities(chain, pi0, 2.5)
        assert pi_t.sum() == pytest.approx(1.0)
        assert (pi_t >= -1e-12).all()

    def test_negative_time_rejected(self, paper_stg):
        chain = paper_stg.ctmc()
        with pytest.raises(ModelError):
            transient_probabilities(chain, paper_stg.initial_distribution(),
                                    -1.0)

    def test_shape_mismatch_rejected(self, paper_stg):
        with pytest.raises(ModelError):
            transient_probabilities(paper_stg.ctmc(), np.array([1.0]), 1.0)

    def test_absorbing_chain(self):
        """A chain with an absorbing state accumulates mass there."""
        chain = CTMC.from_rates(["a", "b"], {("a", "b"): 1.0})
        pi0 = chain.point_distribution("a")
        pi_t = transient_probabilities(chain, pi0, 10.0)
        assert pi_t[1] == pytest.approx(1.0, abs=1e-4)

    def test_zero_generator_is_identity(self):
        chain = CTMC(["a", "b"], np.zeros((2, 2)))
        pi0 = np.array([0.3, 0.7])
        assert transient_probabilities(chain, pi0, 5.0) == pytest.approx(pi0)


class TestEquation3:
    def test_cumulative_times_sum_to_t(self, paper_stg):
        chain = paper_stg.ctmc()
        pi0 = paper_stg.initial_distribution()
        for t in (0.5, 2.0, 10.0):
            lt = cumulative_times(chain, pi0, t)
            assert lt.sum() == pytest.approx(t)
            assert (lt >= -1e-12).all()

    def test_two_state_closed_form(self):
        """l_on(t) = ∫ π_on(s) ds with the known exponential solution."""
        a, b = 2.0, 3.0
        chain = two_state(a, b)
        pi0 = chain.point_distribution("on")
        t = 1.7
        lt = cumulative_times(chain, pi0, t)
        s = a + b
        expected = (b / s) * t + (a / s ** 2) * (1 - np.exp(-s * t))
        assert lt[0] == pytest.approx(expected, abs=1e-9)

    def test_zero_horizon(self, paper_stg):
        chain = paper_stg.ctmc()
        lt = cumulative_times(chain, paper_stg.initial_distribution(), 0.0)
        assert np.all(lt == 0.0)

    def test_matches_numeric_integral_of_pi(self):
        chain = two_state()
        pi0 = chain.point_distribution("off")
        t, n = 2.0, 2000
        ts = np.linspace(0, t, n + 1)
        vals = np.array(
            [transient_probabilities_expm(chain, pi0, s) for s in ts]
        )
        numeric = np.trapezoid(vals, ts, axis=0)
        lt = cumulative_times(chain, pi0, t)
        assert lt == pytest.approx(numeric, abs=1e-5)

    def test_negative_time_rejected(self):
        chain = two_state()
        with pytest.raises(ModelError):
            cumulative_times(chain, chain.point_distribution("on"), -0.5)


class TestEquation3AgainstAugmented:
    """The dense n×n φ₁ path against the augmented 2n×2n exponential."""

    @pytest.mark.parametrize("lam", [2.0, 3.0, 4.0])
    @pytest.mark.parametrize("buffer", [5, 10, 15])
    @pytest.mark.parametrize("t", [0.5, 1000.0])
    def test_model_grid(self, lam, buffer, t):
        stg = RecoverySTG.paper_default(arrival_rate=lam,
                                        buffer_size=buffer)
        assert_matches_reference(stg.ctmc(), stg.initial_distribution(), t)

    @pytest.mark.parametrize("t", [0.5, 10.0, 1000.0])
    def test_start_in_absorbing_state(self, t):
        chain = CTMC.from_rates(
            ["a", "b", "c", "d"],
            {("a", "b"): 3.0, ("b", "a"): 1.0, ("b", "c"): 2.0,
             ("a", "d"): 0.5},
        )
        for start in ("c", "d"):
            pi0 = chain.point_distribution(start)
            assert_matches_reference(chain, pi0, t)
            assert cumulative_times(chain, pi0, t) == pytest.approx(t * pi0)
        # Mass split between a transient and an absorbing state.
        assert_matches_reference(chain, np.array([0.5, 0.0, 0.5, 0.0]), t)

    @pytest.mark.parametrize("alpha", [0.1, 2.0])
    @pytest.mark.parametrize("t", [0.5, 1000.0])
    def test_alpha_degraded_stg(self, alpha, t):
        stg = RecoverySTG(arrival_rate=2.0, scan=power_law(15.0, alpha),
                          recovery=power_law(20.0, alpha),
                          recovery_buffer=8)
        lt = cumulative_times(stg.ctmc(), stg.initial_distribution(), t)
        assert lt.sum() == pytest.approx(t, rel=1e-9)
        assert (lt >= -1e-12).all()
        assert_matches_reference(stg.ctmc(), stg.initial_distribution(), t)

    def test_taylor_truncation_below_unit_roundoff(self):
        """The stated bound on ``‖e^B − T_m(B)‖₁`` at ``‖B‖₁ = θ``."""
        m, theta = transient._TAYLOR_DEGREE, transient._TAYLOR_THETA
        tail = (theta ** (m + 1) / math.factorial(m + 1)
                / (1.0 - theta / (m + 2)))
        assert tail < 2.0 ** -53

    def test_zero_generator_accumulates_the_start(self):
        chain = CTMC(["a", "b"], np.zeros((2, 2)))
        pi0 = np.array([0.3, 0.7])
        assert cumulative_times(chain, pi0, 7.0) == pytest.approx(7.0 * pi0)
