"""Tests for steady-state analysis (Equation 1) against closed forms."""

import numpy as np
import pytest

from repro.errors import ModelError, NotConvergedError
from repro.markov.backend import sparse_available
from repro.markov.ctmc import CTMC
from repro.markov.steady_state import steady_state


class TestClosedForms:
    def test_two_state_chain(self):
        """on ↔ off with rates a, b: π = (b, a) / (a + b)."""
        a, b = 2.0, 3.0
        chain = CTMC.from_rates(
            ["on", "off"], {("on", "off"): a, ("off", "on"): b}
        )
        pi = steady_state(chain)
        assert pi == pytest.approx([b / (a + b), a / (a + b)])

    @pytest.mark.parametrize("lam,mu,k", [(1.0, 2.0, 5), (3.0, 2.0, 4),
                                          (1.0, 1.0, 6)])
    def test_mm1k_queue(self, lam, mu, k):
        """Birth-death chain = M/M/1/K; π_n ∝ ρⁿ."""
        states = list(range(k + 1))
        rates = {}
        for n in range(k):
            rates[(n, n + 1)] = lam
            rates[(n + 1, n)] = mu
        chain = CTMC.from_rates(states, rates)
        pi = steady_state(chain)
        rho = lam / mu
        weights = np.array([rho ** n for n in states])
        expected = weights / weights.sum()
        assert pi == pytest.approx(expected, abs=1e-9)

    def test_uniform_ring(self):
        """A symmetric ring has the uniform stationary distribution."""
        n = 7
        rates = {}
        for i in range(n):
            rates[(i, (i + 1) % n)] = 1.0
            rates[(i, (i - 1) % n)] = 1.0
        pi = steady_state(CTMC.from_rates(list(range(n)), rates))
        assert pi == pytest.approx(np.full(n, 1 / n))


class TestProperties:
    def test_sums_to_one_and_nonnegative(self, paper_stg):
        pi = steady_state(paper_stg.ctmc())
        assert pi.sum() == pytest.approx(1.0)
        assert (pi >= 0).all()

    def test_residual_is_zero(self, paper_stg):
        chain = paper_stg.ctmc()
        pi = steady_state(chain)
        assert np.abs(pi @ chain.generator).max() < 1e-8

    def test_accepts_raw_generator(self):
        q = np.array([[-1.0, 1.0], [2.0, -2.0]])
        pi = steady_state(q)
        assert pi == pytest.approx([2 / 3, 1 / 3])

    def test_rejects_non_square(self):
        with pytest.raises(ModelError):
            steady_state(np.zeros((2, 3)))


class TestReducibleChains:
    """Two closed classes: no unique stationary distribution, so both
    backends refuse instead of returning an arbitrary mixture."""

    GENERATORS = [
        [[-1, 1, 0, 0], [1, -1, 0, 0], [0, 0, -2, 2], [0, 0, 3, -3]],
        [[-1, 1, 0], [0, 0, 0], [0, 0, 0]],
    ]

    @pytest.mark.parametrize("backend", [
        "dense",
        pytest.param("sparse", marks=pytest.mark.skipif(
            not sparse_available(), reason="scipy not available")),
    ])
    @pytest.mark.parametrize("q", GENERATORS)
    # scipy warns about the singular matrix before the solver raises.
    @pytest.mark.filterwarnings("ignore:Matrix is exactly singular")
    def test_two_closed_classes_raise(self, q, backend):
        with pytest.raises(NotConvergedError, match="reducible"):
            steady_state(np.array(q, dtype=float), backend=backend)
