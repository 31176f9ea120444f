"""Unit tests for the generic CTMC class."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.markov.ctmc import CTMC


def two_state(a=2.0, b=3.0):
    """On ↔ off chain with rates a (on→off) and b (off→on)."""
    return CTMC.from_rates(["on", "off"], {("on", "off"): a,
                                           ("off", "on"): b})


class TestConstruction:
    def test_from_rates_builds_generator(self):
        chain = two_state()
        q = chain.generator
        assert q[chain.index_of("on"), chain.index_of("off")] == 2.0
        assert np.allclose(q.sum(axis=1), 0.0)

    def test_rate_and_exit_rate(self):
        chain = two_state(a=2.0, b=3.0)
        assert chain.rate("on", "off") == 2.0
        q = chain.generator
        assert -q[chain.index_of("on"), chain.index_of("on")] == 2.0
        assert -q[chain.index_of("off"), chain.index_of("off")] == 3.0

    def test_diagonal_query_rejected(self):
        with pytest.raises(ModelError):
            two_state().rate("on", "on")

    def test_negative_rate_rejected(self):
        with pytest.raises(ModelError):
            CTMC.from_rates(["a", "b"], {("a", "b"): -1.0})

    def test_self_transition_rejected(self):
        with pytest.raises(ModelError):
            CTMC.from_rates(["a"], {("a", "a"): 1.0})

    def test_unknown_state_in_rates_rejected(self):
        with pytest.raises(ModelError):
            CTMC.from_rates(["a"], {("a", "ghost"): 1.0})

    def test_duplicate_states_rejected(self):
        with pytest.raises(ModelError):
            CTMC(["a", "a"], np.zeros((2, 2)))

    def test_bad_row_sum_rejected(self):
        q = np.array([[0.0, 1.0], [0.0, 0.0]])  # row 0 sums to 1
        with pytest.raises(ModelError, match="sum to 0"):
            CTMC(["a", "b"], q)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ModelError):
            CTMC(["a", "b"], np.zeros((3, 3)))

    def test_parallel_edges_accumulate(self):
        chain = CTMC.from_rates(
            ["a", "b"],
            {("a", "b"): 1.0},
        )
        assert chain.rate("a", "b") == 1.0


class TestDistributions:
    def test_point_distribution(self):
        chain = two_state()
        pi = chain.point_distribution("off")
        assert pi[chain.index_of("off")] == 1.0
        assert pi.sum() == 1.0

    def test_uniformization_rate_dominates_diagonal(self):
        chain = two_state(a=2.0, b=7.0)
        assert chain.uniformization_rate() >= 7.0

    def test_len_and_states(self):
        chain = two_state()
        assert len(chain) == 2 and chain.n_states == 2
        assert chain.states == ["on", "off"]

    def test_index_of_unknown_state(self):
        with pytest.raises(ModelError):
            two_state().index_of("ghost")
