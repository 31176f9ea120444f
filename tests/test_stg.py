"""Tests for the recovery-system STG (Figure 3 + Section IV-E)."""

import pytest

from repro.errors import ModelError
from repro.markov.degradation import constant
from repro.markov.steady_state import steady_state
from repro.markov.stg import RecoverySTG, State, StateCategory


class TestState:
    def test_categories(self):
        assert State(0, 0).category is StateCategory.NORMAL
        assert State(2, 1).category is StateCategory.SCAN
        assert State(0, 3).category is StateCategory.RECOVERY

    def test_str(self):
        assert str(State(0, 0)) == "N"
        assert str(State(2, 1)) == "S:2/1"
        assert str(State(0, 3)) == "R:3"

    def test_ordering_and_hash(self):
        assert State(0, 1) < State(1, 0)
        assert len({State(0, 1), State(0, 1), State(1, 1)}) == 2


class TestStructure:
    def test_state_space_is_square_by_default(self, small_stg):
        n = small_stg.recovery_buffer
        assert small_stg.alert_buffer == n
        assert len(small_stg.states) == (n + 1) ** 2

    def test_transitions(self, small_stg):
        rates = small_stg.transition_rates()
        lam = small_stg.arrival_rate
        # Arrival from NORMAL.
        assert rates[(State(0, 0), State(1, 0))] == lam
        # Scan: alert → recovery unit, at μ_a.
        assert rates[(State(2, 1), State(1, 2))] == pytest.approx(15 / 2)
        # Recovery only when the alert queue is empty...
        assert (State(0, 2), State(0, 1)) in rates
        assert (State(1, 2), State(1, 1)) not in rates
        # ...except when the recovery buffer is full (analyzer blocked).
        R = small_stg.recovery_buffer
        assert (State(1, R), State(1, R - 1)) in rates
        # No arrivals beyond the alert buffer.
        A = small_stg.alert_buffer
        assert not any(src.alerts == A and dst.alerts == A + 1
                       for (src, dst) in rates)
        # No scan when the recovery buffer is full.
        assert not any(
            src.units == R and dst.units == R + 1 for (src, dst) in rates
        )

    def test_no_absorbing_states(self, small_stg):
        """Every state can eventually reach NORMAL — the paper's
        termination claim ('the recovery will definitely be
        terminated')."""
        rates = small_stg.transition_rates()
        out = {}
        for (src, dst), rate in rates.items():
            out.setdefault(src, []).append(dst)
        # Reverse reachability from NORMAL.
        reach_normal = {small_stg.normal_state}
        changed = True
        while changed:
            changed = False
            for src, dsts in out.items():
                if src not in reach_normal and any(
                    d in reach_normal for d in dsts
                ):
                    reach_normal.add(src)
                    changed = True
        assert reach_normal == set(small_stg.states)

    def test_loss_states_are_full_alert_buffer(self, small_stg):
        A = small_stg.alert_buffer
        assert all(s.alerts == A for s in small_stg.loss_states())
        assert len(small_stg.loss_states()) == small_stg.recovery_buffer + 1

    def test_initial_distribution_defaults_to_normal(self, small_stg):
        pi0 = small_stg.initial_distribution()
        chain = small_stg.ctmc()
        assert pi0[chain.index_of(State(0, 0))] == 1.0

    def test_ctmc_is_cached(self, small_stg):
        assert small_stg.ctmc() is small_stg.ctmc()


class TestValidation:
    def test_negative_arrival_rate_rejected(self):
        with pytest.raises(ModelError):
            RecoverySTG(-1.0, constant(1), constant(1), 4)

    def test_small_buffers_rejected(self):
        with pytest.raises(ModelError):
            RecoverySTG(1.0, constant(1), constant(1), 0)
        with pytest.raises(ModelError):
            RecoverySTG(1.0, constant(1), constant(1), 4, alert_buffer=0)

    def test_rectangular_buffers_allowed(self):
        stg = RecoverySTG(1.0, constant(5), constant(5), 3, alert_buffer=6)
        assert len(stg.states) == 7 * 4


class TestPaperDefault:
    def test_parameters(self, paper_stg):
        assert paper_stg.arrival_rate == 1.0
        assert paper_stg.recovery_buffer == 15
        assert paper_stg.alert_buffer == 15

    def test_good_system_mostly_normal(self, paper_stg):
        """Section V: for λ ≤ 1 the system stays NORMAL with
        probability > 0.8."""
        from repro.markov.metrics import category_probabilities

        pi = steady_state(paper_stg.ctmc())
        cats = category_probabilities(paper_stg, pi)
        assert cats[StateCategory.NORMAL] > 0.8

    def test_zero_arrivals_stay_normal(self):
        stg = RecoverySTG.paper_default(arrival_rate=0.0)
        pi = steady_state(stg.ctmc())
        chain = stg.ctmc()
        assert pi[chain.index_of(State(0, 0))] == pytest.approx(1.0)
