"""Tests for first-passage (hitting time) analysis."""

import random

import pytest

from repro.errors import ModelError
from repro.markov.ctmc import CTMC
from repro.markov.passage import (
    expected_hitting_times,
    mean_time_to_loss,
)
from repro.markov.stg import RecoverySTG, State


def _excursion(stg, start):
    """Expected time to return to NORMAL from ``start``."""
    chain = stg.ctmc()
    h = expected_hitting_times(chain, [stg.normal_state])
    return h[chain.index_of(start)]


class TestHittingTimes:
    def test_pure_birth_chain_closed_form(self):
        """0 → 1 → 2 at rates r: hitting 2 from 0 takes 2/r."""
        r = 4.0
        chain = CTMC.from_rates([0, 1, 2], {(0, 1): r, (1, 2): r})
        h = expected_hitting_times(chain, [2])
        assert h[chain.index_of(0)] == pytest.approx(2 / r)
        assert h[chain.index_of(1)] == pytest.approx(1 / r)
        assert h[chain.index_of(2)] == 0.0

    def test_two_state_round_trip(self):
        """on→off at a, off→on at b: hitting off from on takes 1/a."""
        chain = CTMC.from_rates(["on", "off"], {("on", "off"): 2.0,
                                                ("off", "on"): 3.0})
        h = expected_hitting_times(chain, ["off"])
        assert h[chain.index_of("on")] == pytest.approx(0.5)

    def test_unreachable_target_is_infinite(self):
        chain = CTMC.from_rates(["a", "b", "c"], {("a", "b"): 1.0,
                                                  ("c", "b"): 1.0})
        h = expected_hitting_times(chain, ["c"])
        assert h[chain.index_of("a")] == float("inf")
        assert h[chain.index_of("c")] == 0.0

    def test_empty_target_rejected(self):
        chain = CTMC.from_rates(["a", "b"], {("a", "b"): 1.0})
        with pytest.raises(ModelError):
            expected_hitting_times(chain, [])

    def test_matches_simulation(self):
        """Hitting time of the loss edge vs simulated first passages."""
        stg = RecoverySTG.paper_default(arrival_rate=1.0, mu1=2.0,
                                        xi1=3.0, buffer_size=3)
        analytic = mean_time_to_loss(stg)
        rng = random.Random(0)
        rates = stg.transition_rates()
        out = {}
        for (src, dst), rate in rates.items():
            out.setdefault(src, []).append((dst, rate))
        loss = set(stg.loss_states())
        samples = []
        for __ in range(400):
            state, t = stg.normal_state, 0.0
            while state not in loss:
                options = out[state]
                total = sum(r for _, r in options)
                t += rng.expovariate(total)
                x = rng.random() * total
                acc = 0.0
                for dst, r in options:
                    acc += r
                    if x <= acc:
                        state = dst
                        break
            samples.append(t)
        empirical = sum(samples) / len(samples)
        assert empirical == pytest.approx(analytic, rel=0.15)


class TestRecoveryMetrics:
    def test_good_system_time_to_loss_enormous(self):
        stg = RecoverySTG.paper_default(buffer_size=8)
        assert mean_time_to_loss(stg) > 1_000.0

    def test_poor_system_loses_quickly(self):
        """Case 6: the under-provisioned system reaches the loss edge in
        tens of time units."""
        stg = RecoverySTG.paper_default(mu1=2.0, xi1=3.0)
        t = mean_time_to_loss(stg)
        assert 3.0 <= t <= 60.0

    def test_time_to_loss_decreases_with_attack_rate(self):
        slow = RecoverySTG.paper_default(arrival_rate=1.0, mu1=2.0,
                                         xi1=3.0, buffer_size=6)
        fast = RecoverySTG.paper_default(arrival_rate=3.0, mu1=2.0,
                                         xi1=3.0, buffer_size=6)
        assert mean_time_to_loss(fast) < mean_time_to_loss(slow)

    def test_excursion_grows_with_backlog(self):
        stg = RecoverySTG.paper_default(buffer_size=6)
        small = _excursion(stg, State(0, 1))
        large = _excursion(stg, State(0, 6))
        assert large > small > 0

    def test_excursion_from_normal_is_zero(self):
        stg = RecoverySTG.paper_default(buffer_size=4)
        assert _excursion(stg, State(0, 0)) == 0.0
