"""Tests: the architecture's operating rules reproduce the CTMC.

The simulator implements Figure 2's *rules* (bounded queues, scan
priority, blocked-analyzer drain, preemption); the CTMC was derived
from the same rules by hand.  Their agreement here is the consistency
check between the paper's Section IV prose and its Markov model.
"""

import random

import pytest

from repro.errors import SimulationError
from repro.markov.metrics import loss_probability
from repro.markov.steady_state import steady_state
from repro.markov.stg import RecoverySTG, State
from repro.sim.architecture_sim import ArchitectureSimulator


class TestRulesReproduceModel:
    @pytest.mark.parametrize("params", [
        dict(arrival_rate=0.8, buffer_size=5),
        dict(arrival_rate=2.0, buffer_size=5),
        dict(arrival_rate=1.0, mu1=2.0, xi1=3.0, buffer_size=5),
    ])
    def test_occupancy_matches_steady_state(self, params):
        stg = RecoverySTG.paper_default(**params)
        chain = stg.ctmc()
        pi = steady_state(chain)
        result = ArchitectureSimulator(stg, random.Random(42)).run(
            30_000.0
        )
        for state in stg.states:
            analytic = pi[chain.index_of(state)]
            empirical = result.occupancy.get(state, 0.0)
            assert empirical == pytest.approx(analytic, abs=0.025), state

    def test_loss_matches_model(self):
        stg = RecoverySTG.paper_default(arrival_rate=2.5, buffer_size=4)
        pi = steady_state(stg.ctmc())
        result = ArchitectureSimulator(stg, random.Random(7)).run(
            30_000.0
        )
        assert result.loss_time_fraction == pytest.approx(
            loss_probability(stg, pi), abs=0.02
        )
        assert result.arrivals_lost > 0

    def test_category_occupancy_sums_to_one(self):
        stg = RecoverySTG.paper_default(buffer_size=4)
        result = ArchitectureSimulator(stg, random.Random(1)).run(2_000.0)
        assert sum(result.category_occupancy.values()) == pytest.approx(
            1.0
        )


class TestRules:
    def test_no_arrivals_stays_normal(self):
        stg = RecoverySTG.paper_default(arrival_rate=0.0, buffer_size=3)
        result = ArchitectureSimulator(stg).run(100.0)
        assert result.occupancy == {State(0, 0): 1.0}
        assert result.arrivals == 0

    def test_scan_and_recovery_never_overlap(self):
        """Emergent check: no time is spent in states where both a scan
        and a recovery would have to be in flight — the occupancy is a
        distribution over the same (a, r) grid as the CTMC."""
        stg = RecoverySTG.paper_default(arrival_rate=3.0, buffer_size=3)
        result = ArchitectureSimulator(stg, random.Random(3)).run(5_000.0)
        for state in result.occupancy:
            assert 0 <= state.alerts <= stg.alert_buffer
            assert 0 <= state.units <= stg.recovery_buffer

    def test_deterministic_per_seed(self):
        stg = RecoverySTG.paper_default(buffer_size=3)
        r1 = ArchitectureSimulator(stg, random.Random(5)).run(500.0)
        r2 = ArchitectureSimulator(stg, random.Random(5)).run(500.0)
        assert r1.occupancy == r2.occupancy

    def test_bad_horizon_rejected(self):
        stg = RecoverySTG.paper_default(buffer_size=3)
        with pytest.raises(SimulationError):
            ArchitectureSimulator(stg).run(0.0)
