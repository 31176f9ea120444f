"""Tests for the full-stack timed simulation (real heals under load)."""

import heapq
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.markov.stg import StateCategory
from repro.sim.fullstack import (
    FullStackConfig,
    FullStackSimulator,
    run_replication,
)


def run(lam, horizon=60.0, seed=1, **overrides):
    defaults = dict(arrival_rate=lam, scan_time=1 / 15,
                    unit_recovery_time=1 / 20, alert_buffer=6,
                    recovery_buffer=6)
    defaults.update(overrides)
    cfg = FullStackConfig(**defaults)
    return FullStackSimulator(cfg, random.Random(seed)).run(horizon)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FullStackConfig(arrival_rate=-1)
        with pytest.raises(ValueError):
            FullStackConfig(scan_time=0)
        with pytest.raises(ValueError):
            FullStackConfig(alert_buffer=0)

    def test_bad_horizon(self):
        with pytest.raises(SimulationError):
            FullStackSimulator().run(0.0)


class TestEmergentBehaviour:
    def test_light_load_mostly_normal(self):
        result = run(lam=0.5)
        assert result.category_occupancy[StateCategory.NORMAL] > 0.8
        assert result.alerts_lost == 0
        assert result.heals > 5

    def test_overload_collapses_to_scan_and_loses(self):
        result = run(lam=8.0)
        assert result.category_occupancy[StateCategory.SCAN] > 0.9
        assert result.alerts_lost > 0
        assert result.loss_fraction > 0.2

    def test_occupancy_orders_with_load(self):
        light = run(lam=0.5)
        heavy = run(lam=4.0)
        assert (
            light.category_occupancy[StateCategory.NORMAL]
            > heavy.category_occupancy[StateCategory.NORMAL]
        )
        assert light.loss_fraction <= heavy.loss_fraction

    def test_occupancy_is_distribution(self):
        result = run(lam=1.0)
        assert sum(result.category_occupancy.values()) == pytest.approx(
            1.0
        )


class TestCorrectnessUnderLoad:
    """The capstone property: whatever the load, every committed heal —
    including the final sweep over lost alerts — leaves the system
    strictly correct, and every injected attack is eventually repaired."""

    @pytest.mark.parametrize("lam", [0.5, 2.0, 8.0])
    def test_all_heals_audited(self, lam):
        result = run(lam=lam)
        assert result.all_heals_audited_ok
        # Every attack instance was undone somewhere along the way.
        assert result.repaired_instances >= result.attacks

    def test_quiet_system_no_attacks(self):
        result = run(lam=0.0, horizon=10.0)
        assert result.attacks == 0
        assert result.category_occupancy[StateCategory.NORMAL] == (
            pytest.approx(1.0)
        )

    def test_deterministic_per_seed(self):
        a = run(lam=2.0, seed=9)
        b = run(lam=2.0, seed=9)
        assert a.attacks == b.attacks
        assert a.category_occupancy == b.category_occupancy


def operating_rule(lam, scan_time, unit_time, alert_buffer,
                   recovery_buffer, horizon, seed):
    """``(attacks, alerts_lost, heals)`` of a full-stack run from the
    operating rule alone — no workflow, analyzer or healer.

    One server runs one service at a time.  It scans the oldest alert
    unless the analyzer is blocked by ``recovery_buffer`` queued units;
    it drains every queued unit when no alert waits or the analyzer is
    blocked; the drained units commit as one batch heal, with the lost
    alerts, when a drain ends and no alert waits.  At the horizon one
    last heal commits whatever is left.  Arrivals come from the same
    seeded exponential stream as the simulator's.
    """
    rng = random.Random(seed)
    heap, order = [], itertools.count()
    alerts = units = drained = lost_unhealed = 0
    attacks = lost = heals = 0
    busy = False

    def at(when, kind):
        heapq.heappush(heap, (when, next(order), kind))

    def serve(now):
        nonlocal busy
        if busy:
            return
        blocked = units >= recovery_buffer
        if alerts and not blocked:
            busy = True
            at(now + scan_time * (1 + units), "scan")
        elif units and (not alerts or blocked):
            busy = True
            at(now + unit_time * units, "drain")

    if lam > 0:
        at(rng.expovariate(lam), "attack")
    while heap and heap[0][0] <= horizon:
        now, _, kind = heapq.heappop(heap)
        if kind == "attack":
            attacks += 1
            if alerts < alert_buffer:
                alerts += 1
            else:
                lost += 1
                lost_unhealed += 1
            at(now + rng.expovariate(lam), "attack")
        elif kind == "scan":
            busy = False
            alerts, units = alerts - 1, units + 1
        else:
            busy = False
            drained, units = drained + units, 0
            if not alerts:
                heals += 1
                drained = lost_unhealed = 0
        serve(now)
    if alerts or units or drained or lost_unhealed:
        heals += 1
    return attacks, lost, heals


class TestOperatingRule:
    """The simulator runs the system's one rule: its counts equal the
    rule's restatement, blocked regimes (buffers of 1–4 at λ up to 12)
    included."""

    @given(lam=st.floats(0.5, 12.0), alert_buffer=st.integers(1, 4),
           recovery_buffer=st.integers(1, 4), horizon=st.floats(0.5, 20.0),
           seed=st.integers(0, 2**16))
    @example(lam=8.0, alert_buffer=1, recovery_buffer=1, horizon=20.0,
             seed=3)
    @settings(max_examples=25, deadline=None)
    def test_counts_equal_the_rule(self, lam, alert_buffer, recovery_buffer,
                                   horizon, seed):
        cfg = FullStackConfig(arrival_rate=lam, alert_buffer=alert_buffer,
                              recovery_buffer=recovery_buffer)
        result = run_replication(cfg, horizon, seed)
        assert (result.attacks, result.alerts_lost, result.heals) == \
            operating_rule(lam, cfg.scan_time, cfg.unit_recovery_time,
                           alert_buffer, recovery_buffer, horizon, seed)
        assert result.all_heals_audited_ok
        assert result.repaired_instances >= result.attacks
