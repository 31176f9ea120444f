"""Tests for the fleet control plane (`repro.fleet`).

The fleet runs every phase inline, so ``FleetConfig.workers`` must be
accepted and change nothing: ``workers=K`` produces per-tenant
verdicts, latencies, and counters identical to ``workers=1`` and never
starts a thread pool.  The rest covers the scheduling semantics
(central preemption, deferral vs true loss, the administrator path for
blocked shards) and the workload archetypes.
"""

import dataclasses

import pytest

from repro.errors import FleetError
from repro.fleet import (
    PROFILES,
    FleetConfig,
    FleetControlPlane,
    TenantShard,
    WorkerPool,
    resolve_mix,
)
from repro.fleet.workload import prediction_for
from repro.obs.health import SloState


def hot_profile(arrival_rate=3.0, alert_buffer=3, recovery_buffer=3):
    """An overloaded banking variant: λ far above service capacity with
    tiny buffers, so queues overflow and priorities matter."""
    return dataclasses.replace(
        PROFILES["banking"],
        arrival_rate=arrival_rate,
        alert_buffer=alert_buffer,
        recovery_buffer=recovery_buffer,
    )


def run_fleet(workers=1, tenants=6, duration=40.0, seed=7, **kwargs):
    cfg = FleetConfig(tenants=tenants, duration=duration,
                      workers=workers, seed=seed, **kwargs)
    return FleetControlPlane(cfg).run()


class TestWorkerPool:
    def test_inline_mode_has_no_executor(self):
        pool = WorkerPool()
        assert pool.workers == 1
        assert pool.map(lambda x: x * 2, [1, 2, 3]) == [2, 4, 6]

    def test_worker_exception_propagates(self):
        def boom(x):
            raise ValueError(f"bad {x}")

        with pytest.raises(ValueError, match="bad 1"):
            WorkerPool().map(boom, [1, 2, 3])

    def test_fleet_never_starts_a_thread_pool(self, monkeypatch):
        """``workers=4`` still runs inline: constructing a thread pool
        at all is a bug.  Patching the class itself catches every
        binding of the name, however it was imported."""
        from concurrent.futures import ThreadPoolExecutor

        def forbidden(self, *args, **kwargs):
            raise AssertionError(
                "ThreadPoolExecutor created despite inline fleet")

        monkeypatch.setattr(ThreadPoolExecutor, "__init__", forbidden)
        report = run_fleet(workers=4, tenants=3, duration=5.0)
        assert report.ticks >= 5


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        {"tenants": 0},
        {"duration": 0.0},
        {"tick": -1.0},
        {"workers": 0},
        {"central_capacity": -1},
    ])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(FleetError):
            FleetConfig(**kwargs)

    def test_default_central_capacity_scales_with_tenants(self):
        assert FleetConfig(tenants=25).resolved_central_capacity == 100
        assert FleetConfig(tenants=5, central_capacity=7) \
            .resolved_central_capacity == 7

    def test_unknown_mix_archetype_rejected(self):
        with pytest.raises(FleetError, match="unknown workload"):
            resolve_mix(["banking", "nope"])
        with pytest.raises(FleetError):
            resolve_mix([])


class TestDeterminismAcrossWorkers:
    """``FleetConfig.workers`` is accepted and changes no result."""

    @pytest.mark.parametrize("workers", [2, 4])
    def test_calm_fleet_identical_to_serial(self, workers):
        base = run_fleet(workers=1)
        other = run_fleet(workers=workers)
        assert other.verdicts_by_tenant == base.verdicts_by_tenant
        assert [t.latencies for t in other.health.tenants] == \
            [t.latencies for t in base.health.tenants]
        d_base, d_other = base.as_dict(), other.as_dict()
        d_base.pop("workers"), d_other.pop("workers")
        assert d_other == d_base

    def test_overloaded_fleet_identical_to_serial(self):
        def run(workers):
            cfg = FleetConfig(tenants=4, duration=30.0, workers=workers,
                              seed=1, central_capacity=6)
            return FleetControlPlane(cfg, profiles=[hot_profile()]).run()

        base, other = run(1), run(3)
        assert base.alerts_lost > 0  # the regime actually overflows
        d_base, d_other = base.as_dict(), other.as_dict()
        d_base.pop("workers"), d_other.pop("workers")
        assert d_other == d_base


class TestCalibratedFleet:
    """At the archetypes' calibrated rates the fleet stays healthy."""

    def test_zero_breach_and_strictly_correct(self):
        report = run_fleet(workers=2, tenants=8, duration=50.0)
        assert report.health.verdict is SloState.OK
        assert report.health.by_state["BREACH"] == 0
        assert report.alerts_lost == 0
        assert all(t.audits_ok for t in report.health.tenants)

    def test_every_accepted_alert_is_served_and_healed(self):
        report = run_fleet(tenants=5, duration=40.0, seed=11)
        assert report.scans == report.alerts_accepted
        assert report.attacks == report.alerts_accepted
        assert report.heals > 0
        # every attack got a measured detect→heal latency
        assert len(report.health.latencies) == report.attacks

    def test_latencies_positive_and_reported(self):
        report = run_fleet(tenants=4, duration=40.0)
        lat = report.health.as_dict()["latency"]
        assert lat["samples"] > 0
        assert 0 < lat["p50"] <= lat["p99"] <= lat["max"]


class TestOverloadSemantics:
    def overloaded(self, tenants=4, **kwargs):
        cfg = FleetConfig(tenants=tenants, duration=30.0, seed=1,
                          central_capacity=6, **kwargs)
        return FleetControlPlane(cfg, profiles=[hot_profile()])

    def test_losses_deferred_and_still_strictly_correct(self):
        report = self.overloaded().run()
        assert report.alerts_lost > 0
        assert report.central_deferrals > 0
        assert report.health.verdict is SloState.BREACH
        # the administrator path ultimately heals *everything*: the
        # end-to-end strict-correctness audit passes on every tenant
        assert all(t.audits_ok for t in report.health.tenants)

    def test_lost_plus_accepted_equals_attacks(self):
        report = self.overloaded().run()
        assert report.alerts_accepted + report.alerts_lost \
            == report.attacks

    def test_breach_tenants_preempt_in_central_queue(self):
        """With a tight central queue shared by overloaded and calm
        tenants, every central eviction falls on the calm (OK, class 2)
        tenants' tokens — the breaching tenants' detection work is
        never displaced."""
        cfg = FleetConfig(tenants=4, duration=30.0, seed=1,
                          central_capacity=6)
        plane = FleetControlPlane(
            cfg, profiles=[hot_profile(), PROFILES["figure1"]]
        )
        report = plane.run()
        lost_by_class = plane.central.lost_by_class
        assert sum(lost_by_class) == plane.central.lost
        assert lost_by_class[2] > 0  # calm tenants were deferred...
        assert lost_by_class[0] == 0  # ...breaching ones never were
        assert "BREACH" in report.verdicts_by_tenant.values()
        assert "OK" in report.verdicts_by_tenant.values()


class TestShard:
    def test_shard_isolation_of_rng_streams(self):
        a = TenantShard("a", PROFILES["banking"], seed=1)
        b = TenantShard("b", PROFILES["banking"], seed=2)
        a.ingest(50.0), b.ingest(50.0)
        assert a.attacks != b.attacks or a.latencies != b.latencies

    def test_same_seed_same_arrivals(self):
        a = TenantShard("a", PROFILES["travel"], seed=9)
        b = TenantShard("b", PROFILES["travel"], seed=9)
        assert len(a.ingest(50.0)) == len(b.ingest(50.0))
        assert a.attacks == b.attacks

    def test_prediction_cached_per_profile(self):
        assert prediction_for(PROFILES["banking"]) is \
            prediction_for(PROFILES["banking"])

    def test_shard_sweep_heals_and_audits(self):
        shard = TenantShard("t", PROFILES["figure1"], seed=4)
        accepted = shard.ingest(40.0)
        assert accepted
        shard.process(len(accepted), 40.0)
        shard.sweep(50.0)
        assert shard.system.alerts_queued == 0
        assert shard.heals > 0
        assert shard.audits_ok
        assert shard.manager.epoch == shard.heals

    def test_blocked_shard_resolved_by_sweep(self):
        """Recovery queue full with alerts pending (the paper's
        deadlock-by-overflow): sweep's administrator path drains it."""
        shard = TenantShard("t", hot_profile(arrival_rate=5.0,
                                             alert_buffer=2,
                                             recovery_buffer=1),
                            seed=3)
        for _ in range(10):
            accepted = shard.ingest(shard.clock.now + 5.0)
            shard.process(len(accepted), shard.clock.now)
        shard.sweep(shard.clock.now + 1.0)
        assert shard.system.alerts_queued == 0
        assert shard.system.recovery_units_queued == 0
        assert shard.audits_ok

    def test_every_archetype_runs_and_heals(self):
        for name, profile in PROFILES.items():
            shard = TenantShard(name, profile, seed=5)
            shard.ingest(60.0)
            shard.sweep(60.0)
            assert shard.attacks > 0, name
            assert shard.audits_ok, name


class TestControlPlaneApi:
    def test_shard_by_tenant_lookup(self):
        plane = FleetControlPlane(FleetConfig(tenants=3, duration=5.0))
        assert plane.shard_by_tenant("t1").tenant == "t1"
        with pytest.raises(FleetError, match="unknown tenant"):
            plane.shard_by_tenant("zz")

    def test_health_readable_before_any_tick(self):
        plane = FleetControlPlane(FleetConfig(tenants=3, duration=5.0))
        health = plane.health()
        assert len(health.tenants) == 3
        assert health.verdict is SloState.OK

    def test_fleet_metrics_track_run_counters(self):
        cfg = FleetConfig(tenants=4, duration=30.0, seed=2)
        plane = FleetControlPlane(cfg)
        report = plane.run()
        get = plane.registry.counter
        assert get("repro_fleet_attacks_total").value == report.attacks
        assert get("repro_fleet_alerts_lost_total").value \
            == report.alerts_lost
        assert get("repro_fleet_heals_total").value == report.heals
        hist = plane.registry.histogram("repro_fleet_detect_heal_latency")
        assert hist.count == len(report.health.latencies)

    def test_tenant_ids_zero_padded_and_unique(self):
        plane = FleetControlPlane(FleetConfig(tenants=12, duration=5.0))
        ids = [s.tenant for s in plane.shards]
        assert len(set(ids)) == 12
        assert ids[0] == "t00" and ids[11] == "t11"
