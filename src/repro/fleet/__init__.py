"""repro.fleet — multi-tenant sharded recovery control plane.

Runs N independent self-healing systems (one per tenant) behind a
single service: per-tenant sharded state
(:class:`~repro.fleet.shard.TenantShard`), a prioritized central
scheduling queue where BREACH-tenant alerts preempt healthy tenants'
(:class:`~repro.fleet.control.FleetControlPlane`), an ordered inline
map over the granted shards' analysis/heal work
(:class:`~repro.fleet.pool.WorkerPool`), and a fleet-level SLO rollup
(:func:`~repro.fleet.slo.rollup`) served by ``repro.obs.server``.

Design notes and the scheduling model live in ``docs/FLEET.md``.
"""

from repro.fleet.control import FleetConfig, FleetControlPlane, FleetReport
from repro.fleet.pool import WorkerPool
from repro.fleet.shard import PRIORITY_OF_VERDICT, TenantShard
from repro.fleet.slo import (
    FleetHealth,
    TenantVerdict,
    merge_health,
    percentile,
    rollup,
)
from repro.fleet.workload import (
    PROFILES,
    TenantProfile,
    prediction_for,
    resolve_mix,
)

__all__ = [
    "FleetConfig",
    "FleetControlPlane",
    "FleetReport",
    "WorkerPool",
    "TenantShard",
    "PRIORITY_OF_VERDICT",
    "FleetHealth",
    "TenantVerdict",
    "rollup",
    "merge_health",
    "percentile",
    "TenantProfile",
    "PROFILES",
    "resolve_mix",
    "prediction_for",
]
