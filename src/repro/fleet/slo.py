"""Fleet-level SLO aggregation: per-tenant verdicts into one view.

The fleet ``/slo`` endpoint needs one answer for "is the fleet
healthy?" plus a drill-down per tenant.  Aggregation reuses the obs
layer's associative machinery — :func:`~repro.obs.health.worst_state`
for the verdict and :func:`~repro.obs.health.merge_conformance` for the
counts — so the rollup is **invariant under tenant permutation**
(pinned by a hypothesis property test, mirroring the existing
``merge_conformance`` permutation test).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro.errors import FleetError
from repro.obs.health import (
    ConformanceReport,
    SloState,
    merge_conformance,
    worst_state,
)

__all__ = [
    "TenantVerdict",
    "FleetHealth",
    "rollup",
    "percentile",
]


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of pre-sorted values (0 when empty).

    Nearest-rank (not interpolated) so the result is always an actually
    observed latency — the convention benchmark consumers expect.
    """
    if not sorted_values:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise FleetError(f"percentile must be in [0, 100], got {q}")
    rank = max(int(math.ceil(q / 100.0 * len(sorted_values))), 1)
    return sorted_values[rank - 1]


@dataclass(frozen=True)
class TenantVerdict:
    """One tenant's frozen health snapshot, as mergeable plain data."""

    tenant: str
    verdict: SloState
    report: ConformanceReport
    attacks: int = 0
    heals: int = 0
    audits_ok: bool = True
    latencies: Tuple[float, ...] = ()

    @property
    def conformance(self) -> SloState:
        """The tenant's LTLf strict-correctness SLO state (OK when the
        report carries no conformance SLO state)."""
        for name, value in self.report.slo_states:
            if name == "conformance":
                return SloState(value)
        return SloState.OK

    def as_dict(self) -> Dict[str, Any]:
        """JSON-able row of the fleet drill-down table."""
        return {
            "tenant": self.tenant,
            "verdict": self.verdict.value,
            "conformance": self.conformance.value,
            "violations": self.report.violations,
            "attacks": self.attacks,
            "alerts": self.report.arrivals,
            "lost": self.report.losses,
            "heals": self.heals,
            "audits_ok": self.audits_ok,
            "drift_count": self.report.drift_count,
        }


@dataclass(frozen=True)
class FleetHealth:
    """The fleet-wide rollup: worst-of verdict + merged counts.

    Holds its tenant verdicts sorted by tenant id, so two rollups over
    the same tenants are equal regardless of the order (or grouping)
    they were built from.
    """

    tenants: Tuple[TenantVerdict, ...]

    @property
    def verdict(self) -> SloState:
        """Worst verdict across the fleet (associative max-severity)."""
        return worst_state([t.verdict for t in self.tenants])

    @property
    def by_state(self) -> Dict[str, int]:
        """Tenant count per verdict state."""
        counts = {state.value: 0 for state in SloState}
        for t in self.tenants:
            counts[t.verdict.value] += 1
        return counts

    @property
    def merged(self) -> ConformanceReport:
        """All tenants' conformance counts merged into one report."""
        return merge_conformance([t.report for t in self.tenants])

    @property
    def latencies(self) -> List[float]:
        """Every tenant's detect→heal latencies, sorted ascending."""
        out: List[float] = []
        for t in self.tenants:
            out.extend(t.latencies)
        out.sort()
        return out

    def worst_tenants(self, limit: int = 10) -> List[TenantVerdict]:
        """The most troubled tenants first (severity, then loss count,
        then id — a total order, so the list is deterministic)."""
        severity = {SloState.OK: 0, SloState.WARN: 1, SloState.BREACH: 2}
        return sorted(
            self.tenants,
            key=lambda t: (-severity[t.verdict], -t.report.losses,
                           t.tenant),
        )[:limit]

    def as_dict(self) -> Dict[str, Any]:
        """The fleet ``/slo`` schema (documented in docs/FLEET.md)."""
        lat = self.latencies
        return {
            "fleet": True,
            "tenants": len(self.tenants),
            "verdict": self.verdict.value,
            "by_state": self.by_state,
            "alerts": self.merged.arrivals,
            "losses": self.merged.losses,
            "loss_fraction": self.merged.loss_fraction,
            "heals": sum(t.heals for t in self.tenants),
            "audits_ok": all(t.audits_ok for t in self.tenants),
            "drift_count": self.merged.drift_count,
            "violations": self.merged.violations,
            "latency": {
                "samples": len(lat),
                "p50": percentile(lat, 50),
                "p99": percentile(lat, 99),
                "max": lat[-1] if lat else 0.0,
            },
            "worst_tenants": [t.as_dict() for t in self.worst_tenants()],
            "merged": self.merged.as_dict(),
        }


def rollup(verdicts: Sequence[TenantVerdict]) -> FleetHealth:
    """Aggregate tenant verdicts into one :class:`FleetHealth`.

    Canonicalizes by tenant id, so the result is independent of input
    order.  Duplicate tenant ids are a :class:`~repro.errors.FleetError`
    (two shards claiming one tenant is a control-plane bug, and silently
    double-counting would corrupt the fleet counts).
    """
    if not verdicts:
        raise FleetError("cannot roll up zero tenant verdicts")
    ordered = tuple(sorted(verdicts, key=lambda t: t.tenant))
    for a, b in zip(ordered, ordered[1:]):
        if a.tenant == b.tenant:
            raise FleetError(
                f"duplicate tenant id {a.tenant!r} in fleet rollup"
            )
    return FleetHealth(tenants=ordered)
