"""The fleet control plane: N tenants behind one recovery service.

Architecture (docs/FLEET.md has the picture):

- every tenant is a :class:`~repro.fleet.shard.TenantShard` — a fully
  isolated self-healing world with its own store, epoch-managed log,
  bounded queues, clock and health monitor;
- one **central scheduling queue** — a
  :class:`~repro.ids.alerts.PriorityBoundedQueue` — multiplexes all
  tenants' accepted alerts; its priority classes come from the owning
  tenant's live SLO verdict (BREACH preempts WARN preempts OK), so a
  burning tenant's detection work is served first under contention;
- a :class:`~repro.fleet.pool.WorkerPool` maps the granted shards'
  analysis/heal work in grant order, inline.

Time is simulated, advanced in **tick rounds** of three phases:

1. *ingest* (serial, tenant order): draw this tick's attack arrivals
   per tenant, execute the attacked workflows, admit alerts to the
   tenant queues (overflow = true loss, the paper's Definition 3), and
   record the accepted alerts as central-scheduling candidates;
2. *schedule* (serial): offer every tenant's unscheduled candidates to
   the central queue — rejection or eviction there is a **deferral**
   (the alert stays in its tenant queue and is re-offered next round),
   *not* a loss — then drain the queue in priority order into
   per-tenant grant counts;
3. *process* (grant order): each granted shard scans its grants
   through the real analyzer and runs the recovery its
   :class:`~repro.system.SelfHealingSystem` says is due.

Every phase runs in the caller's thread, so a run is a deterministic
function of its config: ``FleetConfig.workers`` is accepted for
compatibility and changes nothing (the tests pin ``workers=4`` against
``workers=1``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import FleetError, ObsError
from repro.fleet.pool import WorkerPool
from repro.fleet.shard import TenantShard
from repro.fleet.slo import FleetHealth, TenantVerdict, rollup
from repro.fleet.workload import TenantProfile, resolve_mix
from repro.ids.alerts import Alert, PriorityBoundedQueue
from repro.obs.events import EventBus
from repro.obs.metrics import MetricsRegistry
from repro.obs.perf import PhaseProfiler, ProfileReport, phase, recording
from repro.obs.tracing import ManualClock

__all__ = ["FleetConfig", "FleetReport", "FleetControlPlane"]


@dataclass(frozen=True)
class Token:
    """One centrally scheduled alert: which tenant, which alert, and
    the priority class *baked at offer time* (a verdict flip while
    queued must not silently re-lane an item).  ``offered_at`` is the
    sim time the alert was *first* offered centrally — deferrals
    re-offer with the original stamp, so the grant-time dwell measures
    the whole central-scheduling wait."""

    priority: int
    tenant_index: int
    alert: Alert
    offered_at: float = 0.0


@dataclass(frozen=True)
class FleetConfig:
    """Knobs of a fleet run.

    Attributes
    ----------
    tenants:
        Number of tenant shards.
    mix:
        Workload archetype names (:data:`repro.fleet.workload.PROFILES`)
        assigned round-robin across tenants.
    duration:
        Simulated run length.
    tick:
        Scheduling round length (sim time).
    workers:
        Accepted and validated (>= 1) for compatibility; it has no
        effect, since every phase runs inline in the caller's thread.
    central_capacity:
        Central scheduling queue capacity — the per-round grant bound.
        ``0`` (default) sizes it at ``4 × tenants`` (ample: contention
        then only throttles genuinely bursty rounds).
    seed:
        Fleet seed; tenant ``i`` runs on ``seed + i`` so every tenant's
        attack process is independent of the others.
    """

    tenants: int = 10
    mix: Tuple[str, ...] = ("figure1", "banking", "travel", "supply")
    duration: float = 50.0
    tick: float = 1.0
    workers: int = 1
    central_capacity: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.tenants < 1:
            raise FleetError(f"tenants must be >= 1, got {self.tenants}")
        if self.duration <= 0:
            raise FleetError(
                f"duration must be > 0, got {self.duration}"
            )
        if self.tick <= 0:
            raise FleetError(f"tick must be > 0, got {self.tick}")
        if self.workers < 1:
            raise FleetError(f"workers must be >= 1, got {self.workers}")
        if self.central_capacity < 0:
            raise FleetError(
                f"central_capacity must be >= 0, got "
                f"{self.central_capacity}"
            )

    @property
    def resolved_central_capacity(self) -> int:
        """The central queue capacity actually used."""
        return self.central_capacity or 4 * self.tenants


@dataclass
class FleetReport:
    """Outcome of one fleet run."""

    config: FleetConfig
    health: FleetHealth
    ticks: int = 0
    attacks: int = 0
    alerts_accepted: int = 0
    alerts_lost: int = 0
    scans: int = 0
    heals: int = 0
    central_deferrals: int = 0

    @property
    def verdicts_by_tenant(self) -> Dict[str, str]:
        """Tenant id → final verdict."""
        return {t.tenant: t.verdict.value for t in self.health.tenants}

    def as_dict(self) -> Dict[str, object]:
        """JSON-able summary."""
        return {
            "tenants": self.config.tenants,
            "workers": self.config.workers,
            "duration": self.config.duration,
            "ticks": self.ticks,
            "attacks": self.attacks,
            "alerts_accepted": self.alerts_accepted,
            "alerts_lost": self.alerts_lost,
            "scans": self.scans,
            "heals": self.heals,
            "central_deferrals": self.central_deferrals,
            "health": self.health.as_dict(),
        }


class FleetControlPlane:
    """Runs N tenant shards behind one prioritized scheduling queue.

    Parameters
    ----------
    config:
        The fleet configuration.
    registry:
        Optional shared :class:`~repro.obs.metrics.MetricsRegistry` for
        fleet-level instruments; one is created when omitted.
    bus:
        Optional fleet-level bus; receives the central queue's
        :class:`~repro.obs.events.QueueItemDropped` deferral events
        stamped with tick time.  Per-tenant events stay on per-shard
        buses (tracers and monitors are single-owner).
    profiles:
        Explicit profile cycle overriding ``config.mix`` resolution —
        tests use this to inject custom archetypes.
    profiler:
        Optional :class:`~repro.obs.perf.PhaseProfiler`.  :meth:`run`
        and :meth:`run_tick` record their phases (``tick.ingest`` /
        ``tick.schedule`` / ``tick.process`` / ``tick.harvest``, plus
        ``drain`` and ``sweep``) into it — with ``None``, into nothing,
        even under an outer recording profiler.  The plane gives every
        shard a private profiler whose pipeline phases are folded in at
        harvest under ``workers;<tenant>;…``, and measures the
        central-scheduling dwell (``central-queue-wait``) and grant
        count per granted alert.  See :meth:`profile_report` /
        :meth:`profile_snapshot`.
    """

    def __init__(
        self,
        config: FleetConfig,
        registry: Optional[MetricsRegistry] = None,
        bus: Optional[EventBus] = None,
        profiles: Optional[Sequence[TenantProfile]] = None,
        profiler: Optional[PhaseProfiler] = None,
    ) -> None:
        self.config = config
        self.registry = registry if registry is not None else MetricsRegistry()
        self.bus = bus
        self._profiler = profiler
        cycle = (list(profiles) if profiles is not None
                 else resolve_mix(config.mix))
        width = len(str(max(config.tenants - 1, 1)))
        self.shards: List[TenantShard] = [
            TenantShard(
                tenant=f"t{i:0{width}d}",
                profile=cycle[i % len(cycle)],
                seed=config.seed + i,
                profiled=profiler is not None,
            )
            for i in range(config.tenants)
        ]
        self.clock = ManualClock(0.0)
        self.central: PriorityBoundedQueue[Token] = PriorityBoundedQueue(
            config.resolved_central_capacity,
            priority_of=lambda token: token.priority,
        )
        self.central.instrument("central", bus, self.clock)
        #: Per-tenant FIFO of accepted alerts awaiting a central grant.
        self._unscheduled: List[Deque[Alert]] = [
            deque() for _ in range(config.tenants)
        ]
        r = self.registry
        self._m_attacks = r.counter(
            "repro_fleet_attacks_total",
            help="attacked workflow runs executed across the fleet")
        self._m_accepted = r.counter(
            "repro_fleet_alerts_accepted_total",
            help="alerts admitted to tenant queues")
        self._m_lost = r.counter(
            "repro_fleet_alerts_lost_total",
            help="alerts dropped by full tenant queues (true loss)")
        self._m_deferred = r.counter(
            "repro_fleet_central_deferrals_total",
            help="central-queue rejections/evictions (re-offered later)")
        self._m_scans = r.counter(
            "repro_fleet_scans_total",
            help="alerts served through the analyzer")
        self._m_heals = r.counter(
            "repro_fleet_heals_total",
            help="batch heals committed across the fleet")
        self._m_depth = r.gauge(
            "repro_fleet_central_queue_depth",
            help="central scheduling queue depth at drain time")
        self._m_latency = r.histogram(
            "repro_fleet_detect_heal_latency",
            help="detect-to-heal latency per healed alert (sim time)")
        self._latency_seen: List[int] = [0] * config.tenants
        self._ticks = 0
        self._deferrals = 0
        #: (tenant_index, uid) → sim time of the alert's *first*
        #: central offer (cleared at grant; survives deferral).
        self._first_offered: Dict[Tuple[int, str], float] = {}
        #: Per-shard fold high-water marks: tenant → path → last
        #: (calls, wall, sim) already folded into the fleet profiler.
        self._shard_folded: Dict[
            str, Dict[Tuple[str, ...], Tuple[int, float, float]]] = {}
        #: Fleet-profiler high-water marks for per-tick deltas.
        self._tick_folded: Dict[
            Tuple[str, ...], Tuple[int, float, float]] = {}
        #: Recent per-tick phase breakdowns (bounded; the snapshot's
        #: ``ticks``).
        self._tick_profiles: Deque[Dict[str, object]] = deque(maxlen=256)

    # -- one scheduling round ----------------------------------------------

    def run_tick(self, pool: WorkerPool) -> None:
        """Advance the fleet by one tick round (see module docstring)."""
        self._ticks += 1
        tick_end = self._ticks * self.config.tick
        self.clock.set(max(tick_end, self.clock.now))
        prof = self._profiler

        # The parent "tick" phase swallows the inter-round glue, so
        # top-level attribution never leaks tick-internal gaps.
        with recording(prof), phase("tick"):
            # Phase 1 — ingest (serial, tenant order).
            with phase("tick.ingest"):
                for index, shard in enumerate(self.shards):
                    accepted = shard.ingest(tick_end)
                    self._unscheduled[index].extend(accepted)
            # Phase 2 — schedule (serial).
            with phase("tick.schedule"):
                grants = self._schedule_round()
            # Phase 3 — process (granted shards, in grant order).
            with phase("tick.process"):
                self._process_round(pool, grants, tick_end)
            # Phase 4 — harvest (serial): fleet metrics, then shard
            # profiles.  The per-tick note runs after the phase closes
            # so its tick.harvest delta covers this very tick.
            with phase("tick.harvest"):
                self._harvest_serial()
                if prof is not None:
                    self._fold_shard_profiles()
            if prof is not None:
                self._note_tick_profile(tick_end)

    def _schedule_round(self) -> List[Tuple[int, int]]:
        """Offer unscheduled alerts centrally, drain by priority.

        Returns ``(tenant_index, grant_count)`` pairs in priority-drain
        order.  Deferred alerts (central rejection/eviction) stay in
        their per-tenant FIFO for the next round.
        """
        offered: Dict[int, int] = {}
        for index, backlog in enumerate(self._unscheduled):
            if not backlog:
                continue
            cls = self.shards[index].priority_class
            count = 0
            for alert in backlog:
                first = self._first_offered.setdefault(
                    (index, alert.uid), self.clock.now)
                if not self.central.offer(
                        Token(cls, index, alert, first)):
                    break  # no room even with preemption: defer rest
                count += 1
            offered[index] = count
        # Eviction may have bumped earlier tenants' tokens: the drain
        # below is the ground truth of who got granted this round.
        self._m_depth.set(len(self.central))
        prof = self._profiler
        granted: Dict[int, int] = {}
        order: List[int] = []
        while self.central:
            token = self.central.pop()
            if token.tenant_index not in granted:
                granted[token.tenant_index] = 0
                order.append(token.tenant_index)
            granted[token.tenant_index] += 1
            if prof is not None:
                # Central-scheduling dwell (first offer → grant) and
                # the grant count: sim-time/calls-only line items, so
                # neither distorts the wall attribution.
                self._first_offered.pop(
                    (token.tenant_index, token.alert.uid), None)
                prof.add_at(("central-queue-wait",), 0.0,
                            sim=self.clock.now - token.offered_at)
                prof.add_at(("grant",), 0.0, 0.0, calls=1)
        # Grants consume each tenant's FIFO from the front; whatever
        # was offered-but-evicted (or never offered) stays queued.
        deferred_round = 0
        for index, backlog in enumerate(self._unscheduled):
            take = granted.get(index, 0)
            for _ in range(take):
                backlog.popleft()
            deferred_round += len(backlog)
        if deferred_round:
            self._deferrals += deferred_round
            self._m_deferred.inc(deferred_round)
        return [(index, granted[index]) for index in order]

    def _process_round(
        self,
        pool: WorkerPool,
        grants: List[Tuple[int, int]],
        tick_end: float,
    ) -> None:
        """Serve granted shards in grant order."""

        def serve(grant: Tuple[int, int]) -> None:
            index, count = grant
            self.shards[index].process(count, tick_end)
            self._m_scans.inc(count)

        pool.map(serve, grants)

    def _harvest_serial(self) -> None:
        """Fold per-shard deltas into fleet metrics (serial phase, so
        gauges and non-commutative reads stay deterministic)."""
        attacks = sum(s.attacks for s in self.shards)
        accepted = sum(s.system.alert_queue.accepted for s in self.shards)
        lost = sum(s.alerts_lost for s in self.shards)
        heals = sum(s.heals for s in self.shards)
        self._set_total(self._m_attacks, attacks)
        self._set_total(self._m_accepted, accepted)
        self._set_total(self._m_lost, lost)
        self._set_total(self._m_heals, heals)
        for index, shard in enumerate(self.shards):
            new = shard.latencies[self._latency_seen[index]:]
            self._latency_seen[index] += len(new)
            for value in new:
                self._m_latency.observe(value)

    @staticmethod
    def _set_total(counter, total: int) -> None:
        delta = total - counter.value
        if delta > 0:
            counter.inc(delta)

    # -- profiling ---------------------------------------------------------

    def _fold_shard_profiles(self) -> None:
        """Fold each shard profiler's *new* stats into the fleet
        profiler under ``workers;<tenant>;…`` (serial phase, like
        :meth:`_harvest_serial`)."""
        assert self._profiler is not None
        for shard in self.shards:
            sprof = shard.profiler
            if sprof is None:
                continue
            folded = self._shard_folded.setdefault(shard.tenant, {})
            for path, (calls, wall, sim) in sorted(
                    sprof.snapshot().items()):
                c0, w0, s0 = folded.get(path, (0, 0.0, 0.0))
                dc, dw, ds = calls - c0, wall - w0, sim - s0
                if dc or dw or ds:
                    self._profiler.add_at(
                        ("workers", shard.tenant) + path,
                        dw, ds, calls=dc)
                folded[path] = (calls, wall, sim)

    def _note_tick_profile(self, tick_end: float) -> None:
        """Append this tick's per-phase deltas to the bounded per-tick
        breakdown ring (the :meth:`profile_snapshot` ``ticks``)."""
        assert self._profiler is not None
        entry_phases: Dict[str, Dict[str, float]] = {}
        for path, (calls, wall, sim) in sorted(
                self._profiler.snapshot().items()):
            if (len(path) != 2 or path[0] != "tick"
                    or not path[1].startswith("tick.")):
                continue
            c0, w0, s0 = self._tick_folded.get(path, (0, 0.0, 0.0))
            entry_phases[path[1]] = {
                "calls": calls - c0, "wall": wall - w0, "sim": sim - s0,
            }
            self._tick_folded[path] = (calls, wall, sim)
        self._tick_profiles.append({
            "tick": self._ticks,
            "sim_end": tick_end,
            "phases": entry_phases,
        })

    def profile_report(self, scenario: str = "fleet") -> ProfileReport:
        """The fleet's attribution breakdown so far.

        The per-tenant subtrees folded under the synthetic ``workers``
        root are detail, not coverage — their wall time is already
        inside the ``tick.*`` phases — so they are excluded from the
        attribution fraction (``aux_roots``).
        """
        if self._profiler is None:
            raise ObsError(
                "fleet was constructed without a profiler; pass "
                "profiler= to FleetControlPlane to profile it"
            )
        return self._profiler.report(scenario, aux_roots=("workers",))

    def profile_snapshot(self) -> Dict[str, object]:
        """JSON-able profile document (``profile --scenario fleet
        --json``): the fleet report plus per-tenant pipeline tables and
        the recent per-tick breakdowns."""
        report = self.profile_report()
        tenants: Dict[str, List[Dict[str, object]]] = {}
        for row in report.rows:
            parts = str(row["path"]).split(";")
            if len(parts) < 3 or parts[0] != "workers":
                continue
            tenants.setdefault(parts[1], []).append({
                "path": ";".join(parts[2:]),
                "calls": row["calls"],
                "wall": row["wall"],
                "sim": row["sim"],
            })
        return {
            "fleet": report.as_dict(),
            "tenants": tenants,
            "ticks": list(self._tick_profiles),
        }

    # -- the full run ------------------------------------------------------

    def run(self) -> FleetReport:
        """Run ``duration`` sim time of tick rounds, sweep every shard
        to quiescence, and return the fleet report."""
        cfg = self.config
        prof = self._profiler
        ticks = int(round(cfg.duration / cfg.tick))
        pool = WorkerPool()
        for _ in range(max(ticks, 1)):
            self.run_tick(pool)
        # Drain-down: keep scheduling rounds — without new ingest —
        # until every accepted alert has been granted and served.  A
        # shard whose recovery queue fills drains it (the system's
        # rule), so every round with alerts pending serves at least one.
        with recording(prof), phase("drain"):
            while any(self._unscheduled) or any(
                    s.system.alerts_queued for s in self.shards):
                before = sum(s.scans for s in self.shards)
                self._ticks += 1
                end = self._ticks * cfg.tick
                self.clock.set(max(end, self.clock.now))
                grants = self._schedule_round()
                self._process_round(pool, grants, end)
                self._harvest_serial()
                if sum(s.scans for s in self.shards) == before:
                    raise FleetError(
                        "fleet drain-down made no progress with alerts "
                        "pending")
        # Final per-shard sweep: heal what is still in flight and audit
        # end to end.
        sweep_at = self.clock.now

        def sweep(shard: TenantShard) -> None:
            shard.sweep(sweep_at)

        with recording(prof), phase("sweep"):
            pool.map(sweep, self.shards)
        # Final rollup: harvest, shard-profile fold, health freeze.
        with recording(prof), phase("rollup"):
            self._harvest_serial()
            if prof is not None:
                self._fold_shard_profiles()
            return FleetReport(
                config=cfg,
                health=self.health(),
                ticks=self._ticks,
                attacks=sum(s.attacks for s in self.shards),
                alerts_accepted=sum(
                    s.system.alert_queue.accepted for s in self.shards
                ),
                alerts_lost=sum(s.alerts_lost for s in self.shards),
                scans=sum(s.scans for s in self.shards),
                heals=sum(s.heals for s in self.shards),
                central_deferrals=self._deferrals,
            )

    # -- live health -------------------------------------------------------

    def tenant_verdict(self, shard: TenantShard) -> TenantVerdict:
        """Freeze one shard's current health."""
        return TenantVerdict(
            tenant=shard.tenant,
            verdict=shard.verdict,
            report=shard.monitor.report(),
            attacks=shard.attacks,
            heals=shard.heals,
            audits_ok=shard.audits_ok,
            latencies=tuple(shard.latencies),
        )

    def health(self) -> FleetHealth:
        """The current fleet rollup (readable any time between ticks —
        shard monitors are only written in phases the caller drives)."""
        return rollup([self.tenant_verdict(s) for s in self.shards])

    def shard_by_tenant(self, tenant: str) -> TenantShard:
        """Look up one shard; unknown ids are a
        :class:`~repro.errors.FleetError`."""
        for shard in self.shards:
            if shard.tenant == tenant:
                return shard
        raise FleetError(f"unknown tenant {tenant!r}")
