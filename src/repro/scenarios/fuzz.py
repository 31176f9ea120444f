"""Oracle-checked fuzzing over generated attack campaigns.

The generators in :mod:`repro.scenarios.generate` describe adversarial
episodes; this module *executes* them against the real system
(:class:`~repro.system.SelfHealingSystem` for single-tenant campaigns,
:class:`~repro.fleet.control.FleetControlPlane` for multi-tenant ones)
and checks every run against a composite oracle:

- **plan-verifier** (O1): every heal's Theorem 1/2 decisions and
  Theorem 3 order must pass the independent checker
  :func:`repro.lint.verify_heal` against the epoch log it healed — the
  N-version cross-check of the Theorem 1–3 analyses;
- **audit** (O2): after the last stage, the accumulated healed history
  must satisfy the Definition 2 strict-correctness audit
  (:meth:`~repro.core.epochs.EpochManager.audit`);
- **determinism** (O3): running the episode twice must produce
  bit-identical flight logs (the replay contract every debugging and
  conformance tool in the repo depends on);
- **health** (O4): on *calibrated* campaigns — Poisson ingest-only
  arrivals that fit the queues — the CTMC conformance monitor must not
  reach BREACH (the model and the implementation agree);
- **exception**: no unexpected exception escapes an episode.

Counterexamples are shrunk greedily over the campaign DSL and written
as replayable corpus files (plain campaign JSON plus a ``found_by``
annotation).  The *fault-injection* mode runs every campaign with one
of the seeded :data:`~repro.scenarios.generate.MUTATIONS` — a heal that
skips an undo it decided, decides a redo it never runs, or commits an
undo after its redo — and demands the oracle catch it: an end-to-end
sensitivity proof that a broken heal cannot slip past the runtime
monitor.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time as _time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import repro.core.healer as healer_module
from repro.core.epochs import EpochManager
from repro.core.healer import Healer
from repro.errors import GenerationError
from repro.fleet.control import FleetConfig, FleetControlPlane, FleetReport
from repro.fleet.workload import GeneratedTenantProfile
from repro.ids.alerts import Alert
from repro.ids.attacks import AttackCampaign
from repro.lint.plan_verifier import verify_heal
from repro.obs.events import EventBus, RedoDecision
from repro.obs.health import HealthMonitor, ModelPrediction, SloState
from repro.obs.recorder import FlightRecorder, read_flight_log
from repro.obs.tracing import ManualClock
from repro.scenarios.generate import (
    MODULUS,
    MUTATIONS,
    CampaignSpec,
    SpecShape,
    generate_campaign,
    generate_workload,
    stable_seed,
)
from repro.sim.fullstack import FullStackConfig
from repro.sim.workload import Workload
from repro.system import SelfHealingSystem, SystemState
from repro.workflow.data import DataStore

__all__ = [
    "ORACLES",
    "Violation",
    "CampaignOutcome",
    "FuzzReport",
    "run_campaign",
    "inject_mutation",
    "shrink_campaign",
    "campaign_filename",
    "write_counterexample",
    "load_campaign",
    "replay_corpus",
    "fuzz",
]

#: Oracle tags a violation can carry.
ORACLES = (
    "plan-verifier", "audit", "determinism", "health", "exception",
    "accounting", "conformance",
)

#: Queueing service times shared with the fleet profiles, so the small
#: palette of campaign (λ, buffer) draws maps to a handful of cached
#: CTMC solves.
_SCAN_TIME = 1.0 / 15.0
_UNIT_TIME = 1.0 / 20.0


@dataclass(frozen=True)
class Violation:
    """One oracle violation observed while running a campaign."""

    oracle: str
    detail: str

    def render(self) -> str:
        return f"[{self.oracle}] {self.detail}"


@dataclass(frozen=True)
class CampaignOutcome:
    """What happened when one campaign ran through the oracle."""

    campaign: CampaignSpec
    violations: Tuple[Violation, ...] = ()
    scans: int = 0
    heals: int = 0
    alerts: int = 0
    #: Heals the injected fault changed.
    mutated_heals: int = 0
    fleet: bool = False
    verdict: str = ""
    #: LTLf strict-correctness violations the runtime monitor raised
    #: (summed across tenants for fleet campaigns).
    conformance_violations: int = 0

    @property
    def ok(self) -> bool:
        """Did the campaign pass every oracle?"""
        return not self.violations


#: Cached steady-state solves, keyed by the (hashable) queueing config.
_PREDICTIONS: Dict[FullStackConfig, ModelPrediction] = {}


def _prediction(config: FullStackConfig) -> ModelPrediction:
    prediction = _PREDICTIONS.get(config)
    if prediction is None:
        prediction = ModelPrediction.from_stg(config.stg())
        _PREDICTIONS[config] = prediction
    return prediction


# --------------------------------------------------------------------------
# Fault injection
# --------------------------------------------------------------------------


@contextmanager
def inject_mutation(
    kind: Optional[str], counter: Optional[Dict[str, int]] = None
) -> Iterator[Dict[str, int]]:
    """Patch the healer so it carries one seeded fault.

    Each kind reads the heal's own Theorem 1/2 decisions
    (:func:`~repro.core.analyzer.decide_batch`, as the healer calls
    it), so only a heal an event bus observes (one that decides
    Theorem 2) is faulted.  With ``t`` the heal's first sorted definite
    (T2.1) redo:

    - ``drop-undo``: the heal never undoes ``t`` — neither in Phase A
      nor before it redoes ``t`` — although it decided ``t``'s undo;
    - ``extra-redo``: the heal also publishes a T2.1 redo decision of
      a clean instance outside its batch (:func:`_outsider`), which it
      never runs;
    - ``reverse-edge``: the UNDO record of ``undo(t)`` is committed
      (and announced) right after ``redo(t)`` instead of in Phase A — a
      heal that breaks Theorem 3.3 in the log it writes.

    ``counter["applied"]`` counts the heals actually faulted —
    inapplicable faults (nothing to undo or redo) leave the
    heal intact and are not counted, so callers can distinguish a
    genuine oracle miss from a vacuous one.  ``kind=None`` is a no-op.
    """
    stats = counter if counter is not None else {"applied": 0}
    stats.setdefault("applied", 0)
    if kind is None:
        yield stats
        return
    if kind not in MUTATIONS:
        raise GenerationError(
            f"unknown heal fault {kind!r}; expected one of "
            f"{', '.join(MUTATIONS)}"
        )
    decide = healer_module.decide_batch
    heal, undo = Healer.heal, Healer._undo
    commit_undo, redo = Healer._commit_undo, Healer._redo
    #: The running heal's faulted uid, and its held-back record.
    fault: Dict[str, Any] = {"uid": None, "held": None}

    def faulty_decide(index, bad, time=None):
        undo_analysis, redo_analysis, decisions = decide(index, bad, time)
        if redo_analysis is None:
            return undo_analysis, redo_analysis, decisions
        if kind == "extra-redo":
            if undo_analysis.definite:
                stats["applied"] += 1
                decisions = decisions + [RedoDecision(
                    time, uid=_outsider(index.log, undo_analysis),
                    condition="T2.1")]
        elif redo_analysis.definite:
            stats["applied"] += 1
            fault["uid"] = min(redo_analysis.definite)
        return undo_analysis, redo_analysis, decisions

    def faulty_heal(self, malicious, forged_runs=()):
        report = heal(self, malicious, forged_runs=forged_runs)
        held, fault["uid"], fault["held"] = fault["held"], None, None
        if held is not None:  # never redone: the undo comes last
            commit_undo(self, held, "closure")
        return report

    def faulty_undo(self, record, *args):
        if record.uid != fault["uid"]:
            undo(self, record, *args)

    def faulty_commit_undo(self, record, reason):
        if record.uid == fault["uid"] and reason == "closure":
            fault["held"] = record
        else:
            commit_undo(self, record, reason)

    def faulty_redo(self, record, *args):
        redo(self, record, *args)
        held = fault["held"]
        if held is not None and held.uid == record.uid:
            fault["held"] = None
            commit_undo(self, held, "closure")

    patches: List[Tuple[Any, str, Any]] = [
        (healer_module, "decide_batch", faulty_decide),
        (Healer, "heal", faulty_heal),
    ]
    if kind == "drop-undo":
        patches.append((Healer, "_undo", faulty_undo))
    elif kind == "reverse-edge":
        patches += [(Healer, "_commit_undo", faulty_commit_undo),
                    (Healer, "_redo", faulty_redo)]
    originals = [(owner, name, getattr(owner, name))
                 for owner, name, _ in patches]
    for owner, name, patched in patches:
        setattr(owner, name, patched)
    try:
        yield stats
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)


def _outsider(log, undo_analysis) -> str:
    """A clean instance outside a heal's batch: the first sorted record
    of ``log`` outside its closure (one no redo can reach, no Theorem 1
    candidate, first) or, when the closure holds the whole log, visit 0
    of its first member's task, which no run ever commits."""
    outsiders = sorted(
        {r.uid for r in log.normal_records()} - undo_analysis.definite,
        key=lambda uid: (uid in undo_analysis.candidates, uid))
    if outsiders:
        return outsiders[0]
    first = log.get(min(undo_analysis.definite)).instance
    return f"{first.workflow_instance}/{first.task_id}#0"


# --------------------------------------------------------------------------
# Single-tenant episodes
# --------------------------------------------------------------------------


@dataclass
class _EpisodeResult:
    violations: List[Violation]
    scans: int
    heals: int
    alerts: int
    flight_text: str
    verdict: SloState
    conformance_violations: int = 0


def _flat_tasks(workload: Workload) -> List[Tuple[str, str]]:
    """``(workflow_id, task_id)`` pairs in deterministic spec order."""
    return [
        (spec.workflow_id, task_id)
        for spec in workload.specs
        for task_id in spec.tasks
    ]


def _arm_step(
    campaign: AttackCampaign,
    step,
    workload: Workload,
) -> None:
    """Install one corrupt / forge-run step on a workload's campaign."""
    if step.kind == "corrupt":
        tasks = _flat_tasks(workload)
        wf_id, task_id = tasks[step.target % len(tasks)]
        campaign.shift_outputs(
            task_id,
            delta=step.delta,
            modulus=MODULUS,
            workflow_instance=f"{wf_id}.run",
            label=f"corrupt {wf_id}:{task_id}",
        )
    elif step.kind == "forge-run":
        spec = workload.specs[step.target % len(workload.specs)]
        campaign.forge_run(f"{spec.workflow_id}.run")


def _run_single_episode(campaign: CampaignSpec) -> _EpisodeResult:
    """One deterministic pass of a single-tenant campaign.

    Stages run in sequence; each stage executes a fresh generated
    workload under its attack steps, feeds the IDS alerts through the
    bounded queues at Poisson times, and drives the Figure 2 loop until
    quiescence — checking each heal's decisions and order against the
    independent verifier — then sweeps the system, so the
    administrator backlog (Section IV-D) is healed and the epoch rolls
    before the next stage.
    """
    config = FullStackConfig(
        arrival_rate=campaign.arrival_rate,
        scan_time=_SCAN_TIME,
        unit_recovery_time=_UNIT_TIME,
        alert_buffer=campaign.alert_buffer,
        recovery_buffer=campaign.recovery_buffer,
    )
    clock = ManualClock(0.0)
    bus = EventBus()
    flight = FlightRecorder(
        label=campaign.label or "campaign",
        meta={"seed": campaign.seed, "stages": len(campaign.stages),
              "conformance_finalized": True},
    )
    flight.attach(bus)
    monitor = HealthMonitor(_prediction(config)).attach(bus)

    # Generation is pure, so building inputs inside the episode keeps
    # the two determinism-oracle passes trivially identical.
    stage_workloads = [
        generate_workload(
            stable_seed(campaign.seed, 101 + i), campaign.shape,
            prefix=f"s{i}w",
        )
        for i in range(len(campaign.stages))
    ]
    # Timed (scan/recovery-triggered) corruption arrives as small
    # straight-line bursts: no branches, private objects only, so the
    # burst is committed whole and cannot write-conflict mid-recovery.
    mini_shape = SpecShape(
        n_workflows=1,
        tasks_per_workflow=3,
        branch_probability=0.0,
        loop_probability=0.0,
        n_shared_objects=campaign.shape.n_shared_objects,
        shared_writes=False,
    )
    minis: Dict[Tuple[int, int], Workload] = {}
    for i, stage in enumerate(campaign.stages):
        for j, step in enumerate(stage):
            if step.trigger != "ingest" and step.kind != "false-alarm":
                minis[(i, j)] = generate_workload(
                    stable_seed(campaign.seed, 500 + 31 * i + j),
                    mini_shape,
                    prefix=f"s{i}x{j}w",
                )
    initial: Dict[str, int] = {}
    for workload in stage_workloads:
        initial.update(workload.initial_data)
    for workload in minis.values():
        initial.update(workload.initial_data)

    manager = EpochManager(DataStore(dict(initial)), initial)
    system = SelfHealingSystem(
        manager=manager,
        alert_buffer=campaign.alert_buffer,
        recovery_buffer=campaign.recovery_buffer,
        bus=bus,
        clock=clock,
    )
    rng = random.Random(stable_seed(campaign.seed, 7))
    violations: List[Violation] = []
    scans = 0
    heals = 0
    alerts = 0
    t = 0.0

    def submit(uid: str, timed: bool = False) -> None:
        nonlocal t, alerts
        if not timed:
            t += rng.expovariate(campaign.arrival_rate)
            clock.set(max(t, clock.now))
        alerts += 1
        system.submit_alert(Alert(clock.now, uid))

    def false_alarm_uids(step, exclude: Set[str]) -> List[str]:
        pool = [
            record.uid
            for record in manager.log.normal_records()
            if record.uid not in exclude
        ]
        picked: List[str] = []
        for k in range(step.count):
            if not pool:
                break
            uid = pool[(step.target + 7 * k) % len(pool)]
            if uid not in picked:
                picked.append(uid)
        return picked

    def check_heal(stage: int, log, report) -> None:
        """O1: a heal's decisions and order against its epoch log;
        every verifier finding is a violation."""
        findings = verify_heal(log, manager.specs_by_instance, report)
        if findings:
            detail = "; ".join(
                f"{f.rule}: {f.message}" for f in findings[:3]
            )
            violations.append(Violation(
                "plan-verifier", f"stage {stage}: heal: {detail}"
            ))

    def fire_timed(i: int, j: int, step) -> None:
        """Fire one scan/recovery-timed step at the current clock."""
        if step.kind == "false-alarm":
            for uid in false_alarm_uids(step, set()):
                submit(uid, timed=True)
            return
        workload = minis[(i, j)]
        burst = AttackCampaign()
        _arm_step(burst, step, workload)
        for spec in workload.specs:
            manager.run_workflow_attacked(
                spec, burst, name=f"{spec.workflow_id}.run"
            )
        for uid in burst.malicious_uids:
            submit(uid, timed=True)

    for i, stage in enumerate(campaign.stages):
        workload = stage_workloads[i]
        attack = AttackCampaign()
        for step in stage:
            if step.trigger == "ingest" and step.kind != "false-alarm":
                _arm_step(attack, step, workload)
        for spec in workload.specs:
            manager.run_workflow_attacked(
                spec, attack, name=f"{spec.workflow_id}.run"
            )
        malicious = set(attack.malicious_uids)
        queued = list(attack.malicious_uids)
        for step in stage:
            if step.trigger == "ingest" and step.kind == "false-alarm":
                queued.extend(false_alarm_uids(step, malicious))
        for uid in queued:
            submit(uid)

        pending_scan = [
            (j, step) for j, step in enumerate(stage)
            if step.trigger == "scan"
        ]
        pending_recovery = [
            (j, step) for j, step in enumerate(stage)
            if step.trigger == "recovery"
        ]
        for _ in range(10_000):
            if system.recovery_due:
                if pending_recovery and system.state is SystemState.RECOVERY:
                    # A recovery-timed step fires once no alert waits,
                    # not during a drain the blocked analyzer forces.
                    j, step = pending_recovery.pop(0)
                    fire_timed(i, j, step)
                    continue
                clock.advance(
                    config.unit_recovery_time * system.recovery_units_queued
                )
                log = manager.log
                report = system.recovery_step()
                if report is not None:
                    heals += 1
                    check_heal(i, log, report)
            elif system.alerts_queued:
                clock.advance(
                    config.scan_time * (1 + len(system.recovery_queue))
                )
                system.scan_step()
                scans += 1
                while pending_scan:
                    j, step = pending_scan.pop(0)
                    fire_timed(i, j, step)
            elif pending_scan or pending_recovery:
                # The stage quiesced before SCAN/RECOVERY occurred; the
                # timed steps degrade to ingest-time firing.
                leftovers = pending_scan + pending_recovery
                pending_scan, pending_recovery = [], []
                for j, step in leftovers:
                    fire_timed(i, j, step)
            else:
                break
        else:  # pragma: no cover - defensive
            violations.append(Violation(
                "exception", f"stage {i} did not quiesce in 10000 steps"
            ))
        # Lost alerts' administrator reports, and commits after the last
        # heal (or a stage whose corruption never executed), so the
        # epoch rolls before the next stage and the audit covers them.
        # A sweep heals at most once (a heal rolls to an empty epoch),
        # so its heal ran on the log of now.
        log = manager.log
        for report in system.sweep():
            heals += 1
            check_heal(i, log, report)

    audit = manager.audit()
    if not audit.ok:
        violations.append(Violation(
            "audit", "; ".join(audit.problems[:3])
        ))
    # Close the LTLf trace *before* the flight log: the finalize
    # violations land in the recorded text, so the determinism oracle's
    # byte-compare covers them and offline replay re-derives them.
    monitor.finalize()
    conformance = monitor.conformance
    for v in conformance.violations:
        instance = f" [{v.instance}]" if v.instance else ""
        violations.append(Violation(
            "conformance",
            f"{v.property}{instance} {v.verdict} at t={v.time:g}: "
            f"{v.detail}",
        ))
    flight.close()
    return _EpisodeResult(
        violations=violations,
        scans=scans,
        heals=heals,
        alerts=alerts,
        flight_text=flight.text(),
        verdict=monitor.verdict,
        conformance_violations=conformance.violation_count,
    )


# --------------------------------------------------------------------------
# Fleet episodes
# --------------------------------------------------------------------------


def _fleet_profiles(campaign: CampaignSpec) -> List[GeneratedTenantProfile]:
    profiles = []
    for tenant in range(campaign.tenants):
        seed = (
            campaign.seed if campaign.correlated
            else stable_seed(campaign.seed, 211 + tenant)
        )
        profiles.append(GeneratedTenantProfile(
            name=f"gen{tenant}",
            campaign_seed=seed,
            arrival_rate=campaign.arrival_rate,
            scan_time=_SCAN_TIME,
            unit_recovery_time=_UNIT_TIME,
            alert_buffer=campaign.alert_buffer,
            recovery_buffer=campaign.recovery_buffer,
        ))
    return profiles


def _fleet_fingerprint(report: FleetReport) -> Tuple:
    return (
        report.attacks,
        report.alerts_accepted,
        report.alerts_lost,
        report.scans,
        report.heals,
        tuple(sorted(report.verdicts_by_tenant.items())),
    )


def _run_fleet_campaign(campaign: CampaignSpec) -> CampaignOutcome:
    """Run a multi-tenant campaign through the fleet control plane.

    Oracles here are the fleet invariants: every tenant's end-to-end
    audit stays clean, the alert accounting balances (every attack is
    either accepted or counted lost — Definition 3's numerator), and a
    re-run from the same seeds reproduces the same report.
    """
    violations: List[Violation] = []

    def run_once() -> FleetReport:
        config = FleetConfig(
            tenants=campaign.tenants,
            duration=campaign.duration,
            workers=1,
            seed=campaign.seed,
        )
        plane = FleetControlPlane(
            config, profiles=_fleet_profiles(campaign)
        )
        return plane.run()

    try:
        report = run_once()
        again = run_once()
    except Exception as exc:  # noqa: BLE001 - any escape is a finding
        return CampaignOutcome(
            campaign=campaign,
            violations=(Violation(
                "exception", f"{type(exc).__name__}: {exc}"
            ),),
            fleet=True,
        )
    for tenant in report.health.tenants:
        if not tenant.audits_ok:
            violations.append(Violation(
                "audit", f"tenant {tenant.tenant}: healed history failed "
                "the strict-correctness audit"
            ))
        if tenant.report.violations:
            violations.append(Violation(
                "conformance",
                f"tenant {tenant.tenant}: {tenant.report.violations} "
                "LTLf strict-correctness violation(s)",
            ))
    if report.attacks != report.alerts_accepted + report.alerts_lost:
        violations.append(Violation(
            "accounting",
            f"attacks={report.attacks} != accepted="
            f"{report.alerts_accepted} + lost={report.alerts_lost}",
        ))
    if _fleet_fingerprint(report) != _fleet_fingerprint(again):
        violations.append(Violation(
            "determinism", "fleet re-run produced a different report"
        ))
    return CampaignOutcome(
        campaign=campaign,
        violations=tuple(violations),
        scans=report.scans,
        heals=report.heals,
        alerts=report.alerts_accepted + report.alerts_lost,
        fleet=True,
        verdict=report.health.verdict.value,
        conformance_violations=report.health.merged.violations,
    )


# --------------------------------------------------------------------------
# The campaign oracle
# --------------------------------------------------------------------------


def run_campaign(
    campaign: CampaignSpec, mutation: Optional[str] = None
) -> CampaignOutcome:
    """Run one campaign through the full composite oracle.

    Single-tenant campaigns run *twice* (the determinism oracle
    compares flight logs byte for byte); multi-tenant campaigns run
    through the fleet control plane.  ``mutation`` injects a seeded
    fault for the whole run (:func:`inject_mutation`; single-tenant
    only).
    """
    if campaign.tenants > 1:
        if mutation is not None:
            raise GenerationError(
                "heal faults require a single-tenant campaign"
            )
        return _run_fleet_campaign(campaign)

    counter: Dict[str, int] = {"applied": 0}
    mutated = 0
    violations: List[Violation] = []
    first: Optional[_EpisodeResult] = None
    second: Optional[_EpisodeResult] = None
    with inject_mutation(mutation, counter):
        try:
            first = _run_single_episode(campaign)
            # The second pass only checks determinism: its faulted heals
            # are counted no more than its scans and heals are.
            mutated = counter["applied"]
            second = _run_single_episode(campaign)
        except Exception as exc:  # noqa: BLE001 - any escape is a finding
            violations.append(Violation(
                "exception", f"{type(exc).__name__}: {exc}"
            ))
    if first is not None:
        violations.extend(first.violations)
        if second is not None:
            if first.flight_text != second.flight_text:
                violations.append(Violation(
                    "determinism",
                    "flight logs differ between identical runs",
                ))
            else:
                try:
                    read_flight_log(first.flight_text)
                except Exception as exc:  # noqa: BLE001
                    violations.append(Violation(
                        "determinism",
                        f"flight log failed to parse: {exc}",
                    ))
        if campaign.calibrated and first.verdict is SloState.BREACH:
            violations.append(Violation(
                "health",
                "calibrated campaign drove the conformance monitor "
                "to BREACH",
            ))
    return CampaignOutcome(
        campaign=campaign,
        violations=tuple(violations),
        scans=first.scans if first else 0,
        heals=first.heals if first else 0,
        alerts=first.alerts if first else 0,
        mutated_heals=mutated,
        fleet=False,
        verdict=first.verdict.value if first else "",
        conformance_violations=(
            first.conformance_violations if first else 0
        ),
    )


# --------------------------------------------------------------------------
# Shrinking
# --------------------------------------------------------------------------


def _with_step(
    campaign: CampaignSpec, i: int, j: int, step
) -> CampaignSpec:
    stage = campaign.stages[i]
    new_stage = stage[:j] + (step,) + stage[j + 1:]
    return replace(
        campaign,
        stages=campaign.stages[:i] + (new_stage,) + campaign.stages[i + 1:],
    )


def _shrink_candidates(c: CampaignSpec) -> Iterator[CampaignSpec]:
    """Strictly-smaller neighbours of ``c``, most aggressive first."""
    if c.tenants > 1:
        yield replace(c, tenants=1, correlated=False)
        if c.tenants > 2:
            yield replace(c, tenants=c.tenants - 1)
        if c.correlated:
            yield replace(c, correlated=False)
        if c.duration > 4.0:
            yield replace(c, duration=round(c.duration / 2.0, 3))
    if len(c.stages) > 1:
        for i in range(len(c.stages)):
            yield replace(c, stages=c.stages[:i] + c.stages[i + 1:])
    for i, stage in enumerate(c.stages):
        if len(stage) > 1:
            for j in range(len(stage)):
                yield replace(c, stages=(
                    c.stages[:i] + (stage[:j] + stage[j + 1:],)
                    + c.stages[i + 1:]
                ))
    shape = c.shape
    if shape.n_workflows > 1:
        yield replace(c, shape=replace(
            shape, n_workflows=shape.n_workflows - 1))
    if shape.tasks_per_workflow > 2:
        yield replace(c, shape=replace(
            shape, tasks_per_workflow=shape.tasks_per_workflow - 1))
    if shape.loop_probability:
        yield replace(c, shape=replace(shape, loop_probability=0.0))
    if shape.branch_probability:
        yield replace(c, shape=replace(shape, branch_probability=0.0))
    if shape.n_shared_objects > 1:
        yield replace(c, shape=replace(
            shape, n_shared_objects=shape.n_shared_objects - 1))
    for i, stage in enumerate(c.stages):
        for j, step in enumerate(stage):
            if step.trigger != "ingest":
                yield _with_step(c, i, j, replace(step, trigger="ingest"))
            if step.count > 1:
                yield _with_step(c, i, j, replace(step, count=step.count - 1))
            if step.kind == "corrupt" and step.delta != 1:
                yield _with_step(c, i, j, replace(step, delta=1))
            if step.target != 0:
                yield _with_step(c, i, j, replace(step, target=0))


def shrink_campaign(
    campaign: CampaignSpec,
    still_fails: Callable[[CampaignSpec], bool],
    max_evals: int = 128,
) -> CampaignSpec:
    """Greedy fixpoint minimization of a failing campaign.

    Tries strictly-smaller neighbours (fewer stages/steps/tenants,
    smaller shapes, canonical step fields) and keeps any that still
    violate the oracle, until no neighbour fails or the evaluation
    budget runs out.
    """
    current = campaign
    evals = 0
    improved = True
    while improved and evals < max_evals:
        improved = False
        for candidate in _shrink_candidates(current):
            if evals >= max_evals:
                break
            evals += 1
            try:
                if still_fails(candidate):
                    current = candidate
                    improved = True
                    break
            except GenerationError:
                continue
    return current


# --------------------------------------------------------------------------
# Corpus files
# --------------------------------------------------------------------------


def campaign_filename(
    campaign: CampaignSpec, mutation: Optional[str] = None
) -> str:
    """Deterministic corpus filename: content digest, no timestamps."""
    digest = hashlib.sha1(
        campaign.to_json().encode("utf-8")
    ).hexdigest()[:10]
    return f"ce-{mutation or 'fuzz'}-{digest}.json"


def write_counterexample(
    campaign: CampaignSpec,
    directory: str,
    violations: Sequence[Violation] = (),
    mutation: Optional[str] = None,
) -> str:
    """Persist a (shrunk) counterexample as a replayable corpus file.

    The file is a plain campaign document — :func:`load_campaign`
    round-trips it — with a ``found_by`` annotation recording the
    oracle(s) that fired and the injected mutation, if any.
    """
    os.makedirs(directory, exist_ok=True)
    doc = campaign.to_dict()
    doc["found_by"] = {
        "harness": "repro-workflow fuzz",
        "mutation": mutation,
        "violations": [
            {"oracle": v.oracle, "detail": v.detail} for v in violations
        ],
    }
    path = os.path.join(directory, campaign_filename(campaign, mutation))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_campaign(path: str) -> CampaignSpec:
    """Read a corpus file back into a campaign."""
    with open(path, "r", encoding="utf-8") as handle:
        return CampaignSpec.from_json(handle.read())


def replay_corpus(
    paths: Sequence[str],
) -> List[Tuple[str, CampaignOutcome]]:
    """Replay corpus files through the full oracle, in path order."""
    return [(path, run_campaign(load_campaign(path))) for path in paths]


# --------------------------------------------------------------------------
# The fuzzing driver
# --------------------------------------------------------------------------


@dataclass
class FuzzReport:
    """Aggregate outcome of one fuzzing run."""

    seed: int
    campaigns: int = 0
    single: int = 0
    fleet: int = 0
    scans: int = 0
    heals: int = 0
    mutated_heals: int = 0
    caught: int = 0
    missed: int = 0
    #: Campaigns where the *runtime* LTLf monitor flagged at least one
    #: violation — the subset of ``caught`` attributable to online
    #: conformance monitoring rather than the heal verifier.
    monitor_caught: int = 0
    elapsed: float = 0.0
    findings: List[Tuple[CampaignSpec, Tuple[Violation, ...]]] = field(
        default_factory=list
    )
    corpus_files: List[str] = field(default_factory=list)

    @property
    def violations(self) -> int:
        """Total campaigns that violated at least one oracle."""
        return len(self.findings)

    def summary(self) -> str:
        """One machine-parseable line (the CI smoke job greps it)."""
        return (
            f"fuzz: campaigns={self.campaigns} single={self.single} "
            f"fleet={self.fleet} scans={self.scans} "
            f"heals={self.heals} violations={self.violations} "
            f"mutated={self.mutated_heals} caught={self.caught} "
            f"missed={self.missed} "
            f"monitor_caught={self.monitor_caught} "
            f"elapsed={self.elapsed:.1f}s "
            f"seed={self.seed}"
        )


def fuzz(
    seed: int = 0,
    budget_seconds: Optional[float] = None,
    max_campaigns: Optional[int] = None,
    inject: Optional[str] = None,
    corpus_dir: Optional[str] = None,
    multi_tenant_every: int = 8,
    shrink: bool = True,
    max_corpus_files: int = 4,
    progress: Optional[Callable[[FuzzReport], None]] = None,
) -> FuzzReport:
    """Run generated campaigns through the oracle until a budget ends.

    With neither ``budget_seconds`` nor ``max_campaigns``, 200
    campaigns run.  ``inject`` puts the whole run in fault-injection
    mode (:func:`inject_mutation`): campaigns are forced single-tenant
    (see :func:`run_campaign`), and the report counts faulted campaigns
    caught vs. missed.  Counterexamples are shrunk (first
    ``max_corpus_files`` findings only — shrinking re-runs campaigns)
    and written to ``corpus_dir``.
    """
    if inject is not None and inject not in MUTATIONS:
        raise GenerationError(
            f"unknown heal fault {inject!r}; expected one of "
            f"{', '.join(MUTATIONS)}"
        )
    start = _time.monotonic()  # lint: allow[DET001] wall-clock fuzz budget
    report = FuzzReport(seed=seed)
    cap = (
        200 if budget_seconds is None and max_campaigns is None
        else max_campaigns
    )
    index = 0
    while True:
        if cap is not None and report.campaigns >= cap:
            break
        if budget_seconds is not None and (
            _time.monotonic() - start >= budget_seconds  # lint: allow[DET001] wall-clock fuzz budget
        ):
            break
        campaign = generate_campaign(
            seed,
            index=index,
            multi_tenant_every=0 if inject else multi_tenant_every,
        )
        outcome = run_campaign(campaign, mutation=inject)
        report.campaigns += 1
        if outcome.fleet:
            report.fleet += 1
        else:
            report.single += 1
        report.scans += outcome.scans
        report.heals += outcome.heals
        report.mutated_heals += outcome.mutated_heals
        if inject is not None and outcome.mutated_heals:
            if outcome.violations:
                report.caught += 1
            else:
                report.missed += 1
        if outcome.conformance_violations:
            report.monitor_caught += 1
        if outcome.violations:
            shrunk = campaign
            final = outcome.violations
            if shrink and len(report.findings) < max_corpus_files:
                shrunk = shrink_campaign(
                    campaign,
                    lambda c: bool(
                        run_campaign(c, mutation=inject).violations
                    ),
                )
                if shrunk is not campaign:
                    replayed = run_campaign(shrunk, mutation=inject)
                    final = replayed.violations or outcome.violations
            report.findings.append((shrunk, tuple(final)))
            if (
                corpus_dir is not None
                and len(report.corpus_files) < max_corpus_files
            ):
                report.corpus_files.append(write_counterexample(
                    shrunk, corpus_dir, final, mutation=inject
                ))
        if progress is not None and report.campaigns % 25 == 0:
            progress(report)
        index += 1
    report.elapsed = _time.monotonic() - start  # lint: allow[DET001] wall-clock fuzz budget
    return report
