"""Seeded generators for workflow specs and attack campaigns.

The four built-in scenarios are static; every recovery-correctness
guarantee in the repo deserves to be exercised on *arbitrary* inputs.
This module promotes the hypothesis strategies that grew inside the
test tree into a first-class library with two faces:

- **seeded generation** (no hypothesis required): deterministic
  functions from an integer seed to a workload
  (:func:`generate_workload`), an attacked case
  (:func:`random_attacked_case`) or a whole multi-stage campaign
  (:func:`generate_campaign`).  The fuzzing harness
  (:mod:`repro.scenarios.fuzz`) and the ``repro-workflow fuzz`` CLI
  verb build on these, so they work in environments without the test
  toolchain;
- **hypothesis strategies** (exported only when hypothesis is
  importable): the DAG / birth-death / segmented-commit strategies the
  property tests share, plus strategies over the campaign DSL itself.

The campaign DSL (:class:`SpecShape`, :class:`AttackStep`,
:class:`CampaignSpec`) is a small, fully serializable description of an
adversarial episode: the shape of the random workflows, one or more
attack *stages* (each a burst of steps healed as one batch, the paper's
operating discipline), per-step kinds (data corruption, forged runs,
false-alarm floods) and *triggers* (at ingest, or timed against the
SCAN / RECOVERY states of Section IV-C), and an optional multi-tenant
spread with correlated cross-tenant seeds.  Serialized campaigns are
the fuzzer's corpus format — a counterexample written by the harness
replays bit-identically from its JSON file.

Also here: the names of the seeded heal faults (:data:`MUTATIONS`:
a dropped undo, an extra redo, a reversed Theorem 3.3 edge) that the
harness's fault-injection mode puts into the healer
(:func:`repro.scenarios.fuzz.inject_mutation`), proving end to end that
a broken heal cannot slip past the oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core.undo_redo import find_redo_tasks, find_undo_tasks
from repro.errors import GenerationError
from repro.sim.workload import Workload, WorkloadConfig, WorkloadGenerator
from repro.workflow.dependency import DependencyAnalyzer

__all__ = [
    "CAMPAIGN_FORMAT",
    "MODULUS",
    "stable_seed",
    "SpecShape",
    "AttackStep",
    "CampaignSpec",
    "generate_workload",
    "generate_campaign",
    "random_attacked_case",
    "MUTATIONS",
]

#: Corpus / wire format tag for serialized campaigns.
CAMPAIGN_FORMAT = "repro-campaign/1"

#: Task arithmetic modulus shared with the workload generator default.
MODULUS = 10_007

#: Attack-step kinds understood by the DSL.
STEP_KINDS = ("corrupt", "forge-run", "false-alarm")

#: When a step fires: with the stage's normal traffic, or timed against
#: the SCAN / RECOVERY states (Section IV-C) of the stage's recovery.
STEP_TRIGGERS = ("ingest", "scan", "recovery")


def stable_seed(*parts: int) -> int:
    """Mix integers into one 31-bit seed, stable across runs/platforms."""
    acc = 0x811C_9DC5
    for part in parts:
        acc = (acc * 1_000_003 + int(part) + 0x9E37) % (2**31 - 1)
    return acc


# --------------------------------------------------------------------------
# The campaign DSL
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SpecShape:
    """Shape of the random workflows a campaign runs (Section III
    structural constraints: DAGs of tasks with read/write sets,
    alternative branches that rejoin, data-bounded loops)."""

    n_workflows: int = 2
    tasks_per_workflow: int = 6
    branch_probability: float = 0.3
    loop_probability: float = 0.0
    n_shared_objects: int = 2
    max_extra_reads: int = 2
    shared_writes: bool = True

    def to_config(self) -> WorkloadConfig:
        """This shape as a workload-generator configuration."""
        return WorkloadConfig(
            n_workflows=self.n_workflows,
            tasks_per_workflow=self.tasks_per_workflow,
            branch_probability=self.branch_probability,
            loop_probability=self.loop_probability,
            n_shared_objects=self.n_shared_objects,
            max_extra_reads=self.max_extra_reads,
            value_modulus=MODULUS,
            shared_writes=self.shared_writes,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "n_workflows": self.n_workflows,
            "tasks_per_workflow": self.tasks_per_workflow,
            "branch_probability": self.branch_probability,
            "loop_probability": self.loop_probability,
            "n_shared_objects": self.n_shared_objects,
            "max_extra_reads": self.max_extra_reads,
            "shared_writes": self.shared_writes,
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "SpecShape":
        try:
            return cls(
                n_workflows=int(doc.get("n_workflows", 2)),
                tasks_per_workflow=int(doc.get("tasks_per_workflow", 6)),
                branch_probability=float(doc.get("branch_probability", 0.3)),
                loop_probability=float(doc.get("loop_probability", 0.0)),
                n_shared_objects=int(doc.get("n_shared_objects", 2)),
                max_extra_reads=int(doc.get("max_extra_reads", 2)),
                shared_writes=bool(doc.get("shared_writes", True)),
            )
        except (TypeError, ValueError) as exc:
            raise GenerationError(f"invalid spec shape: {exc}") from None


@dataclass(frozen=True)
class AttackStep:
    """One step of an attack stage.

    Attributes
    ----------
    kind:
        ``corrupt`` shifts every output of one task (picked by
        ``target`` mod the stage's task count) by ``delta`` mod the
        arithmetic modulus; ``forge-run`` marks one whole workflow run
        attacker-forged; ``false-alarm`` submits ``count`` IDS alerts
        naming *clean* committed instances.
    target:
        Deterministic victim selector (reduced modulo the number of
        eligible victims, so any integer is valid).
    delta:
        Corruption offset (``corrupt`` only).
    count:
        Alert count (``false-alarm`` only — the flood size).
    trigger:
        ``ingest`` fires with the stage's traffic; ``scan`` /
        ``recovery`` fire while the system is mid-SCAN / right as
        RECOVERY begins — the races of Section IV-C.
    """

    kind: str = "corrupt"
    target: int = 0
    delta: int = 4_242
    count: int = 1
    trigger: str = "ingest"

    def __post_init__(self) -> None:
        if self.kind not in STEP_KINDS:
            raise GenerationError(
                f"unknown attack-step kind {self.kind!r}; "
                f"expected one of {', '.join(STEP_KINDS)}"
            )
        if self.trigger not in STEP_TRIGGERS:
            raise GenerationError(
                f"unknown attack-step trigger {self.trigger!r}; "
                f"expected one of {', '.join(STEP_TRIGGERS)}"
            )
        if self.count < 1:
            raise GenerationError("attack-step count must be >= 1")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "target": self.target,
            "delta": self.delta,
            "count": self.count,
            "trigger": self.trigger,
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "AttackStep":
        try:
            return cls(
                kind=str(doc.get("kind", "corrupt")),
                target=int(doc.get("target", 0)),
                delta=int(doc.get("delta", 4_242)),
                count=int(doc.get("count", 1)),
                trigger=str(doc.get("trigger", "ingest")),
            )
        except (TypeError, ValueError) as exc:
            raise GenerationError(f"invalid attack step: {exc}") from None


@dataclass(frozen=True)
class CampaignSpec:
    """A complete, serializable adversarial episode.

    ``stages`` is a tuple of attack stages; each stage runs a fresh
    workload of ``shape``-d workflows, fires its steps, and is healed
    as one batch before the next stage begins (heals roll the epoch,
    so later stages attack the previously-healed world).  With
    ``tenants > 1`` the campaign instead runs through the fleet
    control plane; ``correlated`` makes every tenant draw the same
    attack stream (a coordinated cross-tenant campaign) instead of
    independent per-tenant streams.
    """

    seed: int
    shape: SpecShape = field(default_factory=SpecShape)
    stages: Tuple[Tuple[AttackStep, ...], ...] = ((AttackStep(),),)
    tenants: int = 1
    correlated: bool = False
    duration: float = 8.0
    arrival_rate: float = 0.25
    alert_buffer: int = 8
    recovery_buffer: int = 8
    label: str = ""

    def __post_init__(self) -> None:
        if self.tenants < 1:
            raise GenerationError("campaign needs at least one tenant")
        if not self.stages or any(not stage for stage in self.stages):
            raise GenerationError(
                "campaign needs at least one stage, each with at least "
                "one step"
            )
        if self.alert_buffer < 1 or self.recovery_buffer < 1:
            raise GenerationError("queue buffers must be >= 1")
        if self.arrival_rate <= 0:
            raise GenerationError("arrival rate must be positive")

    @property
    def steps(self) -> Tuple[AttackStep, ...]:
        """All steps across all stages, in firing order."""
        return tuple(step for stage in self.stages for step in stage)

    @property
    def calibrated(self) -> bool:
        """Does the episode match the CTMC the health monitor is
        calibrated against?  Poisson ingest-only arrivals, no floods,
        no state-timed injections, and bursts that fit the queues —
        only then is a BREACH verdict an oracle violation."""
        if self.tenants > 1:
            return False
        for stage in self.stages:
            load = 0
            for step in stage:
                if step.trigger != "ingest":
                    return False
                if step.kind == "false-alarm":
                    return False
                load += step.count
            if load >= min(self.alert_buffer, self.recovery_buffer):
                return False
        return True

    # -- serialization (the corpus format) --------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": CAMPAIGN_FORMAT,
            "seed": self.seed,
            "shape": self.shape.to_dict(),
            "stages": [
                [step.to_dict() for step in stage]
                for stage in self.stages
            ],
            "tenants": self.tenants,
            "correlated": self.correlated,
            "duration": self.duration,
            "arrival_rate": self.arrival_rate,
            "alert_buffer": self.alert_buffer,
            "recovery_buffer": self.recovery_buffer,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "CampaignSpec":
        fmt = doc.get("format", CAMPAIGN_FORMAT)
        if fmt != CAMPAIGN_FORMAT:
            raise GenerationError(
                f"unsupported campaign format {fmt!r} "
                f"(expected {CAMPAIGN_FORMAT!r})"
            )
        if "seed" not in doc:
            raise GenerationError("campaign document is missing 'seed'")
        stages_doc = doc.get("stages", [[{}]])
        if not isinstance(stages_doc, (list, tuple)):
            raise GenerationError("campaign 'stages' must be a list")
        try:
            return cls(
                seed=int(doc["seed"]),
                shape=SpecShape.from_dict(doc.get("shape", {})),
                stages=tuple(
                    tuple(AttackStep.from_dict(s) for s in stage)
                    for stage in stages_doc
                ),
                tenants=int(doc.get("tenants", 1)),
                correlated=bool(doc.get("correlated", False)),
                duration=float(doc.get("duration", 8.0)),
                arrival_rate=float(doc.get("arrival_rate", 0.25)),
                alert_buffer=int(doc.get("alert_buffer", 8)),
                recovery_buffer=int(doc.get("recovery_buffer", 8)),
                label=str(doc.get("label", "")),
            )
        except (TypeError, ValueError) as exc:
            raise GenerationError(f"invalid campaign: {exc}") from None

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        import json

        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise GenerationError(
                f"campaign file is not valid JSON: {exc}"
            ) from None
        if not isinstance(doc, dict):
            raise GenerationError("campaign document must be an object")
        return cls.from_dict(doc)


# --------------------------------------------------------------------------
# Seeded generation (no hypothesis required)
# --------------------------------------------------------------------------


def generate_workload(
    seed: int,
    shape: Optional[SpecShape] = None,
    prefix: str = "W",
) -> Workload:
    """The workload a ``(seed, shape)`` pair denotes — bit-identical
    across calls.  ``prefix`` namespaces the workflow ids so several
    generated workloads can share one epoch manager."""
    shape = shape if shape is not None else SpecShape()
    gen = WorkloadGenerator(shape.to_config(), random.Random(int(seed)))
    return gen.generate(prefix=prefix)


def random_attacked_case(
    seed: int,
    n_attacks: int = 1,
    branchiness: float = 0.3,
    loopiness: float = 0.0,
    n_workflows: int = 3,
    tasks_per_workflow: int = 8,
):
    """``(attacked, alerts, undo_analysis, redo_analysis)`` for a
    random attacked workload, *not* healed — the shared fixture of the
    verifier property tests: the attacked
    :class:`~repro.scenarios.base.Scenario`, its alerts (the malicious
    uids it committed) and their Theorem 1/2 sets, decided on a fresh
    dependency index of its log.  ``None`` when no attack landed on a
    committed instance (e.g. the corrupted task was on an unexecuted
    branch arm)."""
    from repro.sim.recovery_sim import run_pipeline

    gen = WorkloadGenerator(
        WorkloadConfig(
            n_workflows=n_workflows,
            tasks_per_workflow=tasks_per_workflow,
            branch_probability=branchiness,
            loop_probability=loopiness,
        ),
        random.Random(seed),
    )
    workload = gen.generate()
    campaign = gen.pick_attacks(workload, n_attacks=n_attacks)
    result = run_pipeline(workload, campaign, seed=seed)
    alerts = [u for u in result.malicious_ground_truth if u in result.log]
    if not alerts:
        return None
    index = DependencyAnalyzer(result.log, result.specs_by_instance)
    undo_analysis = find_undo_tasks(index, alerts)
    return (result, alerts, undo_analysis,
            find_redo_tasks(index, undo_analysis.definite))


#: Arrival rates / buffer sizes drawn by the campaign generator — a
#: small palette keeps the health monitor's steady-state solves cached
#: across hundreds of campaigns.
_ARRIVAL_RATES = (0.15, 0.25)
_BUFFERS = (6, 8)


def generate_campaign(
    seed: int,
    index: int = 0,
    multi_tenant_every: int = 8,
) -> CampaignSpec:
    """The ``index``-th campaign of the fuzzer's ``seed`` stream.

    Shapes, stage counts, step kinds and triggers are drawn from a
    seeded RNG; every ``multi_tenant_every``-th campaign is a fleet
    campaign (2–4 tenants, half of them correlated).  Pure function of
    ``(seed, index, multi_tenant_every)``.
    """
    rng = random.Random(stable_seed(seed, index))
    shape = SpecShape(
        n_workflows=rng.randint(1, 3),
        tasks_per_workflow=rng.randint(3, 7),
        branch_probability=rng.choice((0.0, 0.3, 0.7)),
        loop_probability=rng.choice((0.0, 0.0, 0.4)),
        n_shared_objects=rng.randint(1, 3),
        shared_writes=rng.random() < 0.8,
    )
    alert_buffer = rng.choice(_BUFFERS)
    recovery_buffer = rng.choice(_BUFFERS)
    arrival_rate = rng.choice(_ARRIVAL_RATES)

    fleet = multi_tenant_every > 0 and index % multi_tenant_every == (
        multi_tenant_every - 1
    )
    if fleet:
        return CampaignSpec(
            seed=stable_seed(seed, index, 1),
            shape=shape,
            stages=((AttackStep(),),),  # fleet attacks are profile-drawn
            tenants=rng.randint(2, 4),
            correlated=rng.random() < 0.5,
            duration=rng.choice((6.0, 10.0)),
            arrival_rate=arrival_rate,
            alert_buffer=alert_buffer,
            recovery_buffer=recovery_buffer,
            label=f"fleet-{index}",
        )

    n_stages = rng.randint(1, 3)
    stages: List[Tuple[AttackStep, ...]] = []
    for _ in range(n_stages):
        steps: List[AttackStep] = []
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.55:
                kind, trigger = "corrupt", "ingest"
            elif roll < 0.65:
                kind, trigger = "forge-run", "ingest"
            elif roll < 0.80:
                kind, trigger = "false-alarm", "ingest"
            elif roll < 0.92:
                kind, trigger = "corrupt", "scan"
            else:
                kind, trigger = "corrupt", "recovery"
            steps.append(AttackStep(
                kind=kind,
                target=rng.randint(0, 10_000),
                delta=rng.choice((1, 4_242, 9_001)),
                count=rng.randint(2, 5) if kind == "false-alarm" else 1,
                trigger=trigger,
            ))
        stages.append(tuple(steps))
    return CampaignSpec(
        seed=stable_seed(seed, index, 1),
        shape=shape,
        stages=tuple(stages),
        arrival_rate=arrival_rate,
        alert_buffer=alert_buffer,
        recovery_buffer=recovery_buffer,
        label=f"single-{index}",
    )


# --------------------------------------------------------------------------
# Heal faults (fault injection)
# --------------------------------------------------------------------------

#: Seeded heal faults ``fuzz --inject`` takes
#: (:func:`repro.scenarios.fuzz.inject_mutation`).
MUTATIONS = ("drop-undo", "extra-redo", "reverse-edge")


# --------------------------------------------------------------------------
# Hypothesis strategies (exported only when hypothesis is available)
# --------------------------------------------------------------------------

try:  # pragma: no cover - presence depends on the environment
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover
    st = None  # type: ignore[assignment]

if st is not None:
    __all__ += [
        "random_dag_edges",
        "birth_death",
        "segmented_commits",
        "campaign_specs",
        "lambdas",
        "service_rates",
        "buffers",
        "CASE",
    ]

    #: Rates within a couple of orders of magnitude of the paper's
    #: defaults: wide enough to explore, narrow enough that the chains
    #: stay well conditioned and the solves stay fast.
    lambdas = st.floats(min_value=0.1, max_value=20.0,
                        allow_nan=False, allow_infinity=False)
    service_rates = st.floats(min_value=0.5, max_value=50.0,
                              allow_nan=False, allow_infinity=False)
    buffers = st.integers(min_value=1, max_value=12)

    #: Keyword strategies for a random attacked case (see
    #: :func:`random_attacked_case`).
    CASE = dict(
        seed=st.integers(min_value=0, max_value=10_000),
        n_attacks=st.integers(min_value=1, max_value=3),
        branchiness=st.sampled_from([0.0, 0.3, 0.7]),
        loopiness=st.sampled_from([0.0, 0.4]),
    )

    @st.composite
    def random_dag_edges(draw):
        """``(nodes, edges)`` of a random DAG over ``v0..vn`` with
        edges only from lower to higher index (acyclic by
        construction)."""
        n = draw(st.integers(min_value=2, max_value=18))
        edges = set()
        for j in range(1, n):
            for i in range(j):
                if draw(st.booleans()):
                    edges.add((f"v{i}", f"v{j}"))
        return [f"v{i}" for i in range(n)], edges

    @st.composite
    def birth_death(draw):
        """``(chain, lams, mus)`` for a random birth-death CTMC."""
        from repro.markov.ctmc import CTMC

        n = draw(st.integers(min_value=2, max_value=12))
        lams = [
            draw(st.floats(min_value=0.1, max_value=10.0))
            for _ in range(n - 1)
        ]
        mus = [
            draw(st.floats(min_value=0.1, max_value=10.0))
            for _ in range(n - 1)
        ]
        rates = {}
        for i in range(n - 1):
            rates[(i, i + 1)] = lams[i]
            rates[(i + 1, i)] = mus[i]
        return CTMC.from_rates(list(range(n)), rates), lams, mus

    @st.composite
    def segmented_commits(draw):
        """A random distributed execution: per-commit node choice and a
        random (possibly empty) set of nodes notified afterwards."""
        nodes = ["n0", "n1", "n2"]
        n_commits = draw(st.integers(min_value=1, max_value=25))
        plan = []
        for i in range(n_commits):
            node = draw(st.sampled_from(nodes))
            notify = [
                other for other in nodes
                if other != node and draw(st.booleans())
            ]
            plan.append((node, notify))
        return nodes, plan

    @st.composite
    def campaign_specs(draw):
        """Arbitrary campaigns via the seeded generator — one draw per
        point of its parameter space, so shrinking walks toward small
        seeds and single-tenant campaigns."""
        seed = draw(st.integers(min_value=0, max_value=10_000))
        index = draw(st.integers(min_value=0, max_value=63))
        return generate_campaign(seed, index=index)
