"""Tenant workload archetypes for the fleet control plane.

Each tenant of the fleet runs one of four workload archetypes — small
workflow families patterned on the repo's scenario suite (the Figure 1
branching shape, the banking balance ledger, a travel booking pair, a
supply chain) — under a Poisson attack process.  A
:class:`TenantProfile` bundles the workflow family with the queueing
parameters the paper's CTMC needs (λ, scan/recovery service times,
buffer sizes), so every tenant's health monitor gets a calibrated
:class:`~repro.obs.health.ModelPrediction` as its null model.

Predictions require a steady-state solve, so they are cached per
distinct queueing configuration: a 10k-tenant fleet drawn from the four
archetypes performs four solves, not ten thousand.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import FleetError
from repro.ids.attacks import AttackCampaign
from repro.obs.health import ModelPrediction
from repro.sim.fullstack import FullStackConfig
from repro.workflow.spec import WorkflowSpec, workflow

__all__ = [
    "TenantProfile",
    "GeneratedTenantProfile",
    "PROFILES",
    "resolve_mix",
    "prediction_for",
]


def _figure1_spec(name: str) -> WorkflowSpec:
    """Produce-then-consume pair in the Figure 1 shape: the first task
    writes the shared object the second one branches its output on."""
    return (
        workflow(name)
        .task("produce", reads=["x"], writes=["x", f"mark_{name}"],
              compute=lambda d: {"x": d["x"] + 1,
                                 f"mark_{name}": d["x"] + 1})
        .task("consume", reads=["x"], writes=[f"out_{name}"],
              compute=lambda d: {f"out_{name}": d["x"] * 2 + d["x"] % 2})
        .chain("produce", "consume")
        .build()
    )


def _banking_spec(name: str) -> WorkflowSpec:
    """The full-stack simulator's ledger victim: apply a delta to the
    shared balance and record a receipt (damage chains across runs)."""
    return (
        workflow(name)
        .task("apply", reads=["balance"],
              writes=["balance", f"receipt_{name}"],
              compute=lambda d: {
                  "balance": d["balance"] + 10,
                  f"receipt_{name}": d["balance"] + 10,
              })
        .build()
    )


def _travel_spec(name: str) -> WorkflowSpec:
    """Book-then-bill pair against a shared seat inventory."""
    return (
        workflow(name)
        .task("book", reads=["seats"],
              writes=["seats", f"res_{name}"],
              compute=lambda d: {"seats": d["seats"] - 1,
                                 f"res_{name}": d["seats"] - 1})
        .task("bill", reads=[f"res_{name}"], writes=[f"bill_{name}"],
              compute=lambda d: {f"bill_{name}": d[f"res_{name}"] * 3})
        .chain("book", "bill")
        .build()
    )


def _supply_spec(name: str) -> WorkflowSpec:
    """Order → ship → bill chain drawing down shared stock."""
    return (
        workflow(name)
        .task("order", reads=["stock"],
              writes=["stock", f"po_{name}"],
              compute=lambda d: {"stock": d["stock"] - 2,
                                 f"po_{name}": d["stock"] - 2})
        .task("ship", reads=[f"po_{name}"], writes=[f"ship_{name}"],
              compute=lambda d: {f"ship_{name}": d[f"po_{name}"] + 1})
        .task("bill", reads=[f"ship_{name}"], writes=[f"inv_{name}"],
              compute=lambda d: {f"inv_{name}": d[f"ship_{name}"] * 5})
        .chain("order", "ship", "bill")
        .build()
    )


@dataclass(frozen=True)
class TenantProfile:
    """One tenant archetype: workflow family + queueing parameters.

    ``spec_factory(instance_name)`` builds the per-attack workflow;
    ``attacked_task`` is the task whose output the attacker forges
    (always the first task, so corruption flows through the shared
    object into later runs); ``initial_data`` seeds the tenant's store.
    The queueing fields mirror :class:`~repro.sim.fullstack.FullStackConfig`
    and map onto the CTMC exactly the same way.
    """

    name: str
    spec_factory: Callable[[str], WorkflowSpec] = field(repr=False)
    attacked_task: str = "apply"
    attacked_object: str = "balance"
    initial_data: Tuple[Tuple[str, int], ...] = (("balance", 100),)
    arrival_rate: float = 0.25
    scan_time: float = 1.0 / 15.0
    unit_recovery_time: float = 1.0 / 20.0
    alert_buffer: int = 8
    recovery_buffer: int = 8

    def queueing_config(self) -> FullStackConfig:
        """This profile's knobs as a full-stack queueing config (the
        shared CTMC mapping lives there)."""
        return FullStackConfig(
            arrival_rate=self.arrival_rate,
            scan_time=self.scan_time,
            unit_recovery_time=self.unit_recovery_time,
            alert_buffer=self.alert_buffer,
            recovery_buffer=self.recovery_buffer,
        )

    def build_attack(
        self, seq: int
    ) -> Tuple[WorkflowSpec, AttackCampaign, str]:
        """The ``seq``-th attacked run of this tenant: returns the
        workflow spec, the tamper campaign, and the instance name."""
        name = f"atk{seq}"
        spec = self.spec_factory(name)
        campaign = AttackCampaign().transform_task(
            self.attacked_task,
            lambda inputs, outputs: {
                key: (value + 5000 if key == self.attacked_object
                      else value)
                for key, value in outputs.items()
            },
            workflow_instance=name,
        )
        return spec, campaign, name


def _web_spec(name: str) -> WorkflowSpec:
    """Request → render pair against a shared inventory — the web-shop
    tier of :mod:`repro.scenarios.web_app` at fleet scale."""
    return (
        workflow(name)
        .task("request", reads=["inventory"],
              writes=["inventory", f"cart_{name}"],
              compute=lambda d: {
                  "inventory": d["inventory"] - 1,
                  f"cart_{name}": d["inventory"] - 1,
              })
        .task("render", reads=[f"cart_{name}"], writes=[f"page_{name}"],
              compute=lambda d: {f"page_{name}": d[f"cart_{name}"] * 2 + 1})
        .chain("request", "render")
        .build()
    )


@dataclass(frozen=True)
class GeneratedTenantProfile(TenantProfile):
    """A tenant whose attacked runs are seeded random chains.

    The fuzzing harness (:mod:`repro.scenarios.fuzz`) uses this profile
    to drive the fleet control plane with campaign-specific traffic:
    each attacked run is a three-task chain drawn from
    ``stable_seed(campaign_seed, seq)``, reading and (in its last task)
    writing the shared ``pool`` object — the contagion channel through
    which one tenant's corruption chains across its own later runs.
    Two profiles with the same ``campaign_seed`` draw identical attack
    streams (the *correlated* cross-tenant campaigns of the DSL).
    """

    #: Unused — attacked specs are generated, not factory-built.
    spec_factory: Optional[Callable[[str], WorkflowSpec]] = field(
        default=None, repr=False)
    initial_data: Tuple[Tuple[str, int], ...] = (("pool", 1),)
    campaign_seed: int = 0
    delta: int = 4_242

    def build_attack(
        self, seq: int
    ) -> Tuple[WorkflowSpec, AttackCampaign, str]:
        from repro.scenarios.generate import MODULUS, stable_seed

        rng = random.Random(stable_seed(self.campaign_seed, seq))
        name = f"atk{seq}"
        length = 3
        builder = workflow(name)
        prev_obj: Optional[str] = None
        prev_tid: Optional[str] = None
        for i in range(length):
            tid = f"r{i + 1}"
            own = f"{name}_o{i + 1}"
            last = i == length - 1
            if prev_obj is None:
                reads = ["pool"]
            elif last:
                reads = [prev_obj, "pool"]
            else:
                reads = [prev_obj]
            writes = [own, "pool"] if last else [own]
            weight, bias = rng.randint(1, 9), rng.randint(0, 999)

            def compute(d, _r=tuple(reads), _w=tuple(writes),
                        _a=weight, _b=bias):
                acc = _b
                for key in _r:
                    acc = (acc * _a + int(d[key])) % MODULUS
                return {w: (acc + j) % MODULUS for j, w in enumerate(_w)}

            builder.task(tid, reads=reads, writes=writes, compute=compute)
            if prev_tid is not None:
                builder.edge(prev_tid, tid)
            prev_obj, prev_tid = own, tid
        spec = builder.build()
        victim = f"r{rng.randint(1, length)}"
        campaign = AttackCampaign().shift_outputs(
            victim,
            delta=self.delta,
            modulus=MODULUS,
            workflow_instance=name,
            label=f"generated corrupt {name}:{victim}",
        )
        return spec, campaign, name


#: The built-in archetypes a fleet mix draws from.
PROFILES: Dict[str, TenantProfile] = {
    "figure1": TenantProfile(
        name="figure1", spec_factory=_figure1_spec,
        attacked_task="produce", attacked_object="x",
        initial_data=(("x", 7),), arrival_rate=0.2,
    ),
    "banking": TenantProfile(
        name="banking", spec_factory=_banking_spec,
        attacked_task="apply", attacked_object="balance",
        initial_data=(("balance", 100),), arrival_rate=0.25,
    ),
    "travel": TenantProfile(
        name="travel", spec_factory=_travel_spec,
        attacked_task="book", attacked_object="seats",
        initial_data=(("seats", 500),), arrival_rate=0.2,
    ),
    "supply": TenantProfile(
        name="supply", spec_factory=_supply_spec,
        attacked_task="order", attacked_object="stock",
        initial_data=(("stock", 1000),), arrival_rate=0.15,
    ),
    "web": TenantProfile(
        name="web", spec_factory=_web_spec,
        attacked_task="request", attacked_object="inventory",
        initial_data=(("inventory", 200),), arrival_rate=0.25,
    ),
}


def resolve_mix(mix: Sequence[str]) -> List[TenantProfile]:
    """Resolve archetype names to profiles; unknown names are a
    :class:`~repro.errors.FleetError` (the CLI's exit-3 path)."""
    if not mix:
        raise FleetError("attack mix must name at least one archetype")
    profiles = []
    for name in mix:
        profile = PROFILES.get(name)
        if profile is None:
            raise FleetError(
                f"unknown workload archetype {name!r}; available: "
                f"{', '.join(sorted(PROFILES))}"
            )
        profiles.append(profile)
    return profiles


#: Steady-state solves cached per distinct queueing configuration.
_PREDICTIONS: Dict[FullStackConfig, ModelPrediction] = {}


def prediction_for(profile: TenantProfile) -> ModelPrediction:
    """The calibrated CTMC prediction for ``profile``'s queueing
    config, computed once per distinct config (fleets re-use the same
    four archetypes thousands of times)."""
    cfg = profile.queueing_config()
    prediction = _PREDICTIONS.get(cfg)
    if prediction is None:
        prediction = ModelPrediction.from_stg(cfg.stg())
        _PREDICTIONS[cfg] = prediction
    return prediction
