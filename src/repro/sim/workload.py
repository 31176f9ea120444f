"""Random workflow workload generation.

Workflow-level experiments (property tests, baseline comparisons) need
many structurally-diverse workflows with realistic damage-spreading
potential: data flowing between tasks, branch decisions that corrupted
data can flip (the Figure 1 phenomenon), and shared objects through
which damage crosses workflow boundaries.

Generated workflows are sequences of *segments* — single tasks or
diamonds (a branch node choosing between two arms that rejoin) — with
deterministic integer arithmetic for task bodies, so that every
execution (and every recovery re-execution) is reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.ids.attacks import AttackCampaign
from repro.workflow.spec import WorkflowSpec, workflow

__all__ = ["WorkloadConfig", "Workload", "WorkloadGenerator"]


@dataclass(frozen=True)
class WorkloadConfig:
    """Shape parameters for generated workloads.

    Attributes
    ----------
    n_workflows:
        Number of workflow specifications (one run each).
    tasks_per_workflow:
        Approximate task count per workflow (diamonds add arm tasks).
    branch_probability:
        Chance that a segment is a diamond instead of a single task.
    n_shared_objects:
        Globally shared data objects; each is writable by exactly one
        workflow (so recovery correctness does not depend on write-write
        interleaving across workflows) but readable by all — the channel
        through which damage spreads across workflows.
    max_extra_reads:
        Extra upstream objects each task may read beyond its immediate
        predecessor.
    value_modulus:
        Task arithmetic is carried out modulo this prime.
    shared_writes:
        When ``False``, shared objects are read-only constants: the
        workflows become independent of their interleaving (useful for
        invariance properties); damage then spreads only within each
        workflow.
    loop_probability:
        Chance that a segment is a *loop*: a setup task computes a
        data-dependent iteration count (1–3, derived from its inputs),
        and a body task repeats itself that many times.  Because the
        count is data, corrupting an upstream task changes how many
        times the loop runs — the repeated-instance (``t_i^k``)
        recovery cases.
    """

    n_workflows: int = 3
    tasks_per_workflow: int = 8
    branch_probability: float = 0.3
    n_shared_objects: int = 3
    max_extra_reads: int = 2
    value_modulus: int = 10_007
    shared_writes: bool = True
    loop_probability: float = 0.0

    def __post_init__(self) -> None:
        if self.n_workflows < 1:
            raise ValueError("n_workflows must be >= 1")
        if self.tasks_per_workflow < 2:
            raise ValueError("tasks_per_workflow must be >= 2")
        if not 0.0 <= self.branch_probability <= 1.0:
            raise ValueError("branch_probability must be in [0, 1]")


@dataclass
class Workload:
    """A generated set of workflows plus their initial data."""

    specs: List[WorkflowSpec]
    initial_data: Dict[str, Any]

def _linear_body(
    reads: Sequence[str],
    writes: Sequence[str],
    coeffs: Mapping[str, Tuple[Tuple[int, ...], int]],
    modulus: int,
):
    """Deterministic task body: each output is an affine combination of
    the inputs modulo ``modulus``."""
    reads = tuple(reads)
    writes = tuple(writes)

    def compute(inputs: Mapping[str, Any]) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        values = [int(inputs[name]) for name in reads]
        for name in writes:
            weights, bias = coeffs[name]
            acc = bias
            for w, v in zip(weights, values):
                acc += w * v
            out[name] = acc % modulus
        return out

    return compute


def _parity_choice(key: str, even: str, odd: str):
    """Branch decision: arm by the parity of the branch node's output."""

    def choose(visible: Mapping[str, Any]) -> str:
        return even if int(visible[key]) % 2 == 0 else odd

    return choose


class WorkloadGenerator:
    """Generates reproducible random workloads.

    Parameters
    ----------
    config:
        Shape parameters.
    rng:
        Randomness source; the same seed yields the same workload.
    """

    def __init__(
        self,
        config: Optional[WorkloadConfig] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self._config = config if config is not None else WorkloadConfig()
        self._rng = rng if rng is not None else random.Random(0)

    @property
    def config(self) -> WorkloadConfig:
        """The generator's configuration."""
        return self._config

    # -- workload -------------------------------------------------------------

    def generate(self, prefix: str = "W") -> Workload:
        """Generate a fresh workload.

        ``prefix`` namespaces the workflow ids (``W0``, ``W1``, ... by
        default) — generated workloads with distinct prefixes can share
        one epoch manager without instance-name collisions.  Shared
        objects keep their unprefixed names, so workloads generated
        with the same shape agree on their initial values.
        """
        cfg = self._config
        shared = [f"s{i}" for i in range(cfg.n_shared_objects)]
        initial: Dict[str, Any] = {name: i + 1 for i, name in enumerate(shared)}
        specs: List[WorkflowSpec] = []
        for w in range(cfg.n_workflows):
            spec, objects = self._generate_workflow(f"{prefix}{w}", w, shared)
            specs.append(spec)
            initial.update(objects)
        return Workload(specs=specs, initial_data=initial)

    def _generate_workflow(
        self,
        workflow_id: str,
        index: int,
        shared: Sequence[str],
    ) -> Tuple[WorkflowSpec, Dict[str, Any]]:
        cfg = self._config
        rng = self._rng
        builder = workflow(workflow_id)
        # Shared objects this workflow may write (single-writer rule).
        own_shared = [
            s for i, s in enumerate(shared)
            if i % max(1, cfg.n_workflows) == index
        ] if cfg.shared_writes else []
        produced: List[str] = []     # objects written so far (any path)
        objects: Dict[str, Any] = {}
        task_no = 0
        prev_tails: List[str] = []

        def new_task(branching_to: Optional[Tuple[str, str]] = None) -> str:
            nonlocal task_no
            task_no += 1
            tid = f"{workflow_id}_t{task_no}"
            own_obj = f"o_{tid}"
            objects[own_obj] = 0
            reads: List[str] = []
            if produced:
                reads.append(produced[-1])
                pool = produced[:-1] + list(shared)
            else:
                pool = list(shared)
            extra = rng.randint(0, cfg.max_extra_reads)
            for candidate in rng.sample(pool, min(extra, len(pool))):
                if candidate not in reads:
                    reads.append(candidate)
            writes = [own_obj]
            if own_shared and rng.random() < 0.3:
                writes.append(rng.choice(own_shared))
            coeffs = {
                name: (
                    tuple(rng.randint(1, 9) for _ in reads),
                    rng.randint(0, 999),
                )
                for name in writes
            }
            choose = None
            if branching_to is not None:
                choose = _parity_choice(own_obj, *branching_to)
            builder.task(
                tid,
                reads=reads,
                writes=writes,
                compute=_linear_body(
                    reads, writes, coeffs, cfg.value_modulus
                ),
                choose=choose,
            )
            produced.append(own_obj)
            return tid

        def link(tails: List[str], head: str) -> None:
            for tail in tails:
                builder.edge(tail, head)

        def make_loop() -> None:
            """setup → body (repeats toward a data-bounded target) → exit."""
            nonlocal task_no, prev_tails
            setup_id = f"{workflow_id}_t{task_no + 1}"
            body_id = f"{workflow_id}_t{task_no + 2}"
            exit_id = f"{workflow_id}_t{task_no + 3}"
            counter = f"cnt_{setup_id}"
            target = f"lim_{setup_id}"
            acc = f"acc_{body_id}"
            objects[counter] = 0
            objects[target] = 0
            objects[acc] = 0

            setup_reads = [produced[-1]] if produced else [shared[0]]
            task_no += 1
            builder.task(
                setup_id,
                reads=setup_reads,
                writes=[counter, target],
                compute=lambda d, _r=tuple(setup_reads), _c=counter,
                _t=target: {
                    _c: 0,
                    _t: 1 + sum(int(d[k]) for k in _r) % 3,
                },
            )
            task_no += 1
            mod = cfg.value_modulus
            builder.task(
                body_id,
                reads=[counter, target, acc],
                writes=[counter, acc],
                compute=lambda d, _c=counter, _a=acc, _m=mod: {
                    _c: d[_c] + 1,
                    _a: (d[_a] * 3 + d[_c]) % _m,
                },
                # Repeat while the counter climbs toward its
                # data-dependent target, but only inside the band a
                # genuine execution can reach.  The counter counts *up*
                # so corruption cannot stall it: a shifted counter
                # either leaves 0..3 at once or keeps strictly growing
                # and leaves within four iterations — the loop
                # terminates under every shift delta except the one
                # congruent to -1 mod the modulus.
                choose=lambda d, _c=counter, _t=target, _b=body_id,
                _e=exit_id: (
                    _b if 0 <= d[_c] < min(int(d[_t]), 4) else _e
                ),
            )
            task_no += 1
            builder.task(
                exit_id,
                reads=[acc],
                writes=[f"o_{exit_id}"],
                compute=lambda d, _a=acc, _o=f"o_{exit_id}", _m=mod: {
                    _o: (d[_a] + 1) % _m
                },
            )
            objects[f"o_{exit_id}"] = 0
            link(prev_tails, setup_id)
            builder.edge(setup_id, body_id)
            builder.edge(body_id, body_id)
            builder.edge(body_id, exit_id)
            produced.append(acc)
            produced.append(f"o_{exit_id}")
            prev_tails = [exit_id]

        remaining = cfg.tasks_per_workflow
        while remaining > 0:
            make_loop_seg = (
                remaining >= 4 and rng.random() < cfg.loop_probability
            )
            if make_loop_seg:
                make_loop()
                remaining -= 3
                continue
            make_diamond = (
                remaining >= 4 and rng.random() < cfg.branch_probability
            )
            if make_diamond:
                # Names must exist before the branch's choose() closure is
                # built, so pre-allocate the arm task ids.
                arm_a = f"{workflow_id}_t{task_no + 2}"
                arm_b = f"{workflow_id}_t{task_no + 3}"
                branch = new_task(branching_to=(arm_a, arm_b))
                link(prev_tails, branch)
                a = new_task()
                b = new_task()
                assert (a, b) == (arm_a, arm_b)
                builder.edge(branch, a)
                builder.edge(branch, b)
                prev_tails = [a, b]
                remaining -= 3
            else:
                head = new_task()
                link(prev_tails, head)
                prev_tails = [head]
                remaining -= 1
        if len(prev_tails) > 1:
            # Open diamond at the end: add a join task.
            join = new_task()
            link(prev_tails, join)
        return builder.build(), objects

    # -- attacks ---------------------------------------------------------------

    def pick_attacks(
        self,
        workload: Workload,
        n_attacks: int = 1,
        delta: int = 4_242,
    ) -> AttackCampaign:
        """Build a campaign corrupting ``n_attacks`` random tasks.

        Each attacked task has every output shifted by ``delta``
        (mod the configured modulus), which both corrupts downstream
        data and can flip parity-based branch decisions — exercising
        all four conditions of Theorem 1.
        """
        rng = self._rng
        modulus = self._config.value_modulus
        campaign = AttackCampaign()
        choices: List[Tuple[str, str]] = []
        for spec in workload.specs:
            for task_id in spec.tasks:
                choices.append((spec.workflow_id, task_id))
        rng.shuffle(choices)
        for wf_id, task_id in choices[:n_attacks]:
            campaign.shift_outputs(
                task_id,
                delta=delta,
                modulus=modulus,
                label=f"corrupt {wf_id}:{task_id}",
            )
        return campaign
