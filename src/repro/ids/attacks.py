"""Attack models.

The paper's threat model (Section I): attackers who penetrated the system
"inject malicious tasks or incorrect data into the workflow system" —
e.g. forged bank transactions, or travel bookings carrying forged credit
card data.  We model an attack as a *tamper hook* installed in the engine:
when a targeted task instance executes, its outputs are silently replaced.
The campaign records exactly which instances it tampered with — the ground
truth that the IDS observes imperfectly and that evaluation compares
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.workflow.task import TaskInstance

__all__ = [
    "TargetSelector",
    "OutputOverride",
    "OutputTransform",
    "AttackCampaign",
]


@dataclass(frozen=True)
class TargetSelector:
    """Selects the task instances an attack applies to.

    ``None`` fields are wildcards: ``TargetSelector(task_id="t1")``
    matches ``t1`` in every workflow instance and every visit.
    """

    workflow_instance: Optional[str] = None
    task_id: Optional[str] = None
    number: Optional[int] = None

    def matches(self, instance: TaskInstance) -> bool:
        """Does ``instance`` fall under this selector?"""
        if (
            self.workflow_instance is not None
            and instance.workflow_instance != self.workflow_instance
        ):
            return False
        if self.task_id is not None and instance.task_id != self.task_id:
            return False
        if self.number is not None and instance.number != self.number:
            return False
        return True


class _Tamper:
    """One installed tampering rule (selector + payload)."""

    def __init__(
        self,
        selector: TargetSelector,
        payload: Callable[[Mapping[str, Any], Mapping[str, Any]], Mapping[str, Any]],
        label: str,
    ) -> None:
        self.selector = selector
        self.payload = payload
        self.label = label


def OutputOverride(**values: Any) -> Callable[
    [Mapping[str, Any], Mapping[str, Any]], Mapping[str, Any]
]:
    """Payload that replaces selected output objects with fixed values.

    Only objects the task already writes are overridden — an attacker
    forging values inside a legitimate task cannot widen its write set.
    """

    def payload(
        inputs: Mapping[str, Any], outputs: Mapping[str, Any]
    ) -> Mapping[str, Any]:
        result = dict(outputs)
        for name, value in values.items():
            if name in result:
                result[name] = value
        return result

    return payload


def OutputTransform(
    fn: Callable[[Mapping[str, Any], Mapping[str, Any]], Mapping[str, Any]]
) -> Callable[[Mapping[str, Any], Mapping[str, Any]], Mapping[str, Any]]:
    """Payload that rewrites outputs with an arbitrary function of the
    task's inputs and genuine outputs (must keep the same key set)."""

    def payload(
        inputs: Mapping[str, Any], outputs: Mapping[str, Any]
    ) -> Mapping[str, Any]:
        result = dict(fn(inputs, outputs))
        if set(result) != set(outputs):
            raise ValueError(
                "attack transform changed the task's write set: "
                f"{sorted(result)} != {sorted(outputs)}"
            )
        return result

    return payload


class AttackCampaign:
    """A set of tampering rules, usable as the engine's tamper hook.

    Example
    -------
    >>> campaign = AttackCampaign()
    >>> _ = campaign.corrupt_task("t1", amount=999_999)
    >>> # ... engine.interleave(runs, tamper=campaign) ...
    """

    def __init__(self) -> None:
        self._tampers: List[_Tamper] = []
        self._malicious: Dict[str, str] = {}  # uid -> label

    # -- configuring -----------------------------------------------------------

    def corrupt_task(
        self,
        task_id: str,
        workflow_instance: Optional[str] = None,
        number: Optional[int] = None,
        label: str = "",
        **values: Any,
    ) -> "AttackCampaign":
        """Forge fixed output values for matching executions of a task."""
        self._tampers.append(
            _Tamper(
                TargetSelector(workflow_instance, task_id, number),
                OutputOverride(**values),
                label or f"corrupt {task_id}",
            )
        )
        return self

    def transform_task(
        self,
        task_id: str,
        fn: Callable[[Mapping[str, Any], Mapping[str, Any]], Mapping[str, Any]],
        workflow_instance: Optional[str] = None,
        number: Optional[int] = None,
        label: str = "",
    ) -> "AttackCampaign":
        """Rewrite outputs of matching executions with ``fn(inputs, outputs)``."""
        self._tampers.append(
            _Tamper(
                TargetSelector(workflow_instance, task_id, number),
                OutputTransform(fn),
                label or f"transform {task_id}",
            )
        )
        return self

    def shift_outputs(
        self,
        task_id: Optional[str] = None,
        delta: int = 4_242,
        modulus: int = 10_007,
        workflow_instance: Optional[str] = None,
        number: Optional[int] = None,
        label: str = "",
    ) -> "AttackCampaign":
        """Shift every integer output of matching executions by
        ``delta`` modulo ``modulus``.

        The workhorse corruption of the generated campaigns: it both
        corrupts downstream data and can flip parity-based branch
        decisions (the Figure 1 phenomenon), exercising all four
        conditions of Theorem 1.
        """

        def tamper(inputs, outputs, _d=delta, _m=modulus):
            return {
                name: (int(value) + _d) % _m
                for name, value in outputs.items()
            }

        return self.transform_task(
            task_id,
            tamper,
            workflow_instance=workflow_instance,
            number=number,
            label=label or (
                f"shift {task_id or workflow_instance or '*'} by {delta}"
            ),
        )

    def forge_run(self, workflow_instance: str,
                  label: str = "") -> "AttackCampaign":
        """Mark an entire run as attacker-forged.

        Every task instance of the run is recorded as malicious even
        though its outputs are computed normally — this models a workflow
        instance the attacker started with stolen credentials (the forged
        bank transaction of the paper's introduction): the computation is
        "correct" but should never have happened.
        """
        self._tampers.append(
            _Tamper(
                TargetSelector(workflow_instance=workflow_instance),
                lambda inputs, outputs: outputs,
                label or f"forged run {workflow_instance}",
            )
        )
        return self

    # -- engine hook -------------------------------------------------------------

    def apply(
        self,
        instance: TaskInstance,
        inputs: Mapping[str, Any],
        outputs: Mapping[str, Any],
    ) -> Mapping[str, Any]:
        """Tamper hook called by the engine for every executed instance."""
        result: Mapping[str, Any] = outputs
        for tamper in self._tampers:
            if tamper.selector.matches(instance):
                result = tamper.payload(inputs, result)
                self._malicious[instance.uid] = tamper.label
        return result

    # -- ground truth ---------------------------------------------------------------

    @property
    def malicious_uids(self) -> Tuple[str, ...]:
        """Uids of every instance actually tampered with, in hit order."""
        return tuple(self._malicious)

    def __len__(self) -> int:
        return len(self._tampers)
