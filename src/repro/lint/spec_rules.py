"""Pure-static lint rules over workflow specifications.

These checks need no log and no execution: they read the graph shape
and the declared read/write sets of one or more
:class:`~repro.workflow.spec.WorkflowSpec` objects (a *system* of
workflows — cross-workflow rules look at shared object names, the
single-copy data of Theorem 4).

Structural defects (SPEC001) are reported for
:class:`~repro.workflow.serialize.WorkflowDocument` inputs by
attempting the build and converting each collected constructor problem
into a diagnostic — lint output and constructor errors agree by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import WorkflowSpecError
from repro.lint.diagnostics import Diagnostic, RULES, Severity
from repro.workflow.expr import ExprError
from repro.workflow.analysis import damage_radius
from repro.workflow.dependency import ControlDependencies
from repro.workflow.serialize import WorkflowDocument
from repro.workflow.spec import WorkflowSpec

__all__ = [
    "SpecLintConfig",
    "config_from_document",
    "lint_specs",
    "lint_documents",
]


@dataclass(frozen=True)
class SpecLintConfig:
    """Tunables for the spec lint pass.

    Attributes
    ----------
    allow:
        Rule ids to suppress entirely (per-workflow allowlists travel
        inside the workflow document's ``lint`` mapping).
    blast_warn_fraction:
        SPEC106 warns when one task's prospective damage radius covers
        more than this fraction of all tasks in the system.
    blast_error_fraction:
        When set, SPEC106 escalates to ERROR past this fraction
        (``None`` disables escalation).
    """

    allow: FrozenSet[str] = frozenset()
    blast_warn_fraction: float = 0.6
    blast_error_fraction: Optional[float] = None


def config_from_document(
    doc: WorkflowDocument,
    base: Optional[SpecLintConfig] = None,
) -> SpecLintConfig:
    """Merge a document's ``lint`` metadata over ``base``.

    Recognized keys: ``allow`` (list of rule ids),
    ``blast_warn_fraction``, ``blast_error_fraction``.  Unknown keys
    are ignored (forward compatibility).
    """
    base = base if base is not None else SpecLintConfig()
    meta: Mapping[str, Any] = getattr(doc, "lint", None) or {}
    allow = base.allow | frozenset(
        str(r) for r in meta.get("allow", ())
    )
    warn = meta.get("blast_warn_fraction", base.blast_warn_fraction)
    error = meta.get("blast_error_fraction", base.blast_error_fraction)
    return SpecLintConfig(
        allow=allow,
        blast_warn_fraction=float(warn),
        blast_error_fraction=None if error is None else float(error),
    )


def _where(wf: str, task: Optional[str] = None) -> str:
    if task is None:
        return f"workflow '{wf}'"
    return f"workflow '{wf}' task '{task}'"


def _diag(rule: str, where: str, message: str, fix: str = "",
          severity: Optional[Severity] = None) -> Diagnostic:
    return Diagnostic(
        rule=rule,
        severity=severity if severity is not None else RULES[rule].severity,
        message=message,
        where=where,
        fix=fix,
    )


# -- rule implementations -----------------------------------------------------


def _reaches_end(spec: WorkflowSpec) -> FrozenSet[str]:
    """Tasks from which at least one end node is reachable."""
    can: Set[str] = set(spec.ends)
    changed = True
    while changed:
        changed = False
        for task in spec.tasks:
            if task in can:
                continue
            if any(s in can for s in spec.successors(task)):
                can.add(task)
                changed = True
    return frozenset(can)


def _dead_end_tasks(spec: WorkflowSpec) -> List[Diagnostic]:
    """SPEC101: tasks that cannot reach any end node."""
    can = _reaches_end(spec)
    out = []
    for task in sorted(set(spec.tasks) - can):
        out.append(_diag(
            "SPEC101", _where(spec.workflow_id, task),
            f"task '{task}' cannot reach any end node — the instance "
            "would loop forever once control enters it",
            fix="add an exit edge from the cycle region or remove "
                "the task",
        ))
    return out


def _data_flow_index(
    specs: Sequence[WorkflowSpec],
) -> Tuple[Dict[str, List[Tuple[str, str]]],
           Dict[str, List[Tuple[str, str]]]]:
    """Writers and readers of every object name, across the system."""
    writers: Dict[str, List[Tuple[str, str]]] = {}
    readers: Dict[str, List[Tuple[str, str]]] = {}
    for spec in specs:
        for task_id in sorted(spec.tasks):
            task = spec.task(task_id)
            for name in sorted(task.writes):
                writers.setdefault(name, []).append(
                    (spec.workflow_id, task_id)
                )
            for name in sorted(task.reads):
                readers.setdefault(name, []).append(
                    (spec.workflow_id, task_id)
                )
    return writers, readers


def _dead_and_phantom_data(
    specs: Sequence[WorkflowSpec],
) -> List[Diagnostic]:
    """SPEC102 (written, never read) and SPEC103 (read, never written)."""
    writers, readers = _data_flow_index(specs)
    out = []
    for name in sorted(set(writers) - set(readers)):
        who = ", ".join(f"{wf}/{t}" for wf, t in writers[name])
        wf, task = writers[name][0]
        out.append(_diag(
            "SPEC102", _where(wf, task),
            f"object '{name}' is written (by {who}) but read by no "
            "task in the system",
            fix="treat it as a declared workflow output, or drop the "
                "write",
        ))
    for name in sorted(set(readers) - set(writers)):
        who = ", ".join(f"{wf}/{t}" for wf, t in readers[name])
        wf, task = readers[name][0]
        out.append(_diag(
            "SPEC103", _where(wf, task),
            f"object '{name}' is read (by {who}) but written by no "
            "task — it must exist as initial data",
            fix="seed it in the initial store, or fix the object name",
        ))
    return out


def _branch_contention(
    specs: Sequence[WorkflowSpec],
) -> List[Diagnostic]:
    """SPEC104: branch decisions reading single-copy shared data."""
    writers, _ = _data_flow_index(specs)
    out = []
    for spec in specs:
        for branch in sorted(spec.branch_nodes):
            task = spec.task(branch)
            for name in sorted(task.reads):
                foreign = [
                    (wf, t) for wf, t in writers.get(name, ())
                    if wf != spec.workflow_id
                ]
                if not foreign:
                    continue
                who = ", ".join(f"{wf}/{t}" for wf, t in foreign)
                out.append(_diag(
                    "SPEC104", _where(spec.workflow_id, branch),
                    f"branch '{branch}' decides on object '{name}' "
                    f"also written by {who} — a Theorem 4 contention "
                    "hotspot: the branch's whole control region waits "
                    "behind any recovery touching that object",
                    fix="give the branch its own copy of the decision "
                        "input, or accept the recovery stall",
                ))
    return out


def _undo_ambiguity(
    specs: Sequence[WorkflowSpec],
) -> List[Diagnostic]:
    """SPEC105: Theorem 1 condition 4 can trigger.

    A control-dependent (skippable) task writes an object some *other*
    task reads: if an attack flips its controlling branch, every
    reader becomes a candidate undo resolvable only by re-execution.
    """
    _, readers = _data_flow_index(specs)
    out = []
    for spec in specs:
        control = ControlDependencies(spec)
        for task_id in sorted(spec.tasks):
            if not control.controllers_of(task_id):
                continue  # unavoidable: never skipped, cond. 4 moot
            task = spec.task(task_id)
            for name in sorted(task.writes):
                others = [
                    (wf, t) for wf, t in readers.get(name, ())
                    if (wf, t) != (spec.workflow_id, task_id)
                ]
                if not others:
                    continue
                who = ", ".join(f"{wf}/{t}" for wf, t in others)
                ctrl = ", ".join(sorted(control.controllers_of(task_id)))
                out.append(_diag(
                    "SPEC105", _where(spec.workflow_id, task_id),
                    f"skippable task '{task_id}' (controlled by "
                    f"{ctrl}) writes '{name}' read by {who}: an "
                    "attack on the branch makes those readers "
                    "Theorem 1 condition 4 undo candidates",
                    fix="expect candidate undos here; pre-stage the "
                        "alternative path's outputs if recovery "
                        "latency matters",
                ))
    return out


def _blast_radius(
    specs: Sequence[WorkflowSpec],
    config: SpecLintConfig,
) -> List[Diagnostic]:
    """SPEC106: worst-case damage footprint past the threshold."""
    total = sum(len(spec.tasks) for spec in specs)
    if total == 0:
        return []
    out = []
    for spec in specs:
        for task_id in sorted(spec.tasks):
            radius = damage_radius(specs, (spec.workflow_id, task_id))
            fraction = radius.fraction_of(total)
            if fraction <= config.blast_warn_fraction:
                continue
            severity = None
            if (config.blast_error_fraction is not None
                    and fraction > config.blast_error_fraction):
                severity = Severity.ERROR
            out.append(_diag(
                "SPEC106", _where(spec.workflow_id, task_id),
                f"compromising '{task_id}' can damage "
                f"{radius.size}/{total} tasks "
                f"({fraction:.0%} of the system; threshold "
                f"{config.blast_warn_fraction:.0%})",
                fix="split the shared objects it writes, or point "
                    "IDS attention at this task first",
                severity=severity,
            ))
    return out


# -- entry points --------------------------------------------------------------


def lint_specs(
    specs: Sequence[WorkflowSpec],
    config: Optional[SpecLintConfig] = None,
) -> List[Diagnostic]:
    """Run every spec rule over a system of (valid) workflow specs.

    Pass all of a deployment's specs together: the cross-workflow
    rules (dead data, contention, blast radius) see shared object
    names only at system scope.
    """
    config = config if config is not None else SpecLintConfig()
    diags: List[Diagnostic] = []
    for spec in specs:
        diags.extend(_dead_end_tasks(spec))
    diags.extend(_dead_and_phantom_data(specs))
    diags.extend(_branch_contention(specs))
    diags.extend(_undo_ambiguity(specs))
    diags.extend(_blast_radius(specs, config))
    return [d for d in diags if d.rule not in config.allow]


def lint_documents(
    docs: Sequence[WorkflowDocument],
    config: Optional[SpecLintConfig] = None,
) -> List[Diagnostic]:
    """Lint serialized workflow documents.

    Structural problems surface as SPEC001 diagnostics — one per
    collected constructor problem, exactly the list a direct
    ``doc.build()`` would raise — and documents that do build are
    linted together as one system.  With ``config=None``, per-document
    ``lint`` metadata is merged: allowlists union, thresholds take the
    strictest (lowest) value any document specifies.
    """
    merged = config
    if merged is None:
        merged = SpecLintConfig()
        for doc in docs:
            own = config_from_document(doc)
            error_floor = [
                f for f in (merged.blast_error_fraction,
                            own.blast_error_fraction)
                if f is not None
            ]
            merged = SpecLintConfig(
                allow=merged.allow | own.allow,
                blast_warn_fraction=min(merged.blast_warn_fraction,
                                        own.blast_warn_fraction),
                blast_error_fraction=(min(error_floor) if error_floor
                                      else None),
            )
    diags: List[Diagnostic] = []
    built: List[WorkflowSpec] = []
    for doc in docs:
        try:
            built.append(doc.build())
        except (WorkflowSpecError, ExprError) as exc:
            for problem in getattr(exc, "problems", None) or (str(exc),):
                diags.append(_diag(
                    "SPEC001", _where(doc.workflow_id), str(problem),
                    fix="repair the graph; the constructor rejects "
                        "this document with the same message",
                ))
    diags.extend(lint_specs(built, merged))
    return [d for d in diags if d.rule not in merged.allow]
