"""Graph export: Graphviz DOT rendering.

Workflow specifications (``workflow-dot``) and the CTMC's
state-transition graph (``stg-dot``, Figure 3) render to Graphviz DOT
text for inspection (``dot -Tpng``).  Only the standard library is
needed.
"""

from __future__ import annotations

from repro.markov.stg import RecoverySTG, StateCategory
from repro.workflow.spec import WorkflowSpec

__all__ = ["spec_to_dot", "stg_to_dot"]


def _quote(s: str) -> str:
    return '"' + str(s).replace('"', '\\"') + '"'


# --------------------------------------------------------------------------
# Workflow specifications
# --------------------------------------------------------------------------


def spec_to_dot(spec: WorkflowSpec) -> str:
    """Graphviz DOT text for a workflow specification.

    Branch nodes are diamonds; start/end nodes are bold; each node's
    tooltip lists its read/write sets.
    """
    lines = [f"digraph {_quote(spec.workflow_id)} {{",
             "  rankdir=LR;",
             "  node [shape=box, fontname=Helvetica];"]
    ends = spec.ends
    for task_id in sorted(spec.tasks):
        task = spec.task(task_id)
        attrs = []
        if task_id in spec.branch_nodes:
            attrs.append("shape=diamond")
        if task_id == spec.start or task_id in ends:
            attrs.append("style=bold")
        label = task_id
        tooltip = (
            f"R={sorted(task.reads)} W={sorted(task.writes)}"
        )
        attrs.append(f"label={_quote(label)}")
        attrs.append(f"tooltip={_quote(tooltip)}")
        lines.append(f"  {_quote(task_id)} [{', '.join(attrs)}];")
    for src, dst in sorted(spec.edges):
        lines.append(f"  {_quote(src)} -> {_quote(dst)};")
    lines.append("}")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# CTMC state-transition graphs
# --------------------------------------------------------------------------

_CATEGORY_COLORS = {
    StateCategory.NORMAL: "#88cc88",
    StateCategory.SCAN: "#ffcc88",
    StateCategory.RECOVERY: "#88aaff",
}


def stg_to_dot(stg: RecoverySTG) -> str:
    """DOT text of the recovery system's STG (Figure 3), with states
    colored by category and loss states double-circled."""
    loss = set(stg.loss_states())
    lines = ["digraph stg {",
             "  node [fontname=Helvetica, style=filled];"]
    for state in stg.states:
        attrs = [
            f"label={_quote(str(state))}",
            f"fillcolor={_quote(_CATEGORY_COLORS[state.category])}",
        ]
        attrs.append(
            "shape=doublecircle" if state in loss else "shape=circle"
        )
        lines.append(f"  {_quote(str(state))} [{', '.join(attrs)}];")
    for (src, dst), rate in sorted(
        stg.transition_rates().items(), key=lambda kv: (str(kv[0][0]),
                                                        str(kv[0][1]))
    ):
        lines.append(
            f"  {_quote(str(src))} -> {_quote(str(dst))} "
            f"[label={_quote(f'{rate:g}')}];"
        )
    lines.append("}")
    return "\n".join(lines)
