"""The paper's Figure 1 motivating example, executable.

Two workflows processed concurrently (the paper draws three processors;
what matters is the interleaved commit order):

- **Workflow 1**: ``t1 → t2 → {t3 → t4 | t5} → t6`` — ``t2`` chooses
  between path ``P1 = t1 t2 t3 t4 t6`` and ``P2 = t1 t2 t5 t6``;
- **Workflow 2**: ``t7 → t8 → t9 → t10``.

The system log is the paper's ``L1 = t1 t7 t2 t8 t3 t4 t9 t6 t10``.

The attacker corrupts ``t1``'s output ``x`` ("B" in the figure), which:

- infects ``t2``, ``t4``, ``t8``, ``t10`` through data flow ("A" marks);
- makes ``t2`` choose the wrong path ``P1`` (so ``t3``/``t4`` should
  never have executed — Theorem 1 condition 2);
- leaves ``t6`` reading a value that ``t5`` — on the correct path —
  would have produced (Theorem 1 condition 4).

Expected recovery (Section III): undo ``t1 t2 t3 t4 t6 t8 t10``; redo
``t1 t2 t6 t8 t10``; abandon ``t3 t4`` (undone, not redone); newly
execute ``t5``; keep ``t7 t9`` untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.epochs import EpochManager
from repro.core.healer import HealReport
from repro.ids.attacks import AttackCampaign
from repro.scenarios.base import Scenario
from repro.workflow.data import DataStore
from repro.workflow.spec import WorkflowSpec, workflow

__all__ = ["Figure1Scenario", "build_figure1"]

#: Clean value the genuine ``t1`` writes; odd parity routes ``t2`` to
#: the correct path ``P2`` (via ``t5``).
CLEAN_X = 7
#: Forged value the attacker makes ``t1`` write; even parity routes
#: ``t2`` to the wrong path ``P1`` (via ``t3``/``t4``).
EVIL_X = 1000

#: The paper's log ``L1``, as (workflow index, task id) steps.
L1_ORDER: Tuple[Tuple[int, str], ...] = (
    (0, "t1"), (1, "t7"), (0, "t2"), (1, "t8"), (0, "t3"),
    (0, "t4"), (1, "t9"), (0, "t6"), (1, "t10"),
)


def _wf1() -> WorkflowSpec:
    return (
        workflow("wf1")
        .task("t1", reads=["input1"], writes=["x"],
              compute=lambda d: {"x": d["input1"] + CLEAN_X - 1},
              description="produces x (attacked: B)")
        .task("t2", reads=["x"], writes=["y"],
              compute=lambda d: {"y": d["x"] * 2 + d["x"] % 2},
              choose=lambda d: "t5" if d["y"] % 2 == 1 else "t3",
              description="decides the execution path from x (infected: A)")
        .task("t3", reads=["c"], writes=["u"],
              compute=lambda d: {"u": d["c"] + 1},
              description="wrong-path task; computes correctly")
        .task("t4", reads=["x", "u"], writes=["v"],
              compute=lambda d: {"v": d["x"] + d["u"]},
              description="wrong-path task reading corrupted x (A)")
        .task("t5", reads=["c"], writes=["w"],
              compute=lambda d: {"w": d["c"] * 10},
              description="correct-path task, never ran under attack")
        .task("t6", reads=["w"], writes=["z1"],
              compute=lambda d: {"z1": d["w"] + 5},
              description="joins both paths; reads w (condition 4)")
        .edge("t1", "t2").edge("t2", "t3").edge("t3", "t4")
        .edge("t4", "t6").edge("t2", "t5").edge("t5", "t6")
        .build()
    )


def _wf2() -> WorkflowSpec:
    return (
        workflow("wf2")
        .task("t7", reads=["input2"], writes=["p"],
              compute=lambda d: {"p": d["input2"] * 3})
        .task("t8", reads=["x", "p"], writes=["q"],
              compute=lambda d: {"q": d["x"] + d["p"]},
              description="cross-workflow reader of x (A)")
        .task("t9", reads=["p"], writes=["s9"],
              compute=lambda d: {"s9": d["p"] - 1},
              description="clean task, untouched by recovery")
        .task("t10", reads=["q"], writes=["z2"],
              compute=lambda d: {"z2": d["q"] * 2},
              description="transitively infected through q (A)")
        .chain("t7", "t8", "t9", "t10")
        .build()
    )


@dataclass
class Figure1Scenario(Scenario):
    """The executed (attacked) Figure 1 system plus its recovery."""

    malicious_uid: str

    # Expected outcomes straight from the paper (task-id level).
    EXPECTED_UNDONE = frozenset(
        {"t1", "t2", "t3", "t4", "t6", "t8", "t10"}
    )
    EXPECTED_REDONE = frozenset({"t1", "t2", "t6", "t8", "t10"})
    EXPECTED_ABANDONED = frozenset({"t3", "t4"})
    EXPECTED_NEW = frozenset({"t5"})
    EXPECTED_KEPT = frozenset({"t7", "t9"})

    def reported(self) -> Tuple[Sequence[str], Sequence[str]]:
        return [self.malicious_uid], ()

    def describe(self, report: HealReport) -> List[str]:
        """The attacked log, the heal summary and its task-level sets."""
        T = self.task_ids
        lines = [
            "System log: " + " ".join(
                str(r.instance) for r in self.log.normal_records()),
            report.summary(),
        ]
        for label, uids in (
            ("undone", report.undone), ("redone", report.redone),
            ("abandoned", report.abandoned),
            ("new", report.new_executions), ("kept", report.kept),
        ):
            lines.append(f"  {label:<10}: {' '.join(sorted(T(uids)))}")
        return lines

    @staticmethod
    def task_ids(uids) -> frozenset:
        """Project instance uids to bare task ids (``wf1/t3#1 → t3``)."""
        return frozenset(u.split("/")[1].split("#")[0] for u in uids)


def build_figure1(attacked: bool = True) -> Figure1Scenario:
    """Execute the Figure 1 system and return it ready for recovery.

    Parameters
    ----------
    attacked:
        When ``True`` (default) the attacker forges ``t1``'s output;
        ``False`` executes the clean system (the recovery oracle).
    """
    initial = {"input1": 1, "input2": 2, "c": 3, "w": 0}
    manager = EpochManager(DataStore(initial), initial)
    store, log = manager.store, manager.log
    runs = [manager.new_run(_wf1(), "wf1"), manager.new_run(_wf2(), "wf2")]

    campaign = AttackCampaign()
    if attacked:
        campaign.corrupt_task("t1", workflow_instance="wf1", x=EVIL_X,
                              label="forged x")

    for wf_index, task_id in L1_ORDER:
        run = runs[wf_index]
        if run.done:
            raise RuntimeError(f"log order visits finished run {wf_index}")
        if run.current_task != task_id:
            # Under attack the wrong path is taken by construction; the
            # clean run takes P2 (t5 instead of t3/t4) and skips those
            # steps of L1.
            if attacked:
                raise RuntimeError(
                    f"expected {task_id} next, run is at {run.current_task}"
                )
            continue
        run.step(store, log, tamper=campaign)
    # Clean runs finish the remainder of their paths.
    for run in runs:
        while not run.done:
            run.step(store, log, tamper=campaign)

    return Figure1Scenario(manager, initial, malicious_uid="wf1/t1#1")
