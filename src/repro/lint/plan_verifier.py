"""Independent re-derivation checker for batch heals.

Each batch heal (:mod:`repro.core.healer`) *decides* its Theorem 1/2
sets (:func:`repro.core.analyzer.decide_batch`) and, when observed,
builds its Theorem 3 order; this module *verifies* them from first
principles, sharing **no code** with the generators: it never imports
:mod:`repro.core.analyzer`, :mod:`repro.core.undo_redo`,
:mod:`repro.core.partial_orders`, or the shared
:class:`~repro.workflow.dependency.DependencyAnalyzer` substrate they
are built on.  Every relation is re-derived directly from the raw
:class:`~repro.workflow.log.SystemLog` records and the
:class:`~repro.workflow.spec.WorkflowSpec` graphs, using different
algorithms where a choice exists (dominance by node deletion instead
of iterative dominator sets; Kahn's algorithm over explicit edge
lists) — the N-version discipline: a bug must now appear twice, in
different code, to ship silently.

Checks performed by :func:`verify_heal` against a heal's
:class:`~repro.core.healer.HealReport` and the epoch log it healed:

- **Theorem 1 membership** — the heal's definite undo set equals
  ``B ∩ L`` plus the flow closure of ``B`` (conditions 1 and 3), and
  its candidate set equals the re-derived condition 2/4 members;
- **Theorem 2 membership** — definite redos are exactly the undone
  instances with no bad controller; candidates match condition 2;
- **order elements** — one undo per re-derived Theorem 1 definite
  member of the batch and one redo per Theorem 2 definite redo;
- **Theorem 3 edges** — the partial order carries *exactly* the
  T3.1/T3.3/T3.4/T3.5 edges the log requires: any missing edge is
  unsound (dirty reads possible), any extra edge is unjustified
  (over-constraint, potential deadlock);
- **acyclicity** — re-checked with an independent topological sort.

The checks read only the log's normal records, which a heal never
rewrites, so they hold before and after the heal.

:func:`verify_flight_log` applies the subset of checks a flight log
supports (the raw store/log are not recorded): internal consistency
of the recorded decisions, edges and the healer's undos and redos.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.core.actions import Action
from repro.lint.diagnostics import Diagnostic, RULES
from repro.obs.recorder import FlightLog
from repro.workflow.log import LogRecord, SystemLog
from repro.workflow.precedence import PartialOrder
from repro.workflow.spec import WorkflowSpec

if TYPE_CHECKING:  # the report is read, never built, here
    from repro.core.healer import HealReport

__all__ = ["verify_heal", "verify_flight_log"]


def _diag(rule: str, where: str, message: str, fix: str = "") -> Diagnostic:
    return Diagnostic(rule=rule, severity=RULES[rule].severity,
                      message=message, where=where, fix=fix)


# -- independent spec-level control dependence --------------------------------


class _ControlModel:
    """``t_i →c t_j`` re-derived by node-deletion reachability.

    A node is *unavoidable* when no start→end path survives its
    removal; ``b`` strictly dominates ``n`` when removing ``b``
    disconnects the start from ``n``.  Then ``b →c n`` iff ``b`` is a
    branch node, ``n`` is avoidable, and ``b`` dominates ``n`` —
    the same relation :class:`~repro.workflow.dependency.
    ControlDependencies` computes via iterative dominator sets, from
    a different algorithm.
    """

    def __init__(self, spec: WorkflowSpec) -> None:
        self._tasks = sorted(spec.tasks)
        succ: Dict[str, List[str]] = {t: [] for t in self._tasks}
        indeg: Dict[str, int] = {t: 0 for t in self._tasks}
        for src, dst in sorted(spec.edges):
            succ[src].append(dst)
            indeg[dst] += 1
        self._succ = succ
        self._start = next(t for t in self._tasks if indeg[t] == 0)
        self._ends = frozenset(t for t in self._tasks if not succ[t])
        self._branches = frozenset(
            t for t in self._tasks if len(succ[t]) > 1
        )
        self._avoidable = frozenset(
            t for t in self._tasks
            if t != self._start and self._reaches_end_without(t)
        )
        self._depends_cache: Dict[Tuple[str, str], bool] = {}

    def _reachable_without(self, banned: Optional[str]) -> FrozenSet[str]:
        """Nodes reachable from the start when ``banned`` is deleted."""
        if self._start == banned:
            return frozenset()
        seen: Set[str] = {self._start}
        frontier = [self._start]
        while frontier:
            node = frontier.pop()
            for nxt in self._succ[node]:
                if nxt != banned and nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return frozenset(seen)

    def _reaches_end_without(self, banned: str) -> bool:
        return bool(self._ends & self._reachable_without(banned))

    def depends(self, controller: str, dependent: str) -> bool:
        """Does ``controller →c dependent`` hold (transitively closed)?"""
        if controller == dependent:
            return False
        if controller not in self._branches:
            return False
        if dependent not in self._avoidable:
            return False
        key = (controller, dependent)
        if key not in self._depends_cache:
            self._depends_cache[key] = (
                dependent not in self._reachable_without(controller)
            )
        return self._depends_cache[key]


# -- independent log-level derivation ------------------------------------------


class _Derivation:
    """Theorem 1/2/3 facts re-derived from raw log records."""

    def __init__(
        self,
        log: SystemLog,
        specs_by_instance: Mapping[str, WorkflowSpec],
    ) -> None:
        self._records: Tuple[LogRecord, ...] = log.normal_records()
        self._by_uid: Dict[str, LogRecord] = {
            r.uid: r for r in self._records
        }
        self._specs = dict(specs_by_instance)
        self._models: Dict[str, _ControlModel] = {}
        writer: Dict[Tuple[str, int], str] = {}
        for r in self._records:
            for name, ver in r.writes.items():
                writer[(name, ver)] = r.uid
        # Reads-from adjacency: src uid -> readers of versions it wrote.
        flow: Dict[str, Set[str]] = {r.uid: set() for r in self._records}
        for r in self._records:
            for name, ver in r.reads.items():
                src = writer.get((name, ver))
                if src is not None and src != r.uid:
                    if self._by_uid[src].seq < r.seq:
                        flow[src].add(r.uid)
        self._flow = flow

    # -- plumbing ---------------------------------------------------------

    def __contains__(self, uid: str) -> bool:
        return uid in self._by_uid

    def record(self, uid: str) -> LogRecord:
        return self._by_uid[uid]

    def trace(self, workflow_instance: str) -> Tuple[LogRecord, ...]:
        return tuple(
            r for r in self._records
            if r.instance.workflow_instance == workflow_instance
        )

    def model(self, workflow_instance: str) -> _ControlModel:
        if workflow_instance not in self._models:
            self._models[workflow_instance] = _ControlModel(
                self._specs[workflow_instance]
            )
        return self._models[workflow_instance]

    def flow_closure(self, seeds: Iterable[str]) -> FrozenSet[str]:
        seen: Set[str] = set()
        frontier = [u for u in seeds if u in self._flow]
        while frontier:
            uid = frontier.pop()
            for dst in self._flow[uid]:
                if dst not in seen:
                    seen.add(dst)
                    frontier.append(dst)
        return frozenset(seen)

    def _first_later_writers(
        self, uid: str, names: Iterable[str]
    ) -> List[str]:
        """Uids of the first record after ``uid`` to overwrite each of
        ``names`` (anti/output dependence targets)."""
        src = self._by_uid[uid]
        pending: Set[str] = set(names)
        out: List[str] = []
        for r in self._records:
            if r.seq <= src.seq or not pending:
                continue
            hit = pending & set(r.writes)
            if hit:
                out.append(r.uid)
                pending -= hit
        return out

    # -- Theorem 1 ---------------------------------------------------------

    def undo_definite(self, malicious: Iterable[str]) -> FrozenSet[str]:
        """Conditions 1 and 3: ``B ∩ L`` plus its flow closure."""
        bad = frozenset(u for u in malicious if u in self._by_uid)
        return bad | self.flow_closure(bad)

    def undo_candidates(
        self, malicious: Iterable[str]
    ) -> FrozenSet[str]:
        """Conditions 2 and 4: control dependents of the closure, and
        readers of data an unexecuted alternative-path task would
        write — minus the definite set."""
        definite = self.undo_definite(malicious)
        out: Set[str] = set()
        for bad_uid in sorted(definite):
            bad = self._by_uid[bad_uid]
            wf = bad.instance.workflow_instance
            model = self.model(wf)
            # Condition 2: later same-trace control dependents.
            for r in self.trace(wf):
                if r.seq <= bad.seq:
                    continue
                if model.depends(bad.instance.task_id,
                                 r.instance.task_id):
                    out.add(r.uid)
            # Condition 4: unexecuted t_k with bad →c* t_k; readers of
            # objects t_k would write, plus their flow closure.
            spec = self._specs[wf]
            executed = {r.instance.task_id for r in self.trace(wf)}
            for t_k in sorted(spec.tasks):
                if t_k in executed:
                    continue
                if not model.depends(bad.instance.task_id, t_k):
                    continue
                writes_k = set(spec.tasks[t_k].writes)
                if not writes_k:
                    continue
                direct = [
                    r.uid for r in self._records
                    if r.uid != bad_uid and writes_k & set(r.reads)
                ]
                out.update(direct)
                out.update(
                    u for u in self.flow_closure(direct)
                    if u != bad_uid
                )
        return frozenset(out) - definite

    # -- Theorem 2 ---------------------------------------------------------

    def _bad_controllers(
        self, uid: str, undo_set: FrozenSet[str]
    ) -> FrozenSet[str]:
        dst = self._by_uid[uid]
        wf = dst.instance.workflow_instance
        model = self.model(wf)
        return frozenset(
            r.uid for r in self.trace(wf)
            if r.seq < dst.seq and r.uid in undo_set and r.uid != uid
            and model.depends(r.instance.task_id, dst.instance.task_id)
        )

    def redo_definite(self, undo_set: FrozenSet[str]) -> FrozenSet[str]:
        """Condition 1: undone instances with no bad controller."""
        return frozenset(
            uid for uid in undo_set
            if not self._bad_controllers(uid, undo_set)
        )

    def redo_candidates(
        self, undo_set: FrozenSet[str]
    ) -> FrozenSet[str]:
        """Condition 2 dependents (redo decided by re-execution)."""
        return frozenset(
            uid for uid in undo_set
            if self._bad_controllers(uid, undo_set)
        )

    # -- Theorem 3 ---------------------------------------------------------

    def required_edges(
        self,
        undos: FrozenSet[str],
        redos: FrozenSet[str],
    ) -> Dict[Tuple[Action, Action], str]:
        """Every static Theorem 3 edge the log demands, tagged with
        the rule that demands it."""
        required: Dict[Tuple[Action, Action], str] = {}
        # T3.3: undo(t) before redo(t).
        for uid in sorted(undos & redos):
            required.setdefault(
                (Action.undo(uid), Action.redo(uid)), "T3.3"
            )
        # T3.1: log precedence between every redo pair.
        ordered = sorted(redos, key=lambda u: self._by_uid[u].seq)
        for i, earlier in enumerate(ordered):
            for later in ordered[i + 1:]:
                required.setdefault(
                    (Action.redo(earlier), Action.redo(later)), "T3.1"
                )
        # T3.4: t_i →a t_j with redo(t_i), undo(t_j).
        for uid in sorted(redos):
            src = self._by_uid[uid]
            for dst in self._first_later_writers(uid, src.reads):
                if dst in undos:
                    required.setdefault(
                        (Action.undo(dst), Action.redo(uid)), "T3.4"
                    )
        # T3.5: t_i →o t_j, both undone: undo(t_j) before undo(t_i).
        for uid in sorted(undos):
            src = self._by_uid[uid]
            for dst in self._first_later_writers(uid, src.writes):
                if dst in undos and dst != uid:
                    required.setdefault(
                        (Action.undo(dst), Action.undo(uid)), "T3.5"
                    )
        return required


def _find_cycle(
    elements: Iterable[Action],
    edges: Iterable[Tuple[Action, Action]],
) -> List[Action]:
    """Kahn's algorithm; returns the residual (cyclic) elements."""
    succ: Dict[Action, List[Action]] = {e: [] for e in elements}
    indeg: Dict[Action, int] = {e: 0 for e in succ}
    for before, after in edges:
        succ.setdefault(before, [])
        succ.setdefault(after, [])
        indeg.setdefault(before, 0)
        indeg.setdefault(after, 0)
    for before, after in edges:
        succ[before].append(after)
        indeg[after] += 1
    ready = [e for e, d in indeg.items() if d == 0]
    done = 0
    while ready:
        node = ready.pop()
        done += 1
        for nxt in succ[node]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                ready.append(nxt)
    return sorted(
        (e for e, d in indeg.items() if d > 0), key=str
    )


# -- entry point: heals ---------------------------------------------------------


def verify_heal(
    log: SystemLog,
    specs_by_instance: Mapping[str, WorkflowSpec],
    report: "HealReport",
    forged_runs: Iterable[str] = (),
) -> List[Diagnostic]:
    """Re-derive Theorems 1–3 from the raw log and diff one heal.

    Parameters
    ----------
    log:
        The epoch log the heal ran on (before or after the heal).
    specs_by_instance:
        Spec executed by each workflow instance in the log.
    report:
        The heal under verification: its malicious set is ``B``, and
        its Theorem 1 decisions are checked, and its Theorem 2
        decisions and Theorem 3 order when an event bus observed the
        heal (an unobserved heal decides neither).
    forged_runs:
        Workflow instances the heal treated as forged: their records
        are undone and never redone, so its order has no redo of them.

    Returns an empty list when the heal decided and ordered exactly
    what the theorems demand of its batch; otherwise one
    :class:`~repro.lint.diagnostics.Diagnostic` per discrepancy (all
    ERROR severity).
    """
    derive = _Derivation(log, specs_by_instance)
    bad = sorted(report.malicious)
    where = f"heal of ({', '.join(bad) or '-'})"
    diags: List[Diagnostic] = []

    # Theorem 1 membership.
    undo = report.undo_analysis
    undo_want = derive.undo_definite(bad)
    for uid in sorted(undo_want - undo.definite):
        diags.append(_diag(
            "PLAN001", where,
            f"instance '{uid}' is malicious or flow-infected "
            "(Theorem 1 cond. 1/3) but the heal does not undo it",
            fix="corrupt data would survive",
        ))
    for uid in sorted(undo.definite - undo_want):
        diags.append(_diag(
            "PLAN002", where,
            f"the heal undoes '{uid}' but no Theorem 1 condition 1/3 "
            "grounds exist in the log",
            fix="clean work would be destroyed",
        ))
    _diff_candidates(diags, where, derive.undo_candidates(bad),
                     undo.candidates, "undo", "Theorem 1 cond. 2/4")

    # Theorem 2 membership (derived from the *re-derived* undo set, so
    # a bug in Theorem 1 cannot mask one in Theorem 2).
    redo = report.redo_analysis
    if redo is not None:
        redo_want = derive.redo_definite(undo_want)
        for uid in sorted(redo_want - redo.definite):
            diags.append(_diag(
                "PLAN003", where,
                f"undone instance '{uid}' has no bad controller "
                "(Theorem 2 cond. 1) but the heal never definitely "
                "re-executes it",
                fix="the workflow would lose the instance",
            ))
        for uid in sorted(redo.definite - redo_want):
            diags.append(_diag(
                "PLAN004", where,
                f"the heal definitely redoes '{uid}' but Theorem 2 "
                "cond. 1 does not apply (bad controller exists, or not "
                "undone)",
                fix="it is a candidate resolved by re-execution",
            ))
        _diff_candidates(diags, where, derive.redo_candidates(undo_want),
                         redo.candidate_uids, "redo", "Theorem 2 cond. 2")
    if report.order is not None:
        diags += _verify_order(derive, where, report.order, undo_want,
                               frozenset(forged_runs))
    return diags


def _diff_candidates(diags: List[Diagnostic], where: str,
                     want: FrozenSet[str], have: FrozenSet[str],
                     kind: str, clause: str) -> None:
    """PLAN009 when a candidate set differs from the re-derived one."""
    if want != have:
        missing = ", ".join(sorted(want - have)) or "-"
        extra = ", ".join(sorted(have - want)) or "-"
        diags.append(_diag(
            "PLAN009", where,
            f"{kind} candidate set mismatch ({clause}): "
            f"missing {{{missing}}}, spurious {{{extra}}}",
            fix="the heal's decisions disagree with the log",
        ))


def _verify_order(
    derive: _Derivation,
    where: str,
    order: PartialOrder[Action],
    undo_want: FrozenSet[str],
    forged: FrozenSet[str],
) -> List[Diagnostic]:
    """PLAN005–PLAN008: a heal's Theorem 3 order against the log."""
    diags: List[Diagnostic] = []
    redo_want = frozenset(
        uid for uid in derive.redo_definite(undo_want)
        if derive.record(uid).instance.workflow_instance not in forged
    )

    # Order elements: exactly one action per definite set member.
    expected_elements = (
        {Action.undo(u) for u in undo_want}
        | {Action.redo(u) for u in redo_want}
    )
    actual_elements = set(order.elements())
    if expected_elements != actual_elements:
        missing = ", ".join(
            sorted(str(a) for a in expected_elements - actual_elements)
        ) or "-"
        extra = ", ".join(
            sorted(str(a) for a in actual_elements - expected_elements)
        ) or "-"
        diags.append(_diag(
            "PLAN008", where,
            f"partial-order elements disagree with the Theorem 1/2 "
            f"sets: missing {{{missing}}}, spurious {{{extra}}}",
            fix="rebuild the order over the definite undo/redo sets",
        ))

    # Theorem 3 edge soundness and completeness.
    required = derive.required_edges(undo_want, redo_want)
    actual_edges = set(order.edges())
    for (before, after), rule in sorted(
        required.items(), key=lambda kv: (kv[1], str(kv[0]))
    ):
        if (before, after) not in actual_edges:
            diags.append(_diag(
                "PLAN005", where,
                f"rule {rule} requires {before} ≺ {after} but the "
                "order lacks the edge",
                fix="add the edge; schedules violating it read dirty "
                    "or stale versions",
            ))
    for before, after in sorted(
        actual_edges - set(required), key=lambda e: (str(e[0]), str(e[1]))
    ):
        diags.append(_diag(
            "PLAN006", where,
            f"edge {before} ≺ {after} is justified by no Theorem 3 "
            "rule over this log",
            fix="drop the edge; it over-constrains the heal",
        ))

    # Acyclicity, re-checked independently.
    residue = _find_cycle(actual_elements, actual_edges)
    if residue:
        sample = ", ".join(str(a) for a in residue[:4])
        diags.append(_diag(
            "PLAN007", where,
            f"the partial order is cyclic among "
            f"{len(residue)} action(s), e.g. {sample}",
            fix="no linear extension exists; no heal can realize it",
        ))
    return diags


# -- entry point: flight logs ---------------------------------------------------


def verify_flight_log(flight: FlightLog) -> List[Diagnostic]:
    """Consistency-check the recovery provenance in a flight log.

    A flight log records decisions, edges and the healer's undos and
    redos — but not the raw store or log — so the checks here are the
    internal-consistency subset of :func:`verify_heal`: recorded edges
    acyclic (PLAN020), a Theorem
    3.3 edge for every redo the recorded edges name (PLAN021), the
    realized schedule (the healer's undos and redos, in log order)
    consistent with the recorded edges (PLAN022), no executions
    outside the recorded plan (PLAN023), and definite redos inside
    definite undos (PLAN024).
    """
    from repro.obs.provenance import replay

    run = replay(flight)
    where = f"flight log '{flight.label or '?'}'"
    diags: List[Diagnostic] = []

    edges = [(before, after) for _rule, before, after in run.order_edges]
    elements = sorted({a for e in edges for a in e})

    # PLAN020: recorded edge set must admit a schedule at all.
    residue = _find_cycle(elements, edges)
    if residue:
        sample = ", ".join(str(a) for a in residue[:4])
        diags.append(_diag(
            "PLAN020", where,
            f"recorded ordering edges contain a cycle among "
            f"{len(residue)} action(s), e.g. {sample}",
            fix="the recorded run cannot have scheduled this soundly",
        ))

    # PLAN021: T3.3 for every redo the recorded order holds.  Every
    # redo of an order is of an undone instance (a forged run's records
    # are never redone), so its redo needs its undo first.  The order
    # is read, not the decisions: logs written when scans decided
    # carry decisions of units a batch heal did not order as decided.
    edge_pairs = {(before, after) for before, after in edges}
    redone = {a[len("redo("):-1] for a in elements if a.startswith("redo(")}
    for uid in sorted(redone):
        if (f"undo({uid})", f"redo({uid})") not in edge_pairs:
            diags.append(_diag(
                "PLAN021", where,
                f"the recorded order redoes '{uid}' but records no "
                "undo≺redo constraint for it (Theorem 3.3)",
                fix="the heal that produced this log dropped a "
                    "mandatory edge",
            ))

    # PLAN022: the healer's realized undo/redo order respects every
    # recorded edge between actions it realized exactly once.
    counts: Dict[str, int] = {}
    for action in run.schedule:
        counts[action] = counts.get(action, 0) + 1
    position = {
        action: i for i, action in enumerate(run.schedule)
        if counts[action] == 1
    }
    for before, after in sorted(edge_pairs):
        if before in position and after in position:
            if position[before] >= position[after]:
                diags.append(_diag(
                    "PLAN022", where,
                    f"healer realized {after} (slot "
                    f"{position[after]}) before {before} (slot "
                    f"{position[before]}) against a recorded edge",
                    fix="healer and plan disagree — replay the "
                        "log and bisect",
                ))

    # PLAN023: executions covered by recorded decisions.
    undo_allowed = run.plan_undo | run.undo_candidates \
        | run.redo_candidates
    for uid in sorted(run.executed_undone):
        if uid not in undo_allowed:
            diags.append(_diag(
                "PLAN023", where,
                f"healer undid '{uid}' "
                f"({run.executed_undone[uid] or 'no reason'}) but no "
                "recorded Theorem 1 decision covers it",
                fix="decision events are missing or recovery ran "
                    "outside the plan",
            ))
    redo_allowed = run.plan_redo | run.redo_candidates \
        | run.undo_candidates
    for uid in sorted(run.executed_redone):
        if run.executed_redone[uid] == "new":
            continue  # first-time alternative-path execution
        if uid not in redo_allowed:
            diags.append(_diag(
                "PLAN023", where,
                f"healer redid '{uid}' but no recorded Theorem 2 "
                "decision covers it",
                fix="decision events are missing or recovery ran "
                    "outside the plan",
            ))

    # PLAN024: Theorem 2 splits the undo set.
    for uid in sorted(run.plan_redo - run.plan_undo):
        diags.append(_diag(
            "PLAN024", where,
            f"'{uid}' is a definite redo but not a definite undo — "
            "Theorem 2 only re-executes rolled-back instances",
            fix="the producing analyzer violated Theorem 2's premise",
        ))
    return diags
