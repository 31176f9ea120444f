"""Typed diagnostics and their renderings (text, JSON, SARIF 2.1.0).

Every lint pass produces :class:`Diagnostic` records — rule id,
severity, human message, location, fix hint — collected into a
:class:`LintReport` that renders uniformly across passes.  The rule
catalogue (:data:`RULES`) is the single source of truth for rule
metadata; ``docs/LINT.md`` and the SARIF ``tool.driver.rules`` array
are generated from it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Severity",
    "Diagnostic",
    "RuleInfo",
    "RULES",
    "LintReport",
    "SARIF_SCHEMA_URI",
    "SARIF_VERSION",
]

#: Canonical SARIF 2.1.0 schema location, embedded in every export.
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
SARIF_VERSION = "2.1.0"


class Severity(str, Enum):
    """How bad a finding is; ERROR findings fail the lint (exit 2)."""

    ERROR = "ERROR"
    WARN = "WARN"
    INFO = "INFO"

    @property
    def rank(self) -> int:
        """ERROR < WARN < INFO for sorting (most severe first)."""
        return {"ERROR": 0, "WARN": 1, "INFO": 2}[self.value]

    @property
    def sarif_level(self) -> str:
        """The SARIF ``result.level`` value for this severity."""
        return {"ERROR": "error", "WARN": "warning",
                "INFO": "note"}[self.value]


@dataclass(frozen=True)
class Diagnostic:
    """One lint finding.

    Attributes
    ----------
    rule:
        Catalogued rule id (``SPEC101``, ``PLAN005``, ``DET001``, ...).
    severity:
        ERROR / WARN / INFO; defaults come from :data:`RULES` but a
        pass may escalate (e.g. blast radius past the error threshold).
    message:
        Human-readable statement of the defect.
    where:
        Logical location — ``"workflow 'wf1' task 't3'"``,
        ``"heal of (u1)"`` — always present.
    file, line:
        Physical location when the finding points into source code
        (determinism lint) or a document file.
    fix:
        Actionable hint ("inject a clock", "add a final else arm").
    """

    rule: str
    severity: Severity
    message: str
    where: str
    file: Optional[str] = None
    line: Optional[int] = None
    fix: str = ""

    def render(self) -> str:
        """One-line text form: ``severity rule location: message``."""
        loc = self.where
        if self.file is not None:
            loc = f"{self.file}:{self.line or 0}"
        text = f"{self.severity.value:<5} {self.rule} {loc}: {self.message}"
        if self.fix:
            text += f"  [fix: {self.fix}]"
        return text

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form (stable key order via sort in the report)."""
        out: Dict[str, Any] = {
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
            "where": self.where,
        }
        if self.file is not None:
            out["file"] = self.file
        if self.line is not None:
            out["line"] = self.line
        if self.fix:
            out["fix"] = self.fix
        return out


@dataclass(frozen=True)
class RuleInfo:
    """Catalogue entry for one lint rule."""

    rule: str
    severity: Severity
    summary: str
    rationale: str


def _r(rule: str, sev: Severity, summary: str, rationale: str) -> RuleInfo:
    return RuleInfo(rule=rule, severity=sev, summary=summary,
                    rationale=rationale)


#: The rule catalogue.  ``docs/LINT.md`` mirrors this table.
RULES: Dict[str, RuleInfo] = {r.rule: r for r in [
    # -- spec rules (SPEC0xx structural, SPEC1xx semantic) ----------------
    _r("SPEC001", Severity.ERROR, "structurally invalid workflow",
       "Section II-A requires one 0-indegree start node, at least one "
       "0-outdegree end node, every task reachable, and a choose "
       "function on every branch node; recovery theorems assume this "
       "shape."),
    _r("SPEC101", Severity.WARN, "dead-end task (no end node reachable)",
       "A task trapped in a cycle region that cannot reach any end "
       "node can never terminate its workflow instance; Theorem 2 "
       "re-execution through it would never finish."),
    _r("SPEC102", Severity.INFO, "dead data (written, never read)",
       "An object no task reads is either a workflow output or dead "
       "weight; damage tracing (Theorem 1 cond. 3) still follows it, "
       "inflating undo sets for nothing if it is unused."),
    _r("SPEC103", Severity.INFO, "phantom read (never written)",
       "An object read but written by no task must be initial data; "
       "if it is a typo the task will fail at run time and its redo "
       "will fail during recovery too."),
    _r("SPEC104", Severity.WARN,
       "branch decides on single-copy shared data",
       "Theorem 4: with single-copy data, a normal task touching "
       "recovered data waits for recovery.  A branch whose choice "
       "reads an object other workflows write is a contention "
       "hotspot: its whole control region blocks behind cross-"
       "workflow recovery."),
    _r("SPEC105", Severity.INFO,
       "Theorem 1 condition 4 ambiguity reachable",
       "A skippable (control-dependent) task writes an object some "
       "other task reads: after an attack on the controlling branch, "
       "readers become candidate undos resolvable only by "
       "re-execution (Theorem 1 cond. 4) — recovery cost is "
       "data-dependent here."),
    _r("SPEC106", Severity.WARN, "worst-case blast radius above threshold",
       "The prospective damage closure (potential flow + control "
       "amplification over workflow/analysis.py) from this task "
       "covers a large fraction of the system; one IDS alert on it "
       "implies a near-global recovery."),
    # -- plan verifier (live heals) ---------------------------------------
    _r("PLAN001", Severity.ERROR, "undo set missing an instance",
       "Theorem 1: the instance is malicious or flow-infected but the "
       "heal does not undo it; healing would leave corrupt data."),
    _r("PLAN002", Severity.ERROR, "undo set has a spurious instance",
       "The heal undoes an instance no Theorem 1 condition covers; "
       "clean work would be destroyed."),
    _r("PLAN003", Severity.ERROR, "redo set missing an instance",
       "Theorem 2 cond. 1: the undone instance is not control "
       "dependent on another bad one, so it must be re-executed."),
    _r("PLAN004", Severity.ERROR, "redo set has a spurious instance",
       "Theorem 2: a redo without Theorem 2 cond. 1 grounds (or of a "
       "never-undone instance) re-executes work that should stay "
       "undone or kept."),
    _r("PLAN005", Severity.ERROR, "required ordering edge missing",
       "Theorems 3.1/3.3/3.4/3.5: dropping the edge admits schedules "
       "that read dirty or stale versions during recovery."),
    _r("PLAN006", Severity.ERROR, "ordering edge no rule justifies",
       "An edge outside Theorem 3 over-constrains the schedule and "
       "can manufacture cycles (deadlock) out of thin air."),
    _r("PLAN007", Severity.ERROR, "recovery partial order is cyclic",
       "A cyclic order has no linear extension; the scheduler's "
       "minimal(S, ≺) selector would stall."),
    _r("PLAN008", Severity.ERROR, "order elements disagree with the sets",
       "The actions in a heal's partial order must be exactly one undo "
       "per definite undo and one redo per definite redo of its batch."),
    _r("PLAN009", Severity.ERROR, "candidate sets disagree",
       "Theorem 1 cond. 2/4 and Theorem 2 cond. 2 candidates decide "
       "what the healer re-examines; a mismatch silently widens or "
       "narrows recovery."),
    # -- plan verifier (flight logs) ---------------------------------------
    _r("PLAN020", Severity.ERROR, "recorded order edges contain a cycle",
       "The flight log's Theorem 3 edge set admits no schedule; the "
       "recorded run cannot have healed in an order that honours it."),
    _r("PLAN021", Severity.ERROR, "undo≺redo edge missing in log",
       "Theorem 3.3: every redo the recorded order holds must carry "
       "the undo-before-redo constraint of its instance."),
    _r("PLAN022", Severity.ERROR, "realized schedule violates an edge",
       "An undo/redo order of the healer contradicting a recorded "
       "ordering edge means the heal broke Theorem 3."),
    _r("PLAN023", Severity.ERROR, "executed action never planned",
       "The healer undid/redid an instance that appears in no "
       "recorded Theorem 1/2 decision — recovery outside the plan."),
    _r("PLAN024", Severity.ERROR, "definite redo not in definite undo",
       "Theorem 2 splits the *undo* set; a definite redo outside the "
       "definite undo set re-executes an instance never rolled back."),
    # -- determinism lint ---------------------------------------------------
    _r("DET001", Severity.ERROR, "wall-clock time source",
       "time.time/monotonic/perf_counter read the host clock; replays "
       "of the same flight log would diverge.  Inject a clock "
       "(ManualClock for simulated time) instead."),
    _r("DET002", Severity.ERROR, "module-level random function",
       "random.random()/choice()/... draw from the shared global "
       "generator whose state any import can perturb; seeded replay "
       "needs an explicit random.Random(seed) instance."),
    _r("DET003", Severity.ERROR, "wall-calendar date/time",
       "datetime.now()/utcnow()/today() depend on when the code runs, "
       "not on the recorded inputs."),
    _r("DET004", Severity.WARN, "iteration over an unordered set",
       "Set iteration order varies across processes (PYTHONHASHSEED); "
       "events or output emitted from it break byte-identical "
       "replay.  Iterate over sorted(...)."),
    _r("DET005", Severity.ERROR, "entropy source",
       "os.urandom/uuid.uuid4/secrets draw hardware entropy that no "
       "seed controls."),
]}


class LintReport:
    """An ordered collection of diagnostics with uniform renderings."""

    def __init__(self, diagnostics: Iterable[Diagnostic] = ()) -> None:
        self._diags: List[Diagnostic] = sorted(
            diagnostics,
            key=lambda d: (d.severity.rank, d.file or "", d.line or 0,
                           d.rule, d.where, d.message),
        )

    # -- access --------------------------------------------------------------

    @property
    def diagnostics(self) -> Tuple[Diagnostic, ...]:
        """All findings, most severe first."""
        return tuple(self._diags)

    def __len__(self) -> int:
        return len(self._diags)

    def __iter__(self):
        return iter(self._diags)

    def count(self, severity: Severity) -> int:
        """Number of findings at exactly ``severity``."""
        return sum(1 for d in self._diags if d.severity is severity)

    @property
    def has_errors(self) -> bool:
        """True when any ERROR-level finding is present."""
        return any(d.severity is Severity.ERROR for d in self._diags)

    @property
    def exit_code(self) -> int:
        """Process exit code: 2 on ERROR findings, 0 otherwise."""
        return 2 if self.has_errors else 0

    # -- renderings ------------------------------------------------------------

    def render_text(self) -> str:
        """Line-per-finding text plus a one-line tally."""
        lines = [d.render() for d in self._diags]
        lines.append(
            f"{len(self._diags)} finding(s): "
            f"{self.count(Severity.ERROR)} error, "
            f"{self.count(Severity.WARN)} warning, "
            f"{self.count(Severity.INFO)} info"
        )
        return "\n".join(lines)

    def to_json(self, indent: Optional[int] = 2) -> str:
        """JSON array-of-objects form with a summary envelope."""
        return json.dumps({
            "findings": [d.to_dict() for d in self._diags],
            "summary": {
                "total": len(self._diags),
                "error": self.count(Severity.ERROR),
                "warn": self.count(Severity.WARN),
                "info": self.count(Severity.INFO),
            },
        }, indent=indent)

    def to_sarif(self, tool_name: str = "repro-lint") -> Dict[str, Any]:
        """The report as a SARIF 2.1.0 log (one run, one tool).

        Rules referenced by at least one result are described in
        ``tool.driver.rules`` with the catalogue's summary/rationale;
        each result carries a ``ruleIndex`` into that array.  Findings
        with a physical location get a ``physicalLocation``; all carry
        a ``logicalLocations`` entry naming the workflow/plan item.
        """
        used = sorted({d.rule for d in self._diags})
        index = {rule: i for i, rule in enumerate(used)}
        rules_arr = []
        for rule in used:
            info = RULES.get(rule)
            rules_arr.append({
                "id": rule,
                "shortDescription": {
                    "text": info.summary if info else rule,
                },
                "fullDescription": {
                    "text": info.rationale if info else "",
                },
                "defaultConfiguration": {
                    "level": (info.severity if info
                              else Severity.WARN).sarif_level,
                },
            })
        results = []
        for d in self._diags:
            location: Dict[str, Any] = {
                "logicalLocations": [{"fullyQualifiedName": d.where}],
            }
            if d.file is not None:
                location["physicalLocation"] = {
                    "artifactLocation": {"uri": d.file},
                    "region": {"startLine": max(1, d.line or 1)},
                }
            result: Dict[str, Any] = {
                "ruleId": d.rule,
                "ruleIndex": index[d.rule],
                "level": d.severity.sarif_level,
                "message": {"text": d.message},
                "locations": [location],
            }
            if d.fix:
                result["fixes"] = [
                    {"description": {"text": d.fix}},
                ]
            results.append(result)
        return {
            "$schema": SARIF_SCHEMA_URI,
            "version": SARIF_VERSION,
            "runs": [{
                "tool": {
                    "driver": {
                        "name": tool_name,
                        "informationUri":
                            "https://example.invalid/repro-lint",
                        "rules": rules_arr,
                    },
                },
                "results": results,
            }],
        }

    def to_sarif_json(self, indent: Optional[int] = 2,
                      tool_name: str = "repro-lint") -> str:
        """:meth:`to_sarif` serialized to a JSON string."""
        return json.dumps(self.to_sarif(tool_name=tool_name), indent=indent)
