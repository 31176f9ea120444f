"""Static verification of workflow specs, recovery plans, and
replay-critical code.

The recovery analyzer *produces* plans; this package *checks* them —
with code that shares nothing with the producer (the N-version /
independent-checker discipline of recovery systems).  Three analysis
passes, all emitting typed :class:`~repro.lint.diagnostics.Diagnostic`
records renderable as text, JSON and SARIF 2.1.0:

- :mod:`repro.lint.spec_rules` — pure-static checks over
  :class:`~repro.workflow.spec.WorkflowSpec` graphs and read/write
  sets (unreachable structure, dead data, Theorem 4 contention
  hotspots, Theorem 1 condition 4 ambiguity, blast radius);
- :mod:`repro.lint.plan_verifier` — an independent re-derivation
  checker for :class:`~repro.core.plan.RecoveryPlan` objects
  (Theorem 1/2 membership, Theorem 3 edge soundness, acyclicity),
  with no imports from the code that generated the plan;
- :mod:`repro.lint.determinism` — a stdlib-``ast`` pass flagging
  calls poisonous to seeded replay (wall clocks, module-level
  ``random``, set-iteration order), with an allowlist pragma
  ``# lint: allow[RULE]``;
- :mod:`repro.lint.races` — an interprocedural lockset / lock-order
  analysis over the threaded parts of the tree (RACE001-RACE005:
  unguarded shared writes, inconsistent guards, lock-order inversion,
  locks held across blocking calls, mutable state escaping to
  threads), honouring the same pragma;
- :mod:`repro.lint.sanitizer` — the *dynamic* complement: an opt-in
  Eraser-style lockset sanitizer (RACE101/RACE102) instrumenting the
  metrics registry, instruments and event bus at runtime; the tests
  attach it to the telemetry server's scrape path.

The ``repro-workflow lint`` CLI verb exposes the static passes
(``lint code --all`` merges determinism + races into one SARIF log).
Exit code 2 signals ERROR-level findings.
"""

from repro.lint.diagnostics import (
    combine_sarif,
    Diagnostic,
    LintReport,
    RuleInfo,
    RULES,
    Severity,
)
from repro.lint.determinism import lint_paths, lint_source
from repro.lint.plan_verifier import verify_flight_log, verify_plan
from repro.lint.races import RaceAnalysis, analyze_paths, lint_races
from repro.lint.sanitizer import RaceSanitizer, TrackedLock
from repro.lint.spec_rules import (
    SpecLintConfig,
    config_from_document,
    lint_documents,
    lint_specs,
)

__all__ = [
    "combine_sarif",
    "Diagnostic",
    "LintReport",
    "RuleInfo",
    "RULES",
    "Severity",
    "SpecLintConfig",
    "config_from_document",
    "lint_documents",
    "lint_specs",
    "lint_paths",
    "lint_source",
    "lint_races",
    "analyze_paths",
    "RaceAnalysis",
    "RaceSanitizer",
    "TrackedLock",
    "verify_flight_log",
    "verify_plan",
]
