"""Static verification of workflow specs, batch heals, and
replay-critical code.

The batch heal *decides* its Theorem 1/2 sets and orders them; this
package *checks* them — with code that shares nothing with the
producer (the N-version / independent-checker discipline of recovery
systems).  Three analysis
passes, all emitting typed :class:`~repro.lint.diagnostics.Diagnostic`
records renderable as text, JSON and SARIF 2.1.0:

- :mod:`repro.lint.spec_rules` — pure-static checks over
  :class:`~repro.workflow.spec.WorkflowSpec` graphs and read/write
  sets (unreachable structure, dead data, Theorem 4 contention
  hotspots, Theorem 1 condition 4 ambiguity, blast radius);
- :mod:`repro.lint.plan_verifier` — an independent re-derivation
  checker for a heal's Theorem 1/2 sets (membership) and its Theorem
  3 order (edge soundness, acyclicity), with no imports from the code
  that generated them;
- :mod:`repro.lint.determinism` — a stdlib-``ast`` pass flagging
  calls poisonous to seeded replay (wall clocks, module-level
  ``random``, set-iteration order), with an allowlist pragma
  ``# lint: allow[RULE]``.

The ``repro-workflow lint`` CLI verb exposes the static passes; its
``code`` pass is the determinism lint, and its SARIF log carries one
run named ``repro-lint-determinism``.  Exit code 2 signals
ERROR-level findings.  The package runs on one thread; the threading
contract of the telemetry server is in :mod:`repro.obs.server`.
"""

from repro.lint.diagnostics import (
    Diagnostic,
    LintReport,
    RuleInfo,
    RULES,
    Severity,
)
from repro.lint.determinism import lint_paths, lint_source
from repro.lint.plan_verifier import (
    verify_flight_log,
    verify_heal,
)
from repro.lint.spec_rules import (
    SpecLintConfig,
    config_from_document,
    lint_documents,
    lint_specs,
)

__all__ = [
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
    "verify_flight_log",
    "verify_heal",
]
