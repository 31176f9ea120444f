"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one base class at an API boundary.  Subsystems add their
own subclasses; modules never raise bare ``ValueError`` for domain errors.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "WorkflowSpecError",
    "UnknownTaskError",
    "ExecutionError",
    "BranchDecisionError",
    "LogError",
    "DataStoreError",
    "VersionNotFoundError",
    "SchedulingError",
    "CyclicOrderError",
    "RecoveryError",
    "QueueFullError",
    "ModelError",
    "NotConvergedError",
    "SimulationError",
    "ObsError",
    "FleetError",
    "GenerationError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


# --------------------------------------------------------------------------
# Workflow substrate
# --------------------------------------------------------------------------


class WorkflowSpecError(ReproError):
    """A workflow specification is structurally invalid.

    Raised for graphs without a unique start node, unreachable tasks,
    branch nodes without a decision function, duplicate task identifiers,
    and similar specification-level problems.

    Validation is collect-then-raise: one exception reports *every*
    defect found, as the :attr:`problems` tuple (the message joins them
    all).  Lint SPEC001 diagnostics are generated from the same tuple,
    so constructor errors and ``repro-workflow lint spec`` agree.
    """

    def __init__(self, message: str, problems: "tuple" = ()) -> None:
        super().__init__(message)
        #: Individual defect descriptions; never empty.
        self.problems: tuple = tuple(problems) or (message,)


class UnknownTaskError(WorkflowSpecError):
    """A task identifier does not exist in the workflow specification."""


class ExecutionError(ReproError):
    """A task failed while executing (compute raised, missing inputs...)."""


class BranchDecisionError(ExecutionError):
    """A branch node returned a successor that is not one of its edges."""


class LogError(ReproError):
    """The system log was used inconsistently (e.g. duplicate commit)."""


class DataStoreError(ReproError):
    """Base class for data-store errors."""


class VersionNotFoundError(DataStoreError):
    """A requested object version does not exist in the version history."""


# --------------------------------------------------------------------------
# Scheduling / recovery core
# --------------------------------------------------------------------------


class SchedulingError(ReproError):
    """The scheduler could not make progress."""


class CyclicOrderError(SchedulingError):
    """A partial order over tasks contains a cycle and admits no schedule."""


class RecoveryError(ReproError):
    """The recovery analyzer or healer hit an unrecoverable condition."""


class QueueFullError(ReproError):
    """A bounded queue (IDS alerts / recovery tasks) rejected an item."""


# --------------------------------------------------------------------------
# Markov model / simulation
# --------------------------------------------------------------------------


class ModelError(ReproError):
    """A CTMC model is malformed (bad generator matrix, bad rates...)."""


class NotConvergedError(ModelError):
    """An iterative numerical procedure failed to converge."""


class SimulationError(ReproError):
    """The discrete-event simulator detected an inconsistent state."""


# --------------------------------------------------------------------------
# Observability
# --------------------------------------------------------------------------


class ObsError(ReproError):
    """The observability layer was misused or a flight log is invalid.

    Raised for span lifecycle violations (ending a span that is not the
    innermost open one, or one already finished), corrupt or
    wrong-schema flight-recorder logs, and provenance queries about
    instances a log never mentions.
    """


# --------------------------------------------------------------------------
# Fleet control plane
# --------------------------------------------------------------------------


class FleetError(ReproError):
    """The fleet control plane was misconfigured or misused.

    Raised for unknown workload-mix archetypes, invalid tenant/worker
    counts, and control-plane lifecycle violations (e.g. reading fleet
    health before any tenants exist).
    """


# --------------------------------------------------------------------------
# Campaign generation / fuzzing
# --------------------------------------------------------------------------


class GenerationError(ReproError):
    """A campaign document or generator request is invalid.

    Raised for malformed corpus files (unknown format tags, bad step
    kinds/triggers, non-JSON input) and for unknown heal-fault or
    fuzzing-mode names — the CLI's exit-3 path for the ``fuzz`` verb.
    """
