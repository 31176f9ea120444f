"""The recovery system's states, shared by the pipeline and the model.

:class:`SystemState` names the three operating states of Section IV-C
that :class:`~repro.system.SelfHealingSystem` moves through;
:class:`StateCategory` names the same three families as the CTMC model
(:mod:`repro.markov.stg`) and the simulators' occupancies do.  Both
live here, in a module that imports nothing else of the package, so
the pipeline reports occupancies without loading the model's numerics
and the model names its states without loading the pipeline.
:mod:`repro.system`, :mod:`repro.markov` and :mod:`repro.markov.stg`
re-export these same objects.
"""

from __future__ import annotations

from enum import Enum

__all__ = ["SystemState", "StateCategory"]


class SystemState(str, Enum):
    """The three operating states of Section IV-C."""

    NORMAL = "NORMAL"
    SCAN = "SCAN"
    RECOVERY = "RECOVERY"


class StateCategory(str, Enum):
    """The paper's three state families, as the CTMC model and the
    simulators' occupancies name them."""

    NORMAL = "normal"
    SCAN = "scan"
    RECOVERY = "recovery"
