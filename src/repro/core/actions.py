"""Recovery actions.

Recovery manipulates two kinds of actions over task instances:

- ``undo(t)`` — remove ``t``'s effects by restoring the last clean version
  of every object it wrote;
- ``redo(t)`` — re-execute ``t``'s genuine code against the repaired store.

Actions are hashable values; the Theorem 3 partial order is built over
them.  Both types hash and compare in C (``Action`` is a named
tuple, ``ActionKind`` a ``str`` enum): damage analysis keys dictionaries
and sets by actions hundreds of thousands of times per run.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

__all__ = ["ActionKind", "Action"]


class ActionKind(str, Enum):
    """What a recovery action does to its task instance."""

    UNDO = "undo"
    REDO = "redo"

    __hash__ = str.__hash__
    __eq__ = str.__eq__


class Action(NamedTuple):
    """One schedulable action over the task instance ``uid``.

    Immutable; ordered by ``(kind, uid)``.
    """

    kind: ActionKind
    uid: str

    @staticmethod
    def undo(uid: str) -> "Action":
        """The action ``undo(uid)``."""
        return Action(ActionKind.UNDO, uid)

    @staticmethod
    def redo(uid: str) -> "Action":
        """The action ``redo(uid)``."""
        return Action(ActionKind.REDO, uid)

    def __str__(self) -> str:
        return f"{self.kind.value}({self.uid})"
