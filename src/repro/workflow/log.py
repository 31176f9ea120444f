"""The system log.

Section II-A: "The system log is a sequence of tasks ``t_1, t_2, ..., t_n``
where ``t_i`` is committed earlier than ``t_{i+1}``."  Our log records, for
every committed task instance, the exact versions it read and wrote, plus
the branch decision it took (if any) — everything recovery needs to trace
damage and to undo writes.

The *trace* of a workflow instance is the subsequence of the log belonging
to that instance; ``succ(t_i)`` is the set of instances committed after
``t_i`` in its own trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.errors import LogError
from repro.workflow.task import TaskInstance

__all__ = ["LogRecord", "SystemLog", "RecordKind"]


class RecordKind:
    """Why a record was committed (normal run vs. recovery actions)."""

    NORMAL = "normal"
    UNDO = "undo"
    REDO = "redo"

    ALL = (NORMAL, UNDO, REDO)


@dataclass(frozen=True)
class LogRecord:
    """One committed task instance.

    Attributes
    ----------
    seq:
        Commit sequence number; defines the total commit order of the log.
    instance:
        The committed task instance.
    reads:
        Mapping ``object name → version number read``.
    writes:
        Mapping ``object name → version number written``.
    chosen:
        For branch nodes: the successor task id that was chosen; ``None``
        otherwise.
    kind:
        One of :class:`RecordKind` — ``normal``, ``undo`` or ``redo``.
    """

    seq: int
    instance: TaskInstance
    reads: Mapping[str, int]
    writes: Mapping[str, int]
    chosen: Optional[str] = None
    kind: str = RecordKind.NORMAL

    def __post_init__(self) -> None:
        if self.kind not in RecordKind.ALL:
            raise LogError(f"unknown record kind {self.kind!r}")
        object.__setattr__(self, "reads", dict(self.reads))
        object.__setattr__(self, "writes", dict(self.writes))

    @property
    def uid(self) -> str:
        """Uid of the underlying task instance."""
        return self.instance.uid

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = "" if self.kind == RecordKind.NORMAL else f" [{self.kind}]"
        return f"<{self.seq}: {self.instance.uid}{tag}>"


class SystemLog:
    """Append-only commit log shared by all workflows in the system.

    The log defines the precedence relation ``≺`` between any two committed
    instances (earlier commit precedes later commit), including instances
    of *different* workflows — exactly how damage crosses workflow
    boundaries in the paper's Figure 1 (``t1 ≺ t8``).
    """

    def __init__(self) -> None:
        self._records: List[LogRecord] = []
        self._by_uid: Dict[str, LogRecord] = {}
        self._next_seq = 0

    # -- committing ----------------------------------------------------------

    def commit(
        self,
        instance: TaskInstance,
        reads: Mapping[str, int],
        writes: Mapping[str, int],
        chosen: Optional[str] = None,
        kind: str = RecordKind.NORMAL,
    ) -> LogRecord:
        """Append a record for ``instance`` and return it.

        A given task instance may be committed as a *normal* execution
        only once; undo/redo records may recur (a later recovery pass
        can undo or redo the same instance again), with lookups
        returning the first occurrence.
        """
        key = self._kind_key(instance.uid, kind)
        if key in self._by_uid:
            if kind == RecordKind.NORMAL:
                raise LogError(
                    f"instance {instance.uid} already committed with kind "
                    f"{kind!r}"
                )
            occurrence = 2
            while f"{key}:{occurrence}" in self._by_uid:
                occurrence += 1
            key = f"{key}:{occurrence}"
        record = LogRecord(
            seq=self._next_seq,
            instance=instance,
            reads=reads,
            writes=writes,
            chosen=chosen,
            kind=kind,
        )
        self._next_seq += 1
        self._records.append(record)
        self._by_uid[key] = record
        return record

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[LogRecord]:
        return iter(self._records)

    def records(self, kind: Optional[str] = None) -> Tuple[LogRecord, ...]:
        """All records, optionally filtered by kind, in commit order."""
        if kind is None:
            return tuple(self._records)
        return tuple(r for r in self._records if r.kind == kind)

    def normal_records(self) -> Tuple[LogRecord, ...]:
        """Records of ordinary (non-recovery) executions, in commit order."""
        return self.records(RecordKind.NORMAL)

    def get(self, uid: str, kind: str = RecordKind.NORMAL) -> LogRecord:
        """Record of instance ``uid`` with the given kind."""
        try:
            return self._by_uid[self._kind_key(uid, kind)]
        except KeyError:
            raise LogError(
                f"instance {uid!r} has no {kind!r} record"
            ) from None

    def __contains__(self, uid: str) -> bool:
        """True when ``uid`` has a *normal* record (``t ∈ L``)."""
        return self._kind_key(uid, RecordKind.NORMAL) in self._by_uid

    def position(self, uid: str, kind: str = RecordKind.NORMAL) -> int:
        """Commit sequence number of instance ``uid``."""
        return self.get(uid, kind).seq

    def precedes(self, uid_a: str, uid_b: str) -> bool:
        """The log precedence ``a ≺ b`` over normal records."""
        return self.position(uid_a) < self.position(uid_b)

    # -- traces ---------------------------------------------------------------

    def trace(self, workflow_instance: str) -> Tuple[LogRecord, ...]:
        """The trace of one workflow instance (its normal records)."""
        return tuple(
            r
            for r in self._records
            if r.kind == RecordKind.NORMAL
            and r.instance.workflow_instance == workflow_instance
        )

    def succ(self, uid: str) -> Tuple[LogRecord, ...]:
        """``succ(t)``: instances committed after ``t`` in *its own trace*.

        Section II-A defines successors within the trace of the workflow
        the task belongs to, not across the whole log.
        """
        record = self.get(uid)
        wf = record.instance.workflow_instance
        return tuple(
            r for r in self.trace(wf) if r.seq > record.seq
        )

    # -- data lineage ----------------------------------------------------------

    def writers_of(self, name: str) -> Tuple[LogRecord, ...]:
        """All normal records that wrote object ``name``, in commit order."""
        return tuple(
            r for r in self.normal_records() if name in r.writes
        )

    def writer_of_version(self, name: str, version: int) -> Optional[LogRecord]:
        """The normal record that wrote version ``version`` of ``name``,
        or ``None`` when that version predates the log (initial value)."""
        for r in self.normal_records():
            if r.writes.get(name) == version:
                return r
        return None

    # -- internal ---------------------------------------------------------------

    @staticmethod
    def _kind_key(uid: str, kind: str) -> str:
        return f"{kind}:{uid}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        shown = " ".join(str(r.instance) for r in self._records[:12])
        more = "..." if len(self._records) > 12 else ""
        return f"SystemLog[{shown}{more}]"
