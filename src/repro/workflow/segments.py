"""Segmented (distributed) system logs.

Footnote 1 of the paper: "Since the workflow could be processed in a
distributed style, the system log may be stored in segments.  But it
does not affect our discussion."  Section VII adds that in decentralized
models the recovery theory still applies — one simply has to process
the specification and log in a distributed style.

This module makes that claim executable.  Each processing *node* owns a
log segment; commits carry Lamport timestamps so that merging the
segments reconstructs a total commit order consistent with causality
(and with the per-node orders).  The merged log is an ordinary
:class:`~repro.workflow.log.SystemLog`, so damage analysis and healing
run unchanged — which is exactly the paper's "does not affect our
discussion", now a tested property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import LogError
from repro.workflow.log import RecordKind, SystemLog
from repro.workflow.task import TaskInstance

__all__ = ["SegmentEntry", "LogSegment", "SegmentedLog"]


@dataclass(frozen=True)
class SegmentEntry:
    """One commit stored on one node.

    Attributes
    ----------
    node:
        Owning node's identifier.
    lamport:
        Lamport timestamp assigned at commit.
    local_seq:
        Position within the node's own segment (FIFO per node).
    instance, reads, writes, chosen:
        As in :class:`~repro.workflow.log.LogRecord`.
    """

    node: str
    lamport: int
    local_seq: int
    instance: TaskInstance
    reads: Mapping[str, int]
    writes: Mapping[str, int]
    chosen: Optional[str] = None


class LogSegment:
    """The portion of the system log held by one node."""

    def __init__(self, node: str) -> None:
        self._node = node
        self._entries: List[SegmentEntry] = []
        self._clock = 0

    @property
    def node(self) -> str:
        """The owning node's identifier."""
        return self._node

    @property
    def clock(self) -> int:
        """Current Lamport clock value."""
        return self._clock

    def witness(self, timestamp: int) -> None:
        """Advance the clock past an observed remote timestamp (message
        receipt in Lamport's scheme)."""
        self._clock = max(self._clock, timestamp)

    def commit(
        self,
        instance: TaskInstance,
        reads: Mapping[str, int],
        writes: Mapping[str, int],
        chosen: Optional[str] = None,
    ) -> SegmentEntry:
        """Append a commit to this node's segment."""
        self._clock += 1
        entry = SegmentEntry(
            node=self._node,
            lamport=self._clock,
            local_seq=len(self._entries),
            instance=instance,
            reads=dict(reads),
            writes=dict(writes),
            chosen=chosen,
        )
        self._entries.append(entry)
        return entry

    def entries(self) -> Tuple[SegmentEntry, ...]:
        """This node's commits, in local order."""
        return tuple(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


class SegmentedLog:
    """A system log distributed over several nodes.

    ``merge()`` reconstructs the global :class:`SystemLog` by sorting
    entries on ``(lamport, node, local_seq)`` — a total order that
    respects every node's local order and all witnessed cross-node
    causality.  Recovery then operates on the merged log exactly as on a
    centralized one.
    """

    def __init__(self, nodes: Sequence[str]) -> None:
        if len(set(nodes)) != len(nodes):
            raise LogError("duplicate node identifiers")
        if not nodes:
            raise LogError("a segmented log needs at least one node")
        self._segments: Dict[str, LogSegment] = {
            node: LogSegment(node) for node in nodes
        }

    def segment(self, node: str) -> LogSegment:
        """The segment owned by ``node``."""
        try:
            return self._segments[node]
        except KeyError:
            raise LogError(f"unknown node {node!r}") from None

    @property
    def nodes(self) -> Tuple[str, ...]:
        """All node identifiers."""
        return tuple(self._segments)

    def commit_on(
        self,
        node: str,
        instance: TaskInstance,
        reads: Mapping[str, int],
        writes: Mapping[str, int],
        chosen: Optional[str] = None,
        notify: Sequence[str] = (),
    ) -> SegmentEntry:
        """Commit on ``node`` and propagate the timestamp to ``notify``
        (the nodes that causally depend on this commit — e.g. the next
        processor of the same workflow)."""
        entry = self.segment(node).commit(instance, reads, writes, chosen)
        for other in notify:
            self.segment(other).witness(entry.lamport)
        return entry

    def merge(self) -> SystemLog:
        """Reconstruct the global system log.

        Raises
        ------
        LogError
            If the merged order would violate a node's local order
            (cannot happen with monotone Lamport clocks; checked
            defensively).
        """
        entries: List[SegmentEntry] = []
        for segment in self._segments.values():
            entries.extend(segment.entries())
        entries.sort(key=lambda e: (e.lamport, e.node, e.local_seq))

        seen_local: Dict[str, int] = {}
        log = SystemLog()
        for entry in entries:
            prev = seen_local.get(entry.node, -1)
            if entry.local_seq != prev + 1:
                raise LogError(
                    f"merge would reorder node {entry.node!r} "
                    f"(local_seq {entry.local_seq} after {prev})"
                )
            seen_local[entry.node] = entry.local_seq
            log.commit(
                entry.instance,
                reads=entry.reads,
                writes=entry.writes,
                chosen=entry.chosen,
                kind=RecordKind.NORMAL,
            )
        return log
