"""The fleet's shard map.

The paper's scheduler is one sequential scan-or-recover loop per
system, and the fleet runs its shards the same way: an ordered inline
loop in the caller's thread.  Shards are CPU-bound Python with no I/O,
so threads under the GIL only added contention (serial beat every
measured thread count), and processes would pay pickling per tick.

:class:`WorkerPool` stays as the seam the control plane maps through
(the benchmark tracer wraps :meth:`WorkerPool.map`), with
``workers`` fixed at 1.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, TypeVar

__all__ = ["WorkerPool"]

T = TypeVar("T")
R = TypeVar("R")


class WorkerPool:
    """Ordered inline map over the fleet's shards."""

    workers = 1

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Apply ``fn`` to every item in order; an exception propagates
        from the item that raised it."""
        return [fn(item) for item in items]
