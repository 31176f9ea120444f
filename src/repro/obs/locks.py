"""Explicit lock hierarchy for :mod:`repro.obs`.

Deadlock freedom by construction: every lock belongs to a named tier,
tiers are totally ordered, and a thread holding a lock at tier *L* may
only acquire locks at strictly greater tiers.  Acquisition order is
therefore acyclic globally — the property RACE003 checks statically
and RACE102 checks at runtime.

Tiers, outermost (acquired first) to innermost::

    server(0) -> registry(1) -> metric(2) -> bus(3) -> monitor(4)

The only in-process concurrency is the telemetry server's scrape
thread (:mod:`repro.obs.server`) against the run loop that mutates
what it serves; everything else, the fleet included, runs in one
thread.  Observed nestings: the scrape handler holds the ``server``
RLock while rendering, which walks the registry
(``server -> registry``) and reads instruments (``server -> metric``).
The bus dispatches outside its lock, so it nests inside nothing.  The
``monitor`` tier guards the fill path of the per-process LTLf monitor
tables (:mod:`repro.obs.monitor`); a fill acquires nothing else, so it
is innermost and may run under any other lock.

Checking is **opt-in** (``enable_checks()`` or the
``REPRO_LOCK_ORDER`` environment variable): production builds get a
plain ``threading.Lock`` with zero hot-path overhead, debug builds get
:class:`HierarchyLock`, which asserts the tier order on every acquire.
The static lint enforces the same discipline without running anything.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Dict, List, Tuple

__all__ = [
    "LOCK_LEVELS",
    "HierarchyLock",
    "make_lock",
    "make_rlock",
    "enable_checks",
    "checks_enabled",
]

#: tier name -> level; lower levels are acquired first (outermost).
LOCK_LEVELS: Dict[str, int] = {
    "server": 0,
    "registry": 1,
    "metric": 2,
    "bus": 3,
    "monitor": 4,
}

_enabled = False

# One stack of (level, tier) per thread, shared by every HierarchyLock.
_tls = threading.local()


def enable_checks(flag: bool = True) -> None:
    """Turn hierarchy assertions on/off for locks created *after* this."""
    global _enabled
    _enabled = flag


def checks_enabled() -> bool:
    """True when assertions are requested (API or REPRO_LOCK_ORDER=1)."""
    return _enabled or os.environ.get("REPRO_LOCK_ORDER", "") not in ("", "0")


def _held_stack() -> List[Tuple[int, str]]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


class HierarchyLock:
    """A lock that asserts the tier order on every acquisition.

    Holding tier *L*, a thread may only acquire tiers > *L*.  Reentrant
    re-acquisition of the *same* lock is allowed when built with
    ``reentrant=True`` (an ``RLock`` underneath).  Violations raise
    ``AssertionError`` — this is a debug-build tripwire, not a runtime
    error channel.
    """

    def __init__(self, tier: str, reentrant: bool = False) -> None:
        if tier not in LOCK_LEVELS:
            raise ValueError(
                f"unknown lock tier {tier!r}; known: "
                f"{', '.join(sorted(LOCK_LEVELS))}")
        self.tier = tier
        self.level = LOCK_LEVELS[tier]
        self.reentrant = reentrant
        self._inner = threading.RLock() if reentrant else threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        stack = _held_stack()
        if stack:
            top_level, top_tier = stack[-1]
            reacquire = (self.reentrant and top_level == self.level
                         and top_tier == self.tier)
            order = " -> ".join(
                sorted(LOCK_LEVELS, key=LOCK_LEVELS.__getitem__))
            assert self.level > top_level or reacquire, (
                f"lock hierarchy violation: acquiring tier "
                f"'{self.tier}' (level {self.level}) while holding "
                f"'{top_tier}' (level {top_level}); order is {order}"
            )
        got = self._inner.acquire(blocking, timeout)
        if got:
            stack.append((self.level, self.tier))
        return got

    def release(self) -> None:
        stack = _held_stack()
        if stack:
            stack.pop()
        self._inner.release()

    def __enter__(self) -> "HierarchyLock":
        self.acquire()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"HierarchyLock({self.tier!r}, level={self.level})"


def make_lock(tier: str) -> Any:
    """A mutex at ``tier``: plain Lock normally, HierarchyLock in debug."""
    if checks_enabled():
        return HierarchyLock(tier, reentrant=False)
    if tier not in LOCK_LEVELS:
        raise ValueError(f"unknown lock tier {tier!r}")
    return threading.Lock()


def make_rlock(tier: str) -> Any:
    """A reentrant mutex at ``tier`` (see :func:`make_lock`)."""
    if checks_enabled():
        return HierarchyLock(tier, reentrant=True)
    if tier not in LOCK_LEVELS:
        raise ValueError(f"unknown lock tier {tier!r}")
    return threading.RLock()
