"""Opt-in Eraser-style dynamic lockset sanitizer (RACE101/RACE102).

The static pass (:mod:`repro.lint.races`) proves lock discipline from
the source; this module checks it at runtime.  Instrument the real
locks and the real accesses of the objects the telemetry server's
scrape thread shares with the run loop (metrics registry, instruments,
event bus), refine per-variable candidate locksets (Savage et al.'s
Eraser algorithm), and report violations as typed
:class:`~repro.lint.diagnostics.Diagnostic` records with thread and
stack provenance.

State machine per shared variable::

    VIRGIN -> EXCLUSIVE (first access, owner thread recorded)
           -> SHARED (second thread reads)
           -> SHARED_MODIFIED (second thread writes, or write in SHARED)

The candidate lockset ``C(v)`` starts undefined, is initialized at the
first cross-thread access and intersected with the held lockset on
every cross-thread access after that; an empty ``C(v)`` in
SHARED_MODIFIED is a RACE101 violation.  Because the verdict depends
only on the *locksets*, not on an actual unlucky interleaving, the
removed-lock canary is detected deterministically even when the two
threads run back to back.

Lock attribution: instrumented objects acquire their locks *inside*
their methods (``Counter.inc`` takes ``self._lock`` itself), so an
access hook wrapping the method cannot see the lock in the held set at
entry.  :class:`TrackedLock` therefore journals acquisitions per
thread, and the hook attributes to the access every lock acquired
*during* the wrapped call as well as those held at entry.

Everything here is opt-in: no repro class imports this module; the
tests wire it up explicitly.
"""

from __future__ import annotations

import functools
import threading
import traceback
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.lint.diagnostics import Diagnostic, LintReport, RULES

__all__ = ["TrackedLock", "RaceSanitizer"]

_VIRGIN = "virgin"
_EXCLUSIVE = "exclusive"
_SHARED = "shared"
_SHARED_MODIFIED = "shared-modified"


def _call_site() -> Tuple[str, int, str]:
    """(file, line, 'file:line in fn') of the nearest non-sanitizer frame."""
    for frame in reversed(traceback.extract_stack()):
        fname = frame.filename
        if fname.endswith("sanitizer.py") or "threading" in fname:
            continue
        return fname, frame.lineno or 0, \
            f"{fname}:{frame.lineno} in {frame.name}"
    return "<unknown>", 0, "<unknown>"


class TrackedLock:
    """Proxy around a real lock that journals acquire/release.

    Supports the subset of the ``threading.Lock`` API the repro uses
    (``acquire``/``release``/context manager) and notifies the owning
    sanitizer so held locksets, the per-thread acquisition journal and
    the runtime lock-order graph stay current.
    """

    def __init__(self, sanitizer: "RaceSanitizer", name: str,
                 inner: Optional[Any] = None, reentrant: bool = False) -> None:
        self._san = sanitizer
        self.name = name
        self.reentrant = reentrant
        self._inner = inner if inner is not None else (
            threading.RLock() if reentrant else threading.Lock())

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._inner.acquire(blocking, timeout)
        if got:
            self._san._on_acquire(self)
        return got

    def release(self) -> None:
        self._san._on_release(self)
        self._inner.release()

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TrackedLock({self.name!r})"


class _VarState:
    __slots__ = ("state", "owner", "lockset", "last")

    def __init__(self, owner: int, last: Tuple[str, str]) -> None:
        self.state = _EXCLUSIVE
        self.owner = owner
        self.lockset: Optional[FrozenSet[str]] = None
        self.last = last  # (thread name, call site)


class RaceSanitizer:
    """Dynamic lockset refinement over instrumented objects.

    Thread-safe; its own bookkeeping lock is a leaf (nothing else is
    ever acquired while holding it), so instrumenting cannot introduce
    the deadlocks it is hunting.
    """

    def __init__(self) -> None:
        self._meta = threading.Lock()
        self._tls = threading.local()
        self._states: Dict[str, _VarState] = {}
        self._reported: Set[str] = set()
        self._order_pairs: Set[Tuple[str, str]] = set()
        self._order_sites: Dict[Tuple[str, str], Tuple[str, str]] = {}
        self._order_reported: Set[FrozenSet[str]] = set()
        self._violations: List[Diagnostic] = []
        self._next_tid = 0
        self.accesses = 0
        self.locks_tracked = 0

    # -- per-thread state ---------------------------------------------------

    def _thread_id(self) -> int:
        """A never-reused id for the current thread.

        ``threading.get_ident()`` is recycled as soon as a thread
        exits, which would make a back-to-back successor look like the
        EXCLUSIVE owner and silently skip refinement — the detector
        must not depend on allocator luck.
        """
        tid = getattr(self._tls, "tid", None)
        if tid is None:
            with self._meta:
                self._next_tid += 1
                tid = self._next_tid
            self._tls.tid = tid
        return tid

    def _held(self) -> List[str]:
        held = getattr(self._tls, "held", None)
        if held is None:
            held = self._tls.held = []
        return held

    def _journal(self) -> List[str]:
        log = getattr(self._tls, "journal", None)
        if log is None:
            log = self._tls.journal = []
        return log

    # -- lock hooks ---------------------------------------------------------

    def _on_acquire(self, lock: TrackedLock) -> None:
        held = self._held()
        name = lock.name
        prior = [h for h in held if h != name]
        if not (lock.reentrant and name in held):
            with self._meta:
                for h in prior:
                    pair = (h, name)
                    if pair not in self._order_pairs:
                        self._order_pairs.add(pair)
                        self._order_sites[pair] = (
                            threading.current_thread().name, _call_site()[2])
                    rev = (name, h)
                    key = frozenset((h, name))
                    if rev in self._order_pairs and \
                            key not in self._order_reported:
                        self._order_reported.add(key)
                        here = self._order_sites[pair]
                        there = self._order_sites[rev]
                        fname, lineno, _ = _call_site()
                        self._violations.append(Diagnostic(
                            rule="RACE102",
                            severity=RULES["RACE102"].severity,
                            message=(
                                f"lock-order inversion at runtime: "
                                f"'{h}' held while acquiring '{name}' "
                                f"[{here[0]} at {here[1]}] but '{name}' "
                                f"held while acquiring '{h}' "
                                f"[{there[0]} at {there[1]}]"),
                            where=f"{h} <-> {name}",
                            file=fname, line=lineno,
                            fix="acquire locks in hierarchy order "
                                "(docs/LINT.md)",
                        ))
        held.append(name)
        self._journal().append(name)

    def _on_release(self, lock: TrackedLock) -> None:
        held = self._held()
        if lock.name in held:
            # Remove the innermost hold (LIFO discipline assumed).
            for i in range(len(held) - 1, -1, -1):
                if held[i] == lock.name:
                    del held[i]
                    break

    # -- public wiring -------------------------------------------------------

    def wrap_lock(self, name: str, inner: Optional[Any] = None,
                  reentrant: bool = False) -> TrackedLock:
        """A tracked lock; pass the existing lock object as ``inner``."""
        with self._meta:
            self.locks_tracked += 1
        return TrackedLock(self, name, inner=inner, reentrant=reentrant)

    def wrap_method(self, obj: Any, method: str, var: str,
                    write: bool = True,
                    only_if_locked: bool = False) -> None:
        """Shadow ``obj.method`` with an access-hooked wrapper.

        The wrapper attributes to the access every lock held at entry
        plus every tracked lock acquired during the call (see module
        docstring).  Instance-dict shadowing keeps the class untouched.

        ``only_if_locked`` skips the access note when the call acquired
        no tracked lock and none was held at entry — for methods with a
        fast path that never touches the protected state (the bus's
        ``publish`` returns before reading the handler map when nothing
        is subscribed; charging ``var`` with an empty lockset there
        would be a false positive, not a found race).
        """
        orig: Callable[..., Any] = getattr(obj, method)
        san = self

        @functools.wraps(orig)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            journal = san._journal()
            depth = getattr(san._tls, "depth", 0)
            san._tls.depth = depth + 1
            marker = len(journal)
            try:
                return orig(*args, **kwargs)
            finally:
                acquired = frozenset(journal[marker:])
                san._tls.depth = depth
                if depth == 0:
                    del journal[:]
                if not only_if_locked or acquired or san._held():
                    san.note_access(var, write=write,
                                    extra_locks=acquired)

        setattr(obj, method, wrapper)

    def note_access(self, var: str, write: bool,
                    extra_locks: FrozenSet[str] = frozenset()) -> None:
        """Record one access to ``var`` under the current lockset."""
        lockset = frozenset(self._held()) | extra_locks
        tid = self._thread_id()
        me = (threading.current_thread().name, _call_site()[2])
        with self._meta:
            self.accesses += 1
            st = self._states.get(var)
            if st is None:
                self._states[var] = _VarState(owner=tid, last=me)
                return
            if st.state == _EXCLUSIVE and st.owner == tid:
                st.last = me
                return
            # A second thread is involved: refine the candidate lockset.
            st.lockset = lockset if st.lockset is None \
                else (st.lockset & lockset)
            if write:
                st.state = _SHARED_MODIFIED
            elif st.state == _EXCLUSIVE:
                st.state = _SHARED
            if st.state == _SHARED_MODIFIED and not st.lockset \
                    and var not in self._reported:
                self._reported.add(var)
                fname, lineno, _ = _call_site()
                self._violations.append(Diagnostic(
                    rule="RACE101",
                    severity=RULES["RACE101"].severity,
                    message=(
                        f"candidate lockset of '{var}' is empty: "
                        f"{'write' if write else 'read'} by {me[0]} at "
                        f"{me[1]} races prior access by {st.last[0]} at "
                        f"{st.last[1]} with no common lock"),
                    where=var, file=fname, line=lineno,
                    fix="guard every access with one lock",
                ))
            st.last = me

    # -- canned instrumentation for the repro's shared objects ---------------

    def instrument_metrics(self, registry: Any, name: str = "registry") -> None:
        """Track the registry lock, its map, and every instrument.

        ``metrics()`` counts as a read of the map: it is what a
        ``/metrics`` scrape walks from the server thread.
        """
        registry._lock = self.wrap_lock(
            f"MetricsRegistry._lock", inner=registry._lock)
        san = self

        orig_goc = registry._get_or_create

        @functools.wraps(orig_goc)
        def get_or_create(*args: Any, **kwargs: Any) -> Any:
            journal = san._journal()
            depth = getattr(san._tls, "depth", 0)
            san._tls.depth = depth + 1
            marker = len(journal)
            try:
                metric = orig_goc(*args, **kwargs)
            finally:
                acquired = frozenset(journal[marker:])
                san._tls.depth = depth
                if depth == 0:
                    del journal[:]
                san.note_access(f"{name}._metrics", write=True,
                                extra_locks=acquired)
            san.instrument_metric(metric)
            return metric

        registry._get_or_create = get_or_create
        for metric in registry.metrics():
            self.instrument_metric(metric)
        self.wrap_method(registry, "metrics", f"{name}._metrics",
                         write=False)

    def instrument_metric(self, metric: Any) -> None:
        """Track one Counter/Gauge/Histogram instance."""
        if isinstance(metric._lock, TrackedLock):
            return
        metric._lock = self.wrap_lock(
            f"_Metric._lock[{metric.name}]", inner=metric._lock)
        var = f"metric[{metric.name}]"
        for method in ("inc", "dec", "set", "observe", "reset"):
            if hasattr(type(metric), method):
                self.wrap_method(metric, method, var, write=True)

    def instrument_bus(self, bus: Any, name: str = "bus") -> None:
        """Track the event bus lock, subscriptions, and dispatch."""
        bus._lock = self.wrap_lock("EventBus._lock", inner=bus._lock)
        self.wrap_method(bus, "subscribe", f"{name}.handlers", write=True)
        self.wrap_method(bus, "unsubscribe", f"{name}.handlers", write=True)
        self.wrap_method(bus, "publish", f"{name}.handlers", write=False,
                         only_if_locked=True)

    # -- results -------------------------------------------------------------

    @property
    def violations(self) -> Tuple[Diagnostic, ...]:
        with self._meta:
            return tuple(self._violations)

    def report(self) -> LintReport:
        """All violations as a standard lint report (exit 2 on ERROR)."""
        return LintReport(self.violations)

    def summary(self) -> Dict[str, int]:
        with self._meta:
            return {
                "accesses": self.accesses,
                "tracked_vars": len(self._states) + len(self._reported),
                "locks": self.locks_tracked,
                "violations": len(self._violations),
            }
