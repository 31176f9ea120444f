"""Outside-in tracing of the recovery pipeline's layers.

The traced run times the calls *into* each layer from here: it replaces
public callables on their classes, or on every ``repro`` module that
imported them, with timing wrappers, and puts the originals back
afterwards.  Nothing in ``src/`` is changed, and no ``profiler=`` or
``bus=`` argument is passed into the program, since either would change
the code path being measured.

Spans nest on a per-thread stack (the fleet calls shard methods from
pool threads), so a span's self time is its duration minus the time of
its direct child spans.  A layer's total counts only the outermost span
of that name, so re-entrant calls (a health monitor publishing from
inside a publish) are not counted twice.
"""

from __future__ import annotations

import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

Note = Callable[[Any, tuple, dict], Dict[str, float]]


class SpanStats:
    """Aggregate of every span recorded under one name."""

    __slots__ = ("calls", "total", "self_time", "durations", "counters")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0       # outermost spans of this name only
        self.self_time = 0.0   # duration minus direct child spans
        self.durations: List[float] = []
        self.counters: Dict[str, float] = {}

    def merge(self, other: "SpanStats") -> None:
        self.calls += other.calls
        self.total += other.total
        self.self_time += other.self_time
        self.durations.extend(other.durations)
        for key, value in other.counters.items():
            self.counters[key] = self.counters.get(key, 0.0) + value


class _ThreadState:
    def __init__(self) -> None:
        self.stack: List[list] = []   # [name, start, child_time]
        self.active: Dict[str, int] = {}
        self.stats: Dict[str, SpanStats] = {}


class Tracer:
    """Span recorder plus the patch/restore bookkeeping of its wrappers."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadState] = []
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # -- spans ---------------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def enter(self, name: str) -> None:
        state = self._state()
        state.active[name] = state.active.get(name, 0) + 1
        state.stack.append([name, time.perf_counter(), 0.0])

    def exit(self, end: float,
             counters: Optional[Dict[str, float]] = None) -> None:
        """Close the innermost span at ``end``; the counters are computed
        by the caller after ``end`` was read, so they cost no span time."""
        state = self._state()
        name, start, child = state.stack.pop()
        duration = end - start
        state.active[name] -= 1
        stats = state.stats.get(name)
        if stats is None:
            stats = state.stats[name] = SpanStats()
        stats.calls += 1
        stats.self_time += duration - child
        stats.durations.append(duration)
        if state.active[name] == 0:
            stats.total += duration
        if state.stack:
            state.stack[-1][2] += duration
        if counters:
            for key, value in counters.items():
                stats.counters[key] = stats.counters.get(key, 0.0) + value

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around the benchmark's own top-level calls."""
        self.enter(name)
        try:
            yield
        finally:
            self.exit(time.perf_counter())

    def _wrapper(self, original: Callable, name: str,
                 note: Optional[Note]) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.exit(time.perf_counter())
                raise
            end = time.perf_counter()
            tracer.exit(end, note(result, args, kwargs)
                        if note is not None else None)
            return result

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        traced.__name__ = getattr(original, "__name__", name)
        return traced

    # -- patching ------------------------------------------------------------

    def wrap_method(self, cls: type, attr: str, name: str,
                    note: Optional[Note] = None) -> None:
        """Time every call of ``cls.attr`` as span ``name``."""
        had_own = attr in cls.__dict__
        original = getattr(cls, attr)
        self._patches.append((cls, attr, cls.__dict__.get(attr), had_own))
        setattr(cls, attr, self._wrapper(original, name, note))

    def wrap_attr(self, module: Any, attr: str, name: str,
                  note: Optional[Note] = None) -> None:
        """Time calls made through one module's binding of ``attr``."""
        original = getattr(module, attr)
        self._patches.append((module, attr, original, True))
        setattr(module, attr, self._wrapper(original, name, note))

    def wrap_function(self, func: Callable, name: str,
                      note: Optional[Note] = None) -> None:
        """Time ``func`` through every loaded ``repro`` module that binds
        it (the defining module and each importer)."""
        wrapper = self._wrapper(func, name, note)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro"
                                      or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._patches.append((module, attr, func, True))
                    setattr(module, attr, wrapper)

    def restore(self) -> None:
        """Put back every original, newest patch first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @property
    def patched(self) -> int:
        return len(self._patches)

    # -- results -------------------------------------------------------------

    def stats(self) -> Dict[str, SpanStats]:
        """Per-name aggregates merged over every thread."""
        merged: Dict[str, SpanStats] = {}
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for name, stats in state.stats.items():
                merged.setdefault(name, SpanStats()).merge(stats)
        return merged

