"""Wall-clock profiling and end-to-end latency attribution.

The paper's headline quantities — detection delay, recovery time, loss
probability — are latencies, and the rest of the observability layer
measures them in *simulated* time only.  This module adds the wall
side: a :class:`PhaseProfiler` decomposes a run into attributed phases
(detect → buffer wait → central-queue wait → grant → analyze →
schedule → heal → audit, plus runner and fleet
tick phases) in **both** sim-time and wall-time, and counts the cost
drivers behind them (CTMC solver calls, Theorem 1/2 closure
recomputations, pickle bytes shipped to replication workers, queue
evictions).

Design rules, in priority order:

1. **Deterministic shape.** Two runs of the same scenario produce the
   identical breakdown *structure* — same phase paths, same order, same
   call counts, same counters, same sim-time totals.  Only the wall
   durations differ.  :meth:`ProfileReport.structure` digests exactly
   the deterministic part, and the tests pin it run-to-run.
2. **Honest attribution.** ``attribution`` is the fraction of the
   profiled interval covered by top-level phases.  There is no
   catch-all bucket: un-instrumented driver time shows up as a coverage
   *gap*, and the acceptance gate (≥95 %) keeps the gap small.
3. **Replay-inert.** Nothing here feeds back into the system under
   observation: the profiler only ever *reads* clocks, so attaching it
   cannot perturb replay byte-identity or worker-count invariance.

A profiler instance is single-owner: phases are entered and exited on
one thread.  Work measured by other profilers (the fleet's per-shard
ones) or in worker processes is folded in afterwards via
:meth:`PhaseProfiler.add_at`.
Pipeline code holds no profiler: ``with phase(name):`` records into
the one a caller made current with ``with recording(profiler):``, or
nowhere.  Likewise low-level code (the CTMC solver, the analyzer)
counts events with :func:`bump`; :meth:`PhaseProfiler.start` snapshots
those counters and the report carries the per-run delta.  Both are
plain module state: the pipeline runs on one thread
(``tests/test_one_thread.py``).
"""

from __future__ import annotations

import hashlib
import json
import time  # lint: allow[DET001] — wall-clock profiling is this module's job
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ObsError
from repro.obs.tracing import Span

__all__ = [
    "PHASES",
    "PhaseProfiler",
    "PhaseStat",
    "ProfileReport",
    "active",
    "bump",
    "counter_snapshot",
    "phase",
    "recording",
]

#: Canonical phase vocabulary, in pipeline order.  Reports list phases
#: in this order (unknown names sort after, alphabetically), so the
#: breakdown structure never depends on which phase happened to be
#: entered first.
PHASES: Tuple[str, ...] = (
    # one alert's life (system pipeline)
    "setup",
    "detect",
    "buffer-wait",
    "central-queue-wait",
    "grant",
    "analyze",
    "schedule",
    "heal",
    "heal.undo",
    "heal.order",
    "heal.settle",
    "heal.reconcile",
    "audit",
    "teardown",
    # replication runner
    "batch.spawn",
    "batch.fan-out",
    "batch.worker",
    "batch.merge",
    # fleet control plane tick rounds
    "tick",
    "tick.ingest",
    "tick.schedule",
    "tick.process",
    "tick.harvest",
    "drain",
    "sweep",
    "rollup",
    # model side
    "solver",
)

_PHASE_RANK: Dict[str, int] = {name: i for i, name in enumerate(PHASES)}


def _rank(name: str) -> Tuple[int, str]:
    """Sort key: canonical phases in pipeline order, then the rest
    alphabetically — a total order independent of insertion order."""
    return (_PHASE_RANK.get(name, len(PHASES)), name)


# ---------------------------------------------------------------------------
# Global cost-driver counters
# ---------------------------------------------------------------------------

_COUNTERS: Dict[str, int] = {}

#: Counter names the report always carries (zero when nothing bumped
#: them) — keeps the counter *structure* identical across runs that
#: differ only in whether a driver fired.
KNOWN_COUNTERS: Tuple[str, ...] = (
    "actions_planned",
    "closure_recomputations",
    "ctmc_solver_calls",
    "pickle_bytes",
    "queue_evictions",
    "store_names_touched",
    "undo_analyses",
)


def bump(name: str, n: int = 1) -> None:
    """Increment a global cost-driver counter.

    Low-level modules call this unconditionally — it is one dict add,
    cheap enough to leave on — and profilers report the delta across
    their profiled interval.
    """
    _COUNTERS[name] = _COUNTERS.get(name, 0) + n


def counter_snapshot() -> Dict[str, int]:
    """Copy of the global counters right now."""
    return dict(_COUNTERS)


# ---------------------------------------------------------------------------
# Profiler
# ---------------------------------------------------------------------------


@dataclass
class PhaseStat:
    """Accumulated cost of one phase path."""

    calls: int = 0
    wall: float = 0.0
    sim: float = 0.0

    def add(self, wall: float, sim: float, calls: int = 1) -> None:
        self.calls += calls
        self.wall += wall
        self.sim += sim


class PhaseProfiler:
    """Stack-based dual-clock (wall + sim) phase accumulator.

    Phases nest: entering ``heal`` then ``heal.undo`` records time
    under the path ``("heal", "heal.undo")`` as well as
    inside its parent, which is what the collapsed-stack export and the
    self-time split need.  Single-owner — see the module docstring.

    Parameters
    ----------
    sim_clock:
        Zero-arg callable returning current simulated time (e.g.
        ``clock.read``); ``None`` records zero sim durations.
    wall_clock:
        Zero-arg monotonic wall clock; injectable for deterministic
        tests.  Defaults to :func:`time.perf_counter`.
    """

    def __init__(
        self,
        sim_clock: Optional[Callable[[], float]] = None,
        wall_clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self._sim_clock = sim_clock
        self._wall_clock = (
            wall_clock if wall_clock is not None
            else time.perf_counter  # lint: allow[DET001]
        )
        self._stats: Dict[Tuple[str, ...], PhaseStat] = {}
        self._stack: List[str] = []
        self._t0: Optional[float] = None
        self._s0: float = 0.0
        self._total_wall: Optional[float] = None
        self._total_sim: float = 0.0
        self._counters0: Dict[str, int] = {}

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "PhaseProfiler":
        """Open the profiled interval; snapshots the global counters."""
        self._t0 = self._wall_clock()
        self._s0 = self._sim()
        self._total_wall = None
        self._counters0 = counter_snapshot()
        return self

    def stop(self) -> None:
        """Close the profiled interval (idempotent)."""
        if self._t0 is None:
            raise ObsError("profiler stopped before start()")
        if self._total_wall is None:
            self._total_wall = self._wall_clock() - self._t0
            self._total_sim = self._sim() - self._s0

    def _sim(self) -> float:
        return self._sim_clock() if self._sim_clock is not None else 0.0

    # -- recording ---------------------------------------------------------

    def add_external(
        self,
        name: str,
        wall: float,
        sim: float = 0.0,
        calls: int = 1,
    ) -> None:
        """Attribute time measured elsewhere as one occurrence of phase
        ``name`` beside the innermost open phase (at top level when
        none is open).

        A driver books a phase's externally measured side — its
        simulated service time, say — from inside that phase, so the
        bookkeeping's own wall time is attributed, not left as a gap.
        """
        path = (*self._stack[:-1], name)
        stat = self._stats.get(path)
        if stat is None:
            stat = self._stats[path] = PhaseStat()
        stat.add(wall, sim, calls=calls)

    def add_at(
        self,
        path: Tuple[str, ...],
        wall: float,
        sim: float = 0.0,
        calls: int = 1,
    ) -> None:
        """Attribute externally measured time at an explicit absolute
        stack path — how the fleet files each shard's phase time under
        the ``workers`` root, even though the fold runs later, inside
        ``tick.harvest``."""
        if not path:
            raise ObsError("add_at requires a non-empty phase path")
        stat = self._stats.get(path)
        if stat is None:
            stat = self._stats[path] = PhaseStat()
        stat.add(wall, sim, calls=calls)

    def snapshot(self) -> Dict[Tuple[str, ...], Tuple[int, float, float]]:
        """Copy of the accumulated stats (per-tick delta computation)."""
        return {
            path: (stat.calls, stat.wall, stat.sim)
            for path, stat in self._stats.items()
        }

    # -- reading -----------------------------------------------------------

    def report(self, scenario: str = "run",
               aux_roots: Tuple[str, ...] = ()) -> "ProfileReport":
        """Freeze the accumulated phases into a :class:`ProfileReport`.

        ``aux_roots`` names
        top-level paths that are *detail, not coverage* — e.g. the
        fleet folds every shard's internal phases under a synthetic
        ``workers`` root whose wall time was already spent inside the
        control plane's ``tick.*`` phases; adding both to the
        attribution would double-count the interval.

        Raises :class:`~repro.errors.ObsError` unless the profiler was
        started and stopped: the report covers one closed interval.
        """
        if self._t0 is None:
            raise ObsError("profiler report requested before start()")
        if self._total_wall is None:
            raise ObsError("profiler report requested before stop()")
        total_wall, total_sim = self._total_wall, self._total_sim
        stats = self.snapshot()
        paths = sorted(
            stats,
            key=lambda p: tuple(_rank(seg) for seg in p),
        )
        # Self time: a path's wall minus the wall of its direct
        # children (clamped at zero against clock jitter).
        child_wall: Dict[Tuple[str, ...], float] = {}
        child_sim: Dict[Tuple[str, ...], float] = {}
        for path, (_, wall, sim) in stats.items():
            if len(path) > 1:
                parent = path[:-1]
                child_wall[parent] = child_wall.get(parent, 0.0) + wall
                child_sim[parent] = child_sim.get(parent, 0.0) + sim
        rows: List[Dict[str, Any]] = []
        attributed = 0.0
        for path in paths:
            calls, wall, sim = stats[path]
            if len(path) == 1 and path[0] not in aux_roots:
                attributed += wall
            rows.append({
                "path": ";".join(path),
                "name": path[-1],
                "depth": len(path) - 1,
                "calls": calls,
                "wall": wall,
                "wall_self": max(
                    wall - child_wall.get(path, 0.0), 0.0),
                "sim": sim,
                "sim_self": max(sim - child_sim.get(path, 0.0), 0.0),
            })
        now = counter_snapshot()
        counters = {name: now.get(name, 0) - self._counters0.get(name, 0)
                    for name in KNOWN_COUNTERS}
        for name in sorted(now):
            if name not in counters:
                delta = now[name] - self._counters0.get(name, 0)
                if delta:
                    counters[name] = delta
        return ProfileReport(
            scenario=scenario,
            total_wall=total_wall,
            total_sim=total_sim,
            attributed_wall=attributed,
            rows=rows,
            counters=counters,
        )


class _Phase:
    """One occurrence of a :func:`phase` in a recording profiler.

    A plain class rather than a generator-based context manager: the
    bookkeeping outside the measured interval is un-attributed time, so
    it is kept as small as possible.
    """

    __slots__ = ("_prof", "_name", "_path", "_w0", "_s0")

    def __init__(self, prof: PhaseProfiler, name: str) -> None:
        # The wall clock is read first here and last on exit, so this
        # occurrence's own bookkeeping (its construction and entry
        # included) lands inside the phase: only the final
        # accumulation is left un-attributed.  ``phase()`` is only
        # ever entered where it is built.
        self._w0 = prof._wall_clock()
        self._prof = prof
        self._name = name

    def __enter__(self) -> None:
        prof = self._prof
        self._s0 = prof._sim()
        prof._stack.append(self._name)
        self._path = tuple(prof._stack)

    def __exit__(self, *exc_info: Any) -> None:
        prof = self._prof
        prof._stack.pop()
        stat = prof._stats.get(self._path)
        if stat is None:
            stat = prof._stats[self._path] = PhaseStat()
        stat.calls += 1
        stat.sim += prof._sim() - self._s0
        # Last, so only this accumulation is left un-attributed.
        stat.wall += prof._wall_clock() - self._w0


# ---------------------------------------------------------------------------
# The recording profiler
# ---------------------------------------------------------------------------

#: The profiler :func:`phase` records into; ``None`` records nothing.
_recording: Optional[PhaseProfiler] = None


class recording:
    """``with recording(profiler):`` makes ``profiler`` (``None``:
    nothing) the one phases record into, and restores the previous one
    on exit, also on an exception.  A slotted class, not a generator:
    the fleet enters one per shard call."""

    __slots__ = ("_profiler", "_outer")

    def __init__(self, profiler: Optional[PhaseProfiler]) -> None:
        self._profiler = profiler

    def __enter__(self) -> None:
        global _recording
        self._outer = _recording
        _recording = self._profiler

    def __exit__(self, *exc_info: Any) -> None:
        global _recording
        _recording = self._outer


def active() -> Optional[PhaseProfiler]:
    """The recording profiler, or ``None`` when nothing records."""
    return _recording


class _NoPhase:
    """The shared do-nothing phase of an unprofiled run."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NO_PHASE = _NoPhase()


def phase(name: str) -> Any:
    """Context manager measuring one occurrence of phase ``name`` in
    the recording profiler (a shared no-op when none records)."""
    prof = _recording
    return _NO_PHASE if prof is None else _Phase(prof, name)


@dataclass
class ProfileReport:
    """One profiled run's attribution breakdown (plain data).

    ``rows`` are ordered by the canonical phase order at every stack
    depth, so the row sequence is a pure function of *which* phases ran
    and how often — never of thread/scheduling accidents.
    """

    scenario: str
    total_wall: float
    total_sim: float
    attributed_wall: float
    rows: List[Dict[str, Any]] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def attribution(self) -> float:
        """Fraction of the profiled wall interval covered by top-level
        phases (the ≥0.95 acceptance quantity)."""
        if self.total_wall <= 0:
            return 1.0
        return min(self.attributed_wall / self.total_wall, 1.0)

    def structure(self) -> Dict[str, Any]:
        """The deterministic part of the report: phase paths in order,
        call counts, sim totals, counters — no wall times."""
        return {
            "scenario": self.scenario,
            "rows": [
                {"path": r["path"], "calls": r["calls"], "sim": r["sim"]}
                for r in self.rows
            ],
            "counters": dict(sorted(self.counters.items())),
        }

    def structure_digest(self) -> str:
        """SHA-256 of :meth:`structure` — two runs of the same scenario
        must agree on this even though their wall times differ."""
        blob = json.dumps(self.structure(), sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def as_dict(self) -> Dict[str, Any]:
        """JSON-able form (the CLI's ``profile --json`` document)."""
        return {
            "scenario": self.scenario,
            "total_wall": self.total_wall,
            "total_sim": self.total_sim,
            "attributed_wall": self.attributed_wall,
            "attribution": self.attribution,
            "phases": [dict(r) for r in self.rows],
            "counters": dict(sorted(self.counters.items())),
            "structure_digest": self.structure_digest(),
        }

    def spans(self) -> List[Span]:
        """The rows as a schematic span forest for
        :func:`~repro.obs.export.spans_to_chrome_trace`: top-level
        phases run end to end in canonical order, each child starts at
        its parent's start, and every duration is the real accumulated
        wall time (rows are aggregates, not timestamped samples)."""
        roots: List[Span] = []
        spans: Dict[Tuple[str, ...], Span] = {}
        #: phase path -> where its next child starts.
        child_cursor: Dict[Tuple[str, ...], float] = {(): 0.0}
        for row in self.rows:
            path = tuple(row["path"].split(";"))
            start = child_cursor.get(path[:-1], 0.0)
            child_cursor[path[:-1]] = start + row["wall"]
            child_cursor[path] = start
            span = Span(row["name"], start, {
                key: row[key]
                for key in ("path", "calls", "sim", "wall_self")})
            span.end = start + row["wall"]
            parent = spans.get(path[:-1])
            (roots if parent is None else parent.children).append(span)
            spans[path] = span
        return roots

    def collapsed(self) -> str:
        """Flamegraph-compatible collapsed-stack rendering.

        One line per stack path, ``repro;phase;subphase <weight>``, with
        weights in integer microseconds of *self* wall time (the format
        ``flamegraph.pl`` and speedscope ingest).  Zero-weight paths
        are kept — shape stays deterministic even when a phase was too
        fast to measure.
        """
        lines = []
        for row in self.rows:
            weight = int(round(row["wall_self"] * 1e6))
            lines.append(f"repro;{row['path']} {weight}")
        return "\n".join(lines) + ("\n" if lines else "")
