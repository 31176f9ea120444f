"""Parallel replication runner for the stochastic simulators.

One Gillespie (or full-stack) trajectory estimates the paper's
quantities with the variance of a single sample path; the standard
remedy — exact-SSA practice since Gillespie 1977 — is many independent
replications.  Replications are embarrassingly parallel, so this module
splits them into one contiguous chunk per worker, runs the chunks on a
:class:`concurrent.futures.ProcessPoolExecutor` built for the batch,
and merges the results.  A chunk pickles the shared arguments once and
lets its worker reuse what it compiles from them (the Gillespie jump
table), so the pool's cost is one spawn and one payload per worker, not
per replication.

Two properties are load-bearing and pinned by the differential tests:

**Deterministic seed streams.**  Per-replication seeds are spawned from
the base seed with :class:`numpy.random.SeedSequence` — replication
``i`` derives its seed from ``(base_seed, spawn_key=i)`` only.  Streams
are therefore pairwise distinct, independent of the worker count, and
*order-independent*: the first ``m`` seeds of an ``n``-replication
batch equal the seeds of an ``m``-replication batch.

**Worker-count invariance.**  Each replication owns a private
``random.Random(seed)``, and results are collected in submission order,
so ``workers=K`` reproduces ``workers=1`` bit-exactly — parallelism
buys wall-clock time, never different answers.  With ``workers=1`` no
pool (and no subprocess) is created at all.

Parallelism pays at the model's shape: the 3×3 (λ, buffer) grid of
32 Gillespie replications over horizon 1000 takes 1.0–1.4 s at
``workers=2`` against 1.4–1.5 s at ``workers=1`` (2-CPU VM, Python
3.11.7).  At small replication counts it often does not, so the batch
results carry the accounting that explains the gap: per-replication
in-worker wall times, the :attr:`~FullStackBatchResult.fan_out_overhead`
spent outside any worker's compute (process spawn, task pickling, IPC),
a :attr:`~FullStackBatchResult.speedup` estimate, and — when a parallel
run is slower than its own serial work — a loud
:class:`ParallelSlowdownWarning` plus the
:attr:`~FullStackBatchResult.speedup_lt_1` flag.  Under a recording
:class:`~repro.obs.perf.PhaseProfiler` the same quantities appear as
``batch.worker`` / ``batch.spawn`` / ``batch.fan-out`` phases and the
``pickle_bytes`` cost-driver counter.
"""

from __future__ import annotations

import os
import pickle
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Generic,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np

from repro.errors import SimulationError
from repro.markov.stg import RecoverySTG, State, StateCategory
from repro.obs.health import (
    ConformanceReport,
    ModelPrediction,
    merge_conformance,
)
from repro.obs.perf import active, bump as perf_bump, phase, recording
from repro.sim import ctmc_sim, fullstack
from repro.sim.ctmc_sim import GillespieResult
from repro.sim.fullstack import FullStackConfig, FullStackResult

__all__ = [
    "spawn_seeds",
    "default_workers",
    "ParallelSlowdownWarning",
    "GillespieBatchResult",
    "FullStackBatchResult",
    "run_gillespie_batch",
    "run_fullstack_batch",
]

#: The per-replication result type a batch merges.
R = TypeVar("R")


class ParallelSlowdownWarning(UserWarning):
    """A parallel batch ran slower than its own serial work.

    Structured: the numbers behind the verdict ride on the instance so
    handlers can do better than parse the message.

    Attributes
    ----------
    workers, replications:
        Fan-out shape of the offending batch.
    elapsed, worker_wall:
        Whole-batch wall seconds vs. the sum of in-worker compute
        seconds.
    speedup:
        ``worker_wall / elapsed`` — below 1.0 by construction here.
    fan_out_overhead:
        Seconds not explained by perfectly-parallel compute: process
        spawn, task pickling, IPC, result collection.
    """

    def __init__(self, workers: int, replications: int, elapsed: float,
                 worker_wall: float, speedup: float,
                 fan_out_overhead: float) -> None:
        self.workers = workers
        self.replications = replications
        self.elapsed = elapsed
        self.worker_wall = worker_wall
        self.speedup = speedup
        self.fan_out_overhead = fan_out_overhead
        super().__init__(
            f"parallel batch slower than its own serial work: "
            f"speedup={speedup:.2f} (<1) with workers={workers}, "
            f"replications={replications} — elapsed {elapsed:.3f}s vs "
            f"{worker_wall:.3f}s of in-worker compute; "
            f"{fan_out_overhead:.3f}s of fan-out overhead (process "
            f"spawn, pickling, IPC).  Use workers=1 at this shape, or "
            f"raise replications/horizon until compute dominates."
        )


def spawn_seeds(base_seed: int, n: int) -> List[int]:
    """``n`` pairwise-distinct 64-bit replication seeds from one base
    seed, via ``SeedSequence`` spawning.

    Seed ``i`` depends only on ``(base_seed, i)``: growing ``n`` never
    changes earlier seeds, and neither does the worker count.
    """
    if n < 0:
        raise SimulationError(f"need n >= 0 seeds, got {n}")
    children = np.random.SeedSequence(base_seed).spawn(n)
    return [int(c.generate_state(1, np.uint64)[0]) for c in children]


def default_workers() -> int:
    """A sensible worker count: the CPU count, capped at 8."""
    return min(os.cpu_count() or 1, 8)


def _validate(replications: int, workers: int, horizon: float) -> None:
    if replications < 1:
        raise SimulationError(
            f"replications must be >= 1, got {replications}"
        )
    if workers < 1:
        raise SimulationError(f"workers must be >= 1, got {workers}")
    if horizon <= 0:
        raise SimulationError(f"horizon must be > 0, got {horizon}")


def _timed_gillespie(
    stg: RecoverySTG,
    horizon: float,
    seed: int,
    start: Optional[State],
    health: Optional[ModelPrediction] = None,
    loss_objective: Optional[float] = None,
) -> Tuple[GillespieResult, float]:
    t0 = time.perf_counter()  # lint: allow[DET001] host benchmark timing, not simulated time
    result = ctmc_sim.run_replication(stg, horizon, seed, start=start,
                                      health=health,
                                      loss_objective=loss_objective)
    return result, time.perf_counter() - t0  # lint: allow[DET001] host benchmark timing, not simulated time


def _timed_fullstack(
    config: FullStackConfig,
    horizon: float,
    seed: int,
    record_path: Optional[str] = None,
    health: Optional[ModelPrediction] = None,
    loss_objective: Optional[float] = None,
) -> Tuple[FullStackResult, float]:
    t0 = time.perf_counter()  # lint: allow[DET001] host benchmark timing, not simulated time
    result = fullstack.run_replication(config, horizon, seed,
                                       record_path=record_path,
                                       health=health,
                                       loss_objective=loss_objective)
    return result, time.perf_counter() - t0  # lint: allow[DET001] host benchmark timing, not simulated time


def _run_chunk(worker: Callable, tasks: Sequence[tuple]) -> List[tuple]:
    """Run one worker's contiguous slice of the batch, unprofiled: a
    forked worker inherits the parent's recording profiler, but
    profilers never cross the process boundary."""
    with recording(None):
        return [worker(*task) for task in tasks]


def _chunks(tasks: Sequence[tuple], n: int) -> List[Sequence[tuple]]:
    """``tasks`` split into ``n`` contiguous, near-equal slices."""
    size, extra = divmod(len(tasks), n)
    bounds = [i * size + min(i, extra) for i in range(n + 1)]
    return [tasks[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _fan_out(
    worker: Callable,
    tasks: Sequence[tuple],
    workers: int,
) -> List[tuple]:
    """Run ``worker(*task)`` for every task, preserving order.

    ``workers == 1`` runs inline — no pool, no subprocess; otherwise
    the tasks are split into ``min(workers, len(tasks))`` contiguous
    chunks, a process pool of that size runs one chunk per task, and
    the chunks' results are concatenated in submission order
    (determinism over opportunistic completion order).  One chunk per
    worker pickles the shared arguments (the STG, the config) once per
    worker instead of once per replication, and lets a worker reuse
    what it compiles from them
    (:meth:`~repro.markov.stg.RecoverySTG.jump_table`).

    Under a recording profiler: inline runs wrap each worker call in a
    ``batch.worker`` phase (so a replication's own phases nest under
    it); pooled runs count the chunk payloads into the ``pickle_bytes``
    cost driver and record pool construction as ``batch.spawn`` —
    the in-worker/overhead split for pooled runs comes from the
    caller, which knows the per-replication wall times.
    """
    if workers == 1:
        out = []
        for task in tasks:
            with phase("batch.worker"):
                out.append(worker(*task))
        return out
    prof = active()
    chunks = _chunks(tasks, min(workers, len(tasks)))
    if prof is not None:
        # What the pool is about to pickle over the pipe, measured
        # up front (the double dumps() is noise next to the spawn).
        perf_bump("pickle_bytes",
                  sum(len(pickle.dumps((worker, chunk)))
                      for chunk in chunks))
    t0 = time.perf_counter()  # lint: allow[DET001] host benchmark timing, not simulated time
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        spawn = time.perf_counter() - t0  # lint: allow[DET001] host benchmark timing, not simulated time
        futures = [pool.submit(_run_chunk, worker, chunk)
                   for chunk in chunks]
        results = [r for f in futures for r in f.result()]
    if prof is not None:
        prof.add_at(("batch.spawn",), spawn, calls=1)
    return results


def _account_fan_out(batch) -> None:
    """Post-run fan-out accounting shared by both batch kinds.

    Computes :attr:`~FullStackBatchResult.fan_out_overhead` (pooled
    runs only), mirrors the in-worker/overhead split into the recording
    profiler as ``batch.worker`` / ``batch.fan-out`` phases, and issues
    the :class:`ParallelSlowdownWarning` when the batch's
    ``speedup_lt_1`` flag trips."""
    worker_wall = sum(batch.wall_times)
    if batch.workers > 1:
        # A perfectly packed pool would finish in worker_wall/workers;
        # everything beyond that is fan-out overhead — spawn, pickle,
        # IPC, result collection (ROADMAP item 3's measured gap).
        ideal = worker_wall / batch.workers
        batch.fan_out_overhead = max(batch.elapsed - ideal, 0.0)
        prof = active()
        if prof is not None:
            prof.add_at(("batch.worker",), worker_wall,
                        calls=batch.replications)
            prof.add_at(("batch.fan-out",),
                        batch.fan_out_overhead, calls=1)
    if batch.speedup_lt_1:
        warnings.warn(ParallelSlowdownWarning(
            workers=batch.workers,
            replications=batch.replications,
            elapsed=batch.elapsed,
            worker_wall=worker_wall,
            speedup=batch.speedup,
            fan_out_overhead=batch.fan_out_overhead,
        ), stacklevel=3)


def _mean_and_stderr(values: Sequence[float]) -> Tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, 0.0
    return mean, float(arr.std(ddof=1) / np.sqrt(arr.size))


@dataclass
class _BatchResult(Generic[R]):
    """What both batch kinds share: the merged replications and the
    fan-out accounting of the run that produced them.

    Attributes
    ----------
    results:
        Per-replication results, in replication order.
    seeds:
        The per-replication seed stream actually used.
    horizon, workers:
        Replication horizon and the worker count of this run.
    wall_times:
        Per-replication wall-clock seconds (measured inside the
        worker).
    elapsed:
        Wall-clock seconds for the whole batch, pool overhead included.
    fan_out_overhead:
        Pooled runs only: seconds beyond a perfectly packed pool's
        ``sum(wall_times)/workers`` — spawn, pickling, IPC.  Zero for
        inline runs.
    """

    results: List[R]
    seeds: List[int]
    horizon: float
    workers: int
    wall_times: List[float] = field(default_factory=list)
    elapsed: float = 0.0
    fan_out_overhead: float = 0.0

    @property
    def replications(self) -> int:
        """Number of replications merged."""
        return len(self.results)

    @property
    def speedup(self) -> float:
        """In-worker compute seconds over whole-batch elapsed seconds —
        the honest "did parallelism pay" estimate (1.0 ≈ break-even
        with serial, below 1.0 means the pool made things *slower*)."""
        if self.elapsed <= 0:
            return 0.0
        return sum(self.wall_times) / self.elapsed

    @property
    def speedup_lt_1(self) -> bool:
        """True when a pooled run was slower than its own serial work
        (the ROADMAP item 1 embarrassment, flagged loudly)."""
        return (self.workers > 1 and bool(self.wall_times)
                and self.speedup < 1.0)

    @property
    def category_occupancy(self) -> Dict[StateCategory, float]:
        """Mean fraction of time in NORMAL / SCAN / RECOVERY."""
        merged = {c: 0.0 for c in StateCategory}
        for r in self.results:
            for c, frac in r.category_occupancy.items():
                merged[c] += frac
        n = len(self.results)
        return {c: v / n for c, v in merged.items()}

    @property
    def conformance(self) -> Optional[ConformanceReport]:
        """Merged per-replication conformance verdict (``None`` when
        the batch ran without health monitoring).

        The merge is order-independent (sums and max-severity only),
        so the verdict is identical at any worker count — the same
        invariance the raw results already guarantee.
        """
        reports = [r.conformance for r in self.results
                   if r.conformance is not None]
        if not reports:
            return None
        return merge_conformance(reports)


class GillespieBatchResult(_BatchResult[GillespieResult]):
    """Merged statistics over ``n`` independent Gillespie replications
    (:class:`~repro.sim.ctmc_sim.GillespieResult` each)."""

    @property
    def occupancy(self) -> Dict[State, float]:
        """Mean fraction of time per state across replications."""
        merged: Dict[State, float] = {}
        for r in self.results:
            for s, frac in r.occupancy.items():
                merged[s] = merged.get(s, 0.0) + frac
        n = len(self.results)
        return {s: v / n for s, v in merged.items()}

    @property
    def loss_time_fraction(self) -> float:
        """Mean loss-time fraction (Definition 3, empirical)."""
        return _mean_and_stderr(
            [r.loss_time_fraction for r in self.results]
        )[0]

    @property
    def loss_time_stderr(self) -> float:
        """Standard error of the loss-time fraction across
        replications — the batch's confidence handle."""
        return _mean_and_stderr(
            [r.loss_time_fraction for r in self.results]
        )[1]

    @property
    def arrivals(self) -> int:
        """Total alert arrivals over all replications."""
        return sum(r.arrivals for r in self.results)

    @property
    def arrivals_lost(self) -> int:
        """Total alerts lost over all replications."""
        return sum(r.arrivals_lost for r in self.results)

    @property
    def jumps(self) -> int:
        """Total state transitions over all replications."""
        return sum(r.jumps for r in self.results)

    @property
    def alert_loss_fraction(self) -> float:
        """Pooled lost/offered alert fraction."""
        if self.arrivals == 0:
            return 0.0
        return self.arrivals_lost / self.arrivals


class FullStackBatchResult(_BatchResult[FullStackResult]):
    """Merged statistics over ``n`` full-stack replications
    (:class:`~repro.sim.fullstack.FullStackResult` each)."""

    @property
    def attacks(self) -> int:
        """Total attack runs over all replications."""
        return sum(r.attacks for r in self.results)

    @property
    def alerts_lost(self) -> int:
        """Total lost alerts over all replications."""
        return sum(r.alerts_lost for r in self.results)

    @property
    def loss_fraction(self) -> float:
        """Pooled lost/offered fraction."""
        if self.attacks == 0:
            return 0.0
        return self.alerts_lost / self.attacks

    @property
    def heals(self) -> int:
        """Total committed batch heals."""
        return sum(r.heals for r in self.results)

    @property
    def repaired_instances(self) -> int:
        """Total task instances undone across all replications."""
        return sum(r.repaired_instances for r in self.results)

    @property
    def all_heals_audited_ok(self) -> bool:
        """True only if **every** replication stayed strictly
        correct."""
        return all(r.all_heals_audited_ok for r in self.results)


def run_gillespie_batch(
    stg: RecoverySTG,
    horizon: float,
    replications: int,
    workers: int = 1,
    seed: int = 0,
    start: Optional[State] = None,
    health: Optional[ModelPrediction] = None,
    loss_objective: Optional[float] = None,
) -> GillespieBatchResult:
    """Run ``replications`` independent Gillespie trajectories.

    Parameters
    ----------
    stg:
        The recovery STG (picklable: the standard rate schedules are
        built from module-level functions).
    horizon:
        Simulated duration of every replication.
    replications, workers:
        Fan-out shape.  ``workers=1`` runs inline without creating a
        pool; ``workers=K`` uses a ``ProcessPoolExecutor`` and returns
        bit-identical results.
    seed:
        Base seed of the replication seed stream
        (:func:`spawn_seeds`).
    start:
        Optional common start state (default NORMAL).
    health, loss_objective:
        With a :class:`~repro.obs.health.ModelPrediction`, every
        replication runs under a health monitor and the batch result's
        :attr:`~GillespieBatchResult.conformance` merges the
        per-replication verdicts (both are plain picklable data, so
        they fan out to workers like the STG does); ``loss_objective``
        sets the monitors' loss SLO target (``None``: derived from the
        model).

    Under a recording profiler the batch records its ``batch.worker`` /
    ``batch.spawn`` / ``batch.fan-out`` split; pooled workers run
    unprofiled and report wall times instead.

    Raises
    ------
    SimulationError
        For ``replications < 1``, ``workers < 1`` or ``horizon <= 0``.
    """
    _validate(replications, workers, horizon)
    seeds = spawn_seeds(seed, replications)
    t0 = time.perf_counter()  # lint: allow[DET001] host benchmark timing, not simulated time
    outcomes = _fan_out(
        _timed_gillespie,
        [(stg, horizon, s, start, health, loss_objective)
         for s in seeds],
        workers,
    )
    elapsed = time.perf_counter() - t0  # lint: allow[DET001] host benchmark timing, not simulated time
    batch = GillespieBatchResult(
        results=[r for r, _ in outcomes],
        seeds=seeds,
        horizon=horizon,
        workers=workers,
        wall_times=[w for _, w in outcomes],
        elapsed=elapsed,
    )
    _account_fan_out(batch)
    return batch


def run_fullstack_batch(
    config: FullStackConfig,
    horizon: float,
    replications: int,
    workers: int = 1,
    seed: int = 0,
    record_dir: Optional[str] = None,
    health: Optional[ModelPrediction] = None,
    loss_objective: Optional[float] = None,
) -> FullStackBatchResult:
    """Run ``replications`` independent full-stack simulations; same
    contract as :func:`run_gillespie_batch` (including the optional
    ``health`` monitoring, merged conformance verdict, and fan-out
    accounting into the recording profiler).

    With ``record_dir``, every replication writes a flight-recorder log
    to ``<record_dir>/rep-NNNN.jsonl`` (seed and config in the header).
    Flight logs carry only simulated time, so the files — like the
    results — are bit-identical across worker counts; with ``health``
    the logs additionally contain each replication's SloTransition /
    DriftDetected verdict events.

    One full-stack extra over the Gillespie batch: at ``workers=1``
    the inline replications record into the same profiler, so the deep
    pipeline phases (detect/analyze/heal/…) appear nested under
    ``batch.worker``.  Pooled replications run unprofiled — a profiler
    cannot cross the process boundary.
    """
    _validate(replications, workers, horizon)
    seeds = spawn_seeds(seed, replications)
    record_paths: List[Optional[str]] = [None] * replications
    if record_dir is not None:
        os.makedirs(record_dir, exist_ok=True)
        record_paths = [
            os.path.join(record_dir, f"rep-{i:04d}.jsonl")
            for i in range(replications)
        ]
    t0 = time.perf_counter()  # lint: allow[DET001] host benchmark timing, not simulated time
    outcomes = _fan_out(
        _timed_fullstack,
        [(config, horizon, s, p, health, loss_objective)
         for s, p in zip(seeds, record_paths)],
        workers,
    )
    elapsed = time.perf_counter() - t0  # lint: allow[DET001] host benchmark timing, not simulated time
    batch = FullStackBatchResult(
        results=[r for r, _ in outcomes],
        seeds=seeds,
        horizon=horizon,
        workers=workers,
        wall_times=[w for _, w in outcomes],
        elapsed=elapsed,
    )
    _account_fan_out(batch)
    return batch
