"""The benchmark's four workloads.

Each workload is a batch job over a seeded attack campaign.  Attack
arrivals are an open loop in *simulated* time (a Poisson schedule that
does not depend on the program's progress), so wall-clock results are
work done per second at the stated input size.  A workload runs in
*units* — one seeded replication, one fleet run, one pass over the model
grid — and every unit's outputs are checked after its timed call.

The program is reached only through its public entry points, looked up
on their modules at call time so the traced run's wrappers see every
call: ``repro.sim.fullstack.run_replication``,
``repro.fleet.FleetControlPlane`` and the ``repro.markov`` /
``repro.sim.batch`` functions.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import os
import random
import resource
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

import speed


def nproc() -> int:
    return os.cpu_count() or 1


def unit_seed(workload: str, seed: int, index: int) -> int:
    """Seed of a workload's ``index``-th unit under the run seed."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def peak_rss_kb() -> int:
    """The process's peak resident set size so far (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass
class Unit:
    """One unit's timed outputs and its correctness verdict.

    ``wall`` is the timed program call (set-up excluded) corrected to
    the nominal machine speed (see :mod:`speed`) and ``raw_wall`` the
    same call as the clock read it; ``ops`` the operations it completed
    (healed alerts or model points), ``rounds`` the corrected wall time
    of each round inside it.  ``attempted``/``failed`` are
    operations checked and operations that failed a check; ``record`` is
    the JSON-able outcome that feeds the run's correctness digest.
    """

    seed: int
    wall: float = 0.0
    raw_wall: float = 0.0
    ops: int = 0
    rounds: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    record: List[Any] = field(default_factory=list)
    extras: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    raw: Any = None


# -- fullstack ----------------------------------------------------------------


def reference_queue(arrival_rate: float, scan_time: float,
                    unit_recovery_time: float, alert_buffer: int,
                    recovery_buffer: int, horizon: float,
                    seed: int) -> Tuple[int, int, int]:
    """``(attacks, alerts_lost, heals)`` of a full-stack run, from the
    operating rules alone.

    An independent re-statement of the simulator's queueing discipline
    (scan priority, analyzer blocked by a full recovery queue, no
    scan/recovery overlap, repairs commit at quiescence, a final sweep)
    without any workflow, analyzer or healer.  The attack schedule is
    the same ``random.Random(seed)`` exponential stream.
    """
    rng = random.Random(seed)
    heap: List[Tuple[float, int, str]] = []
    order = itertools.count()
    alerts = units = executed = backlog = 0
    attacks = lost = heals = 0
    scanning = recovering = False

    def schedule(now: float, delay: float, kind: str) -> None:
        heapq.heappush(heap, (now + delay, next(order), kind))

    def commit() -> None:
        nonlocal executed, backlog, heals
        if executed + backlog:
            executed = backlog = 0
            heals += 1

    def dispatch(now: float) -> None:
        nonlocal scanning, recovering
        if scanning or recovering:
            return
        blocked = units >= recovery_buffer
        if alerts and not blocked:
            scanning = True
            schedule(now, scan_time * (1 + units), "scan")
        elif units and (not alerts or blocked):
            recovering = True
            schedule(now, unit_recovery_time * units, "recovery")
        elif not alerts and not units:
            commit()

    if arrival_rate > 0:
        schedule(0.0, rng.expovariate(arrival_rate), "attack")
    while heap and heap[0][0] <= horizon:
        now, _, kind = heapq.heappop(heap)
        if kind == "attack":
            attacks += 1
            if alerts >= alert_buffer:
                lost += 1
                backlog += 1
            else:
                alerts += 1
            schedule(now, rng.expovariate(arrival_rate), "attack")
        elif kind == "scan":
            scanning = False
            alerts -= 1
            units += 1
        else:
            recovering = False
            executed += units
            units = 0
        dispatch(now)
    executed += alerts + units
    commit()
    return attacks, lost, heals


class FullStackWorkload:
    """Seeded replications of the full-stack simulation.

    One unit is one ``run_replication`` call; its round is the whole
    call.  An operation is an attack: the healed ones (alert accepted,
    analysed, healed and audited) are the throughput, and all of a
    replication's attacks fail if any of its checks fails.
    """

    op = "healed alert"

    def __init__(self, name: str, why: str, nominal_unit_s: float,
                 arrival_rate: float, horizon: float,
                 buffer: int = 8) -> None:
        self.name = name
        self.why = why
        self.nominal_unit_s = nominal_unit_s
        self.arrival_rate = arrival_rate
        self.horizon = horizon
        self.buffer = buffer
        self.config: Any = None

    def params(self) -> Dict[str, Any]:
        return {"arrival_rate": self.arrival_rate, "horizon": self.horizon,
                "alert_buffer": self.buffer, "recovery_buffer": self.buffer}

    def setup(self) -> None:
        from repro.sim import fullstack

        self.config = fullstack.FullStackConfig(
            arrival_rate=self.arrival_rate,
            alert_buffer=self.buffer, recovery_buffer=self.buffer)
        # One short replication pays the pipeline's lazy imports.
        fullstack.run_replication(self.config, 2.0, 0)

    def run(self, seed: int, meter: speed.Speedometer) -> Unit:
        from repro.sim import fullstack

        before = meter.reading()
        t0 = time.perf_counter()
        result = fullstack.run_replication(self.config, self.horizon, seed)
        raw = time.perf_counter() - t0
        wall = raw * speed.factor(before, meter.reading())
        return Unit(seed=seed, wall=wall, raw_wall=raw, rounds=[wall],
                    ops=result.attacks - result.alerts_lost, raw=result)

    def check(self, unit: Unit, serial: bool = False) -> None:
        result, cfg = unit.raw, self.config
        reference = reference_queue(
            cfg.arrival_rate, cfg.scan_time, cfg.unit_recovery_time,
            cfg.alert_buffer, cfg.recovery_buffer, self.horizon, unit.seed)
        outcome = (result.attacks, result.alerts_lost, result.heals)
        ok = (result.all_heals_audited_ok
              and result.repaired_instances >= result.attacks
              and outcome == reference)
        unit.attempted = max(result.attacks, 1)
        unit.failed = 0 if ok else unit.attempted
        if not ok:
            unit.problems.append(
                f"seed {unit.seed}: (attacks, lost, heals) {outcome} vs "
                f"reference {reference}, audited "
                f"{result.all_heals_audited_ok}, repaired "
                f"{result.repaired_instances}")
        unit.record = [unit.seed, *outcome, result.repaired_instances,
                       result.all_heals_audited_ok]
        unit.extras.update({"ids.alerts_accepted": outcome[0] - outcome[1],
                            "ids.alerts_lost": outcome[1]})
        unit.raw = None


# -- fleet --------------------------------------------------------------------


class FleetWorkload:
    """Multi-tenant fleet runs through ``FleetControlPlane``.

    One unit is one fleet run at ``workers = nproc``; its rounds are the
    ``run_tick`` calls, each timed around that one public call.  An
    operation is a tenant: it fails when its verdict, detect→heal
    latencies or counts differ from a ``workers = 1`` run of the same
    seed, or when its end-to-end audit fails.
    """

    op = "healed alert"

    def __init__(self, name: str, why: str, nominal_unit_s: float,
                 tenants: int, duration: float, tick: float) -> None:
        self.name = name
        self.why = why
        self.nominal_unit_s = nominal_unit_s
        self.tenants = tenants
        self.duration = duration
        self.tick = tick
        self.workers = nproc()
        self.rss_kb_per_tenant = 0.0
        self._references: Dict[int, Any] = {}

    def params(self) -> Dict[str, Any]:
        return {"tenants": self.tenants, "duration": self.duration,
                "tick": self.tick, "workers": self.workers,
                "mix": ["figure1", "banking", "travel", "supply"]}

    def _config(self, seed: int, workers: int) -> Any:
        from repro.fleet.control import FleetConfig

        return FleetConfig(tenants=self.tenants, duration=self.duration,
                           tick=self.tick, workers=workers, seed=seed)

    def setup(self) -> None:
        import repro.fleet as fleet

        # The first construction fills the per-profile CTMC prediction
        # cache.  Nothing has been freed yet, so the growth of the peak
        # resident set is the fleet's footprint.
        before = peak_rss_kb()
        plane = fleet.FleetControlPlane(self._config(0, self.workers))
        self.rss_kb_per_tenant = (peak_rss_kb() - before) / self.tenants
        del plane

    def run(self, seed: int, meter: speed.Speedometer) -> Unit:
        import repro.fleet as fleet

        ticks: List[float] = []
        readings: List[float] = []

        class TickTimedFleet(fleet.FleetControlPlane):
            def run_tick(self, pool):
                readings.append(meter.reading())
                t0 = time.perf_counter()
                super().run_tick(pool)
                ticks.append(time.perf_counter() - t0)

        t0 = time.perf_counter()
        plane = TickTimedFleet(self._config(seed, self.workers))
        construct = time.perf_counter() - t0
        spent, t0 = meter.spent, time.perf_counter()
        report = plane.run()
        raw = time.perf_counter() - t0 - (meter.spent - spent)
        readings.append(meter.reading())
        rounds = speed.correct(ticks, readings)
        # The drain and sweep after the last tick share its correction.
        rest = (raw - sum(ticks)) * speed.factor(readings[-2], readings[-1])
        healed = sum(len(t.latencies) for t in report.health.tenants)
        return Unit(seed=seed, raw_wall=raw, ops=healed,
                    wall=sum(rounds) + rest, rounds=rounds,
                    extras={"construct_s": construct}, raw=report)

    @staticmethod
    def _signature(report: Any) -> Tuple[Dict[str, Any], Tuple[int, ...]]:
        tenants = {
            t.tenant: (t.verdict.value, t.latencies, t.attacks, t.heals,
                       t.audits_ok)
            for t in report.health.tenants
        }
        counts = (report.ticks, report.attacks, report.alerts_accepted,
                  report.alerts_lost, report.scans, report.heals,
                  report.central_deferrals)
        return tenants, counts

    def check(self, unit: Unit, serial: bool = False) -> None:
        """Compares the unit with a ``workers = 1`` run of its seed.  A
        seed already checked in this process (the traced run repeats the
        untraced run's seeds) reuses that reference, so the traced
        outputs must match it too."""
        import repro.fleet as fleet

        if unit.seed not in self._references:
            plane = fleet.FleetControlPlane(self._config(unit.seed, 1))
            t0 = time.perf_counter()
            reference = plane.run()
            unit.extras["serial_wall"] = time.perf_counter() - t0
            self._references[unit.seed] = self._signature(reference)
        got, got_counts = self._signature(unit.raw)
        want, want_counts = self._references[unit.seed]
        failed = sum(1 for tenant, sig in got.items()
                     if sig != want.get(tenant) or not sig[4])
        if got_counts != want_counts or set(got) != set(want):
            failed = len(got)
        if failed:
            unit.problems.append(
                f"seed {unit.seed}: {failed} tenant(s) differ from workers=1 "
                f"or failed their audit; counts {got_counts} vs "
                f"{want_counts}")
        unit.attempted = len(got)
        unit.failed = failed
        unit.record = [unit.seed, *got_counts,
                       sum(len(sig[1]) for sig in got.values())]
        report = unit.raw
        unit.extras.update({
            "ids.alerts_accepted": report.alerts_accepted,
            "ids.alerts_lost": report.alerts_lost,
            "fleet.central_deferrals": report.central_deferrals,
        })
        unit.raw = None


# -- model --------------------------------------------------------------------


#: Band, in standard errors of the replication mean, within which the
#: Gillespie loss must fall around the CTMC's exact horizon-averaged
#: loss.  Six keeps false alarms negligible over many runs, while a wrong
#: rate still moves the loss by many standard errors.
GILLESPIE_BAND = 6.0

#: Times of the transient curve, from NORMAL (the paper's Figure 6 range).
TRANSIENT_TIMES = (0.5, 1.0, 2.0, 4.0)


class ModelWorkload:
    """A grid of (λ, buffer) points through the analytic model.

    One unit is one pass over the grid; a round is one point.  Each
    point solves the STG's steady state (dense and sparse), a transient
    curve and the expected loss time over the horizon, then cross-checks
    them with a Gillespie batch at ``workers = nproc``.  An operation is
    a point.
    """

    op = "model point"

    def __init__(self, name: str, why: str, nominal_unit_s: float,
                 rates: Tuple[float, ...], buffers: Tuple[int, ...],
                 horizon: float, replications: int) -> None:
        self.name = name
        self.why = why
        self.nominal_unit_s = nominal_unit_s
        self.rates = rates
        self.buffers = buffers
        self.horizon = horizon
        self.replications = replications
        self.workers = nproc()

    def params(self) -> Dict[str, Any]:
        return {"rates": list(self.rates), "buffers": list(self.buffers),
                "horizon": self.horizon, "replications": self.replications,
                "workers": self.workers, "mu1": 15.0, "xi1": 20.0}

    def setup(self) -> None:
        # A toy point pays the solvers' and the process pool's lazy
        # imports.
        self._point(1.0, 2, 10.0, 0, workers=1)

    def _point(self, rate: float, buffer: int, horizon: float, seed: int,
               workers: int) -> Dict[str, Any]:
        import repro.markov as markov
        import repro.sim.batch as batch

        stg = markov.RecoverySTG.paper_default(arrival_rate=rate,
                                               buffer_size=buffer)
        chain = stg.ctmc()
        dense = markov.steady_state(chain, backend="dense")
        sparse = markov.steady_state(chain, backend="sparse")
        pi0 = stg.initial_distribution()
        curve = [markov.transient_probabilities(chain, pi0, t)
                 for t in TRANSIENT_TIMES]
        cumulative = markov.cumulative_times(chain, pi0, horizon)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", batch.ParallelSlowdownWarning)
            sims = batch.run_gillespie_batch(
                stg, horizon, self.replications, workers=workers, seed=seed)
        return {"stg": stg, "dense": dense, "sparse": sparse,
                "curve": curve, "cumulative": cumulative, "sims": sims}

    def _points(self) -> List[Tuple[float, int]]:
        return [(r, b) for r in self.rates for b in self.buffers]

    def run(self, seed: int, meter: speed.Speedometer) -> Unit:
        raws, outputs, readings = [], [], [meter.reading()]
        for index, (rate, buffer) in enumerate(self._points()):
            point_seed = unit_seed(self.name, seed, index)
            t0 = time.perf_counter()
            out = self._point(rate, buffer, self.horizon, point_seed,
                              self.workers)
            raws.append(time.perf_counter() - t0)
            readings.append(meter.reading())
            out["seed"] = point_seed
            outputs.append(out)
        rounds = speed.correct(raws, readings)
        return Unit(seed=seed, wall=sum(rounds), raw_wall=sum(raws),
                    rounds=rounds, ops=len(outputs), raw=outputs)

    def check(self, unit: Unit, serial: bool = False) -> None:
        """Checks every point; with ``serial`` also re-runs each point's
        Gillespie batch at ``workers = 1``, which must give identical
        results and whose wall time is the measured serial baseline."""
        import numpy as np

        import repro.markov as markov
        import repro.sim.batch as batch

        failed, serial_wall, parallel_wall = 0, 0.0, 0.0
        accepted = lost = 0
        record = [unit.seed]
        for (rate, buffer), out in zip(self._points(), unit.raw):
            stg, sims = out["stg"], out["sims"]
            loss_idx = [stg.ctmc().index_of(s) for s in stg.loss_states()]
            expected = float(out["cumulative"][loss_idx].sum()) / self.horizon
            wrong = []
            if np.abs(out["dense"] - out["sparse"]).max() > 1e-8:
                wrong.append("dense and sparse steady states differ")
            if any(abs(pi.sum() - 1.0) > 1e-8 or pi.min() < -1e-12
                   for pi in out["curve"]):
                wrong.append("a transient point is not a distribution")
            if abs(out["cumulative"].sum() - self.horizon) \
                    > 1e-6 * self.horizon:
                wrong.append("cumulative times do not add up to the horizon")
            band = GILLESPIE_BAND * sims.loss_time_stderr
            if abs(sims.loss_time_fraction - expected) > band:
                wrong.append(
                    f"gillespie loss {sims.loss_time_fraction:.5f} +- "
                    f"{sims.loss_time_stderr:.5f} vs ctmc {expected:.5f}")
            if serial:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore",
                                          batch.ParallelSlowdownWarning)
                    alone = batch.run_gillespie_batch(
                        stg, self.horizon, self.replications, workers=1,
                        seed=out["seed"])
                serial_wall += alone.elapsed
                parallel_wall += sims.elapsed
                if (alone.loss_time_fraction, alone.jumps) != \
                        (sims.loss_time_fraction, sims.jumps):
                    wrong.append("workers=1 batch differs")
            if wrong:
                failed += 1
                unit.problems.append(
                    f"point ({rate}, {buffer}) seed {out['seed']}: "
                    + "; ".join(wrong))
            accepted += sims.arrivals - sims.arrivals_lost
            lost += sims.arrivals_lost
            record.append([rate, buffer, sims.arrivals, sims.arrivals_lost,
                           sims.jumps,
                           round(markov.loss_probability(stg, out["sparse"]),
                                 12)])
        unit.attempted = len(unit.raw)
        unit.failed = failed
        unit.record = record
        unit.extras.update({"ids.alerts_accepted": accepted,
                            "ids.alerts_lost": lost})
        if serial:
            unit.extras.update({"serial_wall": serial_wall,
                                "parallel_wall": parallel_wall})
        unit.raw = None


def workloads() -> Dict[str, Any]:
    """The benchmark's workloads by name, at their defined sizes.  A
    nominal unit time is the wall time of one unit and its check,
    measured on a 2-CPU x86-64 VM; the fleet's check re-runs the unit
    at workers = 1, so it costs twice the unit."""
    return {w.name: w for w in [
        FullStackWorkload(
            "fullstack-light",
            "lambda=1 over a long horizon: hundreds of epochs, so the "
            "end-to-end audit of the growing history dominates",
            nominal_unit_s=0.9, arrival_rate=1.0, horizon=300.0),
        FullStackWorkload(
            "fullstack-overload",
            "lambda=8: the run never quiesces and one epoch log grows all "
            "run, so damage analysis (closure and plan) dominates",
            nominal_unit_s=0.8, arrival_rate=8.0, horizon=20.0),
        FleetWorkload(
            "fleet",
            "250 tenants on nproc workers: the only workload through the "
            "event bus, health monitors, SelfHealingSystem and the pool",
            nominal_unit_s=10.0, tenants=250, duration=50.0, tick=0.5),
        ModelWorkload(
            "model",
            "(lambda, buffer) grid through the CTMC solvers and a Gillespie "
            "process pool; bypasses workflow, core, fleet and obs",
            nominal_unit_s=6.5, rates=(2.0, 3.0, 4.0), buffers=(5, 10, 15),
            horizon=1000.0, replications=32),
    ]}


def toy_workloads() -> Dict[str, Any]:
    """The same workloads at toy size (the self-tests' quick mode)."""
    return {w.name: w for w in [
        FullStackWorkload("fullstack-light", "toy", 0.05, 1.0,
                          horizon=20.0),
        FullStackWorkload("fullstack-overload", "toy", 0.05, 8.0,
                          horizon=3.0),
        FleetWorkload("fleet", "toy", 0.05, tenants=8, duration=4.0,
                      tick=0.5),
        ModelWorkload("model", "toy", 0.1, rates=(4.0,), buffers=(3,),
                      horizon=50.0, replications=16),
    ]}
