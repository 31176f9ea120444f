"""Profiling-layer benchmark: latency attribution quality and cost.

Emits ``BENCH_profile.json``: one profiled run per scenario of the
:mod:`repro.obs.perf` attribution layer, reporting per row

- **attribution** — the fraction of the profiled wall interval covered
  by top-level phases (the acceptance quantity: ≥95 % on the fullstack
  and fleet scenarios, recorded as ``attribution_floor``);
- **structure determinism** — each scenario runs twice and must produce
  the identical structure digest (phase paths, ordering, call counts,
  sim totals, counters — everything but the wall times);
- **named line items** — the measured cost drivers the paper's scaling
  embarrassments hide behind: dependency index builds per alert and
  per heal (ROADMAP items 1 and 7; one per heal, built by the heal),
  the wall time of the batch
  heal's closure (its Phase A, ``heal.undo``), the Theorem 3 orders
  that an unobserved run builds (none), the Theorem 1 computations per
  heal (one: a scan decides nothing), and, on a second fullstack row
  whose run an event bus records, the order phase's wall time and
  calls, the orders per heal and the Theorem 1 computations per heal
  (one each: the heal decides and orders its batch), and the parallel
  batch's fan-out overhead (ROADMAP item 3, the <1 speedup), as real
  numbers, not prose;
- **store names touched per heal** — λ=1 fullstack runs at a short and
  a long horizon count the store objects that heals (reconcile, the
  epoch's baseline roll) and audits (the judge) visit, through the
  ``store_names_touched`` counter.  A heal and its audit should touch
  only the names written since the last one, so the per-heal count must
  not grow with the horizon (ROADMAP item 1);
- **the conformance monitor on its own** — one seeded fullstack run is
  recorded off a bus and the Definition 2 LTLf pack replays it twice
  (:func:`repro.obs.monitor.replay_conformance`): events, monitor wall
  time, events per second and violations (an honest run has none).

Run as a script::

    PYTHONPATH=src python benchmarks/bench_profile.py           # full
    PYTHONPATH=src python benchmarks/bench_profile.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/bench_profile.py --out-dir benchmarks/results

``benchmarks/check_regression.py`` gates the output: attribution
floors, digest stability, the presence of the closure, order-phase and
fan-out line items, a closure rebuild rate of at most 0.1 per alert
and of exactly one per heal, no order built on an unobserved run, at most one Theorem 1 computation
per heal on either fullstack row, at least one observed heal order
phase and at most one order per heal, store names touched per heal
at the long horizon at most 1.5 times the short horizon's, and
a conformance row with zero violations are hard failures; the
wall-time columns are informational
(cross-machine timing comparisons are noise).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import sys
import time
from typing import Dict, List, Optional

from repro.fleet import FleetConfig, FleetControlPlane
from repro.fleet.workload import prediction_for
from repro.obs.events import EventBus, EventRecorder
from repro.obs.health import replay_verdicts
from repro.obs.monitor import replay_conformance
from repro.obs.perf import PhaseProfiler, counter_snapshot, recording
from repro.sim.batch import run_fullstack_batch
from repro.sim.fullstack import FullStackConfig, run_replication

#: Scenario shapes: (fullstack horizon, batch replications/horizon,
#: fleet tenants/duration, the short and long store-scaling horizons,
#: the fleet-observe tenants/duration).  Quick shrinks everything for
#: CI smoke but the fleet-observe row, whose share of a shorter run is
#: too noisy to gate.
FULL = {"horizon": 60.0, "reps": 4, "batch_horizon": 20.0,
        "tenants": 6, "duration": 40.0, "scaling": (75.0, 300.0),
        "observe_tenants": 50, "observe_duration": 50.0}
QUICK = {"horizon": 30.0, "reps": 2, "batch_horizon": 8.0,
         "tenants": 4, "duration": 15.0, "scaling": (20.0, 80.0),
         "observe_tenants": 50, "observe_duration": 50.0}


#: Timed passes of the fleet-observe run and replay (the fastest is
#: kept: one pass of the quick shape lasts under a tenth of a second).
PASSES = 5


def _row_map(report) -> Dict[str, dict]:
    return {r["path"]: r for r in report.rows}


def profile_fullstack(horizon: float, seed: int) -> List[dict]:
    """One instrumented replication, twice (digest stability), first
    unobserved, then with a recording event bus.

    Scans decide nothing and the unobserved heal builds no Theorem 3
    order (``actions_planned`` is 0, one ``undo_analyses`` per heal):
    the batch closure is the heal's ``heal.undo`` phase.  On the
    observed run each heal decides and publishes its batch's Theorem
    1/2 sets (still one ``undo_analyses`` per heal) and builds its
    order, so the order phase is measured on that row."""
    config = FullStackConfig(arrival_rate=6.0, alert_buffer=4,
                             recovery_buffer=4)

    def once(observed):
        bus = None
        if observed:
            bus = EventBus()
            EventRecorder().attach(bus)
        prof = PhaseProfiler().start()
        with recording(prof):
            run_replication(config, horizon=horizon, seed=seed, bus=bus)
        prof.stop()
        return prof.report("fullstack-observed" if observed
                           else "fullstack")

    out: List[dict] = []
    for observed in (False, True):
        first, second = once(observed), once(observed)
        rows = _row_map(first)
        counters = first.counters
        if observed:
            order = rows.get("heal;heal.undo;heal.order", {})
            line_items = {
                # Theorem 3 ordering, built where an observed heal
                # publishes its edges; gated for presence and calls so
                # the order phase stays measured.
                "plan_wall_s": order.get("wall", 0.0),
                "plan_calls": order.get("calls", 0),
                # Orders per heal: 1 when each heal builds the one
                # order of its batch, more when anything else builds
                # orders too; check_regression gates it.
                "orders_per_heal": (
                    order.get("calls", 0)
                    / (rows.get("heal", {}).get("calls", 0) or 1)),
                # Theorem 1 computations per heal: the heal's own
                # decisions, and none by a scan; check_regression
                # requires at most 1.
                "undo_analyses_per_heal": (
                    counters.get("undo_analyses", 0)
                    / (rows.get("heal", {}).get("calls", 0) or 1)),
            }
        else:
            alerts = rows.get("analyze", {}).get("calls", 0) or 1
            heals = rows.get("heal", {}).get("calls", 0) or 1
            closure = counters.get("closure_recomputations", 0)
            line_items = {
                # ROADMAP items 1 and 7: each heal builds the one
                # dependency index it decides on; check_regression
                # gates the per-alert rebuild rate at 0.1 and the
                # per-heal build count at exactly 1.
                "closure_recomputations": closure,
                "closure_recomputations_per_alert": closure / alerts,
                "index_builds_per_heal": closure / heals,
                # The batch closure: the heal's Phase A, the one place
                # an unobserved run decides Theorem 1.
                "closure_wall_s": rows.get(
                    "heal;heal.undo", {}).get("wall", 0.0),
                # Orders built on a run nothing observes:
                # check_regression requires 0.
                "actions_planned": counters.get("actions_planned", 0),
                # Theorem 1 computations per heal: the heal's own, and
                # none by a scan nothing reads; check_regression
                # requires at most 1.
                "undo_analyses_per_heal": (
                    counters.get("undo_analyses", 0) / heals),
            }
        out.append({
            "scenario": first.scenario,
            "params": {"horizon": horizon, "seed": seed,
                       "arrival_rate": 6.0},
            "total_wall_s": first.total_wall,
            "attribution": first.attribution,
            "attribution_floor": None if observed else 0.95,
            "digest": first.structure_digest(),
            "digest_stable": (first.structure_digest()
                              == second.structure_digest()),
            "counters": counters,
            "line_items": line_items,
        })
    return out


def profile_batch(replications: int, horizon: float,
                  seed: int) -> List[dict]:
    """Inline (profiled deep) and pooled (fan-out accounted) batches."""
    out: List[dict] = []
    config = FullStackConfig(arrival_rate=6.0, alert_buffer=4,
                             recovery_buffer=4)
    for workers in (1, 2):
        prof = PhaseProfiler().start()
        with recording(prof):
            batch = run_fullstack_batch(
                config, horizon=horizon, replications=replications,
                workers=workers, seed=seed,
            )
        prof.stop()
        report = prof.report(
            "batch-inline" if workers == 1 else "batch-parallel")
        rows = _row_map(report)
        entry = {
            "scenario": report.scenario,
            "params": {"replications": replications,
                       "horizon": horizon, "workers": workers,
                       "seed": seed},
            "total_wall_s": report.total_wall,
            "attribution": report.attribution,
            "attribution_floor": 0.95 if workers == 1 else None,
            "digest": report.structure_digest(),
            "digest_stable": True,
            "counters": report.counters,
            "line_items": {
                # ROADMAP item 3: wall time the parallel harness adds
                # on top of each worker's fair share of the compute —
                # the measured explanation of the <1 speedup rows.
                "fan_out_overhead_s": batch.fan_out_overhead,
                "speedup": batch.speedup,
                "speedup_lt_1": batch.speedup_lt_1,
                "spawn_wall_s": rows.get(
                    "batch.spawn", {}).get("wall", 0.0),
                "pickle_bytes": report.counters.get("pickle_bytes", 0),
            },
        }
        out.append(entry)
    return out


def profile_fleet(tenants: int, duration: float,
                  seed: int) -> List[dict]:
    """The control plane, profiled after construction (setup solves
    CTMC steady states — that belongs to calibration, not the run)."""

    def once():
        config = FleetConfig(tenants=tenants, duration=duration,
                             seed=seed)
        prof = PhaseProfiler()
        plane = FleetControlPlane(config, profiler=prof)
        prof.start()
        plane.run()
        prof.stop()
        return plane.profile_report()

    first, second = once(), once()
    rows = _row_map(first)
    tenant_roots = {r["path"].split(";")[1] for r in first.rows
                    if r["path"].startswith("workers;")}
    return [{
        "scenario": "fleet",
        "params": {"tenants": tenants, "duration": duration,
                   "seed": seed},
        "total_wall_s": first.total_wall,
        "attribution": first.attribution,
        "attribution_floor": 0.95,
        "digest": first.structure_digest(),
        "digest_stable": (first.structure_digest()
                          == second.structure_digest()),
        "counters": first.counters,
        "line_items": {
            "grants": rows.get("grant", {}).get("calls", 0),
            "central_queue_wait_sim": rows.get(
                "central-queue-wait", {}).get("sim", 0.0),
            "tick_wall_s": rows.get("tick", {}).get("wall", 0.0),
            "tenants_profiled": len(tenant_roots),
        },
    }]


def profile_store_scaling(horizons, seed: int) -> List[dict]:
    """Store names that heals and audits touch, per heal, at a short and
    a long horizon of one λ=1 replication (the store grows by about an
    object per attack, so a walk over the store grows with the
    horizon)."""
    config = FullStackConfig(arrival_rate=1.0, alert_buffer=8,
                             recovery_buffer=8)
    points = []
    t0 = time.perf_counter()
    for horizon in horizons:
        before = counter_snapshot().get("store_names_touched", 0)
        result = run_replication(config, horizon=horizon, seed=seed)
        touched = counter_snapshot().get("store_names_touched", 0) - before
        points.append({
            "horizon": horizon,
            "heals": result.heals,
            "names_touched": touched,
            "names_touched_per_heal": touched / (result.heals or 1),
        })
    short, long = points[0], points[-1]
    return [{
        "scenario": "store-scaling",
        "params": {"horizons": list(horizons), "seed": seed,
                   "arrival_rate": 1.0, "buffer": 8},
        "total_wall_s": time.perf_counter() - t0,
        "attribution": None,
        "attribution_floor": None,
        "digest": None,
        "digest_stable": True,
        "counters": {},
        "line_items": {
            "points": points,
            "short_per_heal": short["names_touched_per_heal"],
            "long_per_heal": long["names_touched_per_heal"],
        },
    }]


def profile_conformance(horizon: float, seed: int) -> List[dict]:
    """The LTLf monitor alone: replay one recorded fullstack run's
    events through a fresh monitor, twice, and keep the faster wall
    (the second replay steps tables the first filled; the two verdict
    streams must agree)."""
    config = FullStackConfig(arrival_rate=6.0, alert_buffer=4,
                             recovery_buffer=4)
    bus = EventBus()
    recorder = EventRecorder().attach(bus)
    run_replication(config, horizon=horizon, seed=seed, bus=bus)
    events = recorder.events

    def once():
        t0 = time.perf_counter()
        monitor = replay_conformance(events)
        return monitor, time.perf_counter() - t0

    (first, wall), (second, again) = once(), once()
    wall = min(wall, again)
    return [{
        "scenario": "conformance",
        "params": {"horizon": horizon, "seed": seed,
                   "arrival_rate": 6.0},
        "total_wall_s": wall,
        "attribution": None,
        "attribution_floor": None,
        "digest": None,
        "digest_stable": first.violations == second.violations,
        "counters": {},
        "line_items": {
            "events": len(events),
            "monitor_wall_s": wall,
            "events_per_s": len(events) / wall if wall > 0 else 0.0,
            "violations": first.violation_count,
        },
    }]


def profile_fleet_observe(tenants: int, duration: float,
                          seed: int) -> List[dict]:
    """What observing costs the fleet: a seeded fleet run records each
    tenant's events off its shard bus, and every tenant's stream is
    replayed through a fresh health monitor (SLO estimators, drift
    detectors and the Definition 2 LTLf pack).  The run and the replay
    each go ``PASSES`` times, and the fastest of each is kept; the
    online verdicts must equal every replay's.

    Line items: events published per healed alert (deterministic), the
    replay's microseconds per event, and the replay wall as a share of
    the run's wall (both walls on this machine, so the share carries
    little of its speed).  The collector runs before each timed pass,
    so no pass pays for the garbage of the one before.
    """
    def run():
        gc.collect()
        plane = FleetControlPlane(FleetConfig(tenants=tenants,
                                              duration=duration, seed=seed))
        recorders = [EventRecorder().attach(shard.bus)
                     for shard in plane.shards]
        t0 = time.perf_counter()
        report = plane.run()
        wall = time.perf_counter() - t0
        streams = [(recorder.events, prediction_for(shard.profile),
                    shard.monitor.emitted)
                   for recorder, shard in zip(recorders, plane.shards)]
        healed = sum(len(t.latencies) for t in report.health.tenants)
        return streams, healed, wall

    def replay(streams):
        gc.collect()
        t0 = time.perf_counter()
        verdicts = [replay_verdicts(stream, prediction, finalize=True)
                    for stream, prediction, _ in streams]
        return verdicts, time.perf_counter() - t0

    # Runs and replays alternate, so both see the machine in one state.
    streams, healed, run_wall = run()
    passes = [replay(streams)]
    for _ in range(PASSES - 1):
        run_wall = min(run_wall, run()[2])
        passes.append(replay(streams))
    wall = min(w for _, w in passes)
    events = sum(len(stream) for stream, _, _ in streams)
    online = [emitted for _, _, emitted in streams]
    return [{
        "scenario": "fleet-observe",
        "params": {"tenants": tenants, "duration": duration,
                   "seed": seed},
        "total_wall_s": run_wall + wall,
        "attribution": None,
        "attribution_floor": None,
        "digest": None,
        "digest_stable": all(verdicts == online for verdicts, _ in passes),
        "counters": {},
        "line_items": {
            "events": events,
            "healed_alerts": healed,
            "events_per_healed_alert": events / healed if healed else 0.0,
            "run_wall_s": run_wall,
            "replay_wall_s": wall,
            "replay_us_per_event": 1e6 * wall / events if events else 0.0,
            "replay_share": wall / run_wall if run_wall > 0 else 0.0,
        },
    }]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Profiling-layer benchmark (JSON output)")
    parser.add_argument("--quick", action="store_true",
                        help="small shapes for CI smoke runs")
    parser.add_argument("--out-dir", type=pathlib.Path,
                        default=pathlib.Path("."),
                        help="directory for BENCH_profile.json "
                             "(default: cwd)")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    shape = QUICK if args.quick else FULL
    t0 = time.perf_counter()
    results: List[dict] = []
    results += profile_fullstack(shape["horizon"], args.seed)
    results += profile_batch(shape["reps"], shape["batch_horizon"],
                             args.seed)
    results += profile_fleet(shape["tenants"], shape["duration"],
                             args.seed)
    results += profile_store_scaling(shape["scaling"], args.seed)
    results += profile_conformance(shape["horizon"], args.seed)
    results += profile_fleet_observe(shape["observe_tenants"],
                                     shape["observe_duration"], args.seed)
    for row in results:
        floor = row["attribution_floor"]
        attribution = (f"attribution {row['attribution']:.3f}"
                       if row["attribution"] is not None
                       else f"{row['line_items']}")
        print(f"  {row['scenario']:<15} {attribution}"
              f"{f' (floor {floor})' if floor else ''} "
              f"digest_stable={row['digest_stable']}")

    doc = {
        "benchmark": "profile",
        "seed": args.seed,
        "results": results,
        "meta": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "quick": args.quick,
            "elapsed_s": time.perf_counter() - t0,
        },
    }
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out = args.out_dir / "BENCH_profile.json"
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")

    bad = [r["scenario"] for r in results
           if (r["attribution_floor"]
               and r["attribution"] < r["attribution_floor"])
           or not r["digest_stable"]]
    if bad:
        print(f"FAIL: attribution/determinism gate tripped: {bad}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
