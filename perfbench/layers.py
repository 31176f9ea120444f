"""Which public callables the traced run wraps, and the per-layer
metrics computed from their spans.

Layers are named by module.  Every metric is reported on every
workload; a layer a workload does not reach reads zero there.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from tracer import SpanStats, Tracer

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str]] = [
    ("workflow.attacked_runs", "count"),
    ("workflow.run_s", "s"),
    ("core.analyze.calls", "count"),
    ("core.analyze.s", "s"),
    ("core.analyze.ms.p50", "ms"),
    ("core.analyze.ms.p99", "ms"),
    ("core.closure.builds", "count"),
    ("core.closure.builds_per_alert", "ratio"),
    ("core.closure.s", "s"),
    ("core.plan.s", "s"),
    ("core.analyze.log_records", "records"),
    ("core.heal.calls", "count"),
    ("core.heal.s", "s"),
    ("core.heal.ms.p50", "ms"),
    ("core.heal.ms.p99", "ms"),
    ("core.heal.undone", "count"),
    ("core.heal.redone", "count"),
    ("core.audit.calls", "count"),
    ("core.audit.s", "s"),
    ("core.audit.history_steps", "steps"),
    ("system.scan_step.s", "s"),
    ("system.recovery_step.s", "s"),
    ("system.schedule_publish.s", "s"),
    ("obs.events_published", "count"),
    ("obs.publish.s", "s"),
    ("obs.publish.share", "ratio"),
    ("fleet.rounds", "count"),
    ("fleet.ingest.s", "s"),
    ("fleet.process.s", "s"),
    ("fleet.sweep.s", "s"),
    ("fleet.pool.map.s", "s"),
    ("fleet.pool.busy_ratio", "ratio"),
    ("fleet.serial_speedup", "ratio"),
    ("fleet.grants", "count"),
    ("fleet.central_deferrals", "count"),
    ("fleet.setup_ms_per_tenant", "ms"),
    ("fleet.rss_kb_per_tenant", "KB"),
    ("fleet.self_s", "s"),
    ("fleet.tick_ms.p50", "ms"),
    ("fleet.tick_ms.p90", "ms"),
    ("sim.fullstack.self_s", "s"),
    ("sim.gillespie.jumps", "count"),
    ("sim.gillespie.jumps_per_busy_s", "1/s"),
    ("sim.batch.elapsed_s", "s"),
    ("sim.batch.worker_busy_s", "s"),
    ("sim.batch.fan_out_s", "s"),
    ("sim.batch.serial_speedup", "ratio"),
    ("markov.steady_state.calls", "count"),
    ("markov.steady_state.s", "s"),
    ("markov.transient.calls", "count"),
    ("markov.transient.s", "s"),
    ("markov.ctmc_build.s", "s"),
    ("markov.states_solved", "count"),
    ("markov.setup_s", "s"),
    ("ids.alerts_accepted", "count"),
    ("ids.alerts_lost", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.coverage", "ratio"),
]

#: Span name → the layer its self time is charged to in the breakdown.
LAYER_OF = {
    "workflow.run": "workflow",
    "core.analyze": "core.plan",
    "core.closure.build": "core.closure",
    "core.closure.undo": "core.closure",
    "core.closure.redo": "core.closure",
    "core.heal": "core.heal",
    "core.audit": "core.audit",
    "system.scan_step": "system",
    "system.recovery_step": "system",
    "obs.publish": "obs",
    "fleet.construct": "fleet",
    "fleet.run": "fleet",
    "fleet.tick": "fleet",
    "fleet.ingest": "fleet",
    "fleet.process": "fleet",
    "fleet.sweep": "fleet",
    "fleet.pool.map": "fleet",
    "sim.fullstack": "sim",
    "sim.batch": "sim",
    "markov.steady_state": "markov",
    "markov.transient": "markov",
    "markov.ctmc_build": "markov",
}


def _states(result: Any, args: tuple, kwargs: dict) -> Dict[str, float]:
    chain = args[0] if args else kwargs["chain"]
    size = getattr(chain, "n_states", None)
    return {"states": size if size is not None else len(chain)}


def instrument(tracer: Tracer) -> List[Any]:
    """Wrap every traced callable; returns the patched classes (the
    self-test checks that none keeps a wrapper after restore)."""
    import repro.core.analyzer as analyzer_mod
    import repro.markov as markov
    import repro.sim.batch as batch
    import repro.sim.fullstack as fullstack
    from repro.core.analyzer import RecoveryAnalyzer
    from repro.core.epochs import EpochManager
    from repro.core.healer import Healer
    from repro.fleet.control import FleetControlPlane
    from repro.fleet.pool import WorkerPool
    from repro.fleet.shard import TenantShard
    from repro.obs.events import EventBus
    from repro.system import SelfHealingSystem

    tracer.wrap_method(EpochManager, "run_workflow_attacked", "workflow.run")
    tracer.wrap_method(
        RecoveryAnalyzer, "analyze", "core.analyze",
        lambda r, a, k: {"log_records": a[0].analysis_cost(1)})
    # The closure is looked up in the analyzer's own namespace, so only
    # the analyzer's calls count (the healer has its own bindings).
    tracer.wrap_attr(analyzer_mod, "DependencyAnalyzer", "core.closure.build")
    tracer.wrap_attr(analyzer_mod, "find_undo_tasks", "core.closure.undo")
    tracer.wrap_attr(analyzer_mod, "find_redo_tasks", "core.closure.redo")
    tracer.wrap_method(
        Healer, "heal", "core.heal",
        lambda r, a, k: {"undone": len(r.undone), "redone": len(r.redone)})
    tracer.wrap_method(
        EpochManager, "audit", "core.audit",
        lambda r, a, k: {"history_steps": len(a[0].combined_history)})
    tracer.wrap_method(SelfHealingSystem, "scan_step", "system.scan_step")
    tracer.wrap_method(SelfHealingSystem, "recovery_step",
                       "system.recovery_step")
    tracer.wrap_method(EventBus, "publish", "obs.publish")
    tracer.wrap_method(FleetControlPlane, "__init__", "fleet.construct")
    tracer.wrap_method(FleetControlPlane, "run", "fleet.run")
    tracer.wrap_method(FleetControlPlane, "run_tick", "fleet.tick")
    tracer.wrap_method(TenantShard, "ingest", "fleet.ingest")
    tracer.wrap_method(
        TenantShard, "process", "fleet.process",
        lambda r, a, k: {"granted": a[1] if len(a) > 1 else k["granted"]})
    tracer.wrap_method(TenantShard, "sweep", "fleet.sweep")
    tracer.wrap_method(WorkerPool, "map", "fleet.pool.map",
                       lambda r, a, k: {"workers": a[0].workers})
    tracer.wrap_function(fullstack.run_replication, "sim.fullstack")
    tracer.wrap_function(
        batch.run_gillespie_batch, "sim.batch",
        lambda r, a, k: {"jumps": r.jumps, "busy": sum(r.wall_times),
                         "elapsed": r.elapsed,
                         "fan_out": r.fan_out_overhead})
    tracer.wrap_function(markov.steady_state, "markov.steady_state", _states)
    tracer.wrap_function(markov.transient_probabilities, "markov.transient")
    tracer.wrap_function(markov.cumulative_times, "markov.transient")
    tracer.wrap_method(markov.RecoverySTG, "ctmc", "markov.ctmc_build")
    return [EpochManager, RecoveryAnalyzer, Healer, SelfHealingSystem,
            EventBus, FleetControlPlane, TenantShard, WorkerPool,
            markov.RecoverySTG]


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (nearest rank above) of ``values``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, -(-q * len(ordered) // 100) - 1))
    return ordered[rank]


def busy_time(stats: Dict[str, SpanStats]) -> float:
    """Summed self time of the program's spans on every thread, less the
    main thread's wait inside ``WorkerPool.map`` while pool threads run
    the shards: the time some thread spent working in a layer."""
    pool = stats.get("fleet.pool.map", SpanStats())
    return sum(stats[name].self_time for name in stats
               if name in LAYER_OF) - pool.self_time


def layer_metrics(stats: Dict[str, SpanStats],
                  extras: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric from the traced run's spans, plus the
    values the workload measured outside the spans (``extras``)."""
    empty = SpanStats()
    working = busy_time(stats)

    def get(name: str) -> SpanStats:
        return stats.get(name, empty)

    analyze, heal, audit = get("core.analyze"), get("core.heal"), \
        get("core.audit")
    closure = [get(n) for n in ("core.closure.build", "core.closure.undo",
                                "core.closure.redo")]
    process, sweep, pool = get("fleet.process"), get("fleet.sweep"), \
        get("fleet.pool.map")
    publish, gillespie = get("obs.publish"), get("sim.batch")
    steady, transient = get("markov.steady_state"), get("markov.transient")
    workers = pool.counters.get("workers", 0.0) / max(pool.calls, 1)
    worker_busy = gillespie.counters.get("busy", 0.0)
    m = {
        "workflow.attacked_runs": get("workflow.run").calls,
        "workflow.run_s": get("workflow.run").total,
        "core.analyze.calls": analyze.calls,
        "core.analyze.s": analyze.total,
        "core.analyze.ms.p50": 1e3 * percentile(analyze.durations, 50),
        "core.analyze.ms.p99": 1e3 * percentile(analyze.durations, 99),
        "core.closure.builds": closure[0].calls,
        "core.closure.builds_per_alert":
            closure[0].calls / analyze.calls if analyze.calls else 0.0,
        "core.closure.s": sum(s.total for s in closure),
        "core.plan.s": analyze.self_time,
        "core.analyze.log_records":
            analyze.counters.get("log_records", 0.0) / analyze.calls
            if analyze.calls else 0.0,
        "core.heal.calls": heal.calls,
        "core.heal.s": heal.total,
        "core.heal.ms.p50": 1e3 * percentile(heal.durations, 50),
        "core.heal.ms.p99": 1e3 * percentile(heal.durations, 99),
        "core.heal.undone": heal.counters.get("undone", 0.0),
        "core.heal.redone": heal.counters.get("redone", 0.0),
        "core.audit.calls": audit.calls,
        "core.audit.s": audit.total,
        "core.audit.history_steps": audit.counters.get("history_steps", 0.0),
        "system.scan_step.s": get("system.scan_step").total,
        "system.recovery_step.s": get("system.recovery_step").total,
        "system.schedule_publish.s": get("system.recovery_step").self_time,
        "obs.events_published": publish.calls,
        "obs.publish.s": publish.total,
        "obs.publish.share": publish.total / working if working else 0.0,
        "fleet.rounds": get("fleet.tick").calls,
        "fleet.ingest.s": get("fleet.ingest").total,
        "fleet.process.s": process.total,
        "fleet.sweep.s": sweep.total,
        "fleet.pool.map.s": pool.total,
        "fleet.pool.busy_ratio":
            (process.total + sweep.total) / (pool.total * workers)
            if pool.total and workers else 0.0,
        "fleet.grants": process.counters.get("granted", 0.0),
        "fleet.self_s": sum(get(n).self_time for n in (
            "fleet.construct", "fleet.run", "fleet.tick", "fleet.ingest",
            "fleet.process", "fleet.sweep")),
        "sim.fullstack.self_s": get("sim.fullstack").self_time,
        "sim.gillespie.jumps": gillespie.counters.get("jumps", 0.0),
        "sim.gillespie.jumps_per_busy_s":
            gillespie.counters.get("jumps", 0.0) / worker_busy
            if worker_busy else 0.0,
        "sim.batch.elapsed_s": gillespie.counters.get("elapsed", 0.0),
        "sim.batch.worker_busy_s": worker_busy,
        "sim.batch.fan_out_s": gillespie.counters.get("fan_out", 0.0),
        "markov.steady_state.calls": steady.calls,
        "markov.steady_state.s": steady.total,
        "markov.transient.calls": transient.calls,
        "markov.transient.s": transient.total,
        "markov.ctmc_build.s": get("markov.ctmc_build").total,
        "markov.states_solved": steady.counters.get("states", 0.0),
    }
    for name, _ in PER_LAYER:
        m.setdefault(name, extras.get(name, 0.0))
    return {name: float(m[name]) for name, _ in PER_LAYER}


def layer_shares(stats: Dict[str, SpanStats]) -> Dict[str, float]:
    """Self time of each layer as a share of :func:`busy_time`; with
    one thread that is the traced wall."""
    busy = busy_time(stats)
    shares: Dict[str, float] = {}
    for name, stat in stats.items():
        layer = LAYER_OF.get(name)
        if layer is not None and name != "fleet.pool.map" and busy:
            shares[layer] = shares.get(layer, 0.0) + stat.self_time / busy
    return {k: round(v, 4) for k, v in sorted(shares.items())}
