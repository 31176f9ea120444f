"""Command-line interface.

Exposes the library's main flows without writing code::

    repro-workflow demo figure1          # the paper's worked example
    repro-workflow demo banking          # forged transfer + recovery
    repro-workflow demo travel           # forged card data + recovery
    repro-workflow demo web-app          # session hijack + recovery
    repro-workflow steady --lam 1.0      # Equation 1 for one config
    repro-workflow transient --t 4       # Equations 2–3 over time
    repro-workflow design --lam 1 --epsilon 0.01   # Section VI sizing
    repro-workflow simulate --horizon 5000          # Gillespie run
    repro-workflow obs --scenario figure1           # metrics + trace
    repro-workflow obs record --log run.jsonl       # flight-record a run
    repro-workflow obs replay --log run.jsonl       # deterministic replay
    repro-workflow obs explain 'wf1/t6#1'           # causal chain
    repro-workflow obs trace --out trace.json       # Chrome/Perfetto trace
    repro-workflow fleet --tenants 16 --serve 0     # multi-tenant fleet
    repro-workflow profile --scenario fleet         # latency attribution
    repro-workflow lint spec --all-scenarios        # static spec checks
    repro-workflow lint plan run.jsonl              # verify recovery provenance
    repro-workflow lint code src/repro              # determinism lint
    repro-workflow fuzz --budget 60s     # oracle-checked campaign fuzzing
    repro-workflow fuzz --replay tests/corpus/*.json   # corpus replay
    repro-workflow stg-dot --buffer 3    # Figure 3 as Graphviz DOT

Every command prints plain text tables (see ``--help`` per command).
Domain failures (:class:`~repro.errors.RecoveryError`,
:class:`~repro.errors.SchedulingError`) exit with code
:data:`EXIT_DOMAIN_ERROR` and a one-line message — never a traceback.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.errors import (
    FleetError,
    GenerationError,
    ObsError,
    RecoveryError,
    SchedulingError,
    SimulationError,
    WorkflowSpecError,
)
from repro.report.tables import Table
from repro.scenarios import SCENARIOS

if TYPE_CHECKING:  # the model commands import repro.markov on use
    from repro.markov.stg import RecoverySTG

__all__ = ["main", "build_parser", "EXIT_DOMAIN_ERROR"]

#: Exit code for clean domain failures (recovery/scheduling errors).
EXIT_DOMAIN_ERROR = 3


def _stg_from_args(args) -> RecoverySTG:
    from repro.markov.degradation import power_law
    from repro.markov.stg import RecoverySTG

    return RecoverySTG(
        arrival_rate=args.lam,
        scan=power_law(args.mu1, args.alpha),
        recovery=power_law(args.xi1, args.alpha),
        recovery_buffer=args.buffer,
        alert_buffer=args.alert_buffer,
    )


def _backend_from_args(args):
    backend = getattr(args, "backend", "auto")
    return None if backend == "auto" else backend


def _positive_int(text: str) -> int:
    """argparse type: strictly positive integer (exit code 2 on
    violation, like any other argparse type error)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}"
        )
    return value


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lam", type=float, default=1.0,
                   help="IDS alert arrival rate λ (default 1.0)")
    p.add_argument("--mu1", type=float, default=15.0,
                   help="base alert-processing rate μ₁ (default 15)")
    p.add_argument("--xi1", type=float, default=20.0,
                   help="base recovery-execution rate ξ₁ (default 20)")
    p.add_argument("--alpha", type=float, default=1.0,
                   help="degradation exponent: rate_k = rate₁/k^α "
                        "(default 1.0; 0 = no degradation)")
    p.add_argument("--buffer", type=int, default=15,
                   help="recovery-task buffer size (default 15)")
    p.add_argument("--alert-buffer", type=int, default=None,
                   help="alert buffer size (default: same as --buffer)")
    p.add_argument("--backend", choices=["auto", "dense", "sparse"],
                   default="auto",
                   help="CTMC solver backend (default auto: dense for "
                        "small STGs, sparse for large ones)")


def cmd_demo(args) -> int:
    """Run one of the built-in scenarios end to end."""
    sc = SCENARIOS[args.scenario]()
    if getattr(args, "flight_log", None):
        return _demo_recorded(args.scenario, sc, args.flight_log)
    _print_state(sc, "before heal", sc.summary())
    report = sc.heal_now()
    for line in sc.describe(report):
        print(line)
    _print_state(sc, "after heal", sc.summary())
    print(f"strictly correct: {sc.audit.ok}")
    return 0 if sc.audit.ok else 1


def _print_state(sc, when: str, state: object) -> None:
    """A demo's before/after view of the state the attack touched."""
    if state is not None:
        print(f"{sc.STATE_LABEL}{when:<11}: {state}")


def _demo_recorded(name: str, sc, path: str) -> int:
    """Heal a scenario through the full Figure 2 pipeline
    (:func:`repro.obs.runner.record_incident`) with a flight recorder
    attached, leaving a replayable log whose conformance verdicts can
    be re-derived offline (``obs replay --conformance --log FILE``).
    The log is written once the run is recorded, so a scenario that
    cannot be recorded leaves no file."""
    from repro.obs.recorder import FlightRecorder
    from repro.obs.runner import record_incident

    flight = FlightRecorder(label=name,
                            meta={"conformance_finalized": True})
    before = sc.summary()
    report = record_incident(sc, flight)
    flight.close()
    audit = sc.record_heal(report)
    _print_state(sc, "before heal", before)
    print(report.summary())
    _print_state(sc, "after heal", sc.summary())
    print(f"strictly correct: {audit.ok}")
    text = flight.text()
    if path == "-":
        print(text, end="")
    else:
        with open(path, "w", encoding="utf-8") as out:
            out.write(text)
        records = text.count("\n")
        print(f"{records} flight-log records written to {path}")
    return 0 if audit.ok else 1


def cmd_steady(args) -> int:
    """Steady-state analysis of one configuration (Equation 1)."""
    from repro.markov.metrics import (
        category_probabilities,
        expected_alerts,
        expected_recovery_units,
        loss_probability,
    )
    from repro.markov.steady_state import steady_state
    from repro.markov.stg import StateCategory

    stg = _stg_from_args(args)
    pi = steady_state(stg.ctmc(), backend=_backend_from_args(args))
    cats = category_probabilities(stg, pi)
    table = Table(f"Steady state of {stg!r}", ["metric", "value"])
    for cat in StateCategory:
        table.add_row(f"P({cat.value})", cats[cat])
    table.add_row("loss probability", loss_probability(stg, pi))
    table.add_row("E[alerts queued]", expected_alerts(stg, pi))
    table.add_row("E[recovery units]", expected_recovery_units(stg, pi))
    print(table.render())
    return 0


def cmd_transient(args) -> int:
    """Transient analysis from NORMAL (Equations 2 and 3)."""
    from repro.markov.metrics import (
        category_probabilities,
        expected_lost_alerts,
        loss_probability,
    )
    from repro.markov.stg import StateCategory
    from repro.markov.transient import transient_probabilities

    stg = _stg_from_args(args)
    chain = stg.ctmc()
    pi0 = stg.initial_distribution()
    table = Table(
        f"Transient behaviour of {stg!r} (start: NORMAL)",
        ["t", "P(NORMAL)", "P(SCAN)", "P(RECOVERY)", "loss prob",
         "E[lost alerts]"],
    )
    for t in args.t:
        pi_t = transient_probabilities(
            chain, pi0, t, backend=_backend_from_args(args)
        )
        cats = category_probabilities(stg, pi_t)
        table.add_row(
            t,
            cats[StateCategory.NORMAL],
            cats[StateCategory.SCAN],
            cats[StateCategory.RECOVERY],
            loss_probability(stg, pi_t),
            expected_lost_alerts(stg, t),
        )
    print(table.render())
    return 0


def cmd_design(args) -> int:
    """Section VI: size a system for a target (λ, ε)."""
    from repro.markov.degradation import power_law
    from repro.markov.design import design_system, peak_resilience
    from repro.markov.stg import RecoverySTG

    result = design_system(
        arrival_rate=args.lam,
        epsilon=args.epsilon,
        scan=power_law(args.mu1, args.alpha),
        recovery=power_law(args.xi1, args.alpha),
        max_buffer=args.max_buffer,
    )
    table = Table(
        f"Design sweep for lambda={args.lam}, epsilon={args.epsilon}",
        ["buffer size", "steady-state loss"],
    )
    for n, loss in sorted(result.swept.items()):
        table.add_row(n, loss)
    print(table.render())
    print()
    print(result.summary())
    if result.feasible and args.peak > 0:
        stg = RecoverySTG(
            arrival_rate=args.peak,
            scan=power_law(args.mu1, args.alpha),
            recovery=power_law(args.xi1, args.alpha),
            recovery_buffer=result.buffer_size,
        )
        resist = peak_resilience(stg, epsilon=max(args.epsilon, 0.01),
                                 horizon=30.0, step=0.25)
        print(f"peak rate {args.peak}: withstands ~{resist:g} time units")
    return 0 if result.feasible else 1


def cmd_simulate(args) -> int:
    """Exact Gillespie simulation of the configured STG.

    With ``--replications N`` (N > 1) the run becomes a batch of
    independent seeded replications, fanned out over ``--workers K``
    worker processes (K=1 runs inline, no pool) and merged; the
    printed occupancies are then means over replications and the loss
    probability carries a standard error.

    ``--serve PORT`` (0 for an ephemeral port) rides a health monitor
    on the run and then serves its telemetry over HTTP — ``/metrics``
    (Prometheus), ``/healthz``, ``/slo`` — for ``--serve-for`` seconds.
    ``--slo-loss`` overrides the loss-SLO objective (default: 3x the
    model's predicted loss).
    """
    from repro.markov.metrics import category_probabilities, loss_probability
    from repro.markov.steady_state import steady_state
    from repro.markov.stg import StateCategory

    stg = _stg_from_args(args)
    backend = _backend_from_args(args)
    pi = steady_state(stg.ctmc(), backend=backend)
    cats = category_probabilities(stg, pi)

    if args.serve is not None and args.replications > 1:
        raise SimulationError(
            "--serve monitors a single trajectory; drop --replications "
            "or run them separately"
        )

    if args.replications > 1:
        from repro.sim.batch import run_gillespie_batch

        batch = run_gillespie_batch(
            stg, horizon=args.horizon, replications=args.replications,
            workers=args.workers, seed=args.seed,
        )
        table = Table(
            f"Gillespie batch of {stg!r} (horizon {args.horizon:g}, "
            f"{args.replications} replications, {args.workers} "
            f"worker{'s' if args.workers != 1 else ''}, seed "
            f"{args.seed})",
            ["metric", "analytic", "simulated"],
        )
        occ = batch.category_occupancy
        for cat in StateCategory:
            table.add_row(f"P({cat.value})", cats[cat],
                          occ.get(cat, 0.0))
        table.add_row("loss probability", loss_probability(stg, pi),
                      batch.loss_time_fraction)
        print(table.render())
        print(f"\nloss probability stderr: "
              f"{batch.loss_time_stderr:.3e} over "
              f"{batch.replications} replications")
        print(f"alerts: {batch.arrivals} generated, "
              f"{batch.arrivals_lost} lost "
              f"({batch.alert_loss_fraction:.2%}); {batch.jumps} jumps")
        print(f"batch wall time: {batch.elapsed:.2f}s "
              f"(sum of replication times "
              f"{sum(batch.wall_times):.2f}s)")
        return 0

    from repro.sim.ctmc_sim import run_replication

    monitor = bus = None
    if args.serve is not None:
        from repro.obs.events import EventBus
        from repro.obs.health import HealthMonitor, ModelPrediction
        from repro.obs.metrics import MetricsRegistry

        prediction = ModelPrediction.from_stg(
            stg, backend=backend, with_convergence=True,
        )
        bus = EventBus()
        monitor = HealthMonitor(
            prediction, args.slo_loss, registry=MetricsRegistry(),
        ).attach(bus)
    result = run_replication(stg, horizon=args.horizon, seed=args.seed,
                             bus=bus)
    table = Table(
        f"Gillespie simulation of {stg!r} (horizon {args.horizon:g}, "
        f"seed {args.seed})",
        ["metric", "analytic", "simulated"],
    )
    for cat in StateCategory:
        table.add_row(
            f"P({cat.value})", cats[cat],
            result.category_occupancy.get(cat, 0.0),
        )
    table.add_row("loss probability", loss_probability(stg, pi),
                  result.loss_time_fraction)
    print(table.render())
    print(f"\nalerts: {result.arrivals} generated, "
          f"{result.arrivals_lost} lost "
          f"({result.alert_loss_fraction:.2%}); {result.jumps} jumps")

    if monitor is not None:
        return _serve_telemetry(args, monitor)
    return 0


def _serve_telemetry(args, monitor) -> int:
    """Expose a finished run's health telemetry over HTTP.

    Prints a parseable ``serving telemetry at <url>`` line (the CI
    smoke test greps for it), then blocks for ``--serve-for`` seconds
    (0: until interrupted).  Exit code 0 even on BREACH — the verdict
    is the payload, not the process status.
    """
    from repro.obs.server import TelemetryServer

    print(f"health verdict: {monitor.verdict.value}")
    _serve_and_wait(
        TelemetryServer(registry=monitor.registry, monitor=monitor,
                        port=args.serve),
        "serving telemetry at", "/metrics /healthz /slo", args.serve_for)
    return 0


def _serve_and_wait(server, banner: str, endpoints: str,
                    serve_for: float) -> None:
    """Start ``server``, print ``<banner> <url>`` and its endpoints,
    then block for ``serve_for`` seconds (0: until interrupted; Ctrl-C
    ends the wait quietly) and stop it."""
    import threading

    with server:
        print(f"{banner} {server.url}", flush=True)
        print(f"endpoints: {endpoints}", flush=True)
        try:
            if serve_for > 0:
                threading.Event().wait(serve_for)
            else:
                threading.Event().wait()
        except KeyboardInterrupt:
            pass


def _obs_run(args, path: Optional[str] = None):
    """Record the selected ``obs`` scenario into a flight recorder;
    returns ``(flight, result)`` with the recorder closed.

    figure1 goes through the recorded-incident driver; gillespie and
    fullstack are the simulators' own ``run_replication`` with the
    recorder on the bus, plus the health monitor for ``fullstack --health``
    (objective ``--slo-loss`` when given).  The recorder writes through
    to ``path`` when given and keeps the log in memory either way;
    every ``obs`` view renders from a replay of that log.
    """
    from repro.obs.events import EventBus
    from repro.obs.recorder import FlightRecorder

    if args.health and args.scenario != "fullstack":
        raise ObsError(
            f"--health rides a health monitor on a fullstack run; the "
            f"{args.scenario} scenario has none (use --scenario "
            "fullstack, or 'obs watch' for the Gillespie monitor)"
        )
    if args.scenario == "figure1":
        from repro.obs.runner import record_incident
        from repro.scenarios.figure1 import build_figure1

        flight = FlightRecorder(
            label="figure1", path=path,
            meta={"false_alarms": args.false_alarms,
                  "conformance_finalized": True},
        )
        with flight:
            return flight, record_incident(
                build_figure1(), flight,
                false_alarms=args.false_alarms,
                alert_buffer=args.alert_buffer or args.buffer,
                recovery_buffer=args.buffer,
                scan_time=1.0 / args.mu1,
                task_time=1.0 / args.xi1,
            )

    if args.scenario == "gillespie":
        from repro.sim import ctmc_sim

        stg = _stg_from_args(args)
        flight = FlightRecorder(
            label="gillespie", path=path,
            meta={"seed": args.seed, "horizon": args.horizon, "stg": {
                "arrival_rate": args.lam, "mu1": args.mu1,
                "xi1": args.xi1, "alpha": args.alpha,
                "recovery_buffer": args.buffer,
                "alert_buffer": args.alert_buffer,
            }},
        )

        def drive(bus):
            return ctmc_sim.run_replication(stg, args.horizon, args.seed,
                                            bus=bus)
    else:  # fullstack
        from repro.sim import fullstack

        cfg = fullstack.FullStackConfig(
            arrival_rate=args.lam,
            scan_time=1.0 / args.mu1,
            unit_recovery_time=1.0 / args.xi1,
            alert_buffer=args.alert_buffer or args.buffer,
            recovery_buffer=args.buffer,
        )
        pred = None
        if args.health:
            from repro.obs.health import ModelPrediction

            pred = ModelPrediction.from_stg(cfg.stg())
        flight = FlightRecorder(
            label="fullstack", path=path,
            meta=fullstack.flight_log_meta(
                cfg, args.horizon, args.seed, pred, args.slo_loss),
        )

        def drive(bus):
            return fullstack.run_replication(
                cfg, args.horizon, args.seed, bus=bus, health=pred,
                loss_objective=args.slo_loss,
            )

    bus = EventBus()
    with flight.attach(bus):
        flight.mark("start", 0.0, state="NORMAL")
        result = drive(bus)
        flight.mark("finalize", args.horizon)
    return flight, result


def _obs_load_log(args):
    """A flight log for replay/explain/trace: from ``--log`` when
    given, else freshly recorded in memory."""
    from repro.obs.recorder import load_flight_log, read_flight_log

    if args.log:
        return load_flight_log(args.log)
    flight, _ = _obs_run(args)
    return read_flight_log(flight.text())


def _cmd_obs_record(args) -> int:
    path = args.log if args.log and args.log != "-" else None
    flight, _ = _obs_run(args, path=path)
    lines = flight.text().count("\n")
    if path is None:
        print(flight.text(), end="")
    else:
        print(f"{lines} flight-log records written to {path}")
    return 0


def _replay_verdict_check(log, run) -> None:
    """When a flight log carries health-monitor verdicts, re-derive
    them from the raw events and report whether they match.

    Requires the full-stack header's ``config`` and ``health`` blocks
    (:func:`repro.sim.fullstack.flight_log_meta` — written by ``obs
    record --scenario fullstack --health`` and by health-monitored
    ``run_fullstack_batch(record_dir=...)``); logs of unmonitored runs
    print nothing.
    """
    from repro.obs.events import (
        ConformanceViolation,
        DriftDetected,
        SloTransition,
    )
    from repro.obs.health import ModelPrediction, replay_verdicts
    from repro.sim.fullstack import FullStackConfig

    recorded = [e for e in run.events
                if isinstance(e, (SloTransition, DriftDetected,
                                  ConformanceViolation))]
    health = log.meta.get("health")
    if not recorded and not health:
        return
    print(f"  SLO verdicts: {len(run.slo_transitions)} transitions, "
          f"{len(run.drifts)} drift alarms")
    if not health or "config" not in log.meta:
        print("  verdict replay: skipped (log header carries no "
              "health model parameters)")
        return
    cfg = FullStackConfig(**log.meta["config"])
    loss_objective = health.get("loss_objective")
    replayed = replay_verdicts(
        run.events, ModelPrediction.from_stg(cfg.stg()),
        loss_objective=(float(loss_objective)
                        if loss_objective is not None else None),
        finalize=bool(log.meta.get("conformance_finalized")),
    )
    identical = replayed == recorded
    print(f"  verdict replay: {len(replayed)} re-derived, identical "
          f"to recorded: {identical}")
    if not identical:
        raise ObsError(
            "replayed SLO verdicts diverge from the recorded stream — "
            "the flight log and the health model parameters in its "
            "header do not describe the same run"
        )


def _cmd_obs_replay(args) -> int:
    from repro.obs.export import metrics_table, render_prometheus
    from repro.obs.provenance import replay

    log = _obs_load_log(args)
    run = replay(log)
    source = args.log if args.log else f"fresh {args.scenario} run"
    print(f"Replayed flight log: {source} "
          f"(label={log.label!r}, schema {log.header.get('schema')})")
    print(f"  events: {len(run.events)}")
    print(f"  undo set (definite): "
          f"{' '.join(sorted(run.plan_undo)) or '-'}")
    if run.undo_candidates:
        print(f"  undo candidates    : "
              f"{' '.join(sorted(run.undo_candidates))}")
    print(f"  redo set (definite): "
          f"{' '.join(sorted(run.plan_redo)) or '-'}")
    if run.redo_candidates:
        print(f"  redo candidates    : "
              f"{' '.join(sorted(run.redo_candidates))}")
    print(f"  order edges: {len(run.order_edges)}  "
          f"schedule: {len(run.schedule)} realized actions")
    if run.schedule:
        print("  realized schedule: " + " -> ".join(run.schedule))
    _replay_verdict_check(log, run)
    violations = 0
    if getattr(args, "conformance", False):
        violations = _replay_conformance_check(log)
    print()
    print(metrics_table(run.metrics, "Replayed pipeline metrics")
          .render())
    if args.prom:
        print("\nPrometheus exposition:")
        print(render_prometheus(run.metrics.registry), end="")
    return 1 if violations else 0


def _replay_conformance_check(log) -> int:
    """Re-derive the LTLf strict-correctness verdicts from the raw
    event stream (``obs replay --conformance``); prints every violation
    and returns the count.

    The trace is closed (liveness obligations resolved) exactly when
    the log's header says the recording driver finalized its own
    monitor — so replayed verdicts match the online ones event for
    event on monitored runs, and add the end-of-trace resolution on
    logs recorded with ``conformance_finalized``.
    """
    from repro.obs.events import ConformanceViolation
    from repro.obs.monitor import replay_conformance

    monitor = replay_conformance(
        log.events,
        finalize=bool(log.meta.get("conformance_finalized")),
    )
    recorded = [e for e in log.events
                if isinstance(e, ConformanceViolation)]
    count = monitor.violation_count
    print(f"  conformance: {len(monitor.properties)} LTLf properties, "
          f"{monitor.events_seen} events checked, "
          f"{count} violation(s)")
    if recorded:
        identical = list(monitor.violations) == recorded
        print(f"  conformance replay: {len(recorded)} recorded verdicts, "
              f"identical to re-derived: {identical}")
        if not identical:
            raise ObsError(
                "replayed conformance verdicts diverge from the "
                "recorded stream — the flight log was not produced by "
                "this monitor (or was edited)"
            )
    for v in monitor.violations:
        instance = f" [{v.instance}]" if v.instance else ""
        print(f"    {v.property}{instance}: {v.verdict} "
              f"at t={v.time:g} — {v.detail}")
    return count


def _cmd_obs_explain(args) -> int:
    from repro.obs.provenance import explain

    if not args.target:
        raise ObsError(
            "obs explain needs a task instance uid, e.g. "
            "repro-workflow obs explain 'wf1/t6#1'"
        )
    print(explain(_obs_load_log(args), args.target))
    return 0


def _cmd_obs_trace(args) -> int:
    from repro.obs.export import spans_to_chrome_trace
    from repro.obs.provenance import build_span_tree

    log = _obs_load_log(args)
    text = spans_to_chrome_trace(build_span_tree(log), log.events)
    if args.out and args.out != "-":
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"Chrome trace written to {args.out} "
              f"(open in chrome://tracing or ui.perfetto.dev)")
    else:
        print(text)
    return 0


def _cmd_obs_watch(args) -> int:
    """Live SLO health monitoring against the calibrated CTMC.

    Runs a Gillespie trajectory of the configured STG with a
    :class:`~repro.obs.health.HealthMonitor` riding the event bus,
    printing every SLO transition and drift alarm as it happens.  With
    ``--attack-rate R`` the arrival rate steps to R at ``--horizon``
    (for ``--attack-horizon`` further time units) — the live
    demonstration that a mid-run λ change breaches model conformance.

    Exit code 0 when the monitor behaved as the scenario demands: a
    conformant run ends OK, an attacked run ends BREACH with at least
    one drift alarm.
    """
    import dataclasses

    from repro.obs.events import (
        DriftDetected,
        EventBus,
        EventRecorder,
        SloTransition,
    )
    from repro.markov.degradation import power_law
    from repro.markov.stg import RecoverySTG
    from repro.obs.health import HealthMonitor, ModelPrediction
    from repro.sim.ctmc_sim import GillespieSimulator

    stg = _stg_from_args(args)
    prediction = ModelPrediction.from_stg(
        stg, backend=_backend_from_args(args), with_convergence=True,
    )

    def _live(event) -> None:
        if isinstance(event, DriftDetected):
            print(f"t={event.time:9.3f}  drift[{event.detector}]: "
                  f"statistic {event.statistic:.2f} > threshold "
                  f"{event.threshold:.2f} ({event.signal})")
        elif isinstance(event, SloTransition):
            print(f"t={event.time:9.3f}  slo[{event.slo}]: "
                  f"{event.old} -> {event.new} "
                  f"(value {event.value:.4g}, "
                  f"objective {event.objective:.4g})")

    bus = EventBus()
    monitor = HealthMonitor(prediction, args.slo_loss).attach(bus)
    bus.subscribe(_live, types=[SloTransition, DriftDetected])

    print(f"watching {stg!r} for {args.horizon:g} time units "
          f"(seed {args.seed})")
    if prediction.convergence_time is not None:
        print(f"model: loss {prediction.loss_probability:.3e}, "
              f"converges within {prediction.convergence_time:g} "
              f"time units (Definition 4)")
    GillespieSimulator(stg, random.Random(args.seed), bus=bus).run(
        args.horizon
    )

    attacked = args.attack_rate is not None and args.attack_rate > 0
    if attacked:
        print(f"t={args.horizon:9.3f}  == arrival rate steps to "
              f"{args.attack_rate:g} (model still calibrated for "
              f"{args.lam:g}) ==")
        attack_stg = RecoverySTG(
            arrival_rate=args.attack_rate,
            scan=power_law(args.mu1, args.alpha),
            recovery=power_law(args.xi1, args.alpha),
            recovery_buffer=args.buffer,
            alert_buffer=args.alert_buffer,
        )
        # Simulate the attacked workload separately and feed its
        # events, time-shifted, through the same monitor — the monitor
        # never learns the rate changed, which is the point.
        attack_bus = EventBus()
        attack_rec = EventRecorder().attach(attack_bus)
        GillespieSimulator(
            attack_stg, random.Random(args.seed + 1), bus=attack_bus,
        ).run(args.attack_horizon)
        for event in attack_rec.events:
            bus.publish(dataclasses.replace(
                event, time=event.time + args.horizon
            ))

    summary = monitor.summary()
    rates = summary["rates"]
    table = Table("Live estimates vs calibrated CTMC",
                  ["metric", "model", "measured"])
    table.add_row("arrival rate", args.lam, rates["lambda_hat"])
    table.add_row("scan rate (base)", args.mu1, rates["mu_hat"])
    table.add_row("recovery rate (base)", args.xi1, rates["xi_hat"])
    table.add_row("loss fraction", prediction.loss_probability,
                  summary["loss"]["fraction"])
    table.add_row("E[alerts queued]", prediction.expected_alerts,
                  summary["occupancy"]["alert_mean"])
    print()
    print(table.render())
    lo, hi = summary["loss"]["ci"]
    print(f"\nloss 95% CI: [{lo:.3e}, {hi:.3e}] over "
          f"{summary['loss']['window_arrivals']} windowed arrivals")
    for name, slo in summary["slos"].items():
        print(f"slo {name}: {slo['state']} "
              f"(value {slo['value']:.4g}, "
              f"objective {slo['objective']:.4g})")
    verdict = monitor.verdict.value
    print(f"verdict: {verdict}")
    if attacked:
        return 0 if (verdict == "BREACH" and monitor.drifts) else 1
    return 0 if verdict == "OK" else 1


def cmd_obs(args) -> int:
    """Observability: record a scenario and report from the replay of
    its flight log ('report', the default), capture a replayable flight
    log ('record'), reconstruct a run from one ('replay'), print one
    task's causal chain ('explain <task>'), or export a Chrome/Perfetto
    trace ('trace')."""
    from repro.obs.export import metrics_table, render_prometheus
    from repro.obs.provenance import build_span_tree, replay
    from repro.obs.recorder import read_flight_log
    from repro.obs.tracing import render_span_tree

    action = getattr(args, "action", "report")
    if action == "record":
        return _cmd_obs_record(args)
    if action == "replay":
        return _cmd_obs_replay(args)
    if action == "explain":
        return _cmd_obs_explain(args)
    if action == "trace":
        return _cmd_obs_trace(args)
    if action == "watch":
        return _cmd_obs_watch(args)

    flight, result = _obs_run(args)
    log = read_flight_log(flight.text())
    metrics = replay(log).metrics
    if args.scenario == "figure1":
        title = "Observed figure1 incident"
    elif args.scenario == "gillespie":
        title = (f"Observed Gillespie trajectory "
                 f"(horizon {args.horizon:g}, seed {args.seed})")
    else:
        title = (f"Observed full-stack run "
                 f"(horizon {args.horizon:g}, seed {args.seed})")

    print(metrics_table(metrics, title).render())
    report = getattr(result, "conformance", None)
    if report is not None:
        print(f"\nhealth: verdict {report.verdict.value} — "
              f"loss {report.loss_fraction:.3e} "
              f"(model {report.predicted_loss:.3e}, "
              f"objective {report.loss_objective:.3e}), "
              f"{report.drift_count} drift alarm(s), "
              f"{report.slo_transitions} SLO transition(s)")
    if args.scenario == "figure1":
        print("\nIncident span tree:")
        print(render_span_tree(build_span_tree(log)))
    if args.scenario == "gillespie":
        from repro.markov.metrics import (
            category_probabilities,
            loss_probability,
        )
        from repro.markov.steady_state import steady_state
        from repro.markov.stg import StateCategory

        # Put the measurement next to the model's prediction.
        stg = _stg_from_args(args)
        pi = steady_state(stg.ctmc())
        predicted = loss_probability(stg, pi)
        cats = category_probabilities(stg, pi)
        occ = metrics.occupancy()
        table = Table("Empirical vs CTMC", ["metric", "CTMC", "measured"])
        for cat in StateCategory:
            table.add_row(f"P({cat.value})", cats[cat],
                          occ.get(cat.name, 0.0))
        table.add_row("loss probability", predicted,
                      metrics.loss_fraction)
        print()
        print(table.render())
    if args.prom:
        print("\nPrometheus exposition:")
        print(render_prometheus(metrics.registry), end="")
    return 0


def cmd_fleet(args) -> int:
    """Multi-tenant fleet: N sharded self-healing systems behind one
    prioritized recovery control plane.

    Each tenant runs a workload archetype from ``--mix`` under its own
    Poisson attack process; alerts multiplex through a central priority
    queue where breaching tenants preempt healthy ones, and granted
    shards are served in grant order.  ``--serve PORT`` then exposes the
    fleet telemetry over HTTP: ``/slo`` is the fleet rollup,
    ``/slo?tenant=ID`` the drill-down, ``/healthz`` probes the worst-of
    verdict.

    Exit code 0 when every tenant audits strictly correct and the
    fleet's final verdict is not BREACH; 1 otherwise; 3 on domain
    errors (unknown archetypes, invalid counts).
    """
    from repro.fleet import FleetConfig, FleetControlPlane

    config = FleetConfig(
        tenants=args.tenants,
        mix=tuple(args.mix),
        duration=args.duration,
        tick=args.tick,
        central_capacity=args.central_capacity,
        seed=args.seed,
    )
    plane = FleetControlPlane(config)
    print(f"fleet: {config.tenants} tenant(s), mix "
          f"{'/'.join(config.mix)}, duration {config.duration:g}, "
          f"seed {config.seed}")
    report = plane.run()
    health = report.health

    table = Table(
        f"Fleet of {config.tenants} after {report.ticks} rounds",
        ["metric", "value"],
    )
    table.add_row("verdict", health.verdict.value)
    for state, count in health.by_state.items():
        table.add_row(f"tenants {state}", count)
    table.add_row("attacks", report.attacks)
    table.add_row("alerts accepted", report.alerts_accepted)
    table.add_row("alerts lost", report.alerts_lost)
    table.add_row("central deferrals", report.central_deferrals)
    table.add_row("scans", report.scans)
    table.add_row("heals", report.heals)
    audits_ok = all(t.audits_ok for t in health.tenants)
    table.add_row("audits strictly correct", audits_ok)
    lat = health.as_dict()["latency"]
    table.add_row("detect->heal p50", lat["p50"])
    table.add_row("detect->heal p99", lat["p99"])
    print(table.render())

    troubled = [t for t in health.worst_tenants(5)
                if t.verdict.value != "OK" or t.report.losses]
    if troubled:
        detail = Table("Worst tenants",
                       ["tenant", "verdict", "attacks", "lost", "heals"])
        for t in troubled:
            detail.add_row(t.tenant, t.verdict.value, t.attacks,
                           t.report.losses, t.heals)
        print()
        print(detail.render())

    ok = audits_ok and health.verdict.value != "BREACH"
    if args.serve is not None:
        from repro.obs.server import TelemetryServer

        _serve_and_wait(
            TelemetryServer(registry=plane.registry, fleet=plane,
                            port=args.serve),
            "serving fleet telemetry at",
            "/metrics /healthz /slo /slo?tenant=ID", args.serve_for)
    return 0 if ok else 1


def _scenario_specs(name: str) -> List:
    """The (deduplicated) workflow specs a built-in scenario executes."""
    by_id = {
        spec.workflow_id: spec
        for spec in SCENARIOS[name]().specs_by_instance.values()
    }
    return [by_id[wf] for wf in sorted(by_id)]


def _emit_report(args, report, tool_name: str = "repro-lint") -> int:
    """Render a lint report per ``--format``/``--out``; exit 2 on ERROR."""
    if args.format == "json":
        text = report.to_json()
    elif args.format == "sarif":
        text = report.to_sarif_json(tool_name=tool_name)
    else:
        text = report.render_text()
    if args.out and args.out != "-":
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"{len(report)} finding(s) written to {args.out} "
              f"({args.format})")
    else:
        print(text)
    return report.exit_code


def cmd_lint(args) -> int:
    """Static verification: 'spec' lints workflow graphs and read/write
    sets (JSON documents or built-in scenarios), 'plan' re-derives the
    paper's Theorems 1-3 over a flight log's recovery provenance with
    independent code, 'code' scans Python sources for replay-poisonous
    nondeterminism.  Exit code 2 when any ERROR-level finding exists."""
    from repro.lint import LintReport

    if args.pass_ == "spec":
        from repro.lint import lint_documents, lint_specs
        from repro.workflow.serialize import WorkflowDocument

        diags = []
        scenarios: List[str] = list(args.scenario or ())
        if args.all_scenarios or (not scenarios and not args.files):
            scenarios = list(SCENARIOS)
        for name in scenarios:
            diags.extend(lint_specs(_scenario_specs(name)))
        docs = []
        for path in args.files:
            if path == "-":
                docs.append(WorkflowDocument.from_json(sys.stdin.read()))
            else:
                with open(path, "r", encoding="utf-8") as fh:
                    docs.append(WorkflowDocument.from_json(fh.read()))
        if docs:
            diags.extend(lint_documents(docs))
        return _emit_report(args, LintReport(diags))

    if args.pass_ == "plan":
        from repro.lint import verify_flight_log
        from repro.obs.recorder import load_flight_log

        diags = []
        for path in args.files:
            diags.extend(verify_flight_log(load_flight_log(path)))
        return _emit_report(args, LintReport(diags))

    # code
    from repro.lint import lint_paths

    paths = args.files or ["src/repro"]
    return _emit_report(args, LintReport(lint_paths(paths)),
                        tool_name="repro-lint-determinism")


def _budget_seconds(text: str) -> float:
    """Parse a fuzz budget: ``90``, ``60s``, or ``2m``."""
    raw = text.strip().lower()
    scale = 1.0
    if raw.endswith("m"):
        raw, scale = raw[:-1], 60.0
    elif raw.endswith("s"):
        raw = raw[:-1]
    try:
        value = float(raw) * scale
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid budget {text!r}; use e.g. 90, 60s, or 2m"
        )
    if value <= 0:
        raise argparse.ArgumentTypeError("budget must be positive")
    return value


def cmd_fuzz(args) -> int:
    """Adversarial campaign fuzzing: run generated attack campaigns
    (single-tenant full-stack episodes and multi-tenant fleets) through
    the composite oracle — heal verifier, strict-correctness audit,
    flight-log determinism, health-monitor conformance — shrinking and
    persisting any counterexample as a replayable corpus file.  With
    --inject, every observed heal carries a seeded fault and the run
    checks the oracle catches it (exit 0 only when nothing slips through);
    with --replay, corpus files are re-run instead of fuzzing."""
    from repro.scenarios.fuzz import fuzz, replay_corpus

    if args.replay:
        failures = 0
        for path, outcome in replay_corpus(args.replay):
            if outcome.ok:
                print(f"{path}: ok ({outcome.scans} scans, "
                      f"{outcome.heals} heals)")
            else:
                failures += 1
                print(f"{path}: {len(outcome.violations)} violation(s)")
                for violation in outcome.violations:
                    print(f"  {violation.render()}")
        print(f"replayed {len(args.replay)} corpus file(s), "
              f"{failures} with violations")
        return 0 if failures == 0 else 1

    report = fuzz(
        seed=args.seed,
        budget_seconds=args.budget,
        max_campaigns=args.campaigns,
        inject=args.inject,
        corpus_dir=args.corpus_dir,
        multi_tenant_every=args.multi_tenant_every,
        shrink=not args.no_shrink,
        progress=lambda r: print(
            f"  ... {r.campaigns} campaigns, "
            f"{r.violations} violation(s)"
        ),
    )
    print(report.summary())
    for campaign, violations in report.findings:
        print(f"counterexample (seed={campaign.seed}, "
              f"tenants={campaign.tenants}):")
        for violation in violations:
            print(f"  {violation.render()}")
    for path in report.corpus_files:
        print(f"corpus: {path}")
    if args.inject:
        # Fault-injection mode: success means the oracle caught every
        # campaign's faulted heals and none slipped through.
        return 0 if report.caught > 0 and report.missed == 0 else 1
    return 0 if report.violations == 0 else 1


def cmd_sensitivity(args) -> int:
    """Elasticities of loss probability / P(NORMAL) at a design point."""
    from repro.markov.sensitivity import (
        loss_sensitivities,
        normal_sensitivities,
    )

    loss = loss_sensitivities(
        lam=args.lam, mu1=args.mu1, xi1=args.xi1,
        buffer_size=args.buffer, alpha=args.alpha,
    )
    normal = normal_sensitivities(
        lam=args.lam, mu1=args.mu1, xi1=args.xi1,
        buffer_size=args.buffer, alpha=args.alpha,
    )
    table = Table(
        f"Sensitivities at lambda={args.lam}, mu1={args.mu1}, "
        f"xi1={args.xi1}, buffer={args.buffer}",
        ["parameter", "elasticity of loss", "elasticity of P(NORMAL)"],
    )
    normals = {s.parameter: s for s in normal}
    for s in loss:
        table.add_row(s.parameter, s.elasticity,
                      normals[s.parameter].elasticity)
    print(table.render())
    print(f"\nloss probability at design point: "
          f"{loss[0].metric_at_base:.3e}")
    print("(buffer row: relative change per extra slot, not an "
          "elasticity)")
    return 0


def cmd_profile(args) -> int:
    """Wall-clock profiling and end-to-end latency attribution.

    Runs one scenario with a :class:`~repro.obs.perf.PhaseProfiler`
    wired through the whole pipeline and prints the attributed phase
    breakdown: where every alert's life went (detect → buffer wait →
    analyze → schedule → heal (undo, order, settle, reconcile) →
    audit), in both
    wall and simulated time, plus the cost-driver counters (CTMC solver
    calls, closure recomputations, pickle bytes, queue evictions).

    ``--scenario fullstack`` profiles one instrumented replication;
    ``--scenario fleet`` profiles the multi-tenant control plane with
    per-tenant and per-tick breakdowns.  ``--flame`` writes flamegraph
    collapsed-stack text, ``--chrome`` a Perfetto-loadable trace of the
    phases, ``--json`` the full report document.

    The breakdown *structure* (phases, ordering, call counts, sim
    totals, counters) is deterministic for a given scenario and seed —
    only the wall durations vary run to run.
    """
    import json as json_mod

    from repro.obs.export import spans_to_chrome_trace
    from repro.obs.perf import PhaseProfiler, recording

    if args.scenario == "fleet":
        from repro.fleet import FleetConfig, FleetControlPlane

        config = FleetConfig(
            tenants=args.tenants, duration=args.duration, seed=args.seed,
        )
        profiler = PhaseProfiler()
        plane = FleetControlPlane(config, profiler=profiler)
        # Start *after* construction: building the plane solves each
        # archetype's CTMC steady state, which belongs to setup, not to
        # the profiled run — folding it in sinks the attribution
        # fraction without telling the operator anything per-alert.
        profiler.start()
        plane.run()
        profiler.stop()
        report = plane.profile_report()
        scenario_line = (
            f"fleet: {config.tenants} tenant(s), duration "
            f"{config.duration:g}, seed {config.seed}"
        )
    else:
        from repro.sim.fullstack import FullStackConfig, run_replication

        config = FullStackConfig(
            arrival_rate=args.lam,
            alert_buffer=args.alert_buffer,
            recovery_buffer=args.recovery_buffer,
        )
        profiler = PhaseProfiler().start()
        with recording(profiler):
            run_replication(config, horizon=args.horizon, seed=args.seed)
        profiler.stop()
        report = profiler.report(scenario="fullstack")
        scenario_line = (
            f"fullstack: λ={config.arrival_rate:g}, horizon "
            f"{args.horizon:g}, seed {args.seed}"
        )

    print(scenario_line)
    table = Table(
        f"Latency attribution ({report.scenario})",
        ["phase", "calls", "wall ms", "self ms", "sim"],
    )
    for row in report.rows:
        indent = "  " * row["depth"]
        table.add_row(
            indent + row["name"],
            row["calls"],
            f"{row['wall'] * 1e3:.3f}",
            f"{row['wall_self'] * 1e3:.3f}",
            f"{row['sim']:.3f}",
        )
    print(table.render())
    counters = Table("Cost drivers", ["counter", "count"])
    for name, value in sorted(report.counters.items()):
        counters.add_row(name, value)
    print()
    print(counters.render())
    print(f"\ntotal wall: {report.total_wall * 1e3:.1f} ms, attributed "
          f"{report.attributed_wall * 1e3:.1f} ms "
          f"({report.attribution:.1%})")
    print(f"structure digest: {report.structure_digest()}")
    if report.attribution < 0.95:
        print("warning: attribution below the 95% target — "
              "un-instrumented driver time dominates somewhere")

    if args.flame:
        with open(args.flame, "w", encoding="utf-8") as fh:
            fh.write(report.collapsed())
        print(f"collapsed stacks written to {args.flame}")
    if args.chrome:
        with open(args.chrome, "w", encoding="utf-8") as fh:
            fh.write(spans_to_chrome_trace(report.spans()))
        print(f"chrome trace written to {args.chrome}")
    if args.json:
        doc = report.as_dict()
        if args.scenario == "fleet":
            doc = plane.profile_snapshot()
        text = json_mod.dumps(doc, indent=2, sort_keys=True)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            print(f"profile JSON written to {args.json}")
    return 0


def cmd_stg_dot(args) -> int:
    """Print the STG (Figure 3) as Graphviz DOT."""
    from repro.workflow.viz import stg_to_dot

    print(stg_to_dot(_stg_from_args(args)))
    return 0


def cmd_workflow_dot(args) -> int:
    """Render a JSON workflow document as Graphviz DOT."""
    from repro.workflow.serialize import WorkflowDocument
    from repro.workflow.viz import spec_to_dot

    if args.file == "-":
        text = sys.stdin.read()
    else:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    spec = WorkflowDocument.from_json(text).build()
    print(spec_to_dot(spec))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-workflow",
        description="Self-healing workflow systems under attacks "
                    "(ICDCS 2004 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("demo", help=cmd_demo.__doc__)
    p.add_argument("scenario", choices=list(SCENARIOS))
    p.add_argument("--flight-log", metavar="FILE", default=None,
                   help="drive the heal through the instrumented "
                        "Figure 2 pipeline and write a replayable "
                        "flight log to FILE ('-' for stdout; scenarios "
                        "whose damage is task uids: figure1, travel, "
                        "web-app)")
    p.set_defaults(fn=cmd_demo)

    p = sub.add_parser("steady", help=cmd_steady.__doc__)
    _add_model_args(p)
    p.set_defaults(fn=cmd_steady)

    p = sub.add_parser("transient", help=cmd_transient.__doc__)
    _add_model_args(p)
    p.add_argument("--t", type=float, nargs="+",
                   default=[0.5, 1.0, 2.0, 4.0],
                   help="observation times (default: 0.5 1 2 4)")
    p.set_defaults(fn=cmd_transient)

    p = sub.add_parser("design", help=cmd_design.__doc__)
    _add_model_args(p)
    p.add_argument("--epsilon", type=float, default=0.01,
                   help="target steady-state loss probability")
    p.add_argument("--max-buffer", type=int, default=30)
    p.add_argument("--peak", type=float, default=0.0,
                   help="also stress the design at this peak rate")
    p.set_defaults(fn=cmd_design)

    p = sub.add_parser("simulate", help=cmd_simulate.__doc__)
    _add_model_args(p)
    p.add_argument("--horizon", type=float, default=10_000.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--replications", type=_positive_int, default=1,
                   help="independent replications to run and merge "
                        "(default 1: a single trajectory)")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="worker processes for the replication batch "
                        "(default 1: run inline, no pool)")
    p.add_argument("--serve", type=int, metavar="PORT", default=None,
                   help="after the run, serve health telemetry over "
                        "HTTP on PORT (0: ephemeral) — /metrics, "
                        "/healthz, /slo")
    p.add_argument("--serve-for", type=float, metavar="SECONDS",
                   default=60.0,
                   help="how long to serve before exiting (default "
                        "60; 0: until interrupted)")
    p.add_argument("--slo-loss", type=float, default=None,
                   help="explicit loss-SLO objective (default: 3x the "
                        "model's predicted loss)")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("obs", help=cmd_obs.__doc__)
    p.add_argument("action", nargs="?", default="report",
                   choices=["report", "record", "replay", "explain",
                            "trace", "watch"],
                   help="report (default): record a run and print "
                        "metrics replayed from its log; "
                        "record: capture a flight log; replay: "
                        "reconstruct a run from one; explain <task>: "
                        "print a task's causal chain; trace: export "
                        "Chrome-trace JSON; watch: live SLO health "
                        "monitoring against the calibrated CTMC")
    p.add_argument("target", nargs="?", default=None,
                   help="task instance uid (explain action only)")
    _add_model_args(p)
    p.add_argument("--log", metavar="FILE", default=None,
                   help="flight-log file: output of 'record' ('-' for "
                        "stdout), input of replay/explain/trace "
                        "(omitted: record a fresh run in memory)")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="output file for 'trace' ('-' or omitted: "
                        "stdout)")
    p.add_argument("--scenario",
                   choices=["figure1", "gillespie", "fullstack"],
                   default="figure1",
                   help="what to run under observation (default figure1)")
    p.add_argument("--false-alarms", type=int, default=2,
                   help="spurious IDS alerts injected after the genuine "
                        "one (figure1 scenario; default 2)")
    p.add_argument("--horizon", type=float, default=500.0,
                   help="simulated duration (gillespie/fullstack)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--prom", action="store_true",
                   help="also print the Prometheus text exposition")
    p.add_argument("--health", action="store_true",
                   help="ride a health monitor on the run and record "
                        "its SLO/drift verdicts into the flight log "
                        "(record/report, fullstack scenario only)")
    p.add_argument("--conformance", action="store_true",
                   help="re-derive the LTLf strict-correctness "
                        "verdicts from the replayed event stream "
                        "(replay action); exit 1 on any violation")
    p.add_argument("--slo-loss", type=float, default=None,
                   help="explicit loss-SLO objective (watch, and "
                        "fullstack --health runs; default: "
                        "3x the model's predicted loss)")
    p.add_argument("--attack-rate", type=float, default=None,
                   help="step the arrival rate to this value at "
                        "--horizon (watch): drift/BREACH demo")
    p.add_argument("--attack-horizon", type=float, default=200.0,
                   help="duration of the attacked segment (watch; "
                        "default 200)")
    p.set_defaults(fn=cmd_obs)

    p = sub.add_parser("fleet", help=cmd_fleet.__doc__)
    p.add_argument("--tenants", type=_positive_int, default=8,
                   help="number of tenant shards (default 8)")
    p.add_argument("--mix", nargs="+",
                   default=["figure1", "banking", "travel", "supply"],
                   help="workload archetypes assigned round-robin "
                        "(default: all four; unknown names exit 3)")
    p.add_argument("--duration", type=float, default=50.0,
                   help="simulated run length (default 50)")
    p.add_argument("--tick", type=float, default=1.0,
                   help="scheduling round length (default 1)")
    p.add_argument("--central-capacity", type=int, default=0,
                   help="central priority-queue capacity (default 0: "
                        "4x tenants)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--serve", type=int, metavar="PORT", default=None,
                   help="after the run, serve fleet telemetry over "
                        "HTTP on PORT (0: ephemeral) — /metrics, "
                        "/healthz, /slo, /slo?tenant=ID")
    p.add_argument("--serve-for", type=float, metavar="SECONDS",
                   default=60.0,
                   help="how long to serve before exiting (default "
                        "60; 0: until interrupted)")
    p.set_defaults(fn=cmd_fleet)

    p = sub.add_parser("lint", help=cmd_lint.__doc__)
    p.add_argument("pass_", metavar="pass",
                   choices=["spec", "plan", "code"],
                   help="spec: workflow documents / scenarios; plan: "
                        "flight-log recovery provenance; code: Python "
                        "sources (determinism)")
    p.add_argument("files", nargs="*",
                   help="inputs for the pass — workflow JSON documents "
                        "('-' for stdin), flight logs, or source "
                        "files/directories (code default: src/repro; "
                        "spec default: all built-in scenarios)")
    p.add_argument("--scenario", action="append",
                   choices=list(SCENARIOS),
                   help="lint this built-in scenario's workflows "
                        "(spec pass; repeatable)")
    p.add_argument("--all-scenarios", action="store_true",
                   help="lint every built-in scenario (spec pass)")
    p.add_argument("--format", choices=["text", "json", "sarif"],
                   default="text",
                   help="output rendering (default text)")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="write the report to FILE instead of stdout "
                        "('-' for stdout)")
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser("fuzz", help=cmd_fuzz.__doc__)
    p.add_argument("--budget", type=_budget_seconds, default=None,
                   help="wall-clock budget, e.g. 60s or 2m "
                        "(default: 200 campaigns)")
    p.add_argument("--campaigns", type=_positive_int, default=None,
                   help="stop after this many campaigns")
    p.add_argument("--seed", type=int, default=0,
                   help="base seed; campaign i uses a derived seed "
                        "(default: 0)")
    p.add_argument("--inject", default=None,
                   choices=["drop-undo", "extra-redo", "reverse-edge"],
                   help="fault-injection mode: fault every heal and "
                        "check the oracle catches it")
    p.add_argument("--corpus-dir", default="fuzz-corpus",
                   help="directory for shrunk counterexamples "
                        "(default: fuzz-corpus)")
    p.add_argument("--no-shrink", action="store_true",
                   help="persist counterexamples without shrinking")
    p.add_argument("--multi-tenant-every", type=int, default=8,
                   help="every Nth campaign runs multi-tenant through "
                        "the fleet control plane; 0 disables "
                        "(default: 8)")
    p.add_argument("--replay", nargs="+", metavar="FILE",
                   help="replay corpus files instead of fuzzing")
    p.set_defaults(fn=cmd_fuzz)

    p = sub.add_parser("sensitivity", help=cmd_sensitivity.__doc__)
    _add_model_args(p)
    p.set_defaults(fn=cmd_sensitivity)

    p = sub.add_parser("profile", help=cmd_profile.__doc__)
    p.add_argument("--scenario", choices=["fullstack", "fleet"],
                   default="fullstack")
    p.add_argument("--lam", type=float, default=6.0,
                   help="fullstack attack arrival rate (default 6.0)")
    p.add_argument("--horizon", type=float, default=60.0,
                   help="fullstack sim horizon (default 60)")
    p.add_argument("--alert-buffer", type=_positive_int, default=4)
    p.add_argument("--recovery-buffer", type=_positive_int, default=4)
    p.add_argument("--tenants", type=_positive_int, default=6,
                   help="fleet tenant count (default 6)")
    p.add_argument("--duration", type=float, default=40.0,
                   help="fleet sim duration (default 40)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--flame", metavar="FILE", default=None,
                   help="write flamegraph collapsed-stack text")
    p.add_argument("--chrome", metavar="FILE", default=None,
                   help="write Chrome-trace JSON of the phases")
    p.add_argument("--json", metavar="FILE", default=None,
                   help="write the full profile document "
                        "('-' for stdout)")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("stg-dot", help=cmd_stg_dot.__doc__)
    _add_model_args(p)
    p.set_defaults(fn=cmd_stg_dot)

    p = sub.add_parser("workflow-dot", help=cmd_workflow_dot.__doc__)
    p.add_argument("file", help="workflow JSON document ('-' for stdin)")
    p.set_defaults(fn=cmd_workflow_dot)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code.

    Domain failures (recovery impossible, scheduler stuck, a simulation
    asked to do the impossible) are reported as a single ``error:``
    line on stderr with exit code :data:`EXIT_DOMAIN_ERROR` — scripts
    get a distinct status and users never see a traceback for a
    well-diagnosed condition.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (FleetError, GenerationError, ObsError, RecoveryError,
            SchedulingError, SimulationError, WorkflowSpecError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
