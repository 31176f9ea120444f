"""Benchmark of the self-healing recovery pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` makes the traced run and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the environment, the workload's parameters and the
correctness digest.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import speed

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 3

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = [
    ("ops_per_s", "ops/s"),
    ("round_ms.p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def _program_on_path() -> None:
    """Import the program from this checkout's ``src/`` and nowhere
    else; a checkout without it is an error, not a fallback."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"error: no program sources at {ROOT / 'src' / 'repro'}")
    sys.path.insert(0, str(ROOT / "src"))


def _environment(workload: Any, seed: int) -> Dict[str, Any]:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform(), "seed": seed,
            "workload": workload.name, "params": workload.params(),
            "op": workload.op}


def _probe_setup(args: argparse.Namespace) -> Tuple[float, float]:
    """Seconds from starting a fresh interpreter to the workload being
    ready for its first timed call (imports, construction, cache fill),
    corrected and raw.  ``time.monotonic`` is one system-wide clock, so
    the child's reading compares with the parent's."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", "0", "--probe-setup"]
    if args.quick:
        cmd.append("--quick")
    start = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=60, check=True)
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    raw = probe["ready"] - start
    return raw * speed.factor(probe["before"], probe["after"]), raw


def unit_count(workload: Any, seconds: float) -> int:
    """Units in a run of ``seconds``: a fixed count from the unit's
    nominal wall time on the reference machine, so a run of a given
    length always does the same work and two commits are compared on
    identical inputs."""
    return max(1, round(seconds / workload.nominal_unit_s))


def measure(workload: Any, seeds: List[int], tracer: Any = None,
            serial: bool = False) -> List[Any]:
    """Run and check one unit per seed.

    With ``tracer`` each unit's run is traced inside a ``unit`` span and
    the wrappers are removed again before its outputs are checked.
    """
    from layers import instrument

    units = []
    for useed in seeds:
        meter = speed.Speedometer()
        if tracer is not None:
            instrument(tracer)
            # Readings taken inside program spans (the fleet's per-tick
            # ones) become spans of their own, so no layer is charged.
            tracer.wrap_method(speed.Speedometer, "reading", "bench.reading")
            try:
                t0 = time.perf_counter()
                with tracer.span("unit"):
                    unit = workload.run(useed, meter)
                unit_wall = time.perf_counter() - t0
            finally:
                tracer.restore()
        else:
            t0 = time.perf_counter()
            unit = workload.run(useed, meter)
            unit_wall = time.perf_counter() - t0
        # The unit's wall without its speed readings.
        unit.extras["unit_wall"] = unit_wall - meter.spent
        workload.check(unit, serial=serial)
        units.append(unit)
    return units


def _seeds(workload: Any, seed: int, seconds: float) -> List[int]:
    from workloads import unit_seed

    return [unit_seed(workload.name, seed, i)
            for i in range(unit_count(workload, seconds))]


def _digest(units: List[Any]) -> str:
    records = json.dumps([u.record for u in units], sort_keys=True)
    return hashlib.sha256(records.encode()).hexdigest()[:16]


def _sum_extra(units: List[Any], key: str) -> float:
    return sum(u.extras.get(key, 0.0) for u in units)


def end_to_end(workload: Any, args: argparse.Namespace):
    from layers import percentile

    setups = [_probe_setup(args) for _ in range(SETUP_PROBES)]
    workload.setup()
    units = measure(workload, _seeds(workload, args.seed, args.seconds))
    rounds = [r for u in units for r in u.rounds]
    ops = sum(u.ops for u in units)
    metrics = {
        "ops_per_s": ops / sum(u.wall for u in units),
        "round_ms.p50": 1e3 * statistics.median(rounds),
        "setup_s": statistics.median([fixed for fixed, _ in setups]),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"units": len(units), "ops": ops, "round_samples": len(rounds),
            "raw": {"ops_per_s": ops / sum(u.raw_wall for u in units),
                    "setup_s": statistics.median([raw for _, raw in setups])}}
    if len(rounds) >= 100:
        info["round_ms.p90"] = round(1e3 * percentile(rounds, 90), 3)
    return units, metrics, info


def traced(workload: Any, args: argparse.Namespace):
    from layers import instrument, layer_metrics, layer_shares, percentile
    from tracer import SpanStats, Tracer

    setup_tracer = Tracer()
    instrument(setup_tracer)
    try:
        workload.setup()
    finally:
        setup_tracer.restore()
    tracer = Tracer()
    seeds = _seeds(workload, args.seed, args.seconds / 2)
    # The measured serial baseline re-runs a unit at workers = 1; one
    # unit is enough for the ratio.
    plain = measure(workload, seeds[:1], serial=True) + \
        measure(workload, seeds[1:])
    spans = measure(workload, seeds, tracer=tracer)
    stats = tracer.stats()
    untraced_wall = _sum_extra(plain, "unit_wall")
    traced_wall = _sum_extra(spans, "unit_wall")
    unit = stats["unit"]
    readings = stats.get("bench.reading", SpanStats())
    extras = {key: _sum_extra(spans, key) for key in
              ("ids.alerts_accepted", "ids.alerts_lost",
               "fleet.central_deferrals")}
    # Units whose check re-ran them at workers = 1: serial wall over the
    # same work's wall at workers = nproc (the whole fleet run, or just
    # the Gillespie batches of a model pass).
    baseline = [u for u in plain if "serial_wall" in u.extras]
    if baseline:
        speedup_key = ("fleet.serial_speedup" if workload.name == "fleet"
                       else "sim.batch.serial_speedup")
        extras[speedup_key] = _sum_extra(baseline, "serial_wall") / sum(
            u.extras.get("parallel_wall", u.raw_wall) for u in baseline)
    if workload.name == "fleet":
        ticks = [r for u in plain for r in u.rounds]
        extras.update({
            "fleet.tick_ms.p50": 1e3 * statistics.median(ticks),
            "fleet.tick_ms.p90": 1e3 * percentile(ticks, 90),
            "fleet.setup_ms_per_tenant": 1e3 * statistics.median(
                [u.extras["construct_s"] for u in plain]) / workload.tenants,
            "fleet.rss_kb_per_tenant": workload.rss_kb_per_tenant,
        })
    setup_stats = setup_tracer.stats()
    # Overhead compares the same units' speed-corrected walls, so the
    # machine's drift between the two passes does not read as overhead.
    plain_wall = sum(u.wall for u in plain)
    overhead = sum(u.wall for u in spans) - plain_wall
    extras.update({
        "markov.setup_s": sum(
            setup_stats[name].total for name in setup_stats
            if name.startswith("markov.")),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": overhead,
        "trace.overhead_share": overhead / plain_wall,
        "trace.coverage": (unit.total - unit.self_time - readings.total)
        / traced_wall,
    })
    metrics = layer_metrics(stats, extras)
    info = {"units": len(spans), "untraced_wall_s": round(untraced_wall, 4),
            "layer_self_share": layer_shares(stats),
            "leftover_wrappers": tracer.patched}
    return plain + spans, metrics, info


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="toy-size workloads (self-tests)")
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _program_on_path()
    from layers import PER_LAYER
    from workloads import toy_workloads, workloads

    table = toy_workloads() if args.quick else workloads()
    if args.workload not in table:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(table)}")
    workload = table[args.workload]
    if args.probe_setup:
        meter = speed.Speedometer()
        before = meter.reading()
        workload.setup()
        ready = time.monotonic()
        print(json.dumps({"ready": ready, "before": before,
                          "after": meter.reading()}))
        return 0

    run = traced if args.trace else end_to_end
    units, metrics, info = run(workload, args)
    units_of = dict(PER_LAYER) if args.trace else dict(END_TO_END)
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    problems = [p for u in units for p in u.problems]
    if problems:
        info["problems"] = problems[:5]
    info.update({"env": _environment(workload, args.seed),
                 "digest": _digest(units),
                 "failed_fraction": failed / attempted})
    print(json.dumps({"bench": info}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units_of.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
