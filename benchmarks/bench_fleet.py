"""Fleet control-plane benchmark: throughput and latency at scale.

Emits ``BENCH_fleet.json``: a tenant-count sweep of the multi-tenant
recovery control plane (:mod:`repro.fleet`), reporting per row

- **sustained alert throughput** — attacks fully detected, analyzed
  and healed per wall-clock second of the run;
- **detect→heal latency** — p50/p99/max of the per-alert simulated
  time from IDS detection to the start of its batch heal;
- the run's wall clock and the ``audits_ok`` correctness guard: every
  tenant's end-to-end strict-correctness audit must pass.

The fleet runs every phase inline, so each tenant count runs once.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_fleet.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_fleet.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_fleet.py --out-dir benchmarks/results

The full sweep covers 100 / 1 000 / 10 000 tenants (larger fleets run
shorter sim durations to keep total attack volume — and memory —
bounded); ``--quick`` shrinks to seconds for the CI smoke job.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.fleet import FleetConfig, FleetControlPlane, percentile

#: (tenants, simulated duration) per row; larger fleets run shorter so
#: every row stays within the same order of total attack volume.
FULL_SIZES: List[Tuple[int, float]] = [
    (100, 40.0), (1_000, 15.0), (10_000, 5.0),
]
QUICK_SIZES: List[Tuple[int, float]] = [(20, 10.0), (100, 5.0)]


def run_fleet(tenants: int, duration: float, seed: int):
    """One timed fleet run; returns ``(report, wall_seconds)``."""
    config = FleetConfig(tenants=tenants, duration=duration, seed=seed)
    plane = FleetControlPlane(config)
    t0 = time.perf_counter()
    report = plane.run()
    return report, time.perf_counter() - t0


def bench_fleet(sizes: List[Tuple[int, float]],
                seed: int) -> Dict[str, object]:
    """Tenant-count sweep, one run per row."""
    results = []
    for tenants, duration in sizes:
        report, wall_s = run_fleet(tenants, duration, seed)
        lat = sorted(report.health.latencies)
        health = report.health
        entry = {
            "tenants": tenants,
            "duration": duration,
            "ticks": report.ticks,
            "attacks": report.attacks,
            "alerts_accepted": report.alerts_accepted,
            "alerts_lost": report.alerts_lost,
            "central_deferrals": report.central_deferrals,
            "heals": report.heals,
            "wall_s": wall_s,
            # healed alerts per wall-clock second, end to end
            "throughput_alerts_per_s": (
                report.attacks / wall_s if wall_s > 0 else None
            ),
            "latency_samples": len(lat),
            "latency_p50": percentile(lat, 50),
            "latency_p99": percentile(lat, 99),
            "latency_max": lat[-1] if lat else 0.0,
            "verdict": health.verdict.value,
            "breach_tenants": health.by_state["BREACH"],
            "audits_ok": all(t.audits_ok for t in health.tenants),
        }
        results.append(entry)
        print(f"  {tenants:>6} tenants (duration {duration:g}): "
              f"{entry['attacks']} attacks, "
              f"{entry['throughput_alerts_per_s']:.0f} alerts/s, "
              f"latency p50 {entry['latency_p50']:.3f} "
              f"p99 {entry['latency_p99']:.3f}, "
              f"wall {wall_s:.2f}s, audits_ok={entry['audits_ok']}")
    return {
        "benchmark": "fleet",
        "seed": seed,
        "results": results,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fleet control-plane benchmark (JSON output)"
    )
    parser.add_argument("--quick", action="store_true",
                        help="tiny sweep for CI smoke runs")
    parser.add_argument("--out-dir", type=pathlib.Path,
                        default=pathlib.Path("."),
                        help="directory for BENCH_fleet.json "
                             "(default: cwd)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    sizes = QUICK_SIZES if args.quick else FULL_SIZES
    print(f"fleet sweep ({'quick' if args.quick else 'full'}): "
          f"{', '.join(str(t) for t, _ in sizes)} tenants")
    doc = bench_fleet(sizes, seed=args.seed)
    doc["meta"] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "quick": args.quick,
    }

    args.out_dir.mkdir(parents=True, exist_ok=True)
    out = args.out_dir / "BENCH_fleet.json"
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")

    bad = [row for row in doc["results"] if not row["audits_ok"]]
    if bad:
        print("FAIL: correctness guard tripped on "
              f"{len(bad)} row(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
