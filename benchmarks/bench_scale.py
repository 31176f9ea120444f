"""Machine-readable scale-layer benchmark harness.

Emits two JSON documents that seed the perf trajectory:

- ``BENCH_ctmc.json`` — a state-count sweep over the recovery STG
  comparing the dense and sparse solver backends (steady state,
  uniformization transient, expected hitting times, Equation 3's
  cumulative times at ``t = 1000``), with per-size
  best-of speedups, each op's spread over its repeats (the smallest and
  largest of the per-repeat speedups) and the max dense-vs-sparse
  discrepancy as a built-in correctness guard;
- ``BENCH_sim.json`` — a replication-count sweep of the Gillespie
  batch runner comparing 1 worker with K workers, with the pooled
  loss-probability estimate per cell.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_scale.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_scale.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_scale.py --out-dir benchmarks/results

The ``--quick`` mode shrinks sweeps to seconds for the CI smoke job;
the full sweep is what the committed ``BENCH_*.json`` files at the repo
root were generated with.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.markov.passage import expected_hitting_times
from repro.markov.steady_state import steady_state
from repro.markov.stg import RecoverySTG
from repro.markov.transient import cumulative_times, transient_probabilities
from repro.sim.batch import default_workers, run_gillespie_batch

#: Arrival rate used throughout: high enough that loss states carry
#: probability mass and the solves are not trivially concentrated.
ARRIVAL_RATE = 2.0

#: Horizon of the Equation 3 row: long enough for the chain to mix,
#: so the dense path runs its full count of squarings.
CUMULATIVE_HORIZON = 1000.0

FULL_CTMC_BUFFERS = [10, 15, 25, 35, 45]
QUICK_CTMC_BUFFERS = [3, 6]

FULL_SIM_REPLICATIONS = [8, 32]
QUICK_SIM_REPLICATIONS = [2, 4]

FULL_SIM_HORIZON = 400.0
QUICK_SIM_HORIZON = 30.0


def _walls(fn: Callable[[], object], repeats: int) -> List[float]:
    """Wall time of each of ``repeats`` calls of ``fn``, in seconds."""
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t0)
    return walls


def bench_ctmc(buffers: List[int], repeats: int) -> Dict[str, object]:
    """Dense-vs-sparse sweep over STG sizes."""
    results = []
    for buffer_size in buffers:
        stg = RecoverySTG.paper_default(
            arrival_rate=ARRIVAL_RATE, buffer_size=buffer_size
        )
        chain = stg.ctmc()
        pi0 = stg.initial_distribution()
        targets = stg.loss_states()

        pi_dense = steady_state(chain, backend="dense")
        pi_sparse = steady_state(chain, backend="sparse")
        steady_diff = float(np.abs(pi_dense - pi_sparse).max())

        tr_dense = transient_probabilities(chain, pi0, 2.0,
                                           backend="dense")
        tr_sparse = transient_probabilities(chain, pi0, 2.0,
                                            backend="sparse")
        transient_diff = float(np.abs(tr_dense - tr_sparse).max())

        h_dense = expected_hitting_times(chain, targets, backend="dense")
        h_sparse = expected_hitting_times(chain, targets,
                                          backend="sparse")
        finite = np.isfinite(h_dense)
        passage_diff = float(
            np.abs(h_dense[finite] - h_sparse[finite]).max()
        )

        cum_dense = cumulative_times(chain, pi0, CUMULATIVE_HORIZON,
                                     backend="dense")
        cum_sparse = cumulative_times(chain, pi0, CUMULATIVE_HORIZON,
                                      backend="sparse")
        cumulative_diff = float(np.abs(cum_dense - cum_sparse).max())

        entry = {
            "buffer": buffer_size,
            "states": chain.n_states,
            "transitions": chain.nnz,
            "max_abs_diff": {
                "steady_state": steady_diff,
                "transient": transient_diff,
                "passage": passage_diff,
                "cumulative": cumulative_diff,
            },
        }
        for op, dense_fn, sparse_fn in (
            ("steady_state",
             lambda: steady_state(chain, backend="dense"),
             lambda: steady_state(chain, backend="sparse")),
            ("transient",
             lambda: transient_probabilities(chain, pi0, 2.0,
                                             backend="dense"),
             lambda: transient_probabilities(chain, pi0, 2.0,
                                             backend="sparse")),
            ("passage",
             lambda: expected_hitting_times(chain, targets,
                                            backend="dense"),
             lambda: expected_hitting_times(chain, targets,
                                            backend="sparse")),
            ("cumulative",
             lambda: cumulative_times(chain, pi0, CUMULATIVE_HORIZON,
                                      backend="dense"),
             lambda: cumulative_times(chain, pi0, CUMULATIVE_HORIZON,
                                      backend="sparse")),
        ):
            dense = _walls(dense_fn, repeats)
            sparse = _walls(sparse_fn, repeats)
            dense_s, sparse_s = min(dense), min(sparse)
            # Repeat i of each backend makes one speedup; their range is
            # how far this machine moves the best-of figure.
            speedups = [d / s for d, s in zip(dense, sparse) if s > 0]
            entry[op] = {
                "dense_s": dense_s,
                "sparse_s": sparse_s,
                "speedup": dense_s / sparse_s if sparse_s > 0 else None,
                "speedup_min": min(speedups, default=None),
                "speedup_max": max(speedups, default=None),
            }
        results.append(entry)
        print(f"  buffer {buffer_size:>3} ({chain.n_states} states): "
              f"steady {entry['steady_state']['speedup']:.1f}x, "
              f"transient {entry['transient']['speedup']:.1f}x, "
              f"passage {entry['passage']['speedup']:.1f}x, "
              f"cumulative {entry['cumulative']['speedup']:.1f}x, "
              f"max diff {max(entry['max_abs_diff'].values()):.2e}")
    largest = results[-1]
    return {
        "benchmark": "ctmc_backends",
        "arrival_rate": ARRIVAL_RATE,
        "repeats": repeats,
        "results": results,
        "largest_stg": {
            "buffer": largest["buffer"],
            "states": largest["states"],
            "steady_state_speedup": largest["steady_state"]["speedup"],
        },
    }


def bench_sim(
    replication_counts: List[int],
    horizon: float,
    workers: int,
) -> Dict[str, object]:
    """1-vs-K-workers sweep over replication counts.

    Each batch rides a health monitor; besides the trajectory-identity
    check, the merged conformance verdict must be bit-identical between
    the serial and the parallel run — the worker-count invariance the
    deterministic merge promises.
    """
    from repro.obs.health import ModelPrediction

    stg = RecoverySTG.paper_default(
        arrival_rate=ARRIVAL_RATE, buffer_size=8
    )
    prediction = ModelPrediction.from_stg(stg)
    results = []
    for n in replication_counts:
        serial = run_gillespie_batch(
            stg, horizon=horizon, replications=n, workers=1, seed=0,
            health=prediction,
        )
        parallel = run_gillespie_batch(
            stg, horizon=horizon, replications=n, workers=workers,
            seed=0, health=prediction,
        )
        identical = (
            serial.seeds == parallel.seeds
            and all(
                a.occupancy == b.occupancy and a.jumps == b.jumps
                for a, b in zip(serial.results, parallel.results)
            )
        )
        conformance = parallel.conformance
        conformance_identical = serial.conformance == conformance
        entry = {
            "replications": n,
            "horizon": horizon,
            "workers": workers,
            "serial_s": serial.elapsed,
            "parallel_s": parallel.elapsed,
            "speedup": (serial.elapsed / parallel.elapsed
                        if parallel.elapsed > 0 else None),
            "results_identical": identical,
            "conformance_identical": conformance_identical,
            "conformance_verdict": conformance.verdict.value,
            "drift_count": conformance.drift_count,
            "loss_time_fraction": parallel.loss_time_fraction,
            "loss_time_stderr": parallel.loss_time_stderr,
            "total_jumps": parallel.jumps,
        }
        results.append(entry)
        print(f"  {n:>4} replications: serial {serial.elapsed:.2f}s, "
              f"{workers} workers {parallel.elapsed:.2f}s "
              f"({entry['speedup']:.1f}x), identical={identical}, "
              f"conformance {conformance.verdict.value} "
              f"(identical={conformance_identical})")
    return {
        "benchmark": "sim_batch",
        "arrival_rate": ARRIVAL_RATE,
        "buffer": 8,
        "results": results,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Scale-layer benchmarks (JSON output)"
    )
    parser.add_argument("--quick", action="store_true",
                        help="tiny sweeps for CI smoke runs")
    parser.add_argument("--out-dir", type=pathlib.Path,
                        default=pathlib.Path("."),
                        help="directory for BENCH_*.json (default: cwd)")
    parser.add_argument("--workers", type=int, default=None,
                        help="parallel worker count for the sim sweep "
                             "(default: min(cpu_count, 8))")
    args = parser.parse_args(argv)

    # The sim sweep compares 1-vs-K workers; K must be at least 2 for
    # the pool path to run at all, even on a single-core box.
    workers = args.workers if args.workers else max(2, default_workers())
    if args.quick:
        buffers, repeats = QUICK_CTMC_BUFFERS, 1
        replication_counts = QUICK_SIM_REPLICATIONS
        horizon = QUICK_SIM_HORIZON
    else:
        buffers, repeats = FULL_CTMC_BUFFERS, 3
        replication_counts = FULL_SIM_REPLICATIONS
        horizon = FULL_SIM_HORIZON

    meta = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "quick": args.quick,
    }

    print("CTMC backend sweep:")
    ctmc_doc = bench_ctmc(buffers, repeats)
    ctmc_doc["meta"] = meta
    print("Simulation batch sweep:")
    sim_doc = bench_sim(replication_counts, horizon, workers)
    sim_doc["meta"] = meta

    args.out_dir.mkdir(parents=True, exist_ok=True)
    for name, doc in (("BENCH_ctmc.json", ctmc_doc),
                      ("BENCH_sim.json", sim_doc)):
        path = args.out_dir / name
        path.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
