"""Chunked fan-out of the replication batches.

A pooled batch splits its replications into ``min(workers, n)``
contiguous chunks, one pool task each.  Whatever the split — fewer
replications than workers, uneven remainders — the batch must equal
the inline ``workers=1`` run: results, seeds, merged conformance and
flight-log bytes.  Under a recording profiler, ``batch.worker`` still
counts one call per replication and ``pickle_bytes`` counts the chunk
payloads handed to the pool.
"""

from __future__ import annotations

import pickle

import pytest

from repro.markov.stg import RecoverySTG
from repro.obs.health import ModelPrediction
from repro.obs.perf import PhaseProfiler, recording
from repro.sim.batch import (
    _chunks,
    _timed_fullstack,
    _timed_gillespie,
    run_fullstack_batch,
    run_gillespie_batch,
)
from repro.sim.fullstack import FullStackConfig

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.sim.batch.ParallelSlowdownWarning")

REPLICATIONS = [1, 2, 5, 7]
WORKERS = [2, 3]
SEED = 11

STG = RecoverySTG.paper_default(arrival_rate=3.0, buffer_size=4)
STG_HORIZON = 40.0
CONFIG = FullStackConfig(arrival_rate=3.0, alert_buffer=3,
                         recovery_buffer=3)
FULLSTACK_HORIZON = 4.0


@pytest.fixture(scope="module")
def stg_prediction():
    return ModelPrediction.from_stg(STG)


@pytest.fixture(scope="module")
def config_prediction():
    return ModelPrediction.from_stg(CONFIG.stg())


def _profiled(run):
    prof = PhaseProfiler().start()
    with recording(prof):
        batch = run()
    prof.stop()
    report = prof.report("batch")
    rows = {r["path"]: r for r in report.rows}
    return batch, rows, report.counters


def _comparable(results):
    return [dict(vars(r), conformance=None) for r in results]


@pytest.fixture(scope="module")
def serial_gillespie(stg_prediction):
    return {
        n: run_gillespie_batch(STG, STG_HORIZON, n, workers=1, seed=SEED,
                               health=stg_prediction)
        for n in REPLICATIONS
    }


@pytest.fixture(scope="module")
def serial_fullstack(tmp_path_factory, config_prediction):
    out = {}
    for n in REPLICATIONS:
        record_dir = tmp_path_factory.mktemp(f"serial-{n}")
        batch = run_fullstack_batch(CONFIG, FULLSTACK_HORIZON, n, workers=1,
                                    seed=SEED, record_dir=str(record_dir),
                                    health=config_prediction)
        out[n] = (batch, _read_logs(record_dir))
    return out


def _read_logs(record_dir):
    return {p.name: p.read_bytes() for p in sorted(record_dir.iterdir())}


def test_chunks_are_contiguous_and_near_equal():
    tasks = [(i,) for i in range(7)]
    assert _chunks(tasks, 3) == [tasks[0:3], tasks[3:5], tasks[5:7]]
    assert _chunks(tasks, 7) == [[t] for t in tasks]
    assert _chunks(tasks[:2], 2) == [tasks[0:1], tasks[1:2]]


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("replications", REPLICATIONS)
def test_gillespie_batch_matches_workers_1(
        workers, replications, serial_gillespie, stg_prediction):
    serial = serial_gillespie[replications]
    batch, rows, counters = _profiled(lambda: run_gillespie_batch(
        STG, STG_HORIZON, replications, workers=workers, seed=SEED,
        health=stg_prediction))
    assert batch.seeds == serial.seeds
    assert _comparable(batch.results) == _comparable(serial.results)
    assert [r.conformance for r in batch.results] == \
        [r.conformance for r in serial.results]
    assert batch.conformance == serial.conformance
    assert len(batch.wall_times) == replications
    assert rows["batch.worker"]["calls"] == replications
    tasks = [(STG, STG_HORIZON, s, None, stg_prediction, None)
             for s in serial.seeds]
    chunks = _chunks(tasks, min(workers, replications))
    assert counters["pickle_bytes"] == sum(
        len(pickle.dumps((_timed_gillespie, chunk))) for chunk in chunks)


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("replications", REPLICATIONS)
def test_fullstack_batch_matches_workers_1(
        workers, replications, serial_fullstack, config_prediction,
        tmp_path):
    serial, serial_logs = serial_fullstack[replications]
    batch, rows, counters = _profiled(lambda: run_fullstack_batch(
        CONFIG, FULLSTACK_HORIZON, replications, workers=workers,
        seed=SEED, record_dir=str(tmp_path), health=config_prediction))
    assert batch.seeds == serial.seeds
    assert _comparable(batch.results) == _comparable(serial.results)
    assert [r.conformance for r in batch.results] == \
        [r.conformance for r in serial.results]
    assert batch.conformance == serial.conformance
    assert _read_logs(tmp_path) == serial_logs
    assert rows["batch.worker"]["calls"] == replications
    tasks = [(CONFIG, FULLSTACK_HORIZON, s, str(tmp_path / f"rep-{i:04d}.jsonl"),
              config_prediction, None)
             for i, s in enumerate(serial.seeds)]
    chunks = _chunks(tasks, min(workers, replications))
    assert counters["pickle_bytes"] == sum(
        len(pickle.dumps((_timed_fullstack, chunk))) for chunk in chunks)


def test_shared_arguments_are_pickled_once_per_chunk(stg_prediction):
    """Seven replications on two workers ship the STG twice, not seven
    times."""
    _, _, counters = _profiled(lambda: run_gillespie_batch(
        STG, STG_HORIZON, 7, workers=2, seed=SEED, health=stg_prediction))
    tasks = [(STG, STG_HORIZON, s, None, stg_prediction, None)
             for s in range(7)]
    per_task = sum(len(pickle.dumps((_timed_gillespie, t))) for t in tasks)
    assert counters["pickle_bytes"] < per_task / 2
