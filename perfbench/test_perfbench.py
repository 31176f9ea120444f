"""Self-tests of the benchmark.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def find_leftover_wrappers(owners):
    """Attributes of ``owners`` and of every loaded ``repro`` module that
    still hold a tracing wrapper."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "repro" or n.startswith("repro."))]
    return [f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner in list(owners) + modules
            for attr, value in list(vars(owner).items())
            if getattr(value, "__qualname__", "").startswith(
                "Tracer._wrapper")]


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(done: subprocess.CompletedProcess):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["bench"], json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(workloads.toy_workloads()))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_quick_mode_runs_every_workload(name, trace):
    bench, result = _result(_bench("--workload", name, "--seed", "1",
                                   "--seconds", "0.2", "--trace", trace,
                                   "--quick"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = layers.PER_LAYER if trace == "1" else run.END_TO_END
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == wanted
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    env = bench["env"]
    for key in ("nproc", "python", "numpy", "scipy", "platform", "seed",
                "params"):
        assert key in env
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert bench["leftover_wrappers"] == 0
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9


def test_metric_names_and_units_are_well_formed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert end_to_end == run.END_TO_END
    assert per_layer == layers.PER_LAYER
    names = [n for n, _ in end_to_end + per_layer] + \
        [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name, unit in end_to_end + per_layer:
        assert NAME.fullmatch(name) and re.fullmatch(r"[A-Za-z0-9_.-]+", name)
        assert UNIT.fullmatch(unit)
    assert sorted(w["name"] for w in spec["workloads"]) == \
        sorted(workloads.workloads())


def test_wrappers_are_all_removed_after_the_traced_run():
    import repro.core.analyzer as analyzer_mod
    import repro.markov  # noqa: F401  (loads the solver module)
    from repro.obs.events import EventBus

    # The package re-exports the function under the module's own name,
    # so the module is reached through sys.modules.
    steady_mod = sys.modules["repro.markov.steady_state"]

    publish = EventBus.__dict__["publish"]
    closure = analyzer_mod.DependencyAnalyzer
    solve = steady_mod.steady_state
    tracer = Tracer()
    owners = layers.instrument(tracer)
    assert find_leftover_wrappers(owners)
    assert EventBus.__dict__["publish"] is not publish
    tracer.restore()
    assert find_leftover_wrappers(owners) == []
    assert tracer.patched == 0
    assert EventBus.__dict__["publish"] is publish
    assert analyzer_mod.DependencyAnalyzer is closure
    assert steady_mod.steady_state is solve


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("outer"):
            pass
    stats = tracer.stats()
    inner, outer = stats["inner"], stats["outer"]
    assert outer.calls == 2 and inner.calls == 1
    # The nested "outer" counts once in the total (outermost only), and
    # its own duration is self time of the inner of the two.
    assert outer.total == pytest.approx(max(outer.durations))
    assert outer.self_time == pytest.approx(outer.total - inner.total)


def test_same_seed_same_digest_other_seed_other_attack_stream():
    args = ("--workload", "fullstack-overload", "--seconds", "0.2",
            "--trace", "0", "--quick")
    first, _ = _result(_bench("--seed", "5", *args))
    again, _ = _result(_bench("--seed", "5", *args))
    other, _ = _result(_bench("--seed", "6", *args))
    assert first["digest"] == again["digest"]
    assert first["digest"] != other["digest"]
    toy = workloads.toy_workloads()["fullstack-overload"]
    streams = [workloads.reference_queue(8.0, 1 / 15, 1 / 20, 8, 8, 50.0,
                                         workloads.unit_seed(toy.name, s, 0))
               for s in (5, 6)]
    assert streams[0] != streams[1]


def test_reference_queue_matches_the_simulator():
    from repro.sim.fullstack import FullStackConfig, run_replication

    for rate, horizon in ((1.0, 30.0), (8.0, 4.0)):
        config = FullStackConfig(arrival_rate=rate)
        for seed in range(5):
            result = run_replication(config, horizon, seed)
            assert workloads.reference_queue(
                rate, config.scan_time, config.unit_recovery_time,
                config.alert_buffer, config.recovery_buffer, horizon,
                seed) == (result.attacks, result.alerts_lost, result.heals)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "model", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
