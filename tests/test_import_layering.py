"""Import layering: each entry point loads only the code it runs.

The pipeline of Sections III-IV (store, log, analyzer, healer, the
Figure 2 system) needs no numerics; only the Section V CTMC model does,
and the model needs none of the pipeline.  So the pipeline and the
CLI's parser load neither numpy nor scipy, the fleet loads numpy only
for its cached CTMC predictions, the model package loads scipy only
where the sparse backend or the ``expm`` reference asks for it, and the
model path (solvers plus a Gillespie batch) loads no pipeline module.
Each check starts a fresh interpreter, runs one entry point and reads
its ``sys.modules``: exact facts, not timings.

The packages resolve their exports on first use; the export tests pin
that each is its defining module's current object.

The model's dense path must also run with scipy import-blocked, as
:mod:`repro.markov.backend` promises: auto stays dense, and an explicit
``backend="sparse"`` fails with an install hint.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from typing import Dict, Set

import pytest

import repro
import repro.markov
import repro.system

SRC = Path(repro.__file__).parent
NUMERICS = {"numpy", "scipy"}
#: The pipeline of Sections III-IV, as ``[package, subpackage]``.
PIPELINE = [["repro", name] for name in
            ("core", "workflow", "system", "ids", "persistence")]


def _run(script: str) -> str:
    """Run ``script`` in a fresh interpreter; return its stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _loaded_after(script: str) -> Set[str]:
    """The modules loaded once ``script`` has run in a fresh
    interpreter."""
    out = _run(textwrap.dedent(script) + "\nimport json, sys\n"
               "print(json.dumps(sorted(sys.modules)))\n")
    return set(json.loads(out.strip().splitlines()[-1]))


class TestEntryPoints:
    def test_pipeline_runs_without_numerics(self):
        loaded = _loaded_after("""
            from repro.sim.fullstack import FullStackConfig, run_replication
            run_replication(FullStackConfig(), 2.0, 0)
        """)
        assert "repro.system" in loaded
        assert not NUMERICS & loaded

    def test_fleet_runs_without_scipy(self):
        loaded = _loaded_after("""
            import repro.fleet as fleet
            fleet.FleetControlPlane(fleet.FleetConfig(tenants=8)).run()
        """)
        assert "repro.fleet.control" in loaded
        assert "scipy" not in loaded

    def test_model_path_loads_no_pipeline(self):
        loaded = _loaded_after("""
            import repro.markov, repro.sim.batch
            stg = repro.markov.RecoverySTG.paper_default(buffer_size=2)
            repro.sim.batch.run_gillespie_batch(stg, 10.0, 2, workers=1)
        """)
        assert "repro.sim.ctmc_sim" in loaded
        assert not {name for name in loaded
                    if name.split(".")[:2] in PIPELINE}

    def test_event_bus_loads_no_server(self):
        loaded = _loaded_after("import repro.obs.events")
        assert not {"http.server", "repro.obs.server", "repro.obs.provenance",
                    "repro.obs.runner"} & loaded

    def test_unrecorded_replication_imports_nothing_when_profiled(self):
        """No import lands inside a profiled window: it would be charged
        to the run's phases and sink its attribution."""
        out = _run("""
            import json, sys
            from repro.obs.perf import PhaseProfiler, recording
            from repro.sim.fullstack import FullStackConfig, run_replication
            before = set(sys.modules)
            profiler = PhaseProfiler().start()
            with recording(profiler):
                run_replication(FullStackConfig(), 5.0, 7)
            profiler.stop()
            print(json.dumps(sorted(set(sys.modules) - before)))
        """)
        assert json.loads(out.strip().splitlines()[-1]) == []

    def test_model_package_loads_no_scipy(self):
        loaded = _loaded_after("import repro.markov")
        assert "repro.markov.steady_state" in loaded
        assert "scipy" not in loaded

    def test_cli_parser_loads_no_numerics(self):
        loaded = _loaded_after("""
            import repro.cli
            repro.cli.build_parser()
        """)
        assert not NUMERICS & loaded


#: The packages whose exports the tests below pin; a lazy export is an
#: entry of its package's ``_HOMES`` table.
PACKAGES = ["repro", "repro.obs", "repro.workflow", "repro.sim",
            "repro.markov"]
PACKAGE_IDS = [name.rsplit(".", 1)[-1] for name in PACKAGES]


def _homes(package: str) -> Dict[str, str]:
    """Each name ``package`` exports and the module that defines it:
    a lazy export's ``_HOMES`` entry, an eager one's ``from … import``
    line in the package's ``__init__.py``."""
    module = importlib.import_module(package)
    init = Path(module.__file__).read_text()
    homes = {alias.name: node.module
             for node in ast.parse(init).body
             if isinstance(node, ast.ImportFrom)
             and node.module != "repro._exports"
             for alias in node.names}
    homes.update({name: f"{package}.{home}"
                  for name, home in getattr(module, "_HOMES", {}).items()})
    return homes


class TestPackageExports:
    @pytest.mark.parametrize("package", PACKAGES, ids=PACKAGE_IDS)
    def test_every_export_is_its_modules_object(self, package):
        module = importlib.import_module(package)
        homes = _homes(package)
        assert set(module.__all__) - {"__version__"} == set(homes)
        assert set(module.__all__) <= set(dir(module))
        for name in homes:
            home = importlib.import_module(homes[name])
            value = getattr(module, name)
            assert value is getattr(home, name), name
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == homes[name], name

    @pytest.mark.parametrize("package", PACKAGES, ids=PACKAGE_IDS)
    def test_lazy_exports_follow_a_patched_module(self, package,
                                                  monkeypatch):
        """A lazy package keeps no binding of its own, so a function
        patched in its defining module is what the package hands out,
        and the original is again once the patch is undone."""
        module = importlib.import_module(package)
        lazy = {name: f"{package}.{home}"
                for name, home in module._HOMES.items()}
        originals = {name: getattr(module, name) for name in lazy}
        for name, home in lazy.items():
            monkeypatch.setattr(importlib.import_module(home), name,
                                (name,))
        for name in lazy:
            assert getattr(module, name) == (name,)
            assert name not in vars(module)
        monkeypatch.undo()
        for name, original in originals.items():
            assert getattr(module, name) is original

    @pytest.mark.parametrize("package", PACKAGES, ids=PACKAGE_IDS)
    def test_a_lazy_package_names_no_other_attribute(self, package):
        with pytest.raises(AttributeError):
            getattr(importlib.import_module(package), "no_such_export")

    def test_submodules_stay_importable(self):
        from repro.sim import fullstack

        assert fullstack is sys.modules["repro.sim.fullstack"]

    def test_an_export_wins_over_its_same_named_submodule(self):
        """``repro.workflow`` is the builder and the workflow package,
        ``repro.workflow.dominators`` a function and its module: the
        package hands out the export whatever was imported first."""
        out = _run("""
            import json, sys
            import repro.workflow.dependency
            from repro import workflow
            from repro.workflow import dominators
            import repro.markov
            print(json.dumps([
                callable(workflow),
                workflow is sys.modules["repro.workflow.spec"].workflow,
                dominators is sys.modules[
                    "repro.workflow.dominators"].dominators,
                repro.markov.steady_state is sys.modules[
                    "repro.markov.steady_state"].steady_state,
            ]))
        """)
        assert json.loads(out.strip().splitlines()[-1]) == [True] * 4

    def test_state_category_is_one_object(self):
        import repro.states
        from repro.markov import stg

        category = repro.states.StateCategory
        assert repro.markov.StateCategory is stg.StateCategory is category
        assert repro.system.StateCategory is category
        assert repro.SystemState is repro.system.SystemState \
            is repro.states.SystemState
        assert [(c.name, c.value) for c in category] == [
            ("NORMAL", "normal"), ("SCAN", "scan"),
            ("RECOVERY", "recovery")]


class TestModelWithoutScipy:
    """The scipy-free model path, with scipy import-blocked in a fresh
    interpreter (a blocked entry makes every ``import scipy…`` raise
    ``ImportError``)."""

    SCRIPT = """
        import json, sys
        sys.modules["scipy"] = None
        import numpy as np
        from repro.errors import ModelError
        from repro.markov import (
            SPARSE_AUTO_THRESHOLD, RecoverySTG, sparse_available,
            steady_state, transient_probabilities,
        )

        # 21 x 21 states: auto would pick sparse if scipy imported.
        stg = RecoverySTG.paper_default(buffer_size=20)
        chain = stg.ctmc()
        pi_t = transient_probabilities(chain, stg.initial_distribution(),
                                       1.0, backend="dense")
        try:
            steady_state(chain, backend="sparse")
            sparse_error = None
        except ModelError as exc:
            sparse_error = str(exc)
        print(json.dumps({
            "states": chain.n_states,
            "threshold": SPARSE_AUTO_THRESHOLD,
            "sparse_available": sparse_available(),
            "auto_is_dense": bool(np.array_equal(
                steady_state(chain), steady_state(chain, backend="dense"))),
            "transient_mass": float(pi_t.sum()),
            "sparse_error": sparse_error,
        }))
    """

    @pytest.fixture(scope="class")
    def outcome(self):
        return json.loads(_run(self.SCRIPT).strip().splitlines()[-1])

    def test_auto_stays_dense(self, outcome):
        assert outcome["states"] >= outcome["threshold"]
        assert outcome["sparse_available"] is False
        assert outcome["auto_is_dense"] is True

    def test_transient_dense_path_runs(self, outcome):
        assert outcome["transient_mass"] == pytest.approx(1.0, abs=1e-9)

    def test_sparse_request_fails_with_install_hint(self, outcome):
        assert outcome["sparse_error"] is not None
        assert "pip install scipy" in outcome["sparse_error"]
