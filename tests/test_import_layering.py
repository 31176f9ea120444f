"""Import layering: each entry point loads only the code it runs.

The pipeline of Sections III-IV (store, log, analyzer, healer, the
Figure 2 system) needs no numerics; only the Section V CTMC model does.
So the pipeline and the CLI's parser load neither numpy nor scipy, the
fleet loads numpy only for its cached CTMC predictions, and the model
package loads scipy only where the sparse backend or the ``expm``
reference asks for it.  Each check starts a fresh interpreter, runs one
entry point and reads its ``sys.modules``: exact facts, not timings.

The model's dense path must also run with scipy import-blocked, as
:mod:`repro.markov.backend` promises: auto stays dense, and an explicit
``backend="sparse"`` fails with an install hint.
"""

from __future__ import annotations

import ast
import importlib
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
import repro.sim
import repro.system

SRC = Path(repro.__file__).parent
NUMERICS = {"numpy", "scipy"}


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


def _markov_homes() -> Dict[str, str]:
    """Each name ``repro.markov`` re-exports and the module it is
    imported from."""
    tree = ast.parse((SRC / "markov" / "__init__.py").read_text())
    return {alias.name: node.module
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _sim_homes() -> Dict[str, str]:
    return {name: f"repro.sim.{home}"
            for name, home in repro.sim._HOMES.items()}


class TestPackageExports:
    @pytest.mark.parametrize("package, homes", [
        (repro.sim, _sim_homes()), (repro.markov, _markov_homes()),
    ], ids=["sim", "markov"])
    def test_every_export_is_its_modules_object(self, package, homes):
        assert set(package.__all__) == set(homes)
        assert set(package.__all__) <= set(dir(package))
        for name in package.__all__:
            home = importlib.import_module(homes[name])
            assert getattr(package, name) is getattr(home, name), name

    def test_sim_exports_follow_a_patched_module(self, monkeypatch):
        """``repro.sim`` keeps no binding of its own, so a function
        patched in its defining module is what the package hands out,
        and the original is again once the patch is undone."""
        homes = _sim_homes()
        originals = {name: getattr(repro.sim, name) for name in homes}
        for name, home in homes.items():
            monkeypatch.setattr(importlib.import_module(home), name,
                                (name,))
        for name in homes:
            assert getattr(repro.sim, name) == (name,)
            assert name not in vars(repro.sim)
        monkeypatch.undo()
        for name, original in originals.items():
            assert getattr(repro.sim, name) is original

    def test_sim_names_no_other_attribute(self):
        with pytest.raises(AttributeError):
            repro.sim.no_such_export  # noqa: B018
        from repro.sim import fullstack

        assert fullstack is sys.modules["repro.sim.fullstack"]

    def test_state_category_is_one_object(self):
        from repro.markov import stg

        category = repro.system.StateCategory
        assert repro.markov.StateCategory is stg.StateCategory is category
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
