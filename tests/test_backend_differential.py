"""Differential tests locking the scale layer down.

Two contracts, two styles of proof:

1. **Sparse vs dense solvers** — on the Figure 4–6 parameter grids the
   sparse (scipy CSR) backend must agree with the dense reference to
   1e-8 for every solver family: steady state, transient
   (uniformization, matrix exponential, cumulative times), and
   first-passage (hitting times, CDF).  Dense is the oracle; sparse is
   the optimisation under test.
2. **Parallel vs sequential replication** — a Gillespie batch run with
   ``workers=K`` must reproduce ``workers=1`` *bit-exactly* (same seed
   stream, same trajectories, same statistics).  Parallelism buys wall
   time, never different answers.

Plus the explicit-backend failure mode: ``backend="sparse"`` without
scipy must raise :class:`~repro.errors.ModelError` with an install
hint — never silently fall back to dense.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.markov.backend as backend_mod
from repro.errors import ModelError
from repro.markov.backend import (
    SPARSE_AUTO_THRESHOLD,
    resolve_backend,
    sparse_available,
)
from repro.markov.degradation import fig4_cases
from repro.markov.metrics import loss_probability
from repro.markov.passage import (
    expected_hitting_times,
)
from repro.markov.steady_state import steady_state
from repro.markov.stg import RecoverySTG
from repro.markov.transient import (
    cumulative_times,
    transient_probabilities,
    transient_probabilities_expm,
)
from repro.sim.batch import run_gillespie_batch, spawn_seeds

TOL = 1e-8

# -- the Figure 4–6 parameter grids -----------------------------------------
#
# Figure 4 sweeps the four degradation cases over buffer sizes; Figure 5
# sweeps the arrival rate λ; Figure 6 varies μ1/ξ1.  The grid below is a
# representative cross-section: every degradation case, small and
# mid-sized buffers, light and heavy load.

FIG4_GRID = [
    (case, lam, buf)
    for case in ("a", "b", "c", "d")
    for lam, buf in ((1.0, 6), (2.0, 10))
]

FIG56_GRID = [
    # (λ, μ1, ξ1, buffer) — Figure 5's λ sweep and Figure 6's rate sweep
    (0.5, 15.0, 20.0, 8),
    (2.0, 15.0, 20.0, 8),
    (8.0, 15.0, 20.0, 8),
    (2.0, 5.0, 20.0, 10),
    (2.0, 15.0, 5.0, 10),
]


def _fig4_stg(case: str, lam: float, buf: int) -> RecoverySTG:
    scan, recovery = fig4_cases(15.0, 20.0)[case]
    return RecoverySTG(
        arrival_rate=lam, scan=scan, recovery=recovery,
        recovery_buffer=buf,
    )


def _fig56_stg(lam: float, mu1: float, xi1: float, buf: int) -> RecoverySTG:
    return RecoverySTG.paper_default(
        arrival_rate=lam, mu1=mu1, xi1=xi1, buffer_size=buf
    )


ALL_STGS = (
    [pytest.param(_fig4_stg(c, lam, b), id=f"fig4-{c}-lam{lam:g}-buf{b}")
     for c, lam, b in FIG4_GRID]
    + [pytest.param(_fig56_stg(*p), id=f"fig56-lam{p[0]:g}-mu{p[1]:g}"
                                       f"-xi{p[2]:g}-buf{p[3]}")
       for p in FIG56_GRID]
)

needs_scipy = pytest.mark.skipif(
    not sparse_available(), reason="scipy not available"
)


# ---------------------------------------------------------------------------
# 1. Sparse vs dense
# ---------------------------------------------------------------------------


@needs_scipy
@pytest.mark.parametrize("stg", ALL_STGS)
def test_steady_state_backends_agree(stg: RecoverySTG) -> None:
    chain = stg.ctmc()
    pi_dense = steady_state(chain, backend="dense")
    pi_sparse = steady_state(chain, backend="sparse")
    assert np.abs(pi_dense - pi_sparse).max() < TOL
    # The headline metric agrees too.
    assert loss_probability(stg, pi_sparse) == pytest.approx(
        loss_probability(stg, pi_dense), abs=TOL
    )


@needs_scipy
@pytest.mark.parametrize("stg", ALL_STGS)
def test_transient_backends_agree(stg: RecoverySTG) -> None:
    chain = stg.ctmc()
    pi0 = stg.initial_distribution()
    for t in (0.1, 1.0, 5.0):
        uni_d = transient_probabilities(chain, pi0, t, backend="dense")
        uni_s = transient_probabilities(chain, pi0, t, backend="sparse")
        assert np.abs(uni_d - uni_s).max() < TOL
        expm_d = transient_probabilities_expm(chain, pi0, t,
                                              backend="dense")
        expm_s = transient_probabilities_expm(chain, pi0, t,
                                              backend="sparse")
        assert np.abs(expm_d - expm_s).max() < TOL
        cum_d = cumulative_times(chain, pi0, t, backend="dense")
        cum_s = cumulative_times(chain, pi0, t, backend="sparse")
        assert np.abs(cum_d - cum_s).max() < TOL


@needs_scipy
@pytest.mark.parametrize("stg", ALL_STGS)
def test_passage_backends_agree(stg: RecoverySTG) -> None:
    chain = stg.ctmc()
    targets = stg.loss_states()
    h_dense = expected_hitting_times(chain, targets, backend="dense")
    h_sparse = expected_hitting_times(chain, targets, backend="sparse")
    finite = np.isfinite(h_dense)
    assert (finite == np.isfinite(h_sparse)).all()
    # Hitting times scale with the chain; compare relatively.
    scale = max(1.0, np.abs(h_dense[finite]).max())
    assert (np.abs(h_dense[finite] - h_sparse[finite]).max()
            / scale) < TOL


@needs_scipy
def test_auto_backend_matches_forced_backends() -> None:
    """Auto selection changes the code path, not the answer."""
    small = RecoverySTG.paper_default(buffer_size=4)          # dense side
    large = RecoverySTG.paper_default(buffer_size=25)         # sparse side
    assert large.ctmc().n_states >= SPARSE_AUTO_THRESHOLD
    for stg in (small, large):
        chain = stg.ctmc()
        pi_auto = steady_state(chain)
        pi_dense = steady_state(chain, backend="dense")
        assert np.abs(pi_auto - pi_dense).max() < TOL


# ---------------------------------------------------------------------------
# 2. Parallel vs sequential replication (bit-exact)
# ---------------------------------------------------------------------------


def test_parallel_batch_reproduces_sequential_exactly() -> None:
    stg = RecoverySTG.paper_default(arrival_rate=2.0, buffer_size=5)
    serial = run_gillespie_batch(
        stg, horizon=40.0, replications=6, workers=1, seed=123
    )
    parallel = run_gillespie_batch(
        stg, horizon=40.0, replications=6, workers=3, seed=123
    )
    assert serial.seeds == parallel.seeds
    for a, b in zip(serial.results, parallel.results):
        # Bit-exact: identical occupancy maps, jump counts, arrivals.
        assert a.occupancy == b.occupancy
        assert a.jumps == b.jumps
        assert a.arrivals == b.arrivals
        assert a.arrivals_lost == b.arrivals_lost
        assert a.loss_time_fraction == b.loss_time_fraction
    assert serial.loss_time_fraction == parallel.loss_time_fraction
    assert serial.loss_time_stderr == parallel.loss_time_stderr


def test_seed_stream_is_a_prefix_under_growth() -> None:
    """Replication i's seed depends on (base, i) only."""
    assert spawn_seeds(7, 3) == spawn_seeds(7, 8)[:3]
    assert spawn_seeds(7, 8) != spawn_seeds(8, 8)


# ---------------------------------------------------------------------------
# 3. Explicit sparse without scipy fails loudly
# ---------------------------------------------------------------------------


def _broken_import():
    raise ImportError("scipy deliberately unavailable for this test")


def test_sparse_backend_without_scipy_raises(monkeypatch) -> None:
    monkeypatch.setattr(backend_mod, "_import_sparse", _broken_import)
    monkeypatch.setattr(
        backend_mod, "_import_sparse_linalg", _broken_import
    )
    chain = RecoverySTG.paper_default(buffer_size=4).ctmc()
    with pytest.raises(ModelError, match="pip install scipy"):
        steady_state(chain, backend="sparse")
    with pytest.raises(ModelError, match="pip install scipy"):
        resolve_backend(chain.n_states, "sparse")


def test_auto_backend_without_scipy_stays_dense(monkeypatch) -> None:
    """Auto degrades gracefully — dense is correct, just slower."""
    monkeypatch.setattr(backend_mod, "_import_sparse", _broken_import)
    monkeypatch.setattr(
        backend_mod, "_import_sparse_linalg", _broken_import
    )
    assert not sparse_available()
    assert resolve_backend(10_000, None) == "dense"


def test_unknown_backend_name_raises() -> None:
    chain = RecoverySTG.paper_default(buffer_size=3).ctmc()
    with pytest.raises(ModelError, match="unknown backend"):
        steady_state(chain, backend="bogus")


@needs_scipy
def test_ctmc_bench_gates_equation3() -> None:
    """The CTMC sweep times Equation 3 and the regression gate reads it."""
    from benchmarks.bench_scale import bench_ctmc
    from benchmarks.check_regression import check_ctmc

    doc = bench_ctmc([3], repeats=1)
    row = doc["results"][0]
    assert set(row["cumulative"]) == {"dense_s", "sparse_s", "speedup"}
    assert row["max_abs_diff"]["cumulative"] < 1e-6
    assert check_ctmc(doc, doc, 0.25, 1e-6) == []

    slower = {"results": [dict(row, cumulative=dict(
        row["cumulative"], speedup=row["cumulative"]["speedup"] / 2))]}
    failures = check_ctmc(slower, doc, 0.25, 1e-6)
    assert len(failures) == 1 and "cumulative" in failures[0]

    apart = {"results": [dict(row, max_abs_diff=dict(
        row["max_abs_diff"], cumulative=1e-3))]}
    failures = check_ctmc(apart, doc, 0.25, 1e-6)
    assert len(failures) == 1 and "cumulative" in failures[0]
