"""Property-based tests (hypothesis) on the scale layer.

Random valid ``(λ, μ1, ξ1, buffer)`` configurations drive the sparse
solver path, checking the invariants that must hold for *every* chain,
not just the paper's presets:

- the sparse steady state is a probability vector (non-negative,
  sums to 1);
- the loss probability lies in ``[0, 1]``, and with constant service
  rates (the no-degradation limit of Figure 4(a)'s regime) it is
  monotone non-increasing in the buffer size — more buffer never hurts
  when service rates do not degrade;
- replication seed streams are pairwise distinct and
  order-independent (the seed of replication ``i`` depends only on
  ``(base, i)``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.markov.backend import sparse_available
from repro.markov.degradation import constant
from repro.markov.metrics import loss_probability
from repro.markov.steady_state import steady_state
from repro.markov.stg import RecoverySTG
from repro.scenarios.generate import buffers, lambdas, service_rates
from repro.sim.batch import spawn_seeds

needs_scipy = pytest.mark.skipif(
    not sparse_available(), reason="scipy not available"
)


@needs_scipy
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(lam=lambdas, mu1=service_rates, xi1=service_rates, buf=buffers)
def test_sparse_steady_state_is_probability_vector(
    lam: float, mu1: float, xi1: float, buf: int
) -> None:
    stg = RecoverySTG.paper_default(
        arrival_rate=lam, mu1=mu1, xi1=xi1, buffer_size=buf
    )
    pi = steady_state(stg.ctmc(), backend="sparse")
    assert (pi >= 0).all()
    assert pi.sum() == pytest.approx(1.0, abs=1e-9)
    lp = loss_probability(stg, pi)
    assert 0.0 <= lp <= 1.0


@needs_scipy
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(lam=lambdas, mu1=service_rates, xi1=service_rates,
       buf=st.integers(min_value=1, max_value=8))
def test_loss_monotone_in_buffer_without_degradation(
    lam: float, mu1: float, xi1: float, buf: int
) -> None:
    """The limit of Figure 4(a)'s regime: with constant service rates
    (no degradation at all), a bigger buffer never increases the loss
    probability.  Any actual degradation — even ``1/k^0.05`` — breaks
    this under heavy load (the Figure 4(b) U-shape in embryo), so
    constant rates are the exact boundary of the property."""

    def loss_at(buffer_size: int) -> float:
        stg = RecoverySTG(
            arrival_rate=lam,
            scan=constant(mu1),
            recovery=constant(xi1),
            recovery_buffer=buffer_size,
        )
        return loss_probability(
            stg, steady_state(stg.ctmc(), backend="sparse")
        )

    smaller, larger = loss_at(buf), loss_at(buf + 1)
    assert larger <= smaller + 1e-9


@settings(max_examples=50, deadline=None)
@given(base=st.integers(min_value=0, max_value=2**31 - 1),
       n=st.integers(min_value=2, max_value=64))
def test_seed_streams_pairwise_distinct(base: int, n: int) -> None:
    seeds = spawn_seeds(base, n)
    assert len(set(seeds)) == n


@settings(max_examples=50, deadline=None)
@given(base=st.integers(min_value=0, max_value=2**31 - 1),
       m=st.integers(min_value=1, max_value=16),
       extra=st.integers(min_value=1, max_value=16))
def test_seed_streams_order_independent(
    base: int, m: int, extra: int
) -> None:
    """Growing the replication count never changes earlier seeds."""
    assert spawn_seeds(base, m) == spawn_seeds(base, m + extra)[:m]


class TestObservedBatchWorkerInvariance:
    """Worker-count invariance must extend to the observability
    outputs: flight-recorder files and merged metrics, not just the
    numeric results, have to be identical for ``workers=K`` and
    ``workers=1``."""

    REPLICATIONS = 3
    HORIZON = 20.0
    SEED = 7

    def _run(self, tmp_path, workers: int, tag: str):
        from repro.sim.batch import run_fullstack_batch
        from repro.sim.fullstack import FullStackConfig

        record_dir = str(tmp_path / f"rec-{tag}")
        batch = run_fullstack_batch(
            FullStackConfig(arrival_rate=2.0, alert_buffer=3,
                            recovery_buffer=3),
            horizon=self.HORIZON, replications=self.REPLICATIONS,
            workers=workers, seed=self.SEED, record_dir=record_dir,
        )
        logs = {
            p.name: p.read_bytes()
            for p in sorted((tmp_path / f"rec-{tag}").iterdir())
        }
        return batch, logs

    def test_recorder_files_and_metrics_identical(self, tmp_path) -> None:
        from repro.obs.export import render_prometheus
        from repro.obs.provenance import replay
        from repro.obs.recorder import read_flight_log

        serial, serial_logs = self._run(tmp_path, 1, "serial")
        parallel, parallel_logs = self._run(tmp_path, 2, "parallel")

        assert serial.seeds == parallel.seeds
        assert [r.attacks for r in serial.results] == \
            [r.attacks for r in parallel.results]
        assert sorted(serial_logs) == \
            [f"rep-{i:04d}.jsonl" for i in range(self.REPLICATIONS)]
        # The flight logs carry only simulated time, so parallelism
        # must not change a single byte.
        assert serial_logs == parallel_logs

        def replayed(logs):
            return [
                render_prometheus(
                    replay(read_flight_log(logs[name].decode()))
                    .metrics.registry)
                for name in sorted(logs)
            ]

        assert replayed(serial_logs) == replayed(parallel_logs)
