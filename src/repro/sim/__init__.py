"""Discrete-event simulation of the recovery system.

The paper evaluates its architecture purely analytically (CTMC).  This
package adds an operational layer:

- :mod:`repro.sim.ctmc_sim` — an exact stochastic (Gillespie) simulation
  of the recovery pipeline's state process, used to cross-validate the
  CTMC's steady-state and loss-probability results (does the CTMC
  hold?);
- :mod:`repro.sim.fullstack` — the timed pipeline with a real store,
  log, analyzer and healer (does the real pipeline hold?), on the
  event loop of :mod:`repro.sim.simulator`;
- :mod:`repro.sim.workload` — random workflow/attack workload generation
  for workflow-level experiments;
- :mod:`repro.sim.recovery_sim` — attacked workload runs, returned as
  scenarios to heal and audit;
- :mod:`repro.sim.baselines` — checkpoint/rollback and redo-everything
  baselines the paper argues against;
- :mod:`repro.sim.batch` — parallel replication fan-out over a process
  pool with deterministic per-replication seed streams.

Bursty (MMPP) arrivals need no simulator of their own: the (phase,
state) process is a CTMC, solved exactly by :mod:`repro.markov.bursty`.
"""

from repro.sim.baselines import (
    RecoveryCost,
    checkpoint_rollback_cost,
    dependency_recovery_cost,
    full_redo_cost,
)
from repro.sim.batch import (
    FullStackBatchResult,
    GillespieBatchResult,
    run_fullstack_batch,
    run_gillespie_batch,
    spawn_seeds,
)
from repro.sim.ctmc_sim import GillespieResult, GillespieSimulator
from repro.sim.fullstack import (
    FullStackConfig,
    FullStackResult,
    FullStackSimulator,
)
from repro.sim.recovery_sim import PipelineResult, run_pipeline
from repro.sim.simulator import Simulator
from repro.sim.workload import WorkloadConfig, WorkloadGenerator

__all__ = [
    "Simulator",
    "GillespieSimulator",
    "GillespieResult",
    "GillespieBatchResult",
    "FullStackBatchResult",
    "run_gillespie_batch",
    "run_fullstack_batch",
    "spawn_seeds",
    "FullStackSimulator",
    "FullStackConfig",
    "FullStackResult",
    "WorkloadGenerator",
    "WorkloadConfig",
    "run_pipeline",
    "PipelineResult",
    "RecoveryCost",
    "checkpoint_rollback_cost",
    "full_redo_cost",
    "dependency_recovery_cost",
]
