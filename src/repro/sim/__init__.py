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

The package's exports resolve on first use (:mod:`repro._exports`),
each from the submodule that defines it.  Importing
:mod:`repro.sim.fullstack` runs this file first, and an eager re-export
would load :mod:`~repro.sim.batch` and :mod:`~repro.sim.ctmc_sim` and
with them numpy and the model stack, which the pipeline never runs.
"""

from repro._exports import lazy_exports

#: Each package export and the submodule that defines it.
_HOMES = {
    "Simulator": "simulator",
    "GillespieSimulator": "ctmc_sim",
    "GillespieResult": "ctmc_sim",
    "GillespieBatchResult": "batch",
    "FullStackBatchResult": "batch",
    "run_gillespie_batch": "batch",
    "run_fullstack_batch": "batch",
    "spawn_seeds": "batch",
    "FullStackSimulator": "fullstack",
    "FullStackConfig": "fullstack",
    "FullStackResult": "fullstack",
    "WorkloadGenerator": "workload",
    "WorkloadConfig": "workload",
    "run_pipeline": "recovery_sim",
    "PipelineResult": "recovery_sim",
    "RecoveryCost": "baselines",
    "checkpoint_rollback_cost": "baselines",
    "full_redo_cost": "baselines",
    "dependency_recovery_cost": "baselines",
}

__all__ = list(_HOMES)

__getattr__, __dir__ = lazy_exports(__name__, _HOMES)
