"""Continuous-Time Markov Chain model of the recovery system.

Implements Sections IV-C through VI of the paper:

- :mod:`repro.markov.degradation` — the ``μ_k = f(μ_1, k)`` and
  ``ξ_k = g(ξ_1, k)`` rate-degradation families;
- :mod:`repro.markov.ctmc` — generic finite-state CTMCs (generator
  matrices, validation);
- :mod:`repro.markov.stg` — the recovery system's state transition graph
  (Figure 3) with finite buffers (Section IV-E);
- :mod:`repro.markov.steady_state` — Equation 1 (``πQ = 0``);
- :mod:`repro.markov.transient` — Equations 2 and 3 (transient
  probabilities and cumulative state times), via uniformization, the
  matrix exponential and its φ₁ companion;
- :mod:`repro.markov.metrics` — loss probability (Definition 3),
  ε-convergence (Definition 4), expected queue lengths;
- :mod:`repro.markov.bursty` — Definition 3's loss under bursty (MMPP)
  arrivals, from the (burst phase, STG state) product chain;
- :mod:`repro.markov.design` — the Section VI design-guideline
  procedure;
- :mod:`repro.markov.backend` — dense/sparse solver backend selection
  (auto by state count, explicit override, loud failure when scipy is
  missing).
"""

from repro.markov.backend import (
    SPARSE_AUTO_THRESHOLD,
    resolve_backend,
    sparse_available,
)

from repro.markov.calibration import (
    PowerLawFit,
    fit_power_law,
    measure_recovery_rates,
    measure_scan_rates,
)
from repro.markov.ctmc import CTMC
from repro.markov.degradation import (
    RateFunction,
    constant,
    inverse_k,
    power_law,
)
from repro.markov.design import (
    DesignResult,
    cost_effective_rate,
    design_system,
    peak_resilience,
    sweep_buffer_sizes,
)
from repro.markov.metrics import (
    category_probabilities,
    epsilon_convergence,
    expected_alerts,
    expected_lost_alerts,
    expected_recovery_units,
    loss_probability,
)
from repro.markov.sensitivity import (
    Sensitivity,
    loss_sensitivities,
    normal_sensitivities,
)
from repro.markov.steady_state import steady_state
from repro.markov.stg import RecoverySTG, State, StateCategory
from repro.markov.transient import (
    cumulative_times,
    transient_probabilities,
    transient_probabilities_expm,
)

__all__ = [
    "CTMC",
    "SPARSE_AUTO_THRESHOLD",
    "resolve_backend",
    "sparse_available",
    "RateFunction",
    "constant",
    "inverse_k",
    "power_law",
    "RecoverySTG",
    "State",
    "StateCategory",
    "steady_state",
    "transient_probabilities",
    "transient_probabilities_expm",
    "cumulative_times",
    "loss_probability",
    "category_probabilities",
    "expected_alerts",
    "expected_recovery_units",
    "epsilon_convergence",
    "expected_lost_alerts",
    "design_system",
    "sweep_buffer_sizes",
    "peak_resilience",
    "cost_effective_rate",
    "DesignResult",
    "PowerLawFit",
    "fit_power_law",
    "measure_scan_rates",
    "measure_recovery_rates",
    "Sensitivity",
    "loss_sensitivities",
    "normal_sensitivities",
]
