"""First-passage analysis: how long until the system first loses alerts.

Case 6 of the paper reads resilience off transient plots: "the system
can resist such high attacking rate about 5 time-units".  The underlying
quantity is a first-passage time — the time until the chain first enters
a loss state — and for a CTMC it solves a linear system exactly, no
plotting needed:

    h(i) = 0                        for i in the target set
    Σ_j q_ij · h(j) = −1            otherwise

where ``h(i)`` is the expected hitting time of the target set from
state ``i``.  The same machinery answers "how long does a recovery
excursion last" (hitting NORMAL from an attacked state).

The linear solves follow the shared backend contract
(:mod:`repro.markov.backend`): dense ``numpy.linalg.solve`` or sparse
``scipy.sparse.linalg.spsolve`` on the restricted generator.
Reachability of the target set is computed with a BFS over the reversed
transition graph — ``O(states + transitions)`` — under either backend.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, List, Optional

import numpy as np

from repro.errors import ModelError, NotConvergedError
from repro.markov.backend import require_scipy_sparse, resolve_backend
from repro.markov.ctmc import CTMC
from repro.markov.stg import RecoverySTG, State

__all__ = [
    "expected_hitting_times",
    "mean_time_to_loss",
]


def _states_reaching(chain: CTMC, targets: Iterable[int]) -> set:
    """Every state from which the target set is reachable: BFS from the
    targets over reversed transitions."""
    rows, cols, _ = chain.transitions()
    predecessors: List[List[int]] = [[] for _ in range(chain.n_states)]
    for src, dst in zip(rows, cols):
        predecessors[dst].append(int(src))
    reaching = set(targets)
    frontier = deque(reaching)
    while frontier:
        node = frontier.popleft()
        for pred in predecessors[node]:
            if pred not in reaching:
                reaching.add(pred)
                frontier.append(pred)
    return reaching


def expected_hitting_times(
    chain: CTMC,
    targets: Iterable,
    backend: Optional[str] = None,
) -> np.ndarray:
    """Expected time to first reach ``targets`` from every state.

    Entries are ``inf`` for states from which the target set is
    unreachable.

    Raises
    ------
    ModelError
        If ``targets`` is empty or contains unknown states.
    """
    target_idx = {chain.index_of(t) for t in targets}
    if not target_idx:
        raise ModelError("need at least one target state")
    n = chain.n_states
    mode = resolve_backend(n, backend)
    rest = [i for i in range(n) if i not in target_idx]
    h = np.zeros(n)
    if not rest:
        return h

    reaching = _states_reaching(chain, target_idx)
    unreachable = [i for i in rest if i not in reaching]
    solvable = [i for i in rest if i in reaching]
    for i in unreachable:
        h[i] = np.inf
    if not solvable:
        return h

    rhs = -np.ones(len(solvable))
    try:
        if mode == "sparse":
            _, spla = require_scipy_sparse()
            q = chain.sparse_generator()
            sub = q[solvable, :][:, solvable].tocsc()
            sol = spla.spsolve(sub, rhs)
        else:
            sub = chain.generator[np.ix_(solvable, solvable)]
            sol = np.linalg.solve(sub, rhs)
    except np.linalg.LinAlgError as exc:
        raise NotConvergedError(
            f"hitting-time system is singular: {exc}"
        ) from exc
    sol = np.asarray(sol, dtype=float)
    if not np.isfinite(sol).all():
        raise NotConvergedError("hitting-time system is singular")
    if (sol < -1e-9).any():
        raise NotConvergedError(
            "hitting-time solution has negative entries"
        )
    for idx, i in enumerate(solvable):
        h[i] = sol[idx]
    return h


def mean_time_to_loss(
    stg: RecoverySTG,
    start: Optional[State] = None,
    backend: Optional[str] = None,
) -> float:
    """Expected time until the alert buffer first fills, starting from
    ``start`` (default NORMAL) — the exact version of Case 6's
    "resists about 5 time-units" reading."""
    chain = stg.ctmc()
    h = expected_hitting_times(chain, stg.loss_states(), backend=backend)
    s = start if start is not None else stg.normal_state
    return float(h[chain.index_of(s)])
