"""Steady-state analysis — Equation 1.

The steady-state probability vector ``π`` of a finite CTMC with generator
``Q`` satisfies ``πQ = 0`` with ``Σ π_i = 1``.  We solve the equivalent
linear system obtained by replacing one balance equation with the
normalization constraint; for an irreducible chain the solution is
unique and strictly positive on every recurrent state.

Two numerically equivalent backends solve that system (see
:mod:`repro.markov.backend` for the selection contract): the dense path
uses ``numpy.linalg.lstsq`` on the full matrix, the sparse path a CSR
factorization via ``scipy.sparse.linalg.spsolve`` — at production
buffer sizes the STG has ~3 transitions per state, so the sparse solve
is orders of magnitude faster and lighter.  The differential test suite
pins both paths together to 1e-8.
"""

from __future__ import annotations

import warnings
from typing import Optional, Union

import numpy as np

from repro.errors import ModelError, NotConvergedError
from repro.markov.backend import require_scipy_sparse, resolve_backend
from repro.markov.ctmc import CTMC

__all__ = ["steady_state"]


def _finish(pi: np.ndarray) -> np.ndarray:
    """Shared post-processing: clip noise, validate, renormalize."""
    if not np.isfinite(pi).all():
        raise NotConvergedError(
            "steady-state solve produced non-finite entries "
            "(reducible chain with multiple closed classes?)"
        )
    pi = np.where(np.abs(pi) < 1e-14, 0.0, pi)
    if (pi < -1e-8).any():
        raise NotConvergedError(
            "steady-state solution has negative probabilities "
            "(reducible chain with multiple closed classes?)"
        )
    pi = np.clip(pi, 0.0, None)
    total = pi.sum()
    if total <= 0:
        raise NotConvergedError("steady-state solution sums to zero")
    return pi / total


def steady_state(chain: Union[CTMC, np.ndarray],
                 atol: float = 1e-8,
                 backend: Optional[str] = None) -> np.ndarray:
    """Solve ``πQ = 0, Σπ = 1`` for a finite CTMC.

    Parameters
    ----------
    chain:
        A :class:`~repro.markov.ctmc.CTMC` or a raw generator matrix.
    atol:
        Residual tolerance for the returned solution; exceeded residuals
        raise :class:`~repro.errors.NotConvergedError`.
    backend:
        ``None`` (auto: dense below the state-count threshold, sparse
        above it when scipy is available), ``"dense"``, or ``"sparse"``.
        An explicit ``"sparse"`` without scipy raises
        :class:`~repro.errors.ModelError` — never a silent dense
        fallback.

    Returns
    -------
    numpy.ndarray
        The stationary distribution, in the chain's state order.
    """
    # Deferred import: repro.obs's package init reaches back into the
    # core/markov layers, so binding at module import would cycle.
    from repro.obs.perf import bump
    bump("ctmc_solver_calls")
    if isinstance(chain, CTMC):
        n = chain.n_states
    else:
        q_arr = np.asarray(chain, dtype=float)
        if q_arr.ndim != 2 or q_arr.shape[0] != q_arr.shape[1]:
            raise ModelError(
                f"generator must be square, got {q_arr.shape}"
            )
        n = q_arr.shape[0]
    mode = resolve_backend(n, backend)

    if mode == "sparse":
        sparse, spla = require_scipy_sparse()
        if isinstance(chain, CTMC):
            q = chain.sparse_generator()
        else:
            q = sparse.csr_matrix(q_arr)
        # πQ = 0  ⇔  Qᵀ πᵀ = 0; replace the last equation with Σπ = 1.
        a = q.transpose().tocoo()
        keep = a.row != n - 1
        rows = np.concatenate([a.row[keep], np.full(n, n - 1)])
        cols = np.concatenate([a.col[keep], np.arange(n)])
        vals = np.concatenate([a.data[keep], np.ones(n)])
        a = sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc()
        b = np.zeros(n)
        b[-1] = 1.0
        try:
            # A reducible chain makes ``a`` singular: spsolve warns and
            # returns NaNs, which _finish reports as a reducible chain.
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", spla.MatrixRankWarning)
                pi = spla.spsolve(a, b)
        except Exception as exc:
            raise NotConvergedError(
                f"sparse steady-state solve failed: {exc}"
            ) from exc
        pi = _finish(np.asarray(pi, dtype=float))
        residual = np.abs(q.transpose() @ pi).max()
    else:
        q = chain.generator if isinstance(chain, CTMC) else q_arr
        # πQ = 0  ⇔  Qᵀ πᵀ = 0; replace the last equation with Σπ = 1.
        a = q.T.copy()
        a[-1, :] = 1.0
        b = np.zeros(n)
        b[-1] = 1.0
        try:
            pi, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
            raise NotConvergedError(
                f"steady-state solve failed: {exc}"
            ) from exc
        if rank < n:
            # A rank-deficient system has no unique solution: lstsq
            # would return one minimum-norm mixture of the closed
            # classes' stationary vectors.
            raise NotConvergedError(
                f"steady-state system has rank {rank} < {n} "
                "(reducible chain with multiple closed classes?)"
            )
        pi = _finish(pi)
        residual = np.abs(pi @ q).max()

    if residual > max(atol, 1e-6):
        raise NotConvergedError(
            f"steady-state residual |πQ| = {residual:g} exceeds tolerance"
        )
    return pi
