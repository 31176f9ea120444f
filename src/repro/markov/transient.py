"""Transient analysis — Equations 2 and 3.

Equation 2 (state probabilities at time ``t``)::

    dπ(t)/dt = π(t) Q          ⇒   π(t) = π(0) e^{Qt}

Equation 3 (cumulative expected time spent in each state by ``t``)::

    dl(t)/dt = l(t) Q + π(0)   ⇒   l(t) = π(0) ∫₀ᵗ e^{Qs} ds

Two solvers are provided for Equation 2: *uniformization* (the standard
numerically-robust method, with a rigorous truncation bound) and the
matrix exponential, used to cross-check.  Equation 3 is solved exactly
through the φ₁ function, ``φ₁(z) = (e^z − 1)/z = Σ_k z^k/(k+1)!``::

    l(t) = π(0) ∫₀ᵗ e^{Qs} ds = t · π(0) φ₁(Qt)

The dense path evaluates ``φ₁(Qt)`` on n×n matrices by scaling and
squaring (see :func:`cumulative_times`); it needs no stationary
distribution and no linear solve, so reducible chains (absorbing
states, degraded STGs) take the same path.

Every solver takes the common ``backend`` argument
(:mod:`repro.markov.backend`): the uniformization series is identical
under both backends — only the matrix–vector product changes, dense
``vec @ P`` versus CSR ``Pᵀ @ vec``.  The sparse exponential solvers
use ``scipy.sparse.linalg.expm_multiply``, which never materializes
``e^{Qt}``; for Equation 3 it acts with the 2n×2n augmented generator
``M = [[Q, 0], [I, 0]]`` on ``[0, π(0)]``, whose first block at ``t``
is ``l(t)``.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Union

import numpy as np
from scipy.linalg import expm

from repro.errors import ModelError
from repro.markov.backend import require_scipy_sparse, resolve_backend
from repro.markov.ctmc import CTMC

__all__ = [
    "transient_probabilities",
    "transient_probabilities_expm",
    "cumulative_times",
]

#: Degree ``m`` of the truncated Taylor series for ``e^B`` and ``φ₁(B)``
#: in :func:`_cumulative_dense`, and the 1-norm bound ``θ`` on the
#: scaled ``B`` under which both truncation errors are below the unit
#: roundoff ``u = 2⁻⁵³``:
#:
#:     ‖e^B − T_m(B)‖₁ ≤ θ^{m+1}/(m+1)! · 1/(1 − θ/(m+2)) ≈ 0.75 u
#:
#: at ``m = 19``, ``θ = 1.3``; φ₁'s tail, ``Σ_{k>m} θ^k/(k+1)!``, is
#: smaller by about a factor ``m + 2``.
_TAYLOR_DEGREE = 19
_TAYLOR_THETA = 1.3

#: Paterson–Stockmeyer block size: the powers ``I, B, …, B⁴`` are formed
#: once and each series is summed by Horner's rule in ``B⁵``, so the
#: degree-19 ``e^B`` costs 7 matrix products instead of 18.
_PS_BLOCK = 5

_EXP_COEFFS = [1.0 / math.factorial(k) for k in range(_TAYLOR_DEGREE + 1)]
_PHI1_COEFFS = [1.0 / math.factorial(k + 1)
                for k in range(_TAYLOR_DEGREE + 1)]


def _as_generator(chain: Union[CTMC, np.ndarray]) -> np.ndarray:
    if isinstance(chain, CTMC):
        return chain.generator
    q = np.asarray(chain, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ModelError(f"generator must be square, got {q.shape}")
    return q


def _chain_size(chain: Union[CTMC, np.ndarray]) -> int:
    if isinstance(chain, CTMC):
        return chain.n_states
    q = np.asarray(chain, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ModelError(f"generator must be square, got {q.shape}")
    return q.shape[0]


def _sparse_generator(chain: Union[CTMC, np.ndarray]):
    """The chain as a CSR matrix (requires scipy)."""
    sparse, _ = require_scipy_sparse()
    if isinstance(chain, CTMC):
        return chain.sparse_generator()
    return sparse.csr_matrix(_as_generator(chain))


def _validated_pi0(pi0: np.ndarray, n: int) -> np.ndarray:
    pi0 = np.asarray(pi0, dtype=float)
    if pi0.shape != (n,):
        raise ModelError(f"pi0 has shape {pi0.shape}, expected ({n},)")
    return pi0


def transient_probabilities(
    chain: Union[CTMC, np.ndarray],
    pi0: np.ndarray,
    t: float,
    tol: float = 1e-10,
    backend: Optional[str] = None,
) -> np.ndarray:
    """Equation 2 by uniformization.

    Writes ``P = I + Q/Λ`` (a stochastic matrix for ``Λ ≥ max |q_ii|``)
    so that ``π(t) = Σ_k e^{-Λt} (Λt)^k / k! · π(0) P^k``; the series is
    truncated once the remaining Poisson mass falls below ``tol``.

    The ``backend`` argument selects dense or CSR matrix–vector
    products (see :mod:`repro.markov.backend`); the series itself is
    identical, so both backends agree to machine precision.
    """
    n = _chain_size(chain)
    pi0 = _validated_pi0(pi0, n)
    if t < 0:
        raise ModelError(f"time must be >= 0, got {t}")
    mode = resolve_backend(n, backend)
    if t == 0:
        return pi0.copy()

    if isinstance(chain, CTMC):
        rate = chain.uniformization_rate()
        if chain.nnz == 0:
            rate = 0.0
    else:
        rate = float(np.max(-np.diag(_as_generator(chain))))
    if rate <= 0:
        return pi0.copy()  # no transitions at all

    if mode == "sparse":
        sparse, _ = require_scipy_sparse()
        q = _sparse_generator(chain)
        # vec @ P computed as Pᵀ @ vec with a CSR transpose built once.
        p_t = (sparse.identity(n, format="csr")
               + q.transpose().tocsr() / rate)

        def step(vec: np.ndarray) -> np.ndarray:
            return p_t @ vec
    else:
        q = _as_generator(chain)
        p = np.eye(n) + q / rate

        def step(vec: np.ndarray) -> np.ndarray:
            return vec @ p

    lam_t = rate * t
    # Poisson(λt) weights, accumulated until the tail is below tol.
    # Weights are tracked in log space until they are comfortably inside
    # the normal float range: switching at the subnormal boundary would
    # freeze the multiplicative recurrence (5e-324 × 1.34 rounds back to
    # 5e-324) and silently drop the entire distribution body.
    result = np.zeros(n)
    vec = pi0.copy()
    log_weight = -lam_t  # log of e^{-λt} (λt)^0 / 0!
    in_log_space = log_weight <= -680.0
    weight = 0.0 if in_log_space else math.exp(log_weight)
    cumulative = weight
    result += weight * vec
    k = 0
    # Upper bound on needed terms: mean + 10 std deviations, at least 32.
    max_terms = int(lam_t + 10.0 * math.sqrt(lam_t) + 32)
    while cumulative < 1.0 - tol and k < max_terms:
        k += 1
        vec = step(vec)
        if in_log_space:
            log_weight += math.log(lam_t) - math.log(k)
            if log_weight > -680.0:
                in_log_space = False
                weight = math.exp(log_weight)
        else:
            weight *= lam_t / k
        result += weight * vec
        cumulative += weight
    # Account for the truncated tail by renormalizing.
    total = result.sum()
    if total > 0:
        result = result / total
    return result


def transient_probabilities_expm(
    chain: Union[CTMC, np.ndarray],
    pi0: np.ndarray,
    t: float,
    backend: Optional[str] = None,
) -> np.ndarray:
    """Equation 2 via the matrix exponential (cross-check).

    Dense: ``π(0) e^{Qt}`` with ``scipy.linalg.expm``.  Sparse:
    ``expm_multiply(Qᵀ t, π(0))`` — the exponential is never formed,
    only its action on the vector.
    """
    n = _chain_size(chain)
    pi0 = _validated_pi0(pi0, n)
    if t < 0:
        raise ModelError(f"time must be >= 0, got {t}")
    mode = resolve_backend(n, backend)
    if mode == "sparse":
        _, spla = require_scipy_sparse()
        q = _sparse_generator(chain)
        return np.asarray(
            spla.expm_multiply(q.transpose().tocsc() * t, pi0)
        )
    q = _as_generator(chain)
    return pi0 @ expm(q * t)


def _paterson_stockmeyer(coeffs: Sequence[float],
                         starts: Sequence[np.ndarray],
                         step: np.ndarray) -> np.ndarray:
    """``Σ_k coeffs[k] · S B^k`` by Paterson–Stockmeyer.

    ``starts`` holds ``S B^i`` for ``i = 0 … p−1`` and ``step`` is
    ``B^p``; ``S`` is ``I`` for the matrix series and ``π(0)`` for the
    row-vector one.  The coefficients are cut into blocks of ``p``,
    each block is a linear combination of ``starts``, and the blocks
    are joined by Horner's rule in ``B^p``.
    """
    p = len(starts)
    blocks = [sum(c * x for c, x in zip(coeffs[j:j + p], starts))
              for j in range(0, len(coeffs), p)]
    result = blocks[-1]
    for block in reversed(blocks[:-1]):
        result = result @ step + block
    return result


def _cumulative_dense(q: np.ndarray, pi0: np.ndarray,
                      t: float) -> np.ndarray:
    """``l(t) = t · π(0) φ₁(Qt)`` on n×n matrices by scaling and squaring.

    With ``B = Qt/2^s`` and ``‖B‖₁ ≤ θ``, ``E = e^B`` and the row
    ``π(0) φ₁(B)`` are summed from one shared set of powers ``B^i``
    (:data:`_TAYLOR_DEGREE`, :data:`_TAYLOR_THETA` bound the truncation
    error below unit roundoff).  Then, ``s`` times::

        φ₁(2B) = ½ φ₁(B) (e^B + I),    e^{2B} = (e^B)²

    The φ₁ recurrence is applied to the row ``π(0) φ₁``, so each
    doubling costs one n×n product (``E ← E²``) plus a vector–matrix
    product.  For a generator every ``e^B`` and ``φ₁(B)`` is entrywise
    non-negative, so the doublings add non-negative terms and nothing
    cancels.
    """
    n = q.shape[0]
    a = q * t
    norm = float(np.abs(a).sum(axis=0).max())
    s = 0
    if norm > _TAYLOR_THETA:
        s = math.ceil(math.log2(norm / _TAYLOR_THETA))
    b = a / 2.0 ** s
    powers = [np.eye(n), b]
    while len(powers) < _PS_BLOCK:
        powers.append(powers[-1] @ b)
    step = powers[-1] @ b
    row = _paterson_stockmeyer(_PHI1_COEFFS, [pi0 @ x for x in powers],
                               step)
    if s == 0:
        return t * row
    e = _paterson_stockmeyer(_EXP_COEFFS, powers, step)
    for k in range(s):
        row = 0.5 * (row + row @ e)
        if k + 1 < s:
            e = e @ e
    return t * row


def cumulative_times(
    chain: Union[CTMC, np.ndarray],
    pi0: np.ndarray,
    t: float,
    backend: Optional[str] = None,
) -> np.ndarray:
    """Equation 3: expected cumulative time in each state over ``[0, t]``.

    The entries of the result sum to ``t``; dividing by ``t`` gives the
    expected fraction of time per state.  The dense path computes
    ``t · π(0) φ₁(Qt)`` on n×n matrices (:func:`_cumulative_dense`);
    the sparse path applies the augmented ``e^{Mᵀt}`` to
    ``y(0) = [0, π(0)]`` with ``expm_multiply``, without materializing
    it.
    """
    n = _chain_size(chain)
    pi0 = _validated_pi0(pi0, n)
    if t < 0:
        raise ModelError(f"time must be >= 0, got {t}")
    mode = resolve_backend(n, backend)
    if t == 0:
        return np.zeros(n)
    if mode == "sparse":
        sparse, spla = require_scipy_sparse()
        q = _sparse_generator(chain)
        # M = [[Q, 0], [I, 0]]  ⇒  Mᵀ = [[Qᵀ, I], [0, 0]].
        zero = sparse.csr_matrix((n, n))
        m_t = sparse.bmat(
            [[q.transpose().tocsr(), sparse.identity(n, format="csr")],
             [zero, zero]],
            format="csc",
        )
        y0 = np.concatenate([np.zeros(n), pi0])
        y = np.asarray(spla.expm_multiply(m_t * t, y0))
        return y[:n]
    return _cumulative_dense(_as_generator(chain), pi0, t)
