"""Finite-state Continuous-Time Markov Chains.

A CTMC is characterized by a generator matrix ``Q = (q_ij)`` and an
initial state probability vector ``π(0)``, where ``q_ij`` (``i ≠ j``) is
the transition rate from state ``i`` to state ``j`` and
``q_ii = -Σ_{j≠i} q_ij`` (Section IV-E).  States carry arbitrary hashable
labels so the recovery STG can use ``(alerts, units)`` pairs directly.

Internally the generator is stored in *triplet* (COO) form — off-diagonal
``(row, col, rate)`` arrays plus the diagonal — because the recovery STG
has only ~3 transitions per state: at production buffer sizes a dense
``O(n²)`` matrix is almost entirely zeros.  The dense matrix
(:attr:`CTMC.generator`) and the scipy CSR matrix
(:meth:`CTMC.sparse_generator`) are both materialized lazily and cached,
so chains built with :meth:`CTMC.from_rates` never pay for a dense
matrix unless a dense solver asks for one.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ModelError
from repro.markov.backend import require_scipy_sparse

__all__ = ["CTMC"]


class CTMC:
    """An explicit finite CTMC over labelled states.

    Build with :meth:`from_rates` (sparse rate dictionary) or pass a
    dense generator directly.  The generator is validated: non-negative
    off-diagonal rates and (approximately) zero row sums.
    """

    def __init__(
        self,
        states: Sequence[Hashable],
        generator: np.ndarray,
        atol: float = 1e-9,
    ) -> None:
        states = list(states)
        if len(set(states)) != len(states):
            raise ModelError("duplicate state labels")
        q = np.asarray(generator, dtype=float)
        if q.shape != (len(states), len(states)):
            raise ModelError(
                f"generator shape {q.shape} does not match "
                f"{len(states)} states"
            )
        off_diag = q.copy()
        np.fill_diagonal(off_diag, 0.0)
        if (off_diag < -atol).any():
            raise ModelError("negative off-diagonal rate in generator")
        row_sums = q.sum(axis=1)
        if np.abs(row_sums).max() > 1e-6:
            raise ModelError(
                f"generator rows must sum to 0 (max |sum| = "
                f"{np.abs(row_sums).max():g})"
            )
        rows, cols = np.nonzero(off_diag)
        self._init_core(
            states,
            rows.astype(np.int64),
            cols.astype(np.int64),
            off_diag[rows, cols],
            np.diag(q).copy(),
        )
        self._dense = q  # already materialized — keep it cached

    def _init_core(
        self,
        states: List[Hashable],
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        diag: np.ndarray,
    ) -> None:
        self._states = states
        self._index: Dict[Hashable, int] = {
            s: i for i, s in enumerate(states)
        }
        self._rows = rows
        self._cols = cols
        self._vals = vals
        self._diag = diag
        self._dense: Optional[np.ndarray] = None
        self._csr = None
        self._rate_lookup: Optional[Dict[Tuple[int, int], float]] = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rates(
        cls,
        states: Sequence[Hashable],
        rates: Mapping[Tuple[Hashable, Hashable], float],
    ) -> "CTMC":
        """Build from a sparse ``{(src, dst): rate}`` mapping.

        Diagonal entries are derived automatically; zero rates are
        dropped.  The dense matrix is **not** materialized — large
        chains stay in triplet form until a dense solver asks.
        """
        states = list(states)
        if len(set(states)) != len(states):
            raise ModelError("duplicate state labels")
        index = {s: i for i, s in enumerate(states)}
        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []
        for (src, dst), rate in rates.items():
            if src == dst:
                raise ModelError(f"self-transition on state {src!r}")
            if rate < 0:
                raise ModelError(
                    f"negative rate {rate} for {src!r} → {dst!r}"
                )
            if rate == 0:
                continue
            try:
                rows.append(index[src])
                cols.append(index[dst])
            except KeyError as exc:
                raise ModelError(f"unknown state {exc.args[0]!r}") from None
            vals.append(float(rate))
        return cls._from_triplets(
            states,
            np.asarray(rows, dtype=np.int64),
            np.asarray(cols, dtype=np.int64),
            np.asarray(vals, dtype=float),
        )

    @classmethod
    def _from_triplets(
        cls,
        states: Sequence[Hashable],
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
    ) -> "CTMC":
        """Internal fast path: pre-validated off-diagonal triplets.

        Duplicate ``(row, col)`` entries are summed, matching the
        additive semantics of :meth:`from_rates`.  The diagonal is
        derived from row sums, so the zero-row-sum invariant holds by
        construction.
        """
        states = list(states)
        n = len(states)
        if (vals < 0).any():
            raise ModelError("negative off-diagonal rate in generator")
        if rows.size and (rows == cols).any():
            raise ModelError("self-transition in triplet data")
        # Coalesce duplicates so rate() and the dense/CSR materializers
        # agree on a single entry per (src, dst).
        if rows.size:
            flat = rows * n + cols
            order = np.argsort(flat, kind="stable")
            flat = flat[order]
            vals = vals[order]
            unique_flat, start = np.unique(flat, return_index=True)
            summed = np.add.reduceat(vals, start)
            rows = (unique_flat // n).astype(np.int64)
            cols = (unique_flat % n).astype(np.int64)
            vals = summed
        diag = np.zeros(n)
        np.subtract.at(diag, rows, vals)
        chain = cls.__new__(cls)
        chain._init_core(states, rows, cols, vals, diag)
        return chain

    # -- accessors -----------------------------------------------------------

    @property
    def states(self) -> List[Hashable]:
        """State labels, in generator order."""
        return list(self._states)

    @property
    def generator(self) -> np.ndarray:
        """A copy of the dense generator matrix ``Q`` (materialized
        lazily and cached)."""
        if self._dense is None:
            n = len(self._states)
            q = np.zeros((n, n))
            q[self._rows, self._cols] = self._vals
            q[np.arange(n), np.arange(n)] = self._diag
            self._dense = q
        return self._dense.copy()

    def sparse_generator(self):
        """The generator as a scipy CSR matrix (lazy, cached).

        Raises
        ------
        ModelError
            When scipy is not installed (with an install hint) — see
            :func:`repro.markov.backend.require_scipy_sparse`.
        """
        sparse, _ = require_scipy_sparse()
        if self._csr is None:
            n = len(self._states)
            idx = np.arange(n)
            rows = np.concatenate([self._rows, idx])
            cols = np.concatenate([self._cols, idx])
            vals = np.concatenate([self._vals, self._diag])
            self._csr = sparse.coo_matrix(
                (vals, (rows, cols)), shape=(n, n)
            ).tocsr()
        return self._csr.copy()

    def transitions(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Off-diagonal structure as ``(rows, cols, rates)`` arrays —
        the backend-agnostic view graph algorithms (reachability,
        embedded-chain walks) should use instead of densifying."""
        return self._rows.copy(), self._cols.copy(), self._vals.copy()

    @property
    def nnz(self) -> int:
        """Number of (coalesced) off-diagonal transitions."""
        return int(self._rows.size)

    def index_of(self, state: Hashable) -> int:
        """Row/column index of a state label."""
        try:
            return self._index[state]
        except KeyError:
            raise ModelError(f"unknown state {state!r}") from None

    def rate(self, src: Hashable, dst: Hashable) -> float:
        """Transition rate ``src → dst`` (0 when absent)."""
        if src == dst:
            raise ModelError(
                "diagonal entries are exit rates, not transition rates")
        if self._rate_lookup is None:
            self._rate_lookup = {
                (int(i), int(j)): float(v)
                for i, j, v in zip(self._rows, self._cols, self._vals)
            }
        return self._rate_lookup.get(
            (self.index_of(src), self.index_of(dst)), 0.0
        )

    @property
    def n_states(self) -> int:
        """Number of states."""
        return len(self._states)

    def __len__(self) -> int:
        return len(self._states)

    # -- distributions -----------------------------------------------------------

    def point_distribution(self, state: Hashable) -> np.ndarray:
        """Probability vector concentrated on one state (a valid
        ``π(0)``)."""
        pi = np.zeros(len(self._states))
        pi[self.index_of(state)] = 1.0
        return pi

    def uniformization_rate(self) -> float:
        """A rate ``Λ ≥ max_i |q_ii|`` for uniformization."""
        return float(np.max(-self._diag)) or 1.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CTMC({len(self._states)} states)"
