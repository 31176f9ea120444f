"""The recovery system's state transition graph (Figure 3).

A state is a pair ``(a, r)``: ``a`` IDS alerts queued, ``r`` units of
recovery tasks queued (one unit per processed alert).  The categories of
Section IV-C:

- ``(0, 0)`` — NORMAL: nothing to analyze, nothing to repair;
- ``(a, r)`` with ``a > 0`` — SCAN: the analyzer processes alerts;
  recovery tasks are **not** executed (a redo might read objects a
  fresh alert is about to mark damaged);
- ``(0, r)`` with ``r > 0`` — RECOVERY: the alert queue is empty; the
  scheduler executes recovery units.

Transitions:

- *arrival* — ``(a, r) → (a+1, r)`` at rate ``λ`` while ``a < A``; when
  the alert buffer is full, new alerts are **lost**;
- *scan* — ``(a, r) → (a-1, r+1)`` at rate ``μ_a`` while ``a > 0`` and
  ``r < R``: the analyzer's work grows with the items in its queue
  (``S:n`` advances at ``μ_n``); when the recovery buffer is full
  (``r = R``) the analyzer is *blocked* (Section IV-E) and alerts pile
  up;
- *recovery* — ``(a, r) → (a, r-1)`` at rate ``ξ_r`` when ``a = 0``
  (RECOVERY state) **or** ``r = R``: a full recovery queue blocks the
  analyzer, so the scheduler drains units even though alerts are
  pending.  Scan and recovery still never run in parallel — exactly one
  of them is enabled in every state — which is the paper's reason the
  system "cannot be modeled by a queuing network".  Without this drain
  rule the state (alert buffer full, recovery buffer full) would be
  absorbing: the analyzer blocked by the full recovery queue and the
  scheduler blocked by pending alerts, a deadlock the paper's system
  clearly does not have (its steady states keep recovering).

Following Section IV-E, an ``n``-sized recovery buffer is modeled as an
``n × n`` STG: both buffers default to the same size.  The *right edge* —
the loss states of Definition 3 — are the states with the **alert queue
full** (``a = A``): these are the states in which newly arriving IDS
alerts are lost.  A full recovery queue is what drives the system there
("as long as the queue of recovery tasks is full, the system will be at
states at the right edge of STG"): with ``r = R`` the analyzer blocks,
alerts accumulate, and the system parks at ``a = A`` until recovery
frees queue space.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ModelError
from repro.markov.ctmc import CTMC
from repro.markov.degradation import RateFunction, inverse_k

__all__ = ["State", "StateCategory", "JumpTable", "RecoverySTG"]


# -- structure cache ---------------------------------------------------------
#
# The *pattern* of STG transitions (which (src, dst) pairs exist, and
# whether each is an arrival / scan / recovery edge with which queue
# length) depends only on the buffer shape (A, R) — never on λ, μ, ξ.
# Parameter sweeps (Figures 4–6, sensitivity analysis, calibration)
# rebuild the generator thousands of times over a handful of shapes, so
# the pattern is computed once per shape and every rebuild is just a
# vectorized fill of the rate values into pre-sized triplet arrays.

_ARRIVAL, _SCAN, _RECOVERY = 0, 1, 2


@dataclass(frozen=True)
class _STGStructure:
    """Transition pattern of an (A, R)-shaped STG, alert-major order."""

    rows: np.ndarray   # source state indices
    cols: np.ndarray   # destination state indices
    kind: np.ndarray   # _ARRIVAL / _SCAN / _RECOVERY per edge
    k: np.ndarray      # queue-length argument of the rate schedule


_STRUCTURE_CACHE: Dict[Tuple[int, int], _STGStructure] = {}


def _stg_structure(alert_buffer: int, recovery_buffer: int) -> _STGStructure:
    """The (cached) transition pattern for buffer shape ``(A, R)``."""
    key = (alert_buffer, recovery_buffer)
    cached = _STRUCTURE_CACHE.get(key)
    if cached is not None:
        return cached
    A, R = alert_buffer, recovery_buffer
    rows: List[int] = []
    cols: List[int] = []
    kind: List[int] = []
    ks: List[int] = []

    def idx(a: int, r: int) -> int:
        return a * (R + 1) + r

    for a in range(A + 1):
        for r in range(R + 1):
            if a < A:
                rows.append(idx(a, r))
                cols.append(idx(a + 1, r))
                kind.append(_ARRIVAL)
                ks.append(0)
            if a > 0 and r < R:
                rows.append(idx(a, r))
                cols.append(idx(a - 1, r + 1))
                kind.append(_SCAN)
                ks.append(a)
            if r > 0 and (a == 0 or r == R):
                rows.append(idx(a, r))
                cols.append(idx(a, r - 1))
                kind.append(_RECOVERY)
                ks.append(r)
    structure = _STGStructure(
        rows=np.asarray(rows, dtype=np.int64),
        cols=np.asarray(cols, dtype=np.int64),
        kind=np.asarray(kind, dtype=np.int64),
        k=np.asarray(ks, dtype=np.int64),
    )
    _STRUCTURE_CACHE[key] = structure
    return structure


class StateCategory(str, Enum):
    """The paper's three state families."""

    NORMAL = "normal"
    SCAN = "scan"
    RECOVERY = "recovery"


@dataclass(frozen=True, order=True)
class State:
    """One STG state: ``alerts`` queued, ``units`` of recovery tasks
    queued."""

    alerts: int
    units: int

    @property
    def category(self) -> StateCategory:
        """NORMAL / SCAN / RECOVERY per Section IV-C."""
        if self.alerts > 0:
            return StateCategory.SCAN
        if self.units > 0:
            return StateCategory.RECOVERY
        return StateCategory.NORMAL

    def __str__(self) -> str:
        if self.category is StateCategory.NORMAL:
            return "N"
        if self.category is StateCategory.SCAN:
            return f"S:{self.alerts}/{self.units}"
        return f"R:{self.units}"


@dataclass(frozen=True)
class JumpTable:
    """An STG compiled for the Gillespie loop
    (:mod:`repro.sim.ctmc_sim`); states are indexed in
    :attr:`RecoverySTG.states` (alert-major) order.

    Attributes
    ----------
    states, index:
        Index → :class:`State` and back.
    total:
        Per state, ``sum()`` of its outgoing rates.
    cum:
        Per state, the running sums of its outgoing rates with the
        successors in ``sorted(dst)`` order.
    succ:
        Per state, the successor indices in that order, padded with the
        last successor repeated once: ``succ[i][bisect_left(cum[i], x)]``
        is the first successor whose running sum reaches ``x``, falling
        back to the last one when rounding leaves ``x`` above them all.
    arrival:
        Per edge (padded like ``succ``), whether it is an alert arrival.
    loss:
        Per state, whether it is a loss state (alert buffer full,
        Definition 3): arrivals there are lost.
    """

    states: Tuple[State, ...]
    index: Dict[State, int]
    total: List[float]
    cum: List[List[float]]
    succ: List[List[int]]
    arrival: List[List[bool]]
    loss: List[bool]

    @classmethod
    def compile(cls, stg: RecoverySTG) -> "JumpTable":
        """Build the table from :meth:`RecoverySTG.transition_rates`."""
        states = tuple(stg.states)
        index = {s: i for i, s in enumerate(states)}
        grouped: List[Dict[State, float]] = [{} for _ in states]
        for (src, dst), rate in stg.transition_rates().items():
            grouped[index[src]][dst] = rate
        total: List[float] = []
        cum: List[List[float]] = []
        succ: List[List[int]] = []
        arrival: List[List[bool]] = []
        for src, dsts in zip(states, grouped):
            nxt = sorted(dsts)
            rates = [dsts[dst] for dst in nxt]
            total.append(sum(rates))
            cum.append(list(accumulate(rates)))
            nxt += nxt[-1:]  # the rounding fall-back
            succ.append([index[dst] for dst in nxt])
            arrival.append([dst.alerts == src.alerts + 1 for dst in nxt])
        loss = set(stg.loss_states())
        return cls(states=states, index=index, total=total, cum=cum,
                   succ=succ, arrival=arrival,
                   loss=[s in loss for s in states])


class RecoverySTG:
    """Finite-buffer STG of the attack recovery system.

    Parameters
    ----------
    arrival_rate:
        ``λ`` — Poisson rate of IDS alerts.
    scan:
        ``μ`` schedule: ``scan(k)`` is the alert-processing rate with
        ``k`` alerts queued (``μ_a`` is used in state ``(a, r)``).
    recovery:
        ``ξ`` schedule: ``recovery(r)`` is the unit-execution rate with
        ``r`` units queued.
    recovery_buffer:
        ``R`` — capacity of the recovery-task queue (the paper's
        performance-critical buffer).
    alert_buffer:
        ``A`` — capacity of the alert queue; defaults to ``R`` (the
        paper's square ``n × n`` STG).
    """

    def __init__(
        self,
        arrival_rate: float,
        scan: RateFunction,
        recovery: RateFunction,
        recovery_buffer: int,
        alert_buffer: Optional[int] = None,
    ) -> None:
        if arrival_rate < 0:
            raise ModelError(f"arrival rate must be >= 0, got {arrival_rate}")
        if recovery_buffer < 1:
            raise ModelError(
                f"recovery buffer must be >= 1, got {recovery_buffer}"
            )
        self._lambda = float(arrival_rate)
        self._scan = scan
        self._recovery = recovery
        self._R = int(recovery_buffer)
        self._A = int(alert_buffer) if alert_buffer is not None else self._R
        if self._A < 1:
            raise ModelError(f"alert buffer must be >= 1, got {self._A}")
        self._states: List[State] = [
            State(a, r)
            for a in range(self._A + 1)
            for r in range(self._R + 1)
        ]
        self._ctmc: Optional[CTMC] = None
        self._jump_table: Optional[JumpTable] = None

    # -- parameters ---------------------------------------------------------

    @property
    def arrival_rate(self) -> float:
        """``λ``."""
        return self._lambda

    @property
    def recovery_buffer(self) -> int:
        """``R``."""
        return self._R

    @property
    def alert_buffer(self) -> int:
        """``A``."""
        return self._A

    @property
    def scan_schedule(self) -> RateFunction:
        """The ``μ_k`` schedule."""
        return self._scan

    @property
    def recovery_schedule(self) -> RateFunction:
        """The ``ξ_k`` schedule."""
        return self._recovery

    @property
    def states(self) -> List[State]:
        """All states, alert-major order."""
        return list(self._states)

    # -- structure ------------------------------------------------------------

    def transition_rates(self) -> Dict[Tuple[State, State], float]:
        """Sparse transition-rate map of the STG."""
        rates: Dict[Tuple[State, State], float] = {}
        for s in self._states:
            a, r = s.alerts, s.units
            if a < self._A and self._lambda > 0:
                rates[(s, State(a + 1, r))] = self._lambda
            if a > 0 and r < self._R:
                mu = self._scan(a)
                if mu > 0:
                    rates[(s, State(a - 1, r + 1))] = mu
            if r > 0 and (a == 0 or r == self._R):
                xi = self._recovery(r)
                if xi > 0:
                    rates[(s, State(a, r - 1))] = xi
        return rates

    def ctmc(self) -> CTMC:
        """The STG as a :class:`~repro.markov.ctmc.CTMC` (cached).

        Generator assembly reuses the per-shape transition pattern from
        the module structure cache: only the rate *values* are filled
        in, vectorized, so λ/μ/ξ sweeps at a fixed buffer shape never
        rebuild the pattern from scratch.
        """
        if self._ctmc is None:
            structure = _stg_structure(self._A, self._R)
            vals = np.empty(structure.kind.shape, dtype=float)
            vals[structure.kind == _ARRIVAL] = self._lambda
            # Rate schedules are evaluated once per queue length (the
            # only thing they can depend on), then gathered per edge.
            mu_tab = np.zeros(self._A + 1)
            for a in range(1, self._A + 1):
                mu_tab[a] = self._scan(a)
            xi_tab = np.zeros(self._R + 1)
            for r in range(1, self._R + 1):
                xi_tab[r] = self._recovery(r)
            scan_mask = structure.kind == _SCAN
            rec_mask = structure.kind == _RECOVERY
            vals[scan_mask] = mu_tab[structure.k[scan_mask]]
            vals[rec_mask] = xi_tab[structure.k[rec_mask]]
            keep = vals > 0
            self._ctmc = CTMC._from_triplets(
                self._states,
                structure.rows[keep],
                structure.cols[keep],
                vals[keep],
            )
        return self._ctmc

    def jump_table(self) -> JumpTable:
        """The STG compiled for the Gillespie loop (cached, like
        :meth:`ctmc`): a batch worker compiles each STG it receives
        once, however many replications of it it runs."""
        if self._jump_table is None:
            self._jump_table = JumpTable.compile(self)
        return self._jump_table

    # -- pickling -------------------------------------------------------------

    def __getstate__(self) -> Dict[str, object]:
        """Drop the cached CTMC and jump table: replication workers
        rebuild them locally (cheap, thanks to the structure cache)
        instead of shipping them through the process-pool pipe."""
        state = dict(self.__dict__)
        state["_ctmc"] = None
        state["_jump_table"] = None
        return state

    # -- state sets -------------------------------------------------------------

    @property
    def normal_state(self) -> State:
        """The NORMAL state ``(0, 0)``."""
        return State(0, 0)

    def loss_states(self) -> List[State]:
        """Definition 3's right edge: alert queue full (``a = A``) —
        the states in which arriving IDS alerts are lost."""
        return [s for s in self._states if s.alerts == self._A]

    def initial_distribution(self, state: Optional[State] = None) -> np.ndarray:
        """``π(0)`` concentrated on ``state`` (default: NORMAL)."""
        return self.ctmc().point_distribution(
            state if state is not None else self.normal_state
        )

    @classmethod
    def paper_default(
        cls,
        arrival_rate: float = 1.0,
        mu1: float = 15.0,
        xi1: float = 20.0,
        buffer_size: int = 15,
    ) -> "RecoverySTG":
        """The configuration Sections V-A.2/V-B keep fixed:
        ``μ_k = μ_1/k``, ``ξ_k = ξ_1/k``, buffer size 15."""
        return cls(
            arrival_rate=arrival_rate,
            scan=inverse_k(mu1),
            recovery=inverse_k(xi1),
            recovery_buffer=buffer_size,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RecoverySTG(λ={self._lambda:g}, μ={self._scan.name}"
            f"@{self._scan.base:g}, ξ={self._recovery.name}"
            f"@{self._recovery.base:g}, A={self._A}, R={self._R})"
        )
