"""The precedence relation ``≺`` and the ``minimal`` selector.

Section II-B: ``t_i ≺ t_j`` when ``t_i`` appears earlier than ``t_j`` in the
system log.  ``≺`` is transitive and asymmetric — a strict partial order
once restricted to comparable pairs.  The scheduler repeatedly executes
``minimal(S, ≺)``: an element of ``S`` with no predecessor inside ``S``.

:class:`PartialOrder` is a small explicit-edge partial order used both for
log-derived precedence and for the recovery partial orders of Theorems 3
and 4 (where the ordered elements are recovery actions, not log records).
"""

from __future__ import annotations

import random
from typing import (
    Dict,
    FrozenSet,
    Generic,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from repro.errors import CyclicOrderError

__all__ = ["PartialOrder", "minimal"]

T = TypeVar("T", bound=Hashable)


class PartialOrder(Generic[T]):
    """A strict partial order represented by explicit ``a ≺ b`` edges.

    Edges may be added freely; :meth:`check_acyclic` verifies that the
    transitive closure is irreflexive (no cycles), which Theorems 3/4
    require for a schedulable recovery plan.
    """

    def __init__(self, elements: Iterable[T] = ()) -> None:
        self._succ: Dict[T, Set[T]] = {}
        self._pred: Dict[T, Set[T]] = {}
        self.add_elements(elements)

    # -- construction -----------------------------------------------------

    def add_element(self, element: T) -> None:
        """Register ``element`` with no order constraints (idempotent)."""
        self._succ.setdefault(element, set())
        self._pred.setdefault(element, set())

    def add_elements(self, elements: Iterable[T]) -> None:
        """:meth:`add_element` for each of ``elements``, in order."""
        succ, pred = self._succ, self._pred
        for element in elements:
            if element not in succ:
                succ[element] = set()
                pred[element] = set()

    def add_edge(self, before: T, after: T) -> None:
        """Record the constraint ``before ≺ after``.

        Self-edges are rejected immediately; longer cycles are detected by
        :meth:`check_acyclic` / :meth:`topological_order`.
        """
        self.add_edges(((before, after),))

    def add_edges(self, pairs: Iterable[Tuple[T, T]]) -> None:
        """:meth:`add_edge` for each ``(before, after)`` pair, in order."""
        succ, pred = self._succ, self._pred
        for before, after in pairs:
            if before == after:
                raise CyclicOrderError(
                    f"reflexive constraint {before!r} ≺ itself")
            if before not in succ:
                self.add_element(before)
            if after not in succ:
                self.add_element(after)
            succ[before].add(after)
            pred[after].add(before)

    def add_chain(self, seq: Sequence[T]) -> None:
        """Record ``seq[i] ≺ seq[j]`` for every ``i < j``: all pairs, not
        just neighbours.

        Each successor and predecessor set receives the same elements in
        the same insertion order as :meth:`add_edge` over the pairs in
        row-major order, so set iteration order — and with it
        :meth:`topological_order` — is unchanged, at one set update per
        element instead of one call per pair.
        """
        if len(set(seq)) != len(seq):
            raise CyclicOrderError(
                f"chain of {len(seq)} repeats an element: reflexive ≺")
        self.add_elements(seq)
        succ, pred = self._succ, self._pred
        for i, element in enumerate(seq):
            succ[element].update(seq[i + 1:])
            pred[element].update(seq[:i])

    # -- queries ------------------------------------------------------------

    def elements(self) -> FrozenSet[T]:
        """All registered elements."""
        return frozenset(self._succ)

    def edges(self) -> FrozenSet[Tuple[T, T]]:
        """All direct ``(before, after)`` constraints."""
        return frozenset(
            (a, b) for a, succs in self._succ.items() for b in succs
        )

    def direct_successors(self, element: T) -> FrozenSet[T]:
        """Elements directly constrained to come after ``element``."""
        return frozenset(self._succ.get(element, ()))

    def direct_predecessors(self, element: T) -> FrozenSet[T]:
        """Elements directly constrained to come before ``element``."""
        return frozenset(self._pred.get(element, ()))

    def precedes(self, a: T, b: T) -> bool:
        """Transitive query: does ``a ≺ b`` hold?"""
        if a not in self._succ or b not in self._succ:
            return False
        frontier: List[T] = [a]
        seen: Set[T] = set()
        while frontier:
            node = frontier.pop()
            for nxt in self._succ[node]:
                if nxt == b:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return False

    def comparable(self, a: T, b: T) -> bool:
        """True when ``a ≺ b`` or ``b ≺ a``."""
        return self.precedes(a, b) or self.precedes(b, a)

    def minimal_elements(self, subset: Optional[Iterable[T]] = None) -> FrozenSet[T]:
        """All ``x`` in ``subset`` with no predecessor inside ``subset``.

        ``subset`` defaults to every element.  This is the full candidate
        set for the paper's ``minimal(S, ≺)``.
        """
        pool = set(self._succ) if subset is None else set(subset)
        return frozenset(
            x for x in pool if not (self._pred.get(x, set()) & pool)
        )

    def check_acyclic(self) -> None:
        """Raise :class:`~repro.errors.CyclicOrderError` when cyclic.

        A plain Kahn count; only a cyclic order pays for
        :meth:`topological_order`, which raises the error.
        """
        in_deg = {x: len(preds) for x, preds in self._pred.items()}
        ready = [x for x, deg in in_deg.items() if deg == 0]
        seen = 0
        while ready:
            node = ready.pop()
            seen += 1
            for nxt in self._succ[node]:
                in_deg[nxt] -= 1
                if in_deg[nxt] == 0:
                    ready.append(nxt)
        if seen != len(self._succ):
            self.topological_order()

    def topological_order(self, tiebreak: Optional[random.Random] = None) -> List[T]:
        """One linear extension of the partial order.

        ``tiebreak`` randomizes the choice among minimal elements (the
        paper: "we randomly select one qualified result"); without it the
        choice is deterministic by sorted ``repr`` for reproducibility.
        """
        pending = set(self._succ)
        in_deg: Dict[T, int] = {
            x: len(self._pred[x] & pending) for x in pending
        }
        ready = [x for x in pending if in_deg[x] == 0]
        order: List[T] = []
        while ready:
            if tiebreak is not None:
                idx = tiebreak.randrange(len(ready))
                ready[idx], ready[-1] = ready[-1], ready[idx]
            else:
                ready.sort(key=repr, reverse=True)
            node = ready.pop()
            order.append(node)
            pending.discard(node)
            for nxt in self._succ[node]:
                if nxt in pending:
                    in_deg[nxt] -= 1
                    if in_deg[nxt] == 0:
                        ready.append(nxt)
        if pending:
            raise CyclicOrderError(
                f"partial order contains a cycle among {len(pending)} "
                f"elements, e.g. {sorted(map(repr, list(pending)[:4]))}"
            )
        return order

    def __len__(self) -> int:
        return len(self._succ)

    def __iter__(self) -> Iterator[T]:
        return iter(self._succ)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PartialOrder({len(self._succ)} elements, "
            f"{sum(len(s) for s in self._succ.values())} edges)"
        )


def minimal(
    subset: Iterable[T],
    order: PartialOrder[T],
    rng: Optional[random.Random] = None,
) -> T:
    """The paper's ``minimal(S, ≺)``: one element of ``S`` that no other
    element of ``S`` precedes.

    When several elements qualify, one is picked at random (with ``rng``)
    or deterministically (smallest ``repr``) when ``rng`` is ``None``.

    Raises
    ------
    CyclicOrderError
        If ``S`` is non-empty but every element has a predecessor in ``S``
        (a cycle), or ``S`` is empty.
    """
    pool = list(subset)
    if not pool:
        raise CyclicOrderError("minimal() of an empty set")
    candidates = sorted(order.minimal_elements(pool), key=repr)
    if not candidates:
        raise CyclicOrderError(
            "no minimal element: the subset contains an order cycle"
        )
    if rng is None:
        return candidates[0]
    return candidates[rng.randrange(len(candidates))]
