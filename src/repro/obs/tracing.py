"""Timed spans on a simulated clock.

An incident — one burst of alerts through detect → scan → heal (undo,
redo) — is naturally a tree of timed spans.  :class:`Span` is one node of
such a tree; the flight-log replayer
(:func:`repro.obs.provenance.build_span_tree`) derives the tree from a
recorded run's event timestamps, and :func:`render_span_tree` prints
it.  Runs driven on simulated time stamp their events with a
:class:`ManualClock`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

__all__ = ["ManualClock", "Span", "render_span_tree"]


class ManualClock:
    """Explicitly advanced clock for simulated time.

    Calling the instance returns the current time; :meth:`advance` and
    :meth:`set` move it forward (never backward — tracing needs
    monotonicity).
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current time."""
        return self._now

    def __call__(self) -> float:
        return self._now

    def advance(self, delta: float) -> float:
        """Move the clock forward by ``delta`` (>= 0); returns now."""
        if delta < 0:
            raise ValueError(f"cannot advance by negative delta {delta}")
        self._now += delta
        return self._now

    def set(self, now: float) -> float:
        """Jump to an absolute time (>= current); returns now."""
        if now < self._now:
            raise ValueError(
                f"cannot move clock backward: {now} < {self._now}"
            )
        self._now = float(now)
        return self._now


class Span:
    """One timed operation in an incident's span tree."""

    __slots__ = ("name", "attributes", "start", "end", "children")

    def __init__(self, name: str, start: float,
                 attributes: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.attributes: Dict[str, Any] = dict(attributes or {})
        self.start = start
        self.end: Optional[float] = None
        self.children: List["Span"] = []

    @property
    def finished(self) -> bool:
        """Has the span been ended?"""
        return self.end is not None

    @property
    def duration(self) -> float:
        """Elapsed time (0 while unfinished)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def set_attribute(self, key: str, value: Any) -> None:
        """Attach or overwrite one attribute."""
        self.attributes[key] = value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = f"{self.duration:.6g}" if self.finished else "open"
        return f"Span({self.name!r}, {state}, children={len(self.children)})"


def render_span_tree(roots: List[Span], indent: str = "  ") -> str:
    """ASCII rendering of finished span trees, durations included."""
    lines: List[str] = []

    def fmt_attrs(span: Span) -> str:
        if not span.attributes:
            return ""
        inner = ", ".join(
            f"{k}={v}" for k, v in sorted(span.attributes.items())
        )
        return f"  [{inner}]"

    def walk(span: Span, depth: int) -> None:
        dur = f"{span.duration:.6g}" if span.finished else "open"
        lines.append(
            f"{indent * depth}- {span.name} ({dur}){fmt_attrs(span)}"
        )
        for child in span.children:
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return "\n".join(lines)
