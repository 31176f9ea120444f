"""The flight recorder — append-only JSONL capture of one pipeline run.

A :class:`FlightRecorder` subscribes to the event bus and writes every
published event, plus explicit lifecycle *marks*, as one compact JSON
object per line.  The log is versioned (:data:`SCHEMA_VERSION` in the
header record) and self-contained: :func:`read_flight_log` rebuilds the
typed event stream from the text alone, and
:func:`repro.obs.provenance.replay` reconstructs the heals' decided
sets, partial order, and metrics snapshot from it deterministically.

Record shapes (all JSON objects, discriminated by ``"record"``):

``{"record": "header", "schema": 1, "label": ..., "meta": {...}}``
    Always the first line.  ``meta`` carries run parameters (seed,
    horizon, config) — *never* wall-clock timestamps, so two runs with
    the same inputs produce byte-identical logs.
``{"record": "mark", "mark": "start", "time": 0.0, "state": "NORMAL"}``
    Lifecycle marks; ``start`` and ``finalize`` bracket the run and
    drive the replayer's dwell accounting.
``{"record": "event", "event": "UnitEmitted", "time": ..., ...}``
    One captured :class:`~repro.obs.events.ObsEvent`, in the flat
    :meth:`~repro.obs.events.ObsEvent.to_dict` form.

Any other record kind fails to load, and so does an event of a kind
:data:`~repro.obs.events.EVENT_TYPES` does not know, except a retired
one (:data:`RETIRED_EVENT_KINDS`), which loading skips.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.errors import ObsError
from repro.obs.events import EventBus, ObsEvent, event_from_dict

__all__ = [
    "SCHEMA_VERSION",
    "RETIRED_EVENT_KINDS",
    "FlightRecorder",
    "FlightLog",
    "read_flight_log",
    "load_flight_log",
]

#: Flight-log schema version; bumped on any incompatible record change.
SCHEMA_VERSION = 1


def _dumps(obj: Mapping[str, Any]) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class FlightRecorder:
    """Append-only recorder for one instrumented run.

    Parameters
    ----------
    label:
        Human-readable run label stored in the header (scenario name).
    path:
        Optional file to write through to; lines are flushed per record
        so a crashed run still leaves a readable prefix.  The in-memory
        copy (:meth:`text`) is kept either way.
    meta:
        JSON-serializable run parameters for the header.  Determinism
        contract: put seeds and configuration here, never wall-clock
        times or hostnames.
    """

    def __init__(
        self,
        label: str = "",
        path: Optional[str] = None,
        meta: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self._lines: List[str] = []
        self._file = open(path, "w", encoding="utf-8") if path else None
        self._closed = False
        header: Dict[str, Any] = {
            "record": "header",
            "schema": SCHEMA_VERSION,
            "label": label,
        }
        if meta:
            header["meta"] = dict(meta)
        self._append(header)

    def _append(self, obj: Mapping[str, Any]) -> None:
        if self._closed:
            raise ObsError("flight recorder is closed")
        line = _dumps(obj)
        self._lines.append(line)
        if self._file is not None:
            self._file.write(line + "\n")
            self._file.flush()

    # -- capture -------------------------------------------------------------

    def mark(self, name: str, time: float, **fields: Any) -> None:
        """Write a lifecycle mark (``start``, ``finalize``, ...)."""
        record: Dict[str, Any] = {"record": "mark", "mark": name,
                                  "time": time}
        record.update(fields)
        self._append(record)

    def __call__(self, event: ObsEvent) -> None:
        """Bus-handler signature: append one event record."""
        record: Dict[str, Any] = {"record": "event"}
        record.update(event.to_dict())
        self._append(record)

    def attach(self, bus: EventBus) -> "FlightRecorder":
        """Subscribe to ``bus``; returns self for chaining."""
        bus.subscribe(self)
        return self

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Flush and close the backing file (idempotent); further
        appends raise :class:`~repro.errors.ObsError`."""
        if self._closed:
            return
        self._closed = True
        if self._file is not None:
            self._file.close()
            self._file = None

    def text(self) -> str:
        """The full log as JSONL text (trailing newline included)."""
        return "\n".join(self._lines) + "\n"

    def __enter__(self) -> "FlightRecorder":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


@dataclass
class FlightLog:
    """A parsed flight-recorder log.

    Attributes
    ----------
    header:
        The header record (``schema``, ``label``, optional ``meta``).
    marks:
        Lifecycle mark records, in log order.
    events:
        The typed event stream, rebuilt via
        :func:`~repro.obs.events.event_from_dict`, in log order.
    """

    header: Dict[str, Any]
    marks: List[Dict[str, Any]] = field(default_factory=list)
    events: List[ObsEvent] = field(default_factory=list)

    @property
    def label(self) -> str:
        """The run label from the header."""
        return str(self.header.get("label", ""))

    @property
    def meta(self) -> Dict[str, Any]:
        """Run parameters from the header (empty dict when absent)."""
        return dict(self.header.get("meta", {}))

    def mark(self, name: str) -> Optional[Dict[str, Any]]:
        """First mark record named ``name``, or ``None``."""
        for m in self.marks:
            if m.get("mark") == name:
                return m
        return None


#: Event kinds older logs hold and nothing publishes any more; loading
#: skips them.  The analyzer's per-scan event duplicated the scan's
#: ``UnitEmitted``.
RETIRED_EVENT_KINDS = frozenset({"ScanStep"})


def read_flight_log(text: str) -> FlightLog:
    """Parse flight-log JSONL text into a :class:`FlightLog`.

    Raises :class:`~repro.errors.ObsError` for an empty log, a missing
    or wrong-version header, unparseable lines, unknown record or event
    kinds — corrupt logs fail loudly rather than replaying wrong.
    Events of a :data:`RETIRED_EVENT_KINDS` kind are skipped.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ObsError("empty flight log")
    records: List[Dict[str, Any]] = []
    for i, line in enumerate(lines):
        try:
            records.append(json.loads(line))
        except ValueError as exc:
            raise ObsError(
                f"flight log line {i + 1} is not valid JSON: {exc}"
            ) from exc
    header = records[0]
    if header.get("record") != "header":
        raise ObsError(
            "flight log does not start with a header record "
            f"(got {header.get('record')!r})"
        )
    schema = header.get("schema")
    if schema != SCHEMA_VERSION:
        raise ObsError(
            f"unsupported flight-log schema {schema!r} "
            f"(this reader supports {SCHEMA_VERSION})"
        )
    log = FlightLog(header=header)
    for i, record in enumerate(records[1:], start=2):
        kind = record.get("record")
        if kind == "mark":
            log.marks.append(record)
        elif kind == "event":
            if record.get("event") in RETIRED_EVENT_KINDS:
                continue
            try:
                log.events.append(event_from_dict(record))
            except (KeyError, TypeError) as exc:
                raise ObsError(
                    f"flight log line {i}: bad event record: {exc}"
                ) from exc
        else:
            raise ObsError(
                f"flight log line {i}: unknown record kind {kind!r}"
            )
    return log


def load_flight_log(path: str) -> FlightLog:
    """Read and parse a flight log from ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        return read_flight_log(fh.read())
