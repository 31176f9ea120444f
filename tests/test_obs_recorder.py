"""Tests for the flight recorder: record shapes, write-through,
lifecycle, and the loud-failure contract of the loader."""

import json

import pytest

from repro.errors import ObsError
from repro.obs.events import (
    AlertEnqueued,
    EventBus,
    EVENT_TYPES,
    UndoDecision,
    event_from_dict,
)
from repro.obs.recorder import (
    SCHEMA_VERSION,
    FlightRecorder,
    load_flight_log,
    read_flight_log,
)


class TestFlightRecorder:
    def test_header_is_first_line_with_schema(self):
        rec = FlightRecorder(label="demo", meta={"seed": 3})
        rec.close()
        header = json.loads(rec.text().splitlines()[0])
        assert header == {"record": "header", "schema": SCHEMA_VERSION,
                          "label": "demo", "meta": {"seed": 3}}

    def test_lines_are_compact_sorted_json(self):
        rec = FlightRecorder(label="x")
        rec.mark("start", 0.0, state="NORMAL")
        rec(AlertEnqueued(1.5, uid="wf1/t1#1", queue_depth=1))
        rec.close()
        lines = rec.text().splitlines()
        for line in lines:
            obj = json.loads(line)
            assert line == json.dumps(obj, sort_keys=True,
                                      separators=(",", ":"))
        assert json.loads(lines[1])["mark"] == "start"
        assert json.loads(lines[2])["event"] == "AlertEnqueued"

    def test_write_through_flushes_per_record(self, tmp_path):
        path = tmp_path / "run.jsonl"
        rec = FlightRecorder(label="live", path=str(path))
        rec.mark("start", 0.0)
        # Readable mid-run: a crashed process still leaves a prefix.
        assert len(path.read_text().splitlines()) == 2
        rec.close()
        assert path.read_text() == rec.text()

    def test_closed_recorder_raises(self):
        rec = FlightRecorder()
        rec.close()
        rec.close()  # idempotent
        with pytest.raises(ObsError, match="closed"):
            rec.mark("late", 1.0)
        with pytest.raises(ObsError, match="closed"):
            rec(AlertEnqueued(1.0, uid="u", queue_depth=1))

    def test_attach_records_bus_events(self):
        bus = EventBus()
        with FlightRecorder(label="bus") as rec:
            rec.attach(bus)
            bus.publish(AlertEnqueued(0.5, uid="a", queue_depth=1))
        log = read_flight_log(rec.text())
        assert [e.uid for e in log.events] == ["a"]


class TestReadFlightLog:
    def _text(self, *extra_lines):
        rec = FlightRecorder(label="t", meta={"k": 1})
        rec.mark("start", 0.0, state="NORMAL")
        rec(UndoDecision(1.0, uid="wf1/t1#1", condition="T1.1"))
        rec.mark("finalize", 2.0)
        rec.close()
        return rec.text() + "".join(ln + "\n" for ln in extra_lines)

    def test_round_trip(self):
        log = read_flight_log(self._text())
        assert log.label == "t" and log.meta == {"k": 1}
        assert [m["mark"] for m in log.marks] == ["start", "finalize"]
        assert log.mark("start")["state"] == "NORMAL"
        assert log.mark("nope") is None
        (event,) = log.events
        assert event == UndoDecision(1.0, uid="wf1/t1#1",
                                     condition="T1.1")

    def test_load_from_path(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(self._text())
        assert load_flight_log(str(path)).label == "t"

    def test_empty_log_rejected(self):
        with pytest.raises(ObsError, match="empty"):
            read_flight_log("")
        with pytest.raises(ObsError, match="empty"):
            read_flight_log("\n  \n")

    def test_bad_json_line_rejected_with_line_number(self):
        with pytest.raises(ObsError, match="line 5"):
            read_flight_log(self._text("{not json"))

    def test_missing_header_rejected(self):
        body = self._text().splitlines()[1]
        with pytest.raises(ObsError, match="header"):
            read_flight_log(body + "\n")

    def test_wrong_schema_rejected(self):
        lines = self._text().splitlines()
        header = json.loads(lines[0])
        header["schema"] = SCHEMA_VERSION + 1
        lines[0] = json.dumps(header)
        with pytest.raises(ObsError, match="schema"):
            read_flight_log("\n".join(lines))

    def test_unknown_record_kind_rejected(self):
        with pytest.raises(ObsError, match="unknown record kind"):
            read_flight_log(self._text('{"record":"mystery"}'))

    @pytest.mark.parametrize("record", [
        '{"record":"phase","phase":"detect","wall":0.001,"sim":0.0,'
        '"calls":1}',
        '{"record":"wall","duration":0.5}',
    ], ids=["phase", "wall"])
    def test_phase_and_wall_records_rejected(self, record):
        """Older recorders' replay-inert ``phase`` and ``wall`` records
        load like any other foreign record: not at all."""
        with pytest.raises(ObsError, match="line 5: unknown record kind"):
            read_flight_log(self._text(record))

    def test_unknown_event_kind_rejected(self):
        bad = '{"record":"event","event":"NotAnEvent","time":0.0}'
        with pytest.raises(ObsError, match="bad event record"):
            read_flight_log(self._text(bad))


class TestEventRegistry:
    @pytest.mark.parametrize("name", sorted(EVENT_TYPES))
    def test_kind_matches_registry_key(self, name):
        assert EVENT_TYPES[name].__name__ == name

    def test_round_trip_every_type_through_json(self):
        samples = [
            EVENT_TYPES["AlertEnqueued"](0.1, uid="u", queue_depth=2),
            EVENT_TYPES["UndoDecision"](
                0.2, uid="wf1/t3#1", condition="T1.3",
                via=("wf1/t1#1", "wf1/t2#1"), objects=("x", "y"),
            ),
            EVENT_TYPES["OrderConstraint"](
                0.3, rule="T3.2", before="undo(b)", after="undo(a)"
            ),
            EVENT_TYPES["TaskUndone"](
                0.4, uid="a", reason="abandoned", disposition=True,
            ),
        ]
        for event in samples:
            wire = json.loads(json.dumps(event.to_dict()))
            assert event_from_dict(wire) == event

    def test_unknown_kind_raises_key_error(self):
        with pytest.raises(KeyError, match="Bogus"):
            event_from_dict({"event": "Bogus", "time": 0.0})


class TestHostIndependence:
    def test_cross_host_replay_byte_identity(self, monkeypatch):
        """The same seeded run recorded on two 'hosts' (different node
        names) writes identical bytes: nothing in a log comes from the
        host."""
        import platform

        from repro.sim.fullstack import FullStackConfig, run_replication

        config = FullStackConfig(arrival_rate=6.0, alert_buffer=4,
                                 recovery_buffer=4)

        def record(host):
            monkeypatch.setattr(platform, "node", lambda: host)
            bus = EventBus()
            rec = FlightRecorder(label="fullstack").attach(bus)
            run_replication(config, horizon=15.0, seed=9, bus=bus)
            rec.close()
            return rec.text()

        assert record("host-a") == record("host-b")
