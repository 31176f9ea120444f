"""Unit tests for the IDS simulator."""

import random

import pytest

from repro.ids.attacks import AttackCampaign
from repro.ids.detector import DetectorConfig, IntrusionDetector
from repro.workflow.log import SystemLog
from repro.workflow.task import TaskInstance


def attacked_log(n_tasks=5, malicious=("w/t1#1",)):
    """A log plus a campaign whose ground truth is ``malicious``."""
    log = SystemLog()
    campaign = AttackCampaign()
    for i in range(1, n_tasks + 1):
        inst = TaskInstance("w", f"t{i}", 1)
        log.commit(inst, reads={}, writes={})
        if inst.uid in malicious:
            campaign._malicious[inst.uid] = "test"  # ground truth
    return log, campaign


class TestDetectorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DetectorConfig(detection_probability=1.5)
        with pytest.raises(ValueError):
            DetectorConfig(mean_detection_delay=-1)
        with pytest.raises(ValueError):
            DetectorConfig(false_alarm_rate=2)


class TestDetection:
    def test_perfect_detector_reports_exactly_the_malicious(self):
        log, campaign = attacked_log(malicious=("w/t2#1", "w/t4#1"))
        ids = IntrusionDetector(campaign)
        assert ids.inspect(log) == 2
        alerts = ids.drain()
        assert sorted(a.uid for a in alerts) == ["w/t2#1", "w/t4#1"]
        assert all(a.genuine for a in alerts)
        assert ids.missed == ()

    def test_inspect_idempotent(self):
        log, campaign = attacked_log()
        ids = IntrusionDetector(campaign)
        assert ids.inspect(log) == 1
        assert ids.inspect(log) == 0

    def test_detection_probability_zero_misses_everything(self):
        log, campaign = attacked_log()
        ids = IntrusionDetector(
            campaign, DetectorConfig(detection_probability=0.0)
        )
        ids.inspect(log)
        assert ids.drain() == []
        assert ids.missed == ("w/t1#1",)

    def test_administrator_report_recovers_missed(self):
        log, campaign = attacked_log()
        ids = IntrusionDetector(
            campaign, DetectorConfig(detection_probability=0.0)
        )
        ids.inspect(log)
        alert = ids.administrator_report("w/t1#1", now=3.0)
        assert alert.uid == "w/t1#1"
        assert ids.missed == ()
        assert [a.uid for a in ids.drain()] == ["w/t1#1"]

    def test_delay_defers_release(self):
        log, campaign = attacked_log()
        ids = IntrusionDetector(
            campaign,
            DetectorConfig(mean_detection_delay=10.0),
            rng=random.Random(1),
        )
        ids.inspect(log, now=0.0)
        (alert,) = ids.drain()
        assert alert.detected_at > 0.0

    def test_false_alarms_marked_not_genuine(self):
        log, campaign = attacked_log(n_tasks=50, malicious=())
        ids = IntrusionDetector(
            campaign,
            DetectorConfig(false_alarm_rate=0.5),
            rng=random.Random(3),
        )
        ids.inspect(log)
        alerts = ids.drain()
        assert alerts  # with rate 0.5 over 50 records this is certain
        assert all(not a.genuine for a in alerts)

    def test_drain_flushes_everything(self):
        log, campaign = attacked_log()
        ids = IntrusionDetector(
            campaign, DetectorConfig(mean_detection_delay=100.0)
        )
        ids.inspect(log)
        assert len(ids.drain()) == 1
        assert ids.drain() == []
