"""Regression corpus replay.

Every file in ``tests/corpus/`` is a full campaign document (the same
format ``repro-workflow fuzz`` writes for shrunk counterexamples).
Each one replays through the complete oracle with zero violations —
any healing or verification regression that breaks one of these
exercised behaviours (multi-stage healing, false-alarm floods,
SCAN/RECOVERY-timed injection, correlated fleet campaigns) fails here
with the offending file named.
"""

import glob
import os

import pytest

from repro.obs.events import AlertLost, EventBus, HealStarted
from repro.scenarios.fuzz import load_campaign, run_campaign

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))


def test_corpus_is_present():
    """The committed corpus must cover the DSL's attack vocabulary."""
    names = {os.path.basename(p) for p in CORPUS}
    assert {
        "corrupt-basic.json",
        "multi-stage.json",
        "false-alarm-flood.json",
        "false-alarm-flood-buffer1.json",
        "scan-timed.json",
        "recovery-timed.json",
        "fleet-correlated.json",
        "monitor-scan-timed.json",
    } <= names


@pytest.mark.parametrize(
    "path", CORPUS, ids=[os.path.basename(p) for p in CORPUS]
)
def test_corpus_file_replays_clean(path):
    campaign = load_campaign(path)
    outcome = run_campaign(campaign)
    assert outcome.ok, [v.render() for v in outcome.violations]
    assert outcome.scans >= 1 or campaign.tenants > 1
    assert outcome.heals >= 1
    # The runtime LTLf conformance monitor must stay silent on every
    # honest corpus campaign (its violations would also fail `ok`
    # above; this pins the dedicated counter too).
    assert outcome.conformance_violations == 0


def test_lost_alerts_are_healed_as_administrator_reports(monkeypatch):
    """Section IV-D: an alert lost at a full alert queue is reported by
    the administrator and healed: every ``AlertLost`` uid of the
    campaign's own event stream is named by a later ``HealStarted``."""
    events = []
    publish = EventBus.publish

    def recording_publish(self, event):
        events.append(event)
        return publish(self, event)

    monkeypatch.setattr(EventBus, "publish", recording_publish)
    outcome = run_campaign(load_campaign(
        os.path.join(CORPUS_DIR, "false-alarm-flood-buffer1.json")))
    assert outcome.ok, [v.render() for v in outcome.violations]
    lost = [(i, e.uid) for i, e in enumerate(events)
            if isinstance(e, AlertLost)]
    assert lost
    for i, uid in lost:
        assert any(isinstance(e, HealStarted) and uid in e.malicious
                   for e in events[i + 1:]), uid


def test_corpus_covers_triggers_and_kinds():
    kinds = set()
    triggers = set()
    tenants = 1
    for path in CORPUS:
        campaign = load_campaign(path)
        tenants = max(tenants, campaign.tenants)
        for step in campaign.steps:
            kinds.add(step.kind)
            triggers.add(step.trigger)
    assert {"corrupt", "forge-run", "false-alarm"} <= kinds
    assert {"ingest", "scan", "recovery"} <= triggers
    assert tenants > 1  # at least one fleet campaign
