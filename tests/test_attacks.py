"""Unit tests for attack campaigns."""

import pytest

from repro.ids.attacks import (
    AttackCampaign,
    OutputOverride,
    OutputTransform,
    TargetSelector,
)
from repro.workflow.task import TaskInstance


class TestTargetSelector:
    def test_wildcards(self):
        sel = TargetSelector(task_id="t1")
        assert sel.matches(TaskInstance("any", "t1", 3))
        assert not sel.matches(TaskInstance("any", "t2", 1))

    def test_full_match(self):
        sel = TargetSelector("wf", "t1", 2)
        assert sel.matches(TaskInstance("wf", "t1", 2))
        assert not sel.matches(TaskInstance("wf", "t1", 1))
        assert not sel.matches(TaskInstance("other", "t1", 2))


class TestPayloads:
    def test_output_override_only_touches_existing_keys(self):
        payload = OutputOverride(x=99, ghost=1)
        out = payload({}, {"x": 1, "y": 2})
        assert out == {"x": 99, "y": 2}
        assert "ghost" not in out

    def test_output_transform_keeps_key_set(self):
        payload = OutputTransform(lambda i, o: {"x": o["x"] + 1})
        assert payload({}, {"x": 1}) == {"x": 2}

    def test_output_transform_rejects_key_changes(self):
        payload = OutputTransform(lambda i, o: {"other": 1})
        with pytest.raises(ValueError, match="write set"):
            payload({}, {"x": 1})


class TestAttackCampaign:
    def test_records_ground_truth(self):
        campaign = AttackCampaign().corrupt_task("t1", x=1)
        inst = TaskInstance("wf", "t1", 1)
        campaign.apply(inst, {}, {"x": 0})
        assert campaign.malicious_uids == ("wf/t1#1",)

    def test_untargeted_instance_untouched(self):
        campaign = AttackCampaign().corrupt_task("t1", x=1)
        out = campaign.apply(TaskInstance("wf", "t2", 1), {}, {"x": 0})
        assert out == {"x": 0}
        assert campaign.malicious_uids == ()

    def test_stacked_tampers_compose(self):
        campaign = (
            AttackCampaign()
            .corrupt_task("t1", x=10)
            .transform_task("t1", lambda i, o: {"x": o["x"] + 5})
        )
        out = campaign.apply(TaskInstance("w", "t1", 1), {}, {"x": 0})
        assert out == {"x": 15}

    def test_forge_run_marks_without_tampering(self):
        campaign = AttackCampaign().forge_run("evil")
        out = campaign.apply(TaskInstance("evil", "t1", 1), {}, {"x": 42})
        assert out == {"x": 42}
        assert campaign.malicious_uids == ("evil/t1#1",)

    def test_len_counts_rules(self):
        campaign = AttackCampaign().corrupt_task("a").forge_run("r")
        assert len(campaign) == 2
