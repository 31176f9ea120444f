"""Integration tests for the paper's three concrete scenarios."""

import pytest

from repro.scenarios.banking import build_banking
from repro.scenarios.figure1 import build_figure1
from repro.scenarios.travel import build_travel


class TestBanking:
    """Forged transfer undone; collateral rejection re-approved."""

    @pytest.fixture
    def healed(self):
        sc = build_banking()
        pre = sc.balances()
        sc.heal_now()
        return sc, pre

    def test_attack_effects_before_heal(self):
        sc = build_banking()
        assert sc.store.read("balance_mallory") == 80
        assert sc.store.read("balance_alice") == 20
        assert sc.store.read("rejected_ab") == 1  # legit transfer denied

    def test_theft_reverted(self, healed):
        sc, pre = healed
        assert sc.store.read("balance_mallory") == 0

    def test_legit_transfer_reapproved(self, healed):
        sc, __ = healed
        assert sc.store.read("balance_alice") == 50
        assert sc.store.read("balance_bob") == 60
        assert sc.store.read("rejected_ab") == 0

    def test_untouched_transfer_kept(self, healed):
        sc, __ = healed
        assert sc.store.read("balance_carol") == 30
        assert sc.store.read("balance_dave") == 15
        kept_wfs = {
            u.split("/")[0] for u in sc.heal.kept
        }
        assert "transfer_cd" in kept_wfs

    def test_ledger_reflects_only_legit_volume(self, healed):
        sc, __ = healed
        assert sc.store.read("ledger") == 60  # 50 + 10

    def test_forged_run_never_redone(self, healed):
        sc, __ = healed
        assert not any(
            u.startswith("transfer_forged/") for u in sc.heal.redone
        )
        assert not any(
            u.startswith("transfer_forged/")
            for u in sc.heal.new_executions
        )

    def test_strictly_correct(self, healed):
        sc, __ = healed
        assert sc.audit.ok, sc.audit.problems


class TestTravel:
    """Forged card data: approval branch flipped back to deny."""

    @pytest.fixture
    def healed(self):
        sc = build_travel()
        sc.heal_now()
        return sc

    def test_attack_effects_before_heal(self):
        sc = build_travel()
        assert sc.store.read("booked_fraud") == 1
        assert sc.store.read("seats") == 10 - 4   # fraud + 3 honest
        assert sc.store.read("revenue") == 4 * 120

    def test_fraud_booking_denied_after_heal(self, healed):
        assert healed.store.read("denied_fraud") == 1
        assert healed.store.read("booked_fraud") == 0

    def test_inventory_and_revenue_repaired(self, healed):
        assert healed.store.read("seats") == 7
        assert healed.store.read("revenue") == 3 * 120

    def test_honest_bookings_survive(self, healed):
        for name in ("b0", "b1", "b2"):
            assert healed.store.read(f"booked_{name}") == 1

    def test_reserve_charge_abandoned_not_redone(self, healed):
        abandoned_tasks = {
            u.split("/")[1].split("#")[0] for u in healed.heal.abandoned
            if u.startswith("booking_fraud/")
        }
        assert {"reserve", "charge", "confirm"} <= abandoned_tasks

    def test_strictly_correct(self, healed):
        assert healed.audit.ok, healed.audit.problems


class TestFigure1Clean:
    def test_clean_run_takes_correct_path(self):
        sc = build_figure1(attacked=False)
        paths = {
            wf: [r.instance.task_id for r in sc.log.trace(wf)]
            for wf in ("wf1", "wf2")
        }
        assert paths["wf1"] == ["t1", "t2", "t5", "t6"]
        assert paths["wf2"] == ["t7", "t8", "t9", "t10"]

    def test_attacked_run_takes_wrong_path(self):
        sc = build_figure1(attacked=True)
        path = [r.instance.task_id for r in sc.log.trace("wf1")]
        assert path == ["t1", "t2", "t3", "t4", "t6"]
