"""The introduction's second example: a travel booking with forged
credit-card data.

"The attacker may schedule a travel with forged credit card information
that carries incorrect data in workflow tasks."

Here the booking workflow itself is legitimate — the attacker tampers
with one task's *data* (the card-submission step), steering the
verification branch to approve a booking that should have been denied.
The corrupted booking consumes a seat and books revenue; later bookings
read the corrupted seat count, so the damage spreads.

Recovery redoes the submission with the genuine data, re-decides the
verification branch (deny), abandons the reserve/charge/confirm tasks
(undone, not redone — Theorem 2's negative case), and repairs every
later booking that read the corrupted seat count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.core.epochs import EpochManager
from repro.ids.attacks import AttackCampaign
from repro.scenarios.base import Scenario
from repro.workflow.data import DataStore
from repro.workflow.spec import WorkflowSpec, workflow

__all__ = ["TravelScenario", "build_travel", "booking_spec"]

#: Card numbers divisible by 7 are "valid" in this toy verifier.
PRICE = 120


def booking_spec(name: str) -> WorkflowSpec:
    """A booking workflow: submit → verify → (reserve → charge → confirm)
    or deny."""
    card = f"card_{name}"
    cardinfo = f"cardinfo_{name}"
    valid = f"valid_{name}"
    booked = f"booked_{name}"
    denied = f"denied_{name}"
    return (
        workflow(f"booking_{name}")
        .task("submit", reads=[card], writes=[cardinfo],
              compute=lambda d: {cardinfo: d[card]},
              description="carries the card data (attack point)")
        .task("verify", reads=[cardinfo], writes=[valid],
              compute=lambda d: {valid: 1 if d[cardinfo] % 7 == 0 else 0},
              choose=lambda d, _v=valid: "reserve" if d[_v] else "deny")
        .task("reserve", reads=["seats"], writes=["seats"],
              compute=lambda d: {"seats": d["seats"] - 1})
        .task("charge", reads=["revenue"], writes=["revenue"],
              compute=lambda d: {"revenue": d["revenue"] + PRICE})
        .task("confirm", reads=["seats"], writes=[booked],
              compute=lambda d: {booked: 1})
        .task("deny", reads=[], writes=[denied],
              compute=lambda d: {denied: 1})
        .edge("submit", "verify")
        .edge("verify", "reserve").edge("reserve", "charge")
        .edge("charge", "confirm")
        .edge("verify", "deny")
        .build()
    )


@dataclass
class TravelScenario(Scenario):
    """The attacked booking system, ready to heal."""

    malicious_uid: str

    def reported(self) -> Tuple[Sequence[str], Sequence[str]]:
        return [self.malicious_uid], ()

    def summary(self) -> str:
        return (f"seats={self.store.read('seats')} "
                f"revenue={self.store.read('revenue')}")


def build_travel(n_honest_bookings: int = 3) -> TravelScenario:
    """Execute the attacked booking day.

    The fraudster's card ``1234`` is invalid (not divisible by 7); the
    attack tampers with the *submit* task so verification sees a valid
    number and approves the booking.  ``n_honest_bookings`` legitimate
    bookings with valid cards follow and read the corrupted seat count.
    """
    initial: Dict[str, int] = {
        "seats": 10,
        "revenue": 0,
        "card_fraud": 1234,           # invalid: 1234 % 7 != 0
        "cardinfo_fraud": 0, "valid_fraud": 0,
        "booked_fraud": 0, "denied_fraud": 0,
    }
    names = [f"b{i}" for i in range(n_honest_bookings)]
    for i, name in enumerate(names):
        initial[f"card_{name}"] = 7 * (100 + i)  # valid cards
        initial[f"cardinfo_{name}"] = 0
        initial[f"valid_{name}"] = 0
        initial[f"booked_{name}"] = 0
        initial[f"denied_{name}"] = 0

    manager = EpochManager(DataStore(initial), initial)

    campaign = AttackCampaign()
    campaign.corrupt_task(
        "submit",
        workflow_instance="booking_fraud",
        label="forged card data",
        **{"cardinfo_fraud": 7 * 999},  # looks valid to the verifier
    )

    manager.run_workflow_attacked(booking_spec("fraud"), campaign,
                                  name="booking_fraud")
    for name in names:
        manager.run_workflow_attacked(booking_spec(name), campaign,
                                      name=f"booking_{name}")

    return TravelScenario(manager, initial,
                          malicious_uid="booking_fraud/submit#1")
