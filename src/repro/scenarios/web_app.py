"""A web-application intrusion recovery scenario (Ancora-style).

Ancora (PAPERS.md) recovers *web applications* from intrusions at
request granularity: each HTTP request is a small workflow over session
state and shared application data, and recovery must race live traffic
— legitimate requests keep arriving and committing between the
intrusion, its detection, and the repair.

This scenario models a small web shop:

- **session objects** ``sess_<user>`` hold each user's cart quantity —
  the per-user state an attacker hijacks;
- **shared objects** ``inventory`` and ``revenue`` are the application
  data through which a hijacked session damages other users;
- **request-level tasks**: an ``add-to-cart`` request is a one-task
  workflow; a ``checkout`` request is a validate → (reserve → bill →
  clear) | reject workflow whose branch depends on current stock.

The attack: a session hijack rewrites Bob's add-to-cart request from 1
unit to 90 (forged cookie, attacker-controlled quantity).  Bob's
checkout then drains the inventory, and Carol's perfectly legitimate
checkout is *rejected* for lack of stock — the Figure 1
branch-flipping phenomenon at the web tier.  Live traffic continues
after detection (Dave shops while the alert is pending), so the healed
history must keep those commits while undoing the hijack, re-deciding
Carol's rejection into an approval, and re-pricing everything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.core.epochs import EpochManager
from repro.ids.attacks import AttackCampaign
from repro.scenarios.base import Scenario
from repro.workflow.data import DataStore
from repro.workflow.spec import WorkflowSpec, workflow

__all__ = [
    "WebAppScenario",
    "build_web_app",
    "cart_add_spec",
    "checkout_spec",
]

#: Unit price used by the billing task.
PRICE = 3


def cart_add_spec(name: str, user: str, qty: int) -> WorkflowSpec:
    """An add-to-cart request: one task updating the user's session.

    The response payload (``echo_<name>``) carries the new cart size —
    a per-request output so every request leaves an auditable trace.
    """
    sess = f"sess_{user}"
    echo = f"echo_{name}"
    return (
        workflow(f"add_{name}")
        .task("add", reads=[sess], writes=[sess, echo],
              compute=lambda d: {
                  sess: d[sess] + qty,
                  echo: d[sess] + qty,
              })
        .build()
    )


def checkout_spec(name: str, user: str) -> WorkflowSpec:
    """A checkout request: validate stock, then reserve → bill → clear
    the session, or reject when the cart exceeds the inventory."""
    sess = f"sess_{user}"
    ok = f"ok_{name}"
    receipt = f"receipt_{name}"
    rejected = f"rejected_{name}"
    return (
        workflow(f"checkout_{name}")
        .task("validate", reads=[sess, "inventory"], writes=[ok],
              compute=lambda d: {
                  ok: 1 if 0 < d[sess] <= d["inventory"] else 0
              },
              choose=lambda d, _ok=ok: "reserve" if d[_ok] else "reject")
        .task("reserve", reads=[sess, "inventory"], writes=["inventory"],
              compute=lambda d: {"inventory": d["inventory"] - d[sess]})
        .task("bill", reads=[sess, "revenue"],
              writes=["revenue", receipt],
              compute=lambda d: {
                  "revenue": d["revenue"] + d[sess] * PRICE,
                  receipt: d[sess] * PRICE,
              })
        .task("clear", reads=[], writes=[sess],
              compute=lambda d: {sess: 0})
        .task("reject", reads=[], writes=[rejected],
              compute=lambda d: {rejected: 1})
        .edge("validate", "reserve").edge("reserve", "bill")
        .edge("bill", "clear")
        .edge("validate", "reject")
        .build()
    )


@dataclass
class WebAppScenario(Scenario):
    """The attacked web shop, ready to heal: healing undoes the hijacked
    request and repairs its collateral damage while keeping every
    legitimate request that raced it."""

    hijacked_uid: str

    def reported(self) -> Tuple[Sequence[str], Sequence[str]]:
        return [self.hijacked_uid], ()

    def summary(self) -> str:
        """One-line view of the shop's shared state and sessions."""
        sessions = " ".join(
            f"{name[5:]}={self.store.read(name)}"
            for name in sorted(self.store.snapshot())
            if name.startswith("sess_")
        )
        return (
            f"inventory={self.store.read('inventory')} "
            f"revenue={self.store.read('revenue')} carts: {sessions}"
        )


def build_web_app() -> WebAppScenario:
    """Execute the attacked shopping day, request by request.

    1. Alice adds 2 units and checks out (inventory 98, revenue 6).
    2. Bob adds 1 unit — but the request is **hijacked**: the forged
       quantity 90 lands in his session.
    3. Bob's checkout drains the inventory to 8 (revenue jumps 270).
    4. Carol adds 10 and checks out — *rejected*: only 8 left.  Her
       branch decision was flipped by the attack.
    5. The IDS flags Bob's add-to-cart; live traffic races the alert:
       Dave adds 1 and checks out before recovery runs.

    Healing undoes the hijacked add, re-runs Bob's requests with his
    genuine quantity, re-decides Carol's checkout into an approval, and
    keeps Alice's and Dave's untouched commits.
    """
    initial = {
        "inventory": 100,
        "revenue": 0,
        "sess_alice": 0,
        "sess_bob": 0,
        "sess_carol": 0,
        "sess_dave": 0,
    }
    for name in ("a1", "b1", "c1", "d1"):
        initial[f"echo_{name}"] = 0
    for name in ("a2", "b2", "c2", "d2"):
        initial[f"ok_{name}"] = 0
        initial[f"receipt_{name}"] = 0
        initial[f"rejected_{name}"] = 0
    manager = EpochManager(DataStore(initial), initial)

    hijack = AttackCampaign().corrupt_task(
        "add", workflow_instance="add_b1",
        label="session hijack: forged quantity",
        **{"sess_bob": 90, "echo_b1": 90},
    )

    requests = [
        (cart_add_spec("a1", "alice", 2), "add_a1"),
        (checkout_spec("a2", "alice"), "checkout_a2"),
        (cart_add_spec("b1", "bob", 1), "add_b1"),       # hijacked
        (checkout_spec("b2", "bob"), "checkout_b2"),
        (cart_add_spec("c1", "carol", 10), "add_c1"),
        (checkout_spec("c2", "carol"), "checkout_c2"),   # flipped
        # Detection happens here; these requests race the recovery.
        (cart_add_spec("d1", "dave", 1), "add_d1"),
        (checkout_spec("d2", "dave"), "checkout_d2"),
    ]
    for spec, instance in requests:
        manager.run_workflow_attacked(spec, hijack, name=instance)

    return WebAppScenario(manager, initial,
                          hijacked_uid=hijack.malicious_uids[0])
