"""The introduction's first example: a forged bank transaction.

"An attacker may forge bank transactions to steal money from accounts of
others, thereby generating malicious workflow tasks."

The attacker uses stolen credentials to start a *whole workflow run* —
a transfer from the victim to the attacker's account.  Every task in the
forged run is malicious (Axiom 1 condition 1: "the task should not be
executed"); the recovery undoes them all and redoes nothing of them.

The scenario also demonstrates candidate resolution through balance
restoration: a *legitimate* transfer submitted after the theft was
rejected for insufficient funds (the attacker had drained the account);
once recovery restores the balance, the healed execution re-decides that
transfer's branch and approves it — the recovered system behaves as if
the attack never happened.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, Sequence, Tuple

from repro.core.epochs import EpochManager
from repro.scenarios.base import Scenario
from repro.workflow.data import DataStore
from repro.workflow.spec import WorkflowSpec, workflow

__all__ = ["BankingScenario", "build_banking", "transfer_spec"]


def transfer_spec(name: str, src: str, dst: str) -> WorkflowSpec:
    """A funds-transfer workflow: validate → (debit → credit → record) or
    reject.

    Object names are parameterized per run (``req_<name>`` etc.) so that
    several transfers can execute in the same system; the account
    balances ``balance_<src>``/``balance_<dst>`` and the shared
    ``ledger`` are the cross-workflow contagion channels.
    """
    req = f"req_{name}"
    ok = f"ok_{name}"
    rejected = f"rejected_{name}"
    bal_src = f"balance_{src}"
    bal_dst = f"balance_{dst}"
    return (
        workflow(f"transfer_{name}")
        .task("validate", reads=[req, bal_src], writes=[ok],
              compute=lambda d: {
                  ok: 1 if 0 < d[req] <= d[bal_src] else 0
              },
              choose=lambda d, _ok=ok: "debit" if d[_ok] else "reject")
        .task("debit", reads=[req, bal_src], writes=[bal_src],
              compute=lambda d: {bal_src: d[bal_src] - d[req]})
        .task("credit", reads=[req, bal_dst], writes=[bal_dst],
              compute=lambda d: {bal_dst: d[bal_dst] + d[req]})
        .task("record", reads=[req, "ledger"], writes=["ledger"],
              compute=lambda d: {"ledger": d["ledger"] + d[req]})
        .task("reject", reads=[], writes=[rejected],
              compute=lambda d: {rejected: 1})
        .edge("validate", "debit").edge("debit", "credit")
        .edge("credit", "record")
        .edge("validate", "reject")
        .build()
    )


@dataclass
class BankingScenario(Scenario):
    """The attacked banking system, ready to heal."""

    forged_run: str

    STATE_LABEL: ClassVar[str] = "balances "

    def reported(self) -> Tuple[Sequence[str], Sequence[str]]:
        return (), [self.forged_run]

    def summary(self) -> Dict[str, int]:
        return self.balances()

    def balances(self) -> Dict[str, int]:
        """Current account balances."""
        return {
            name: self.store.read(name)
            for name in sorted(self.store.snapshot())
            if name.startswith("balance_")
        }


def build_banking() -> BankingScenario:
    """Execute the attacked banking day.

    Sequence of events:

    1. the attacker forges ``transfer alice → mallory, 80`` (stolen
       credentials — the entire run is malicious);
    2. Alice's legitimate ``transfer alice → bob, 50`` arrives and is
       *rejected*: the forged transfer left her only 20;
    3. Carol's independent ``transfer carol → dave, 10`` commits fine.

    After :meth:`BankingScenario.heal_now`, the forged transfer is gone,
    Alice's balance is restored, and her transfer to Bob is re-decided
    and *approved*.
    """
    initial = {
        "balance_alice": 100,
        "balance_bob": 10,
        "balance_carol": 40,
        "balance_dave": 5,
        "balance_mallory": 0,
        "ledger": 0,
        "req_forged": 80,
        "req_ab": 50,
        "req_cd": 10,
        "ok_forged": 0, "ok_ab": 0, "ok_cd": 0,
        "rejected_forged": 0, "rejected_ab": 0, "rejected_cd": 0,
    }
    manager = EpochManager(DataStore(initial), initial)
    # The theft commits first, then the two legitimate transfers.
    manager.run_workflow(transfer_spec("forged", "alice", "mallory"),
                         name="transfer_forged")
    manager.run_workflow(transfer_spec("ab", "alice", "bob"),
                         name="transfer_ab")
    manager.run_workflow(transfer_spec("cd", "carol", "dave"),
                         name="transfer_cd")
    return BankingScenario(manager, initial, forged_run="transfer_forged")
