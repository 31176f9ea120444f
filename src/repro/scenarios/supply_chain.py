"""A supply-chain case study: compound attack, compound recovery.

Richer than the paper's two-workflow example, this scenario exercises
every recovery mechanism at once:

- **Workflows**: a procurement run (reorder decision based on stock), a
  stream of sales orders (reserve stock, credit-check branch, invoice),
  and a bookkeeping audit that summarizes the day.
- **Attack 1 (data corruption)**: the attacker inflates the stock count
  read by procurement, so the reorder that should have happened is
  skipped — and later sales are wrongly backordered when the (real)
  stock runs out.
- **Attack 2 (forged run)**: a fake sales order placed with stolen
  credentials drains stock and books revenue.

Recovery must undo the forged order outright (no redo), re-decide the
procurement branch (reorder after all — a *new* execution path), and
repair every sales order whose reserve/credit decisions consumed the
corrupted stock — while the untouched orders keep their work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.epochs import EpochManager
from repro.ids.attacks import AttackCampaign
from repro.scenarios.base import Scenario
from repro.workflow.data import DataStore
from repro.workflow.spec import WorkflowSpec, workflow

__all__ = ["SupplyChainScenario", "build_supply_chain"]

REORDER_THRESHOLD = 50
REORDER_QTY = 100
UNIT_COST = 7
UNIT_PRICE = 12


def procurement_spec() -> WorkflowSpec:
    """check stock → (reorder | skip) → post to the purchasing ledger."""
    return (
        workflow("procurement")
        .task("check", reads=["stock"], writes=["stock_reading"],
              compute=lambda d: {"stock_reading": d["stock"]},
              choose=lambda d: (
                  "reorder" if d["stock_reading"] < REORDER_THRESHOLD
                  else "skip"
              ),
              description="reads the stock count (attack point)")
        .task("reorder", reads=["stock", "payables"],
              writes=["stock", "payables"],
              compute=lambda d: {
                  "stock": d["stock"] + REORDER_QTY,
                  "payables": d["payables"] + REORDER_QTY * UNIT_COST,
              })
        .task("skip", reads=[], writes=["po_note"],
              compute=lambda d: {"po_note": 1})
        .task("post", reads=["payables"], writes=["po_total"],
              compute=lambda d: {"po_total": d["payables"]})
        .edge("check", "reorder").edge("check", "skip")
        .edge("reorder", "post").edge("skip", "post")
        .build()
    )


def sales_spec(name: str, qty: int) -> WorkflowSpec:
    """reserve stock → (fulfil | backorder) → settle."""
    reserved = f"reserved_{name}"
    status = f"status_{name}"
    invoice = f"invoice_{name}"
    return (
        workflow(f"sale_{name}")
        .task("reserve", reads=["stock"],
              writes=["stock", reserved],
              compute=lambda d: {
                  "stock": d["stock"] - qty if d["stock"] >= qty
                  else d["stock"],
                  reserved: 1 if d["stock"] >= qty else 0,
              },
              choose=lambda d, _r=reserved: (
                  "fulfil" if d[_r] else "backorder"
              ))
        .task("fulfil", reads=["revenue"], writes=["revenue", invoice],
              compute=lambda d: {
                  "revenue": d["revenue"] + qty * UNIT_PRICE,
                  invoice: qty * UNIT_PRICE,
              })
        .task("backorder", reads=[], writes=[status],
              compute=lambda d: {status: 1})
        .task("settle", reads=["revenue"], writes=[f"settled_{name}"],
              compute=lambda d: {f"settled_{name}": d["revenue"]})
        .edge("reserve", "fulfil").edge("reserve", "backorder")
        .edge("fulfil", "settle").edge("backorder", "settle")
        .build()
    )


def audit_spec() -> WorkflowSpec:
    """End-of-day bookkeeping: margin = revenue − payables."""
    return (
        workflow("bookkeeping")
        .task("summarize", reads=["revenue", "payables", "stock"],
              writes=["margin", "stock_on_hand"],
              compute=lambda d: {
                  "margin": d["revenue"] - d["payables"],
                  "stock_on_hand": d["stock"],
              })
        .build()
    )


@dataclass
class SupplyChainScenario(Scenario):
    """The attacked supply-chain day, ready to heal."""

    malicious_uid: str          # the corrupted procurement check
    forged_run: str             # the fake sales order
    sale_names: List[str]

    def reported(self) -> Tuple[Sequence[str], Sequence[str]]:
        return [self.malicious_uid], [self.forged_run]

    def summary(self) -> Dict[str, int]:
        """Key business figures of the current store state."""
        return {
            name: self.store.read(name)
            for name in ("stock", "revenue", "payables", "margin")
        }


def build_supply_chain(n_sales: int = 4) -> SupplyChainScenario:
    """Execute the attacked day.

    Timeline: procurement runs first (stock 40 < 50 would trigger a
    reorder, but the attacker inflates the reading to 400 → skipped);
    the forged sales order drains 30 units; then ``n_sales`` legitimate
    orders of 20 units each arrive — without the reorder the later ones
    are wrongly backordered; bookkeeping closes the day.
    """
    initial: Dict[str, int] = {
        "stock": 40,
        "payables": 0,
        "revenue": 0,
        "stock_reading": 0,
        "po_note": 0,
        "po_total": 0,
        "margin": 0,
        "stock_on_hand": 0,
        "reserved_evil": 0, "status_evil": 0, "invoice_evil": 0,
        "settled_evil": 0,
    }
    names = [f"s{i}" for i in range(n_sales)]
    for name in names:
        initial[f"reserved_{name}"] = 0
        initial[f"status_{name}"] = 0
        initial[f"invoice_{name}"] = 0
        initial[f"settled_{name}"] = 0

    manager = EpochManager(DataStore(initial), initial)

    campaign = AttackCampaign().corrupt_task(
        "check", workflow_instance="procurement",
        label="forged stock reading", stock_reading=400,
    )

    manager.run_workflow_attacked(procurement_spec(), campaign,
                                  name="procurement")
    manager.run_workflow(sales_spec("evil", 30), name="sale_evil")
    for name in names:
        manager.run_workflow(sales_spec(name, 20), name=f"sale_{name}")
    manager.run_workflow(audit_spec(), name="bookkeeping")

    return SupplyChainScenario(
        manager, initial,
        malicious_uid="procurement/check#1",
        forged_run="sale_evil",
        sale_names=names,
    )
