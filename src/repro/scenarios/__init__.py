"""Concrete scenarios from the paper.

- :mod:`repro.scenarios.figure1` — the motivating example of Figure 1:
  two interleaved workflows, a malicious ``t1``, damage spreading across
  both workflows, and an execution-path change during recovery;
- :mod:`repro.scenarios.banking` — the introduction's forged bank
  transaction: a whole workflow run injected by the attacker;
- :mod:`repro.scenarios.travel` — the introduction's travel booking with
  forged credit-card data steering an approval branch;
- :mod:`repro.scenarios.supply_chain` — a compound case study: data
  corruption plus a forged run across procurement, sales and
  bookkeeping workflows;
- :mod:`repro.scenarios.web_app` — an Ancora-style web shop: a session
  hijack at request granularity, with live traffic racing the repair.

Each module exposes a ``build_*()`` returning a ready-to-run
:class:`~repro.scenarios.base.Scenario` built on an
:class:`~repro.core.epochs.EpochManager`, whose ``heal_now()`` performs
recovery and the Definition 2 audit; :data:`SCENARIOS` maps each CLI
name to its builder.

Beyond the fixed case studies, :mod:`repro.scenarios.generate` grows
seeded random workloads and attack campaigns (the fuzzing DSL), and
:mod:`repro.scenarios.fuzz` runs them through the oracle-checked
fuzzing harness behind ``repro-workflow fuzz``.
"""

from typing import Callable, Dict

from repro.scenarios.banking import BankingScenario, build_banking
from repro.scenarios.base import Scenario
from repro.scenarios.figure1 import Figure1Scenario, build_figure1
from repro.scenarios.supply_chain import (
    SupplyChainScenario,
    build_supply_chain,
)
from repro.scenarios.travel import TravelScenario, build_travel
from repro.scenarios.web_app import WebAppScenario, build_web_app

#: CLI name → builder of every built-in scenario, in listing order.
SCENARIOS: Dict[str, Callable[[], Scenario]] = {
    "figure1": build_figure1,
    "banking": build_banking,
    "travel": build_travel,
    "supply-chain": build_supply_chain,
    "web-app": build_web_app,
}

__all__ = [
    "SCENARIOS",
    "Scenario",
    "Figure1Scenario",
    "build_figure1",
    "BankingScenario",
    "build_banking",
    "TravelScenario",
    "build_travel",
    "SupplyChainScenario",
    "build_supply_chain",
    "WebAppScenario",
    "build_web_app",
]
