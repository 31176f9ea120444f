"""Attack injection and intrusion detection substrate.

The paper assumes an independent IDS (citing Lee & Stolfo) that
"periodically reports intrusions... by putting IDS alerts in a queue", and
attackers who inject malicious tasks or forge task data.  This package
provides both sides:

- :mod:`repro.ids.attacks` — tamper hooks that corrupt task outputs or
  forge whole malicious runs, recording ground truth for evaluation;
- :mod:`repro.ids.alerts` — alerts and the bounded queues of the recovery
  architecture (Figure 2).
"""

from repro.ids.alerts import Alert, BoundedQueue
from repro.ids.attacks import (
    AttackCampaign,
    OutputOverride,
    OutputTransform,
    TargetSelector,
)

__all__ = [
    "Alert",
    "BoundedQueue",
    "AttackCampaign",
    "OutputOverride",
    "OutputTransform",
    "TargetSelector",
]
