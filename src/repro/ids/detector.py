"""Intrusion detection system simulator.

The paper treats the IDS as an independent black box that periodically
reports malicious tasks, possibly late and possibly incompletely: "the
recovery still depends on the accuracy of the IDS... we assume that all
corrupted tasks will ultimately be identified" (Section IV-D).  This
simulator reproduces those knobs:

- **detection probability** — per malicious instance, the chance the IDS
  (rather than the administrator) catches it;
- **detection delay** — exponential lag between commit and report;
- **false alarm rate** — spurious alerts naming innocent instances.

Ground truth comes from an :class:`~repro.ids.attacks.AttackCampaign`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.ids.alerts import Alert
from repro.ids.attacks import AttackCampaign
from repro.workflow.log import SystemLog

__all__ = ["DetectorConfig", "IntrusionDetector"]


@dataclass(frozen=True)
class DetectorConfig:
    """Tuning knobs of the simulated IDS.

    Attributes
    ----------
    detection_probability:
        Probability that a malicious instance is reported by the IDS at
        all.  Undetected instances can still be reported manually via
        :meth:`IntrusionDetector.administrator_report` (the paper's
        "identified by the administrator").
    mean_detection_delay:
        Mean of the exponential delay between an instance's commit and its
        alert becoming available.
    false_alarm_rate:
        Expected number of false alarms per inspected *innocent* log
        record (Bernoulli per record).
    """

    detection_probability: float = 1.0
    mean_detection_delay: float = 0.0
    false_alarm_rate: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.detection_probability <= 1.0:
            raise ValueError("detection_probability must be in [0, 1]")
        if self.mean_detection_delay < 0:
            raise ValueError("mean_detection_delay must be >= 0")
        if not 0.0 <= self.false_alarm_rate <= 1.0:
            raise ValueError("false_alarm_rate must be in [0, 1]")


class IntrusionDetector:
    """Simulated IDS producing the alert stream the recovery consumes.

    Typical use: after (or while) workflows execute, call :meth:`inspect`
    with the current log and commit times, then :meth:`drain` to release
    the alerts, ordered by detection time.
    """

    def __init__(
        self,
        campaign: AttackCampaign,
        config: Optional[DetectorConfig] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self._campaign = campaign
        self._config = config if config is not None else DetectorConfig()
        self._rng = rng if rng is not None else random.Random(0)
        self._inspected: Set[str] = set()
        self._pending: List[Alert] = []  # not yet released
        self._missed: List[str] = []     # malicious but never alerted

    @property
    def config(self) -> DetectorConfig:
        """The detector's configuration."""
        return self._config

    @property
    def missed(self) -> Tuple[str, ...]:
        """Malicious uids the IDS decided not to report (admin's job)."""
        return tuple(self._missed)

    # -- producing alerts ---------------------------------------------------

    def inspect(self, log: SystemLog, now: float = 0.0) -> int:
        """Examine log records not seen before; schedule alerts.

        Returns the number of new alerts scheduled.  Idempotent over
        already-inspected records.
        """
        cfg = self._config
        malicious = set(self._campaign.malicious_uids)
        scheduled = 0
        for record in log.normal_records():
            uid = record.uid
            if uid in self._inspected:
                continue
            self._inspected.add(uid)
            if uid in malicious:
                if self._rng.random() <= cfg.detection_probability:
                    at = now + self._delay()
                    self._pending.append(Alert(at, uid, genuine=True))
                    scheduled += 1
                else:
                    self._missed.append(uid)
            elif cfg.false_alarm_rate > 0 and (
                self._rng.random() < cfg.false_alarm_rate
            ):
                at = now + self._delay()
                self._pending.append(Alert(at, uid, genuine=False))
                scheduled += 1
        return scheduled

    def drain(self) -> List[Alert]:
        """Release all pending alerts, ordered by detection time."""
        released = sorted(self._pending)
        self._pending = []
        return released

    def administrator_report(self, uid: str, now: float = 0.0) -> Alert:
        """Manually report an instance the IDS missed (Section IV-D: all
        corrupted tasks are ultimately identified by the administrator)."""
        if uid in self._missed:
            self._missed.remove(uid)
        alert = Alert(now, uid, genuine=True)
        self._pending.append(alert)
        return alert

    # -- internal --------------------------------------------------------------

    def _delay(self) -> float:
        mean = self._config.mean_detection_delay
        if mean <= 0:
            return 0.0
        return self._rng.expovariate(1.0 / mean)
