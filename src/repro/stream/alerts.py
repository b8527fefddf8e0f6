"""Alerting: shift-anomaly detection over the live replay.

:class:`ShiftAlertMonitor` is the operational payoff of near-real-time
monitoring: notify the planner when the current shift field is abnormally
energetic — a mass-mobility event, a district outage, a heat wave hitting
cooling load.  It keeps a running mean/variance of per-tick shift energy
(Welford's algorithm, O(1) memory) and raises an :class:`Alert` when a tick
exceeds ``mean + threshold_sigma * std`` after a warm-up period.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.stream.online import ShiftUpdate


@dataclass(frozen=True, slots=True)
class Alert:
    """One raised alert."""

    tick: int
    energy: float
    zscore: float
    message: str


class ShiftAlertMonitor:
    """Streaming anomaly detector over shift-field energy.

    Parameters
    ----------
    threshold_sigma:
        How many running standard deviations above the mean a tick must be
        to alert.
    warmup_ticks:
        Observations consumed before alerts may fire (the baseline must be
        established first).
    """

    def __init__(self, threshold_sigma: float = 3.0, warmup_ticks: int = 12) -> None:
        if threshold_sigma <= 0:
            raise ValueError(
                f"threshold_sigma must be positive, got {threshold_sigma}"
            )
        if warmup_ticks < 2:
            raise ValueError(f"warmup_ticks must be >= 2, got {warmup_ticks}")
        self.threshold_sigma = threshold_sigma
        self.warmup_ticks = warmup_ticks
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.alerts: list[Alert] = []

    @property
    def count(self) -> int:
        """Ticks observed so far."""
        return self._count

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def std(self) -> float:
        if self._count < 2:
            return 0.0
        return float(np.sqrt(self._m2 / (self._count - 1)))

    def observe(self, update: ShiftUpdate) -> Alert | None:
        """Feed one replay update; returns an alert if it fired.

        The anomalous observation is *not* absorbed into the baseline, so a
        sustained event keeps alerting instead of normalising itself.
        """
        energy = float(update.energy)
        if not np.isfinite(energy):
            raise ValueError(f"update energy must be finite, got {energy}")
        std = self.std
        if self._count >= self.warmup_ticks and std > 0:
            zscore = (energy - self._mean) / std
            if zscore > self.threshold_sigma:
                alert = Alert(
                    tick=update.tick,
                    energy=energy,
                    zscore=float(zscore),
                    message=(
                        f"shift energy {energy:.3e} is {zscore:.1f} sigma "
                        f"above the baseline {self._mean:.3e}"
                    ),
                )
                self.alerts.append(alert)
                obs.log_event(
                    "stream.alert",
                    level="warning",
                    tick=alert.tick,
                    energy=alert.energy,
                    zscore=round(alert.zscore, 3),
                    message=alert.message,
                )
                return alert
        # Welford update (only for non-alerting observations).
        self._count += 1
        delta = energy - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (energy - self._mean)
        return None

    def observe_all(self, updates: list[ShiftUpdate]) -> list[Alert]:
        """Feed a whole replay; returns the alerts raised."""
        fired = []
        for update in updates:
            alert = self.observe(update)
            if alert is not None:
                fired.append(alert)
        return fired
