"""Windowed chi-square residue tests and the identify-and-remove policy.

Under no attack the whitened residues are standard normal, so the sum of
their squares over a sliding window is chi-square distributed; the alarm
threshold is the ``1 - alpha`` quantile. Per-sensor detectors watch scalar
local residues (one degree of freedom per step); the central detector
watches the full residue vector (``m`` degrees of freedom per step). A
sensor is identified as attacked after a run of consecutive alarms (the
removal policy), and removed from fusion unless removal would destroy joint
observability.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .linalg import scipy_compiled

(gammaincinv,) = scipy_compiled("special._special_ufuncs", "special", "gammaincinv")


def threshold_from_alpha(window: int, dof_per_step: int, alpha: float) -> float:
    """Chi-square alarm threshold with false-alarm probability ``alpha`` per window.

    The ``1 - alpha`` quantile of chi-square with ``df`` degrees of freedom
    is ``2 * gammaincinv(df / 2, 1 - alpha)``, the expression
    ``scipy.stats.chi2.ppf`` evaluates, so the thresholds are the same bits
    without importing ``scipy.stats``.
    """
    if window < 1 or dof_per_step < 1:
        raise ValueError("window and dof_per_step must be >= 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return float(2 * gammaincinv(window * dof_per_step / 2, 1.0 - alpha))


@dataclass(frozen=True)
class DetectorConfig:
    """Window length and threshold of one detector."""

    window: int
    gamma: float

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")

    @classmethod
    def from_alpha(cls, window: int, dof_per_step: int, alpha: float) -> "DetectorConfig":
        return cls(window=window, gamma=threshold_from_alpha(window, dof_per_step, alpha))


@dataclass(frozen=True)
class Chi2Result:
    statistic: float | np.ndarray
    alarm: bool | np.ndarray


class Chi2Detector:
    """Sliding-window chi-square detector; no alarms until the window fills.

    Each step feeds the detector that step's chi-square increment
    ``|z_k|^2``: a scalar, or an array of independent increments (one per
    sensor) that are summed and tested elementwise.
    """

    def __init__(self, cfg: DetectorConfig):
        self.cfg = cfg
        self._buf: deque = deque(maxlen=cfg.window)

    def update(self, sq) -> Chi2Result | None:
        """Push one step's increment; returns None while the window is still
        filling. The window's increments are summed oldest first."""
        self._buf.append(sq)
        if len(self._buf) < self.cfg.window:
            return None
        stat = sum(self._buf)
        return Chi2Result(statistic=stat, alarm=stat > self.cfg.gamma)


def identify_and_remove(
    candidates,
    active,
    can_remove,
    alerts: list[str],
    step: int,
) -> list[int]:
    """Remove candidate sensors one at a time, skipping any whose removal
    would break joint observability of the remaining set.

    ``can_remove(remaining)`` must answer whether fusion over ``remaining``
    still observes the full state. A refused removal appends an operator
    alert for ``step`` to ``alerts``, and the sensor stays active.
    """
    removed = []
    current = list(active)
    for s in sorted(candidates):
        if s not in current:
            continue
        rest = [t for t in current if t != s]
        if can_remove(rest):
            removed.append(s)
            current = rest
        else:
            alerts.append(
                f"step {step}: sensor {s} met the removal policy but removal would "
                "lose joint observability; operator attention required"
            )
    return removed
