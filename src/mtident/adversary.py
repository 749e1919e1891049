"""Attack policies under an explicit information model.

Admissible attackers know the configuration set and the schedule
distribution (the period and that draws are uniform), their own past
injections, and nothing else: no schedule key, no realized schedule, no
plant states or outputs. :class:`AttackerInfo` is the whole attacker-facing
view; policies are constructed from it plus their own random stream, so the
information boundary is enforced by the interface. The omniscient policy is
the one deliberate exception (it receives the realized schedule) and is
marked non-admissible; it exists as a worst-case baseline.

Policies emit one value per attacked sensor per step; the simulation maps
them through the selection matrix ``D``, so injected vectors always lie in
the attacked sensors' span.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWitnessError
from .identifiability import (
    CrossModelWitness,
    construct_cross_model_attack,
    cross_model_unidentifiability,
)
from .system_model import AttackSet, LtiPair, TargetSet


@dataclass(frozen=True)
class AttackerInfo:
    """What an admissible attacker may know: configurations and schedule shape.

    Deliberately excludes the schedule key, the realized schedule, and all
    plant signals.
    """

    pairs: tuple[LtiPair, ...]
    period: int
    distribution: str = "uniform-per-period"

    @classmethod
    def from_target_set(cls, ts: TargetSet) -> "AttackerInfo":
        return cls(pairs=ts.pairs, period=ts.period)

    @property
    def l(self) -> int:
        return len(self.pairs)


class AttackPolicy:
    """Base class: stateful per run, stepped sequentially from k = 0."""

    admissible = True

    def __init__(self, attack: AttackSet):
        self.attack = attack
        self._next_k = 0

    @property
    def sensors(self) -> tuple[int, ...]:
        return self.attack.sensors

    def values(self, k: int) -> np.ndarray:
        """Per-sensor attack values at step ``k`` (must be called in order)."""
        if k != self._next_k:
            raise ValueError(
                f"policy stepped out of order (expected k={self._next_k}, got {k}); "
                "create a fresh policy or call reset()"
            )
        v = np.asarray(self._values(k), dtype=float).reshape(self.attack.size)
        self._next_k += 1
        return v

    def _values(self, k: int) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def reset(self) -> None:
        self._next_k = 0
        self._reset()

    def _reset(self) -> None:
        pass

    def sequence(self, horizon: int) -> np.ndarray:
        """Materialize the first ``horizon`` steps as a ``(horizon, k)`` array."""
        self.reset()
        out = np.empty((horizon, self.attack.size))
        for k in range(horizon):
            out[k] = self.values(k)
        self.reset()
        return out


class OmniscientSchedulePolicy(AttackPolicy):
    """Worst-case baseline: mimics a legitimate initial-state offset.

    Knows the realized schedule (hence non-admissible) and injects
    ``d_k = C_k[s] x*_k`` with ``x*`` propagated by the true dynamics from
    ``x0_star``. The attacked outputs then equal a clean run started at
    ``x0 + x0_star``, so they stay consistent forever while the estimate is
    dragged along the (typically unstable) offset trajectory.
    """

    admissible = False

    def __init__(self, ts: TargetSet, schedule, attack: AttackSet, x0_star):
        super().__init__(attack)
        self.pairs = ts.pairs
        self.schedule = np.asarray(schedule, dtype=np.int64).reshape(-1)
        self.x0_star = np.asarray(x0_star, dtype=float).reshape(-1)
        self._x = self.x0_star.copy()

    def _values(self, k: int) -> np.ndarray:
        pair = self.pairs[self.schedule[k]]
        d = pair.C[list(self.sensors)] @ self._x
        self._x = pair.A @ self._x
        return d

    def _reset(self) -> None:
        self._x = self.x0_star.copy()


class GuessingPolicy(AttackPolicy):
    """Admissible attacker guessing the active configuration each period.

    Draws a guess uniformly per period from its own stream and injects the
    consistent-looking sequence for the guessed dynamics. By default the
    virtual trajectory continues across period boundaries from the
    propagated state; with ``restart_each_period`` it restarts from
    ``x0_star`` at every boundary.
    """

    def __init__(
        self,
        info: AttackerInfo,
        attack: AttackSet,
        x0_star,
        seed,
        restart_each_period: bool = False,
    ):
        super().__init__(attack)
        self.info = info
        self.x0_star = np.asarray(x0_star, dtype=float).reshape(-1)
        self.seed = seed
        self.restart_each_period = restart_each_period
        self._rng = np.random.default_rng(seed)
        self._x = self.x0_star.copy()
        self._period = -1
        self._guess = 0
        self.guesses: list[int] = []

    def _values(self, k: int) -> np.ndarray:
        p = k // self.info.period
        if p != self._period:
            self._guess = int(self._rng.integers(self.info.l))
            self.guesses.append(self._guess)
            self._period = p
            if self.restart_each_period:
                self._x = self.x0_star.copy()
        pair = self.info.pairs[self._guess]
        d = pair.C[list(self.sensors)] @ self._x
        self._x = pair.A @ self._x
        return d

    def _reset(self) -> None:
        self._rng = np.random.default_rng(self.seed)
        self._x = self.x0_star.copy()
        self._period = -1
        self.guesses.clear()


class PersistentBiasPolicy(AttackPolicy):
    """Constant or linearly ramping bias on every attacked sensor."""

    def __init__(self, attack: AttackSet, constant: float = 0.0, ramp: float = 0.0):
        super().__init__(attack)
        if constant == 0.0 and ramp == 0.0:
            raise ValueError("persistent bias profile must be nonzero")
        self.constant = float(constant)
        self.ramp = float(ramp)

    def _values(self, k: int) -> np.ndarray:
        return np.full(self.attack.size, self.constant + self.ramp * k)


class CrossModelPolicy(AttackPolicy):
    """Replays witness-based attacks consistent with two fixed configurations.

    Only meaningful against constant schedules; a moving target exposes it.
    Witnesses are found (or supplied) per attacked sensor; a witness whose
    realification degenerates is retried under phase rotations before giving
    up.
    """

    _ROTATIONS = (0.0, np.pi / 2, np.pi / 4, 3 * np.pi / 4, 1.2345)

    def __init__(
        self,
        pair1: LtiPair,
        pair2: LtiPair,
        attack: AttackSet,
        horizon: int,
        witnesses: dict[int, CrossModelWitness] | None = None,
    ):
        super().__init__(attack)
        self.horizon = int(horizon)
        table = np.empty((self.horizon, attack.size))
        for i, s in enumerate(attack.sensors):
            w = (witnesses or {}).get(s)
            if w is None:
                res = cross_model_unidentifiability(pair1, pair2, s)
                if not res.exists:
                    raise DegenerateWitnessError(
                        f"no cross-model unidentifiability witness exists for sensor {s}"
                    )
                w = res.witness
            table[:, i] = self._realize(w, pair1, pair2, s)
        self._table = table

    def _realize(self, w, pair1, pair2, s) -> np.ndarray:
        last = None
        for theta in self._ROTATIONS:
            try:
                return construct_cross_model_attack(
                    w.rotated(theta), pair1, pair2, s, self.horizon
                )
            except DegenerateWitnessError as exc:
                last = exc
        raise last

    def _values(self, k: int) -> np.ndarray:
        if k >= self.horizon:
            raise ValueError(f"cross-model attack precomputed only through step {self.horizon - 1}")
        return self._table[k]


def dominant_unstable_direction(A: np.ndarray) -> np.ndarray:
    """Unit vector along the dominant eigenvector of ``A`` (realified)."""
    w, V = np.linalg.eig(np.asarray(A, dtype=float))
    v = V[:, int(np.argmax(np.abs(w)))]
    x = v.real if np.linalg.norm(v.real) >= np.linalg.norm(v.imag) else v.imag
    nrm = np.linalg.norm(x)
    if nrm == 0.0:
        raise ValueError("degenerate dominant eigenvector")
    return x / nrm
