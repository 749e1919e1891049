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
import numpy.random  # numpy loads it lazily; load it here, not in a run

from .errors import DegenerateWitnessError
from .identifiability import construct_cross_model_attack, cross_model_unidentifiability
from .system_model import AttackSet, LtiPair, TargetSet, free_response


@dataclass(frozen=True)
class AttackerInfo:
    """What an admissible attacker may know: configurations and schedule shape.

    Deliberately excludes the schedule key, the realized schedule, and all
    plant signals.
    """

    pairs: tuple[LtiPair, ...]
    period: int

    @classmethod
    def from_target_set(cls, ts: TargetSet) -> "AttackerInfo":
        return cls(pairs=ts.pairs, period=ts.period)

    @property
    def l(self) -> int:
        return len(self.pairs)


class AttackPolicy:
    """Base class: an open-loop attack, a fixed sequence of values per step.

    No policy sees a plant signal, so a run draws its whole attack up front,
    and the first ``k`` steps of a longer draw are the draw for ``k`` steps.
    """

    admissible = True

    def __init__(self, attack: AttackSet):
        self.attack = attack

    @property
    def sensors(self) -> tuple[int, ...]:
        return self.attack.sensors

    def values(self, horizon: int) -> np.ndarray:
        """Per-sensor attack values for steps ``0..horizon-1`` as a
        ``(horizon, k)`` array."""
        return np.asarray(self._values(horizon), dtype=float).reshape(horizon, self.attack.size)

    def _values(self, horizon: int) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError


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

    def _values(self, horizon: int) -> np.ndarray:
        return free_response(self.pairs, self.schedule[:horizon], self.x0_star, list(self.sensors))


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

    def guesses(self, horizon: int) -> np.ndarray:
        """The guessed configuration of steps ``0..horizon-1``: one draw per
        period from the attacker's seeded stream."""
        period = self.info.period
        draws = np.random.default_rng(self.seed).integers(self.info.l, size=-(-horizon // period))
        return np.repeat(draws, period)[:horizon]

    def _values(self, horizon: int) -> np.ndarray:
        # with restarts, each period's guesses replay from x0_star
        period = self.info.period
        starts = range(period, horizon, period) if self.restart_each_period else []
        return np.concatenate([
            free_response(self.info.pairs, guesses, self.x0_star, list(self.sensors))
            for guesses in np.split(self.guesses(horizon), starts)
        ])


class PersistentBiasPolicy(AttackPolicy):
    """Constant or linearly ramping bias on every attacked sensor."""

    def __init__(self, attack: AttackSet, constant: float = 0.0, ramp: float = 0.0):
        super().__init__(attack)
        if constant == 0.0 and ramp == 0.0:
            raise ValueError("persistent bias profile must be nonzero")
        self.constant = float(constant)
        self.ramp = float(ramp)

    def _values(self, horizon: int) -> np.ndarray:
        k = np.arange(horizon)[:, None]
        return np.repeat(self.constant + self.ramp * k, self.attack.size, axis=1)


class CrossModelPolicy(AttackPolicy):
    """Replays witness-based attacks consistent with two fixed configurations.

    Only meaningful against constant schedules; a moving target exposes it.
    A witness is found per attacked sensor when the policy is built; a
    sensor without one raises :class:`DegenerateWitnessError`.
    """

    def __init__(self, pair1: LtiPair, pair2: LtiPair, attack: AttackSet):
        super().__init__(attack)
        self.pair1, self.pair2 = pair1, pair2
        self.witnesses = []
        for s in attack.sensors:
            res = cross_model_unidentifiability(pair1, pair2, s)
            if not res.exists:
                raise DegenerateWitnessError(
                    f"no cross-model unidentifiability witness exists for sensor {s}"
                )
            self.witnesses.append(res.witness)

    def _values(self, horizon: int) -> np.ndarray:
        return np.column_stack([
            construct_cross_model_attack(w, self.pair1, self.pair2, s, horizon)
            for w, s in zip(self.witnesses, self.sensors)
        ])


def dominant_unstable_direction(A: np.ndarray) -> np.ndarray:
    """Unit vector along the dominant eigenvector of ``A`` (realified)."""
    w, V = np.linalg.eig(np.asarray(A, dtype=float))
    v = V[:, int(np.argmax(np.abs(w)))]
    # eig returns unit eigenvectors, so the larger part has norm >= 1/sqrt(2)
    x = v.real if np.linalg.norm(v.real) >= np.linalg.norm(v.imag) else v.imag
    return x / np.linalg.norm(x)
