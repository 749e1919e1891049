"""Switched linear plant models with a secret sensing schedule.

The defended plant cycles through a finite set of ``(A, C)`` configurations.
Which configuration is active is decided per period by a keyed, counter-based
cryptographic generator, so an attacker who knows the configuration set but
not the key cannot predict the active pair. Sensor attacks enter additively
through a selection matrix ``D`` whose columns are standard basis vectors,
one per attacked sensor (:class:`AttackSet`).

Indexing convention: sensors and configurations are 0-based throughout.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AttackSetError, ModelError
from .linalg import observable, psd_factor, sym


def _as_matrix(M, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ModelError(f"{name} must be a 2-D array, got ndim={M.ndim}")
    if not np.all(np.isfinite(M)):
        raise ModelError(f"{name} contains non-finite entries")
    return M


def _frozen(M: np.ndarray) -> np.ndarray:
    M = M.copy()
    M.setflags(write=False)
    return M


@dataclass(frozen=True)
class LtiPair:
    """One plant configuration: state matrix ``A`` (n x n), output matrix ``C`` (m x n)."""

    A: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        A = _as_matrix(self.A, "A")
        C = _as_matrix(self.C, "C")
        if A.shape[0] != A.shape[1]:
            raise ModelError(f"A must be square, got {A.shape}")
        if C.shape[1] != A.shape[0]:
            raise ModelError(f"C has {C.shape[1]} columns, expected {A.shape[0]}")
        object.__setattr__(self, "A", _frozen(A))
        object.__setattr__(self, "C", _frozen(C))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.C.shape[0]


def schedule_key(seed) -> bytes:
    """Normalize a seed into a 256-bit schedule key.

    Accepts 32 raw bytes, an int (taken mod 2**256), or an arbitrary
    string/bytes (hashed with SHA-256).
    """
    if isinstance(seed, bytes):
        if len(seed) == 32:
            return seed
        return hashlib.sha256(seed).digest()
    if isinstance(seed, int):
        return (seed % (1 << 256)).to_bytes(32, "big")
    if isinstance(seed, str):
        return hashlib.sha256(seed.encode("utf-8")).digest()
    raise ModelError(f"cannot derive a schedule key from {type(seed).__name__}")


@dataclass(frozen=True)
class TargetSet:
    """The moving target without its secret: the configuration list and the
    switching period, which is what an admissible attacker may know.

    The schedule key is not part of it; each run passes its own to
    :func:`sample_schedule`.
    """

    pairs: tuple[LtiPair, ...]
    period: int

    def __post_init__(self):
        pairs = tuple(self.pairs)
        if not pairs:
            raise ModelError("TargetSet needs at least one (A, C) pair")
        n, m = pairs[0].n, pairs[0].m
        for i, p in enumerate(pairs):
            if (p.n, p.m) != (n, m):
                raise ModelError(f"pair {i} has shape ({p.n},{p.m}), expected ({n},{m})")
        if not isinstance(self.period, int) or self.period < 1:
            raise ModelError("period must be a positive integer")
        object.__setattr__(self, "pairs", pairs)

    @property
    def n(self) -> int:
        return self.pairs[0].n

    @property
    def m(self) -> int:
        return self.pairs[0].m

    @property
    def l(self) -> int:
        return len(self.pairs)


def _uniform_index(key: bytes, counter: int, l: int) -> int:
    """Uniform draw over {0..l-1} from a keyed SHA-256 counter stream.

    64-bit words are rejection-sampled so the distribution is exactly
    uniform; the stream depends only on (key, counter), so block ``counter``
    can be recomputed independently of all others.
    """
    bound = (1 << 64) - ((1 << 64) % l)
    word = 0
    while True:
        digest = hashlib.sha256(
            key + counter.to_bytes(8, "big") + word.to_bytes(4, "big")
        ).digest()
        for off in range(0, 32, 8):
            v = int.from_bytes(digest[off : off + 8], "big")
            if v < bound:
                return v % l
        word += 1


def sample_schedule(ts: TargetSet, horizon: int, key) -> np.ndarray:
    """Active-configuration index for steps ``0..horizon-1`` under the
    schedule ``key`` (any seed :func:`schedule_key` accepts).

    The index is constant within each period block and drawn uniformly over
    ``{0..l-1}`` per block from the keyed generator. Identical
    ``(key, period, horizon)`` always reproduce the same schedule.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    key = schedule_key(key)
    blocks = math.ceil(horizon / ts.period)
    out = np.empty(horizon, dtype=np.int64)
    for b in range(blocks):
        j = _uniform_index(key, b, ts.l)
        out[b * ts.period : (b + 1) * ts.period] = j
    return out


@dataclass(frozen=True)
class AttackSet:
    """The attacked sensors, as distinct indices in ``[0, m)``.

    The ``v``-th attacked sensor receives the ``v``-th attack value, so
    attack values can only enter the attacked rows of the output.
    """

    sensors: tuple[int, ...]
    m: int

    def __post_init__(self):
        sensors = tuple(int(s) for s in self.sensors)
        if len(set(sensors)) != len(sensors):
            raise AttackSetError(f"attacked sensors must be distinct, got {sensors}")
        for s in sensors:
            if not 0 <= s < self.m:
                raise AttackSetError(f"sensor index {s} out of range [0, {self.m})")
        object.__setattr__(self, "sensors", sensors)

    @property
    def size(self) -> int:
        return len(self.sensors)

    @property
    def D(self) -> np.ndarray:
        """The selection matrix (m x k): ``D[s, v] == 1`` exactly when sensor
        ``s`` is the ``v``-th attacked sensor, zero elsewhere."""
        D = np.zeros((self.m, self.size))
        D[self.sensors, range(self.size)] = 1.0
        return D

    def inject(self, d, horizon: int) -> np.ndarray:
        """``D d_k`` for steps ``0..horizon-1`` as a ``(horizon, m)`` array.

        ``d`` holds the attack values as a ``(horizon, k)`` array (a single
        attacked sensor may take a ``(horizon,)`` one). Each value is written
        to its sensor's row of a zero array, which is exactly the product
        with ``D``; an empty attack injects zeros.
        """
        d = np.asarray(d, dtype=float)
        if d.ndim == 1:
            d = d.reshape(-1, 1)
        if d.shape != (horizon, self.size):
            raise AttackSetError(f"attack values have shape {d.shape}, expected ({horizon}, {self.size})")
        out = np.zeros((horizon, self.m))
        out[:, self.sensors] = d
        return out


@dataclass(frozen=True)
class NoiseModel:
    """Gaussian disturbance model: process ``Q``, measurement ``R``, initial prior.

    ``R`` must be symmetric positive definite; ``Q`` and ``P0`` positive
    semidefinite (eigenvalues within ``-1e-10 * ||.||`` are clamped to zero).
    ``x0_mean``/``P0`` describe the estimator's prior on the initial state;
    they default to zero and the identity. The ``*_factor`` fields hold
    square-root factors ``L`` with ``L @ L.T`` equal to ``Q``, ``R``, ``P0``.
    """

    Q: np.ndarray
    R: np.ndarray
    x0_mean: np.ndarray | None = None
    P0: np.ndarray | None = None
    Q_factor: np.ndarray = field(init=False, repr=False, compare=False)
    R_factor: np.ndarray = field(init=False, repr=False, compare=False)
    P0_factor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        Q = _as_matrix(self.Q, "Q")
        R = _as_matrix(self.R, "R")
        n = Q.shape[0]
        m = R.shape[0]
        if Q.shape != (n, n):
            raise ModelError(f"Q must be square, got {Q.shape}")
        if R.shape != (m, m):
            raise ModelError(f"R must be square, got {R.shape}")
        x0 = np.zeros(n) if self.x0_mean is None else np.asarray(self.x0_mean, dtype=float).reshape(-1)
        P0 = np.eye(n) if self.P0 is None else _as_matrix(self.P0, "P0")
        if x0.shape != (n,):
            raise ModelError(f"x0_mean has shape {x0.shape}, expected ({n},)")
        if P0.shape != (n, n):
            raise ModelError(f"P0 has shape {P0.shape}, expected ({n},{n})")
        LQ = psd_factor(Q, name="Q")
        LP0 = psd_factor(P0, name="P0")
        try:
            LR = np.linalg.cholesky(sym(R))
        except np.linalg.LinAlgError as exc:
            raise ModelError("R must be symmetric positive definite") from exc
        object.__setattr__(self, "Q", _frozen(Q))
        object.__setattr__(self, "R", _frozen(R))
        object.__setattr__(self, "x0_mean", _frozen(x0))
        object.__setattr__(self, "P0", _frozen(P0))
        object.__setattr__(self, "Q_factor", _frozen(LQ))
        object.__setattr__(self, "R_factor", _frozen(LR))
        object.__setattr__(self, "P0_factor", _frozen(LP0))

    @property
    def n(self) -> int:
        return self.Q.shape[0]

    @property
    def m(self) -> int:
        return self.R.shape[0]


@dataclass(frozen=True)
class Trajectory:
    """One simulated run: states, outputs, schedule, and injected attacks.

    All arrays cover steps ``0..T-1``; ``attacks[k]`` is ``D @ d_k`` (an
    m-vector, zero on unattacked sensors).
    """

    states: np.ndarray
    outputs: np.ndarray
    schedule: np.ndarray
    attacks: np.ndarray

    def __len__(self) -> int:
        return self.states.shape[0]


def _check_schedule(ts: TargetSet, schedule) -> np.ndarray:
    schedule = np.asarray(schedule, dtype=np.int64).reshape(-1)
    if schedule.size == 0:
        raise ValueError("schedule is empty")
    if schedule.min() < 0 or schedule.max() >= ts.l:
        raise ModelError("schedule contains out-of-range configuration indices")
    return schedule


def draw_noise(noise: NoiseModel, rng: np.random.Generator, T: int):
    """``(e0, v, w)`` for a ``T``-step run: the prior's draw ``e0 = x0 -
    x0_mean`` first, then one ``(T, m + n)`` block whose row ``k`` is ``v_k``
    then ``w_k``, the same numbers as drawing them step by step. The batched
    mat-vecs ``matmul(F, z[:, :, None])`` are bitwise the per-step ``F @ z_k``."""
    n, m = noise.n, noise.m
    e0 = noise.P0_factor @ rng.standard_normal(n)
    Z = rng.standard_normal((T, m + n, 1))
    v = np.matmul(noise.R_factor, Z[:, :m])[..., 0]
    return e0, v, np.matmul(noise.Q_factor, Z[:, m:])[..., 0]


def free_response(pairs, configs, x, rows) -> np.ndarray:
    """Outputs ``C_j[rows] @ x_k`` of the free response ``x_{k+1} = A_j x_k``
    from ``x``, where ``j = configs[k]``; row ``k`` of the result is step ``k``.

    ``x`` is a state vector or a matrix of them (the identity gives the
    observability rows), real or complex; ``rows`` is one sensor index or a
    list of them. Of each configuration it reads only ``A`` and ``C``, so any
    record holding them serves, such as a shifted pair ``(A - lam I, C)``.
    """
    out = []
    for j in configs:
        pair = pairs[j]
        out.append(pair.C[rows] @ x)
        x = pair.A @ x
    return np.array(out)


def _simulate(ts: TargetSet, schedule, x, v, w, attack, d) -> Trajectory:
    """``y_k = C_k x_k + D d_k + v_k`` and ``x_{k+1} = A_k x_k + w_k`` from ``x``."""
    T = schedule.size
    attacks = np.zeros((T, ts.m)) if attack is None else attack.inject(d, T)
    states = np.empty((T, ts.n))
    outputs = np.empty((T, ts.m))
    for k in range(T):
        pair = ts.pairs[schedule[k]]
        states[k] = x
        outputs[k] = pair.C @ x + attacks[k] + v[k]
        x = pair.A @ x + w[k]
    return Trajectory(states=states, outputs=outputs, schedule=schedule, attacks=attacks)


def simulate_deterministic(
    ts: TargetSet,
    schedule,
    x0,
    attack: AttackSet | None = None,
    d=None,
) -> Trajectory:
    """Noise-free run of the switched plant.

    ``d`` supplies per-step attack values, an array of shape ``(T, k)``;
    outputs are ``y_k = C_k x_k + D d_k`` and the state evolves as
    ``x_{k+1} = A_k x_k``.
    """
    schedule = _check_schedule(ts, schedule)
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.shape != (ts.n,):
        raise ModelError(f"x0 has shape {x.shape}, expected ({ts.n},)")
    T = schedule.size
    return _simulate(ts, schedule, x, np.zeros((T, ts.m)), np.zeros((T, ts.n)), attack, d)


def simulate_stochastic(
    ts: TargetSet,
    schedule,
    noise: NoiseModel,
    rng: np.random.Generator,
    attack: AttackSet | None = None,
    d=None,
) -> Trajectory:
    """Stochastic run with process noise Q, measurement noise R, and prior x0.

    All randomness comes from ``rng``, in :func:`draw_noise`'s order: the
    initial state first, then per step the measurement noise ``v_k``
    followed by the process noise ``w_k``.
    """
    schedule = _check_schedule(ts, schedule)
    if (noise.n, noise.m) != (ts.n, ts.m):
        raise ModelError("noise model dimensions do not match the target set")
    e0, v, w = draw_noise(noise, rng, schedule.size)
    return _simulate(ts, schedule, noise.x0_mean + e0, v, w, attack, d)


@dataclass(frozen=True)
class RecommendationReport:
    """Outcome of the five moving-target design checks.

    1. pairwise disjoint spectra, 2. period at least ``2n``, 3. more than one
    configuration (so the schedule is genuinely unpredictable), 4. every pair
    observable, 5. no eigenvalue at zero.
    """

    disjoint_spectra: bool
    period_at_least_2n: bool
    schedule_nondegenerate: bool
    all_pairs_observable: bool
    spectra_exclude_zero: bool
    min_cross_gap: float
    min_abs_eigenvalue: float
    unobservable_pairs: tuple[int, ...]

    def satisfied(self) -> bool:
        return not self.problems()

    def problems(self) -> list[str]:
        """Human-readable list of violated design recommendations."""
        out = []
        if not self.disjoint_spectra:
            out.append(
                f"configuration spectra overlap (closest cross-model eigenvalue "
                f"gap {self.min_cross_gap:.3e}); constant-schedule attacks may "
                "carry over between configurations"
            )
        if not self.period_at_least_2n:
            out.append("schedule period is shorter than twice the state dimension")
        if not self.schedule_nondegenerate:
            out.append("only one configuration: the schedule is predictable")
        if not self.all_pairs_observable:
            out.append(
                "configuration(s) "
                + ", ".join(str(i) for i in self.unobservable_pairs)
                + " are unobservable with the full sensor set"
            )
        if not self.spectra_exclude_zero:
            out.append(
                f"an eigenvalue sits at zero (min |eigenvalue| "
                f"{self.min_abs_eigenvalue:.3e}); attacks along its null "
                "directions die out and evade identification windows"
            )
        return out


def validate_design_recommendations(ts: TargetSet) -> RecommendationReport:
    """Check the five design recommendations for a moving target.

    Eigenvalue comparisons use the tolerance ``tau_eig = 1e-8 * (1 + max
    |eigenvalue|)``. With a single configuration the disjoint-spectra check
    is vacuously true while the schedule is flagged as degenerate.
    """
    spectra = [np.linalg.eigvals(p.A) for p in ts.pairs]
    max_abs = max(float(np.max(np.abs(s))) for s in spectra)
    tau_eig = 1e-8 * (1.0 + max_abs)

    min_gap = math.inf
    for i in range(ts.l):
        for j in range(i + 1, ts.l):
            gap = float(np.min(np.abs(spectra[i][:, None] - spectra[j][None, :])))
            min_gap = min(min_gap, gap)
    disjoint = (min_gap == math.inf) or (min_gap > tau_eig)

    min_abs_eig = min(float(np.min(np.abs(s))) for s in spectra)

    unobs = tuple(i for i, p in enumerate(ts.pairs) if not observable(p.A, p.C))

    return RecommendationReport(
        disjoint_spectra=disjoint,
        period_at_least_2n=ts.period >= 2 * ts.n,
        schedule_nondegenerate=ts.l >= 2,
        all_pairs_observable=not unobs,
        spectra_exclude_zero=min_abs_eig > tau_eig,
        min_cross_gap=min_gap,
        min_abs_eigenvalue=min_abs_eig,
        unobservable_pairs=unobs,
    )
