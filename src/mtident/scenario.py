"""End-to-end scenarios: configuration, generation, simulation, reporting.

A scenario wires together a moving-target system, a secret schedule, an
attack policy, the central and per-sensor estimators, fusion, and the
chi-square detectors, and logs per-step metrics plus detection events.

The run engine propagates the filters in *error coordinates*: the filter is
linear, so running it on ``y_k - C_k x_k`` (measurement noise plus injected
attack) with prior ``x0_mean - x0`` and feeding ``-w_k`` as a known input
after each prediction yields exactly the negated estimation errors and the
identical residues of a run on raw data. This avoids ever forming the true
state, which for the deliberately unstable example plant overflows doubles
(and drowns innovations in cancellation) long before the 10^4-step horizons
used for residue calibration.

A run takes two passes over the horizon. Nothing a run draws depends on
filter state, and every attack policy is open-loop, so the first pass draws
all inputs at once. The second, the filter loop, steps the central filter
and its detector, then the filter bank, fusion over the active sensors and
the sensor tests (:func:`_filter_loop`). Its result is bit for bit that of
one loop with a detector object per sensor.

The filter loop runs on one BLAS thread (:func:`_one_blas_thread`). It
alternates numpy products with scipy's LAPACK calls, each on its own
OpenBLAS, and at default threading each library's idle threads spin
against the other's work: on a 2-vCPU Xeon, a clean n = 30 run took about
4x as long, and the example plant beside another numpy process 3 to 15x as
long, for the same bytes.

A run happens on a :class:`Plant`: the target set, the noise model and a
filter bank over every sensor's Kalman decomposition. Generating the example
plant already decomposes each sensor to validate the draw, and its bank
keeps those decompositions; an explicit plant is decomposed once when it is
built. Monte Carlo trials differ from their study only in seeds and schedule
key, and no plant matrix depends on the key, so :func:`monte_carlo` builds
the plant, with its filter bank's arrays, once and runs every trial on it
under the trial's own key, in forked worker processes that inherit it and
its single BLAS thread. A single run builds its own plant and then takes the
same path.

Reproducibility: every random quantity derives from config seeds (simulation
noise from ``seed``, the schedule from the schedule key, attacker guesses
from the attack seed), so identical configurations produce byte-identical
outputs.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import dataclasses
import functools
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from types import UnionType
from typing import Literal, Union, get_args, get_origin, get_type_hints

import numpy as np
import numpy.random  # numpy loads it lazily; load it here, not in a run

from .adversary import (
    AttackerInfo,
    AttackPolicy,
    CrossModelPolicy,
    GuessingPolicy,
    OmniscientSchedulePolicy,
    PersistentBiasPolicy,
    dominant_unstable_direction,
)
from .detection import Chi2Detector, DetectorConfig, identify_and_remove
from .errors import AttackSetError, ConditioningError, ConfigError, DecompositionError, DegenerateWitnessError, FilterError
from .estimation import (
    CentralKalmanFilter,
    FusionEstimator,
    LocalFilterBank,
    kalman_decomposition,
)
from .linalg import observable, spectral_radius
from .matrixio import read_matrix, read_vector
from .system_model import (
    AttackSet,
    LtiPair,
    NoiseModel,
    TargetSet,
    draw_noise,
    sample_schedule,
    schedule_key,
)

METRICS_SCHEMA = "mtident-metrics-v1"
EVENTS_SCHEMA = "mtident-events-v1"
TRIALS_SCHEMA = "mtident-trials-v1"


# ---------------------------------------------------------------------------
# configuration


def _read_by(*kinds: str, default=None, **meta):
    """A field that only sections of one of ``kinds`` read; a section of
    another kind rejects its key."""
    return field(default=default, metadata={"kinds": kinds, **meta})


def _explicit_files(key: str, default=None, entries=None):
    """A ``system`` field that only an explicit system reads, from config key
    ``key``: matrix-file paths, resolved against the config file's directory.
    With ``entries``, the key holds a list of mappings with exactly those
    keys, each read as a tuple of its paths in that order."""
    return _read_by("explicit", default=default, key=key, paths=True, entries=entries)


@dataclass(frozen=True)
class SystemSpec:
    kind: Literal["generated", "explicit"] = "generated"
    seed: int = _read_by("generated", default=0)
    n: int = _read_by("generated", default=15)
    l: int = _read_by("generated", default=7)
    spectral_radius: tuple[float, float] = _read_by("generated", default=(1.05, 1.3))
    coupling: float = _read_by("generated", default=0.2)
    noise_scale: float = _read_by("generated", default=1.0)
    pair_files: tuple[tuple[str, str], ...] = _explicit_files("pairs", (), entries=("A", "C"))
    Q_file: str | None = _explicit_files("Q")
    R_file: str | None = _explicit_files("R")
    x0_mean_file: str | None = _explicit_files("x0_mean")
    P0_file: str | None = _explicit_files("P0")


@dataclass(frozen=True)
class ScheduleSpec:
    period: int | None = None  # None: 2n
    key: int | str | bytes | None = None  # None: derived from the system seed


AttackKind = Literal["none", "omniscient", "guessing", "persistent_bias", "cross_model"]


@dataclass(frozen=True)
class AttackSpec:
    kind: AttackKind = "none"
    sensors: tuple[int, ...] = _read_by(*get_args(AttackKind)[1:], default=())  # all but "none"
    x0_star: Literal["auto"] | tuple[float, ...] = _read_by("omniscient", "guessing", default="auto")
    x0_star_scale: float = _read_by("omniscient", "guessing", default=1.0)
    seed: int = _read_by("guessing", default=1)
    restart_each_period: bool = _read_by("guessing", default=False)
    constant: float = _read_by("persistent_bias", default=0.0)
    ramp: float = _read_by("persistent_bias", default=0.0)
    models: tuple[int, int] = _read_by("cross_model", default=(0, 1))


@dataclass(frozen=True)
class DetectorSpec:
    sensor_window: int = 5
    sensor_alpha: float = 6.9e-8
    central_window: int = 3
    central_alpha: float = 4.2e-4
    removal_policy: int = 2
    removal_enabled: bool = True


@dataclass(frozen=True)
class ScenarioConfig:
    """A scenario configuration. This class and the spec classes of its
    sections are the configuration schema: each field is one config key (its
    name, or ``metadata["key"]``), its annotation the type the key's value
    must have, and its default the value an omitted key takes. A ``system``
    or ``attack`` field with ``metadata["kinds"]`` is read only by sections
    whose ``kind`` is one of those; a section of any other kind rejects its
    key, whatever its value."""

    horizon: int
    seed: int
    system: SystemSpec = field(default_factory=SystemSpec)
    schedule: ScheduleSpec = field(default_factory=ScheduleSpec)
    attack: AttackSpec = field(default_factory=AttackSpec)
    detector: DetectorSpec = field(default_factory=DetectorSpec)
    trials: int = 1


def _coerce(value, hint, where: str):
    """``value`` as the annotation ``hint`` describes it: JSON lists become
    tuples and integers become floats where ``hint`` asks for those. A
    boolean is no number, and a float must be finite: JSON's ``true`` is an
    ``int`` to Python, and ``Infinity``, ``NaN`` and integers past a double's
    range reach a float key as ``inf``, ``nan`` or an ``OverflowError``."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Literal:
        if value in args:
            return value
        raise ConfigError(f"'{where}' must be one of {list(args)}, got {value!r}")
    if origin in (Union, UnionType):
        first_error = None
        for alternative in args:
            try:
                return _coerce(value, alternative, where)
            except ConfigError as exc:
                first_error = first_error or exc
        raise first_error
    if origin is tuple and isinstance(value, (list, tuple)):
        items = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(items) != len(value):
            raise ConfigError(f"'{where}' must hold {len(args)} values, got {len(value)}")
        return tuple(_coerce(v, t, where) for v, t in zip(value, items))
    if isinstance(value, bool) and hint is not bool:
        raise ConfigError(f"'{where}' has wrong type bool")
    if hint is float and isinstance(value, (int, float)):
        if not -_FLOAT_MAX <= value <= _FLOAT_MAX:  # False for nan
            raise ConfigError(f"'{where}' must be a finite number")
        return float(value)
    if origin is None and isinstance(value, hint):
        return value
    raise ConfigError(f"'{where}' has wrong type {type(value).__name__}")


_FLOAT_MAX = float(np.finfo(float).max)


def check_seed(seed: int, name: str) -> None:
    """Raise :class:`ConfigError`, naming ``name``, for a seed that numpy's
    ``SeedSequence`` refuses: a negative one."""
    if seed < 0:
        raise ConfigError(f"'{name}' must be >= 0, got {seed}")


def _resolve(paths, base: Path | None):
    """``paths`` (a path, ``None`` or nested tuples of paths) with each
    relative path taken against ``base``."""
    if isinstance(paths, tuple):
        return tuple(_resolve(p, base) for p in paths)
    if paths is None:
        return None
    return str(base / paths if base is not None and not os.path.isabs(paths) else Path(paths))


def _read_section(cls, raw, section: str, base: Path | None):
    """The spec dataclass ``cls`` read from the config mapping ``raw`` of
    ``section`` ("" for the top level); unknown keys are rejected."""
    if not isinstance(raw, dict):
        raise ConfigError(f"'{section}' must be a mapping" if section else "configuration must be a mapping")
    d = dict(raw)
    hints = get_type_hints(cls)
    values = {}
    for f in dataclasses.fields(cls):
        key = f.metadata.get("key", f.name)
        where = f"{section}.{key}" if section else key
        if key not in d:
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise ConfigError(f"'{where}' is required")
            continue
        value = d.pop(key)
        kinds = f.metadata.get("kinds")
        if kinds is not None and (kind := values.get("kind", cls.kind)) not in kinds:
            only = " or ".join(kinds)
            raise ConfigError(f"'{where}' is read only by {section}.kind {only}, not {kind!r}")
        if dataclasses.is_dataclass(hints[f.name]):
            values[f.name] = _read_section(hints[f.name], value, where, base)
            continue
        entries = f.metadata.get("entries")
        if entries and isinstance(value, list):
            if not all(isinstance(e, dict) and set(e) == set(entries) for e in value):
                raise ConfigError(f"'{where}' entries must be mappings with keys {list(entries)}")
            value = [[e[k] for k in entries] for e in value]
        value = _coerce(value, hints[f.name], where)
        values[f.name] = _resolve(value, base) if f.metadata.get("paths") else value
    if d:
        raise ConfigError(f"unknown key(s) in '{section or 'config'}': {sorted(d)}")
    return cls(**values)


def config_from_dict(raw: dict, base_dir: str | os.PathLike | None = None) -> ScenarioConfig:
    """Read a configuration mapping against the schema of
    :class:`ScenarioConfig` and check its values.

    Unknown keys, and ``system`` and ``attack`` keys that the section's
    ``kind`` does not read, are rejected. Relative matrix-file paths are
    resolved against ``base_dir``.
    """
    cfg = _read_section(ScenarioConfig, raw, "", Path(base_dir) if base_dir is not None else None)
    system, detector = cfg.system, cfg.detector
    if system.kind == "explicit" and (not system.pair_files or not system.Q_file or not system.R_file):
        raise ConfigError("explicit systems need system.pairs, system.Q, and system.R")
    if system.kind == "generated":
        check_example_size(system.n, system.l, "system.")
    if system.noise_scale < 0.0:
        raise ConfigError(f"'system.noise_scale' must be >= 0, got {system.noise_scale}")
    low, high = system.spectral_radius
    if not 0.0 < low <= high:
        raise ConfigError(f"'system.spectral_radius' must satisfy 0 < low <= high, got {[low, high]}")
    for name, seed in (("seed", cfg.seed), ("system.seed", system.seed), ("attack.seed", cfg.attack.seed)):
        check_seed(seed, name)
    if cfg.schedule.period is not None and cfg.schedule.period < 1:
        raise ConfigError("schedule.period must be >= 1")
    if cfg.attack.kind != "none" and not cfg.attack.sensors:
        raise ConfigError(f"attack.kind '{cfg.attack.kind}' needs attack.sensors")
    for key in ("sensor_window", "central_window", "removal_policy"):
        if getattr(detector, key) < 1:
            raise ConfigError(f"'detector.{key}' must be >= 1")
    for key in ("sensor_alpha", "central_alpha"):
        if not 0.0 < getattr(detector, key) < 1.0:
            raise ConfigError(f"'detector.{key}' must lie in (0, 1)")
    if cfg.horizon < 1:
        raise ConfigError("'horizon' must be >= 1")
    if cfg.trials < 1:
        raise ConfigError("'trials' must be >= 1")
    return cfg


def load_config(path: str | os.PathLike) -> ScenarioConfig:
    """Load a JSON scenario configuration file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return config_from_dict(raw, base_dir=path.parent)


# ---------------------------------------------------------------------------
# the worked example system


@dataclass(frozen=True)
class Plant:
    """What every run of a study shares: the target set, the noise model, and
    a filter bank over every sensor's decomposition (``bank.decomps``), which
    each run restarts at its own prior (:meth:`LocalFilterBank.restarted`).

    Nothing here depends on ``ts.key``, so trials run on one plant under
    their own keys; nothing in a run writes to the plant's arrays. The bank
    caches each active set's joint-observability verdict and fusion's
    read-only arrays (rows, ``H``, ``H H'``, the identity, the ``[H |
    zeta]'`` template), so a study's trials decide and form each set once;
    the cache lives and dies with the plant.
    """

    ts: TargetSet
    noise: NoiseModel
    bank: LocalFilterBank


_BLOCK_PATTERN = ((0, 0), (0, 1), (1, 1), (1, 3), (2, 2), (2, 4), (3, 3), (3, 4), (4, 4))


def check_example_size(n: int, l: int, prefix: str) -> None:
    """Raise :class:`ConfigError`, naming ``prefix + "n"`` or ``prefix + "l"``,
    for sizes :func:`generate_example_system` cannot build."""
    if n < 5 or n % 5:
        raise ConfigError(f"'{prefix}n' must be a positive multiple of 5, got {n}")
    if l < 1:
        raise ConfigError(f"'{prefix}l' must be >= 1, got {l}")


def example_key(seed: int) -> str:
    """The default schedule key material of the example plant generated from ``seed``."""
    return f"mtident-example-{seed}"


def generate_example_system(
    seed: int,
    n: int = SystemSpec.n,
    l: int = SystemSpec.l,
    radius: tuple[float, float] = SystemSpec.spectral_radius,
    coupling: float = SystemSpec.coupling,
    noise_scale: float = SystemSpec.noise_scale,
    period: int | None = None,
    key=None,
) -> Plant:
    """Random instance of the worked example: five coupled 3-dim blocks,
    two five-sensor banks, unstable block dynamics.

    Every configuration shares a fixed sparsity pattern (diagonal blocks plus
    couplings 1->2, 2->4, 3->5, 4->5), so each sensor's unobservable subspace
    is the same coordinate subspace under every configuration, which is what
    the per-sensor filter bank requires. Diagonal blocks are rescaled to a
    spectral radius drawn from ``radius`` (unstable by default). Draws are
    retried until every diagonal block can be rescaled, every pair is
    observable and every sensor decomposes cleanly, at most 40 draws; the returned plant's bank keeps those
    decompositions. No retry depends on ``key``.
    """
    check_example_size(n, l, "")
    b = n // 5
    m = 10
    last_err = None
    for attempt in range(40):
        rng = np.random.default_rng([seed, attempt])
        # a degenerate block, an unobservable pair or a sensor that does not
        # decompose is retried with a new draw
        try:
            pairs = []
            for _ in range(l):
                A = np.zeros((n, n))
                for (r, c) in _BLOCK_PATTERN:
                    Mb = rng.uniform(-1.0, 1.0, (b, b))
                    if r == c:
                        target = rng.uniform(radius[0], radius[1])
                        sr = spectral_radius(Mb)
                        if sr < 1e-9:
                            raise ConditioningError(
                                f"diagonal block of spectral radius {sr:.1e} cannot be rescaled"
                            )
                        Mb = Mb * (target / sr)
                    else:
                        Mb = Mb * coupling
                    A[r * b : (r + 1) * b, c * b : (c + 1) * b] = Mb
                C = np.zeros((m, n))
                for bank in range(2):
                    for i in range(5):
                        C[bank * 5 + i, i * b : (i + 1) * b] = rng.uniform(-1.0, 1.0, b)
                pairs.append(LtiPair(A, C))
            MQ = rng.uniform(-1.0, 1.0, (n, n))
            Q = noise_scale * (MQ @ MQ.T)
            MR = rng.uniform(-1.0, 1.0, (m, m))
            R = noise_scale * (MR @ MR.T) + 1e-3 * np.eye(m)
            ts = TargetSet(
                pairs=tuple(pairs),
                period=_schedule_period(period, n),
                key=key if key is not None else schedule_key(example_key(seed)),
            )
            noise = NoiseModel(Q=Q, R=R)
            for p in pairs:
                if not observable(p.A, p.C):
                    raise ConditioningError("pair unobservable")
            decomps = [kalman_decomposition(ts, s) for s in range(m)]
        except (ConditioningError, DecompositionError, np.linalg.LinAlgError) as exc:
            last_err = exc
            continue
        return Plant(ts, noise, LocalFilterBank(ts, noise, decomps))
    raise ConditioningError(
        f"could not generate a well-posed example system after {attempt + 1} attempts "
        f"(last failure: {last_err})"
    )


# ---------------------------------------------------------------------------
# building blocks


def _schedule_period(period: int | None, n: int) -> int:
    """The schedule's dwell time: ``period`` when set, else ``2n`` steps."""
    return 2 * n if period is None else period


def config_schedule_key(cfg: ScenarioConfig) -> bytes:
    """The schedule key ``cfg`` runs under: ``schedule.key`` when given,
    else one derived from the system seed (generated systems) or from the
    run seed (explicit systems). Monte Carlo trial keys derive from it."""
    if cfg.schedule.key is not None:
        return schedule_key(cfg.schedule.key)
    if cfg.system.kind == "generated":
        return schedule_key(example_key(cfg.system.seed))
    return schedule_key(f"mtident-explicit-{cfg.seed}")


def _read_file(path: str, key: str, sizes: dict[str, int], *dims: str) -> np.ndarray:
    """The matrix (two ``dims``) or vector (one) in ``path``, the file that
    ``system.<key>`` names. Each of ``dims`` names a size in ``sizes``; a
    name not there yet takes this file's size. A missing or malformed file,
    or one of another shape, is a :class:`ConfigError` naming the key."""
    read = read_matrix if len(dims) == 2 else read_vector
    try:
        M = read(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"'system.{key}': cannot read {path} ({exc})") from exc
    for d, size in zip(dims, M.shape):
        sizes.setdefault(d, size)
    want = tuple(sizes[d] for d in dims)
    if M.shape != want:
        raise ConfigError(f"'system.{key}': {path} has shape {M.shape}, expected {want}")
    return M


def _read_system(cfg: ScenarioConfig) -> tuple[TargetSet, NoiseModel]:
    sysd = cfg.system
    sizes = {}  # n, the rows of the first A, and m, the rows of the first C
    pairs = tuple(
        LtiPair(
            _read_file(a, f"pairs[{i}].A", sizes, "n", "n"),
            _read_file(c, f"pairs[{i}].C", sizes, "m", "n"),
        )
        for i, (a, c) in enumerate(sysd.pair_files)
    )
    Q = _read_file(sysd.Q_file, "Q", sizes, "n", "n")
    R = _read_file(sysd.R_file, "R", sizes, "m", "m")
    x0 = _read_file(sysd.x0_mean_file, "x0_mean", sizes, "n") if sysd.x0_mean_file else None
    P0 = _read_file(sysd.P0_file, "P0", sizes, "n", "n") if sysd.P0_file else None
    period = _schedule_period(cfg.schedule.period, pairs[0].n)
    ts = TargetSet(pairs=pairs, period=period, key=config_schedule_key(cfg))
    return ts, NoiseModel(Q=Q, R=R, x0_mean=x0, P0=P0)


def build_system(cfg: ScenarioConfig) -> Plant:
    """The configured plant, generated or read from files.

    A generated plant's bank keeps the decompositions that validated its
    draw; an explicit one is decomposed here.
    """
    sysd = cfg.system
    if sysd.kind == "generated":
        return generate_example_system(
            seed=sysd.seed,
            n=sysd.n,
            l=sysd.l,
            radius=sysd.spectral_radius,
            coupling=sysd.coupling,
            noise_scale=sysd.noise_scale,
            period=cfg.schedule.period,
            key=config_schedule_key(cfg),
        )
    ts, noise = _read_system(cfg)
    decomps = [kalman_decomposition(ts, s) for s in range(ts.m)]
    return Plant(ts, noise, LocalFilterBank(ts, noise, decomps))


def build_target_set(cfg: ScenarioConfig) -> TargetSet:
    """The configured target set for a design audit. An explicit system is
    read but not decomposed, so designs without per-sensor filters can
    still be audited."""
    if cfg.system.kind == "generated":
        return build_system(cfg).ts
    return _read_system(cfg)[0]


def _resolve_x0_star(spec: AttackSpec, ts: TargetSet) -> np.ndarray:
    if spec.x0_star == "auto":
        v = dominant_unstable_direction(ts.pairs[0].A)
    else:
        v = np.asarray(spec.x0_star, dtype=float).reshape(-1)
        if v.shape != (ts.n,):
            raise ConfigError(f"attack.x0_star has length {v.size}, expected {ts.n}")
    return spec.x0_star_scale * v


def _build_attack(cfg: ScenarioConfig, ts: TargetSet, schedule: np.ndarray) -> AttackPolicy | None:
    spec = cfg.attack
    if spec.kind == "none":
        return None
    try:
        attack = AttackSet(spec.sensors, ts.m)
    except AttackSetError as exc:
        raise ConfigError(f"attack.sensors: {exc}") from exc
    if spec.kind == "omniscient":
        return OmniscientSchedulePolicy(ts, schedule, attack, _resolve_x0_star(spec, ts))
    if spec.kind == "guessing":
        info = AttackerInfo.from_target_set(ts)
        return GuessingPolicy(
            info,
            attack,
            _resolve_x0_star(spec, ts),
            seed=spec.seed,
            restart_each_period=spec.restart_each_period,
        )
    if spec.kind == "persistent_bias":
        if spec.constant == 0.0 and spec.ramp == 0.0:
            raise ConfigError("persistent_bias attack needs a nonzero constant or ramp")
        return PersistentBiasPolicy(attack, constant=spec.constant, ramp=spec.ramp)
    i, j = spec.models  # cross_model
    if not (0 <= i < ts.l and 0 <= j < ts.l and i != j):
        raise ConfigError(f"attack.models {spec.models} invalid for l={ts.l}")
    try:
        return CrossModelPolicy(ts.pairs[i], ts.pairs[j], attack)
    except DegenerateWitnessError as exc:
        raise ConfigError(
            f"attack.sensors {list(spec.sensors)} under attack.models {list(spec.models)}: {exc}"
        ) from exc


# ---------------------------------------------------------------------------
# running


@dataclass
class RunReport:
    """Everything observable from one scenario run.

    Metric arrays cover steps ``0..horizon-1``; ``local_residues[k, s]`` is
    sensor ``s``'s whitened local residue (logged even after removal).
    Events are ``(step, sensor, kind)`` with ``sensor = -1`` for the central
    detector; they are the run's record of alarms and removals. ``alerts``
    holds the operator alerts of refused removals.
    """

    config: ScenarioConfig
    schedule: np.ndarray
    err_central: np.ndarray
    err_fused: np.ndarray
    trace_P: np.ndarray
    fused_trace: np.ndarray
    local_residues: np.ndarray
    events: list[tuple[int, int, str]]
    alerts: list[str]
    summary: dict


def run_scenario(cfg: ScenarioConfig, plant: Plant | None = None) -> RunReport:
    """Run one seeded scenario end to end.

    ``plant`` defaults to ``build_system(cfg)``; :func:`monte_carlo` passes
    its study's shared plant instead. Either way the run uses the plant
    under ``cfg``'s schedule key and leaves the plant unchanged.

    The run takes two passes over the horizon (see the module docstring):
    the inputs (:func:`_draw_inputs`), then the filter loop
    (:func:`_filter_loop`) on one BLAS thread (:func:`_one_blas_thread`).
    A run whose metric series or residues are not all finite raises
    :class:`FilterError` naming the first such step.
    """
    if plant is None:
        plant = build_system(cfg)
    ts = dataclasses.replace(plant.ts, key=config_schedule_key(cfg))
    T = cfg.horizon
    schedule = sample_schedule(ts, T)
    policy = _build_attack(cfg, ts, schedule)

    e0, y_err, w = _draw_inputs(cfg.seed, plant.noise, T, policy)
    # error-coordinate setup: priors become x0_mean + offset = -(x0 - x0_mean)
    offset = -(plant.noise.x0_mean + e0)
    alerts: list[str] = []
    with _one_blas_thread():
        err_central, err_fused, trace_P, fused_trace, local_z, events = _filter_loop(
            plant, ts, schedule, y_err, w, offset, cfg.detector, alerts
        )
    finite = np.isfinite(np.column_stack((err_central, err_fused, trace_P, fused_trace, local_z)))
    if not finite.all():
        step = int(np.argmin(finite.all(axis=1)))
        raise FilterError(f"the run's outputs are not finite from step {step}: a value overflowed doubles")
    report = RunReport(
        config=cfg,
        schedule=schedule,
        err_central=err_central,
        err_fused=err_fused,
        trace_P=trace_P,
        fused_trace=fused_trace,
        local_residues=local_z,
        events=events,
        alerts=alerts,
        summary={},
    )
    report.summary = _summarize(report)
    return report


def _draw_inputs(seed, noise: NoiseModel, T: int, policy: AttackPolicy | None):
    """Pass 1: the initial error ``e0``, the error-coordinate outputs
    ``y_k - C_k x_k = v_k + D d_k`` and the process noise ``w_k``, with the
    noise from :func:`draw_noise` and ``D d_k`` from :meth:`AttackSet.inject`.
    """
    ss_sim = np.random.SeedSequence(seed).spawn(1)[0]
    e0, v, w = draw_noise(noise, np.random.default_rng(ss_sim), T)
    if policy is None:
        return e0, v, w
    return e0, v + policy.attack.inject(policy.values(T), T), w


def _filter_loop(plant: Plant, ts: TargetSet, schedule, y_err, w, offset, det: DetectorSpec, alerts):
    """Pass 2: per step, the central filter and its detector, then the
    filter bank, fusion over the active set and the sensor tests; returns
    the four metric series, the local residues and the events.

    The bank runs every sensor whatever the removals and no sensor's test
    restarts, so one :class:`Chi2Detector` fed all squared residues tests
    each sensor elementwise. A sensor whose alarm streak reaches the removal
    policy is a candidate. Removals take effect from the next step, refused
    ones are appended to ``alerts``, the central filter keeps the remaining
    sensors' rows, and the central detector, which only logs, restarts with
    the new residue dimension.
    """
    T, m = y_err.shape
    central = CentralKalmanFilter(plant.noise, mean_offset=offset)
    bank = plant.bank.restarted(offset)
    active = list(range(m))
    fusion = FusionEstimator(bank, active)
    central_detector = Chi2Detector(DetectorConfig.from_alpha(det.central_window, m, det.central_alpha))
    detector = Chi2Detector(DetectorConfig.from_alpha(det.sensor_window, 1, det.sensor_alpha))
    err_central, err_fused, trace_P, fused_trace = (np.empty(T) for _ in range(4))
    local_z = np.empty((T, m))
    streak = np.zeros(m, dtype=np.int64)
    events: list[tuple[int, int, str]] = []
    # norms as np.linalg.norm forms them for a vector: sqrt(x . x)
    models, neg_w = schedule.tolist(), -w
    for k in range(T):
        j = models[k]
        cres = central.step(ts.pairs[j], y_err[k])
        x = cres.x_post
        err_central[k] = math.sqrt(x.dot(x))  # |-e_k| = |e_k|
        trace_P[k] = cres.P_prior.trace()
        central.shift_prediction(neg_w[k])
        r = cres.residue
        test = central_detector.update((r * r).sum())
        if test is not None and test.alarm:
            events.append((k, -1, "central_alarm"))

        bres = bank.step(j, y_err[k])
        fres = fusion.fuse(bres.zeta_post, bres.P_post)
        x = fres.x_star
        err_fused[k] = math.sqrt(x.dot(x))
        fused_trace[k] = fres.cov.trace()
        z = local_z[k] = bres.residues
        bank.shift_prediction(neg_w[k])

        test = detector.update(z * z)
        if test is None:
            continue
        alarm = test.alarm
        streak = np.where(alarm, streak + 1, 0)
        if not alarm.any():
            continue
        hits = [s for s in active if alarm[s]]
        for s in hits:
            events.append((k, s, "alarm"))
        candidates = [s for s in hits if streak[s] >= det.removal_policy] if det.removal_enabled else []
        if not candidates:
            continue
        removed = identify_and_remove(
            candidates,
            active,
            lambda rest: FusionEstimator.removal_keeps_observability(bank, rest),
            alerts,
            k,
        )
        if removed:
            for s in removed:
                active.remove(s)
                events.append((k, s, "removed"))
            fusion = FusionEstimator(bank, active)
            central.restrict(active)
            central_detector = Chi2Detector(
                DetectorConfig.from_alpha(det.central_window, len(active), det.central_alpha)
            )
    return err_central, err_fused, trace_P, fused_trace, local_z, events


def _summarize(r: RunReport) -> dict:
    T = r.err_central.size
    tail = slice(T // 2, None)

    def first(kind: str) -> dict[int, int]:
        """The first step of each sensor's events of ``kind``."""
        return {s: k for k, s, e in reversed(r.events) if e == kind}

    return {
        "horizon": int(T),
        "mse_central": float(np.mean(r.err_central**2)),
        "mse_fused": float(np.mean(r.err_fused**2)),
        "mse_central_tail": float(np.mean(r.err_central[tail] ** 2)),
        "mse_fused_tail": float(np.mean(r.err_fused[tail] ** 2)),
        "fused_trace_tail": float(np.mean(r.fused_trace[tail])),
        "trace_P_max": float(np.max(r.trace_P)),
        "attack_kind": r.config.attack.kind,
        "attacked_sensors": sorted(int(s) for s in r.config.attack.sensors),
        "first_alarm": {str(s): k for s, k in sorted(first("alarm").items())},
        "removed": {str(s): k for s, k in sorted(first("removed").items())},
        "central_first_alarm": first("central_alarm").get(-1),
        "alarm_count": sum(1 for _, s, kind in r.events if kind == "alarm"),
        "operator_alerts": list(r.alerts),
    }


# ---------------------------------------------------------------------------
# Monte Carlo


@dataclass
class MonteCarloReport:
    summaries: list[dict]
    aggregate: dict


def trial_config(cfg: ScenarioConfig, index: int) -> ScenarioConfig:
    """Per-trial configuration: independent noise, schedule key, attack seed.

    Derivations depend only on (config, index), so trials reproduce in any
    order and in whichever process runs them (see :func:`monte_carlo`).
    """
    state = np.random.SeedSequence([cfg.seed, index]).generate_state(3)
    key_i = hashlib.sha256(
        config_schedule_key(cfg) + int(index).to_bytes(8, "big")
    ).digest()
    return dataclasses.replace(
        cfg,
        seed=int(state[0]),
        schedule=dataclasses.replace(cfg.schedule, key=key_i),
        attack=dataclasses.replace(cfg.attack, seed=int(state[1])),
    )


def monte_carlo(cfg: ScenarioConfig, trials: int | None = None) -> MonteCarloReport:
    """Run independent trials of the scenario and aggregate.

    The plant is built once and every trial runs on it through
    :func:`run_scenario` under its own key; this equals building each
    trial's plant afresh, because generation and its retries never depend
    on the key. Per-trial seeding is index-based, so results are
    exchangeable under permutation of trial indices.

    The trials are mapped over ``min(trials, usable CPUs)`` forked worker
    processes and collected in trial order. The workers inherit the plant
    through ``fork``; only each trial's summary comes back. The pool forks
    inside :func:`_one_blas_thread`, so every worker inherits one BLAS
    thread and calls no thread setter; workers at default BLAS threading
    would oversubscribe the cores and run slower than one process. The
    trials run in this process instead when ``fork`` is unavailable, one CPU
    or one trial is all there is, or the loaded BLAS libraries cannot all be
    set to one thread. The outputs are the same bytes either way. A trial's error is raised here with its own type, and
    no worker outlives the call.
    """
    trials = trials if trials is not None else cfg.trials
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    plant = build_system(cfg)
    workers = _worker_count(trials)
    with _one_blas_thread() as pinned:
        if workers < 2 or not pinned:
            summaries = [_trial(cfg, plant, i) for i in range(trials)]
        else:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(
                workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_start_worker,
                initargs=(cfg, plant),
            ) as pool:
                summaries = list(pool.map(_worker_trial, range(trials)))

    attacked = set(cfg.attack.sensors)
    removed_all, removed_clean = 0, 0
    for s in summaries:
        rem = {int(k) for k in s["removed"]}
        if attacked and attacked <= rem:
            removed_all += 1
        if rem - attacked:
            removed_clean += 1
    detect_steps = [d for s in summaries if (d := _first_detection(s)) is not None]
    aggregate = {
        "trials": trials,
        "mse_central_mean": float(np.mean([s["mse_central"] for s in summaries])),
        "mse_fused_mean": float(np.mean([s["mse_fused"] for s in summaries])),
        "all_attacked_removed_trials": removed_all,
        "trials_with_clean_removal": removed_clean,
        "first_detection_steps": [int(v) for v in detect_steps],
    }
    return MonteCarloReport(summaries=summaries, aggregate=aggregate)


def _first_detection(summary: dict) -> int | None:
    """A run's detection step: the earliest first alarm of an attacked
    sensor, or None when no attacked sensor alarmed. A clean sensor's false
    alarm is no detection."""
    attacked = summary["attacked_sensors"]
    return min((k for s, k in summary["first_alarm"].items() if int(s) in attacked), default=None)


def _trial(cfg: ScenarioConfig, plant: Plant, index: int) -> dict:
    """Trial ``index`` of the study: its summary."""
    return run_scenario(trial_config(cfg, index), plant).summary


def _worker_count(trials: int) -> int:
    """How many processes run ``trials``: one per CPU this process may use,
    at most one per trial, or 1 (this process alone) without ``fork``."""
    import multiprocessing

    if not hasattr(os, "sched_getaffinity") or "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return min(trials, len(os.sched_getaffinity(0)))


# the (setter, getter) thread-count functions of OpenBLAS builds,
# 64-bit-integer interfaces first
_BLAS_THREAD_FUNCTIONS = tuple(
    (f"{prefix}_set_num_threads{suffix}", f"{prefix}_get_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
)


@functools.cache
def _blas_thread_functions() -> tuple | None:
    """The ``(set, get)`` thread-count functions of every BLAS library loaded
    here. They are looked up once: numpy and scipy each load their own
    OpenBLAS at import, and neither unloads it.

    Returns ``None`` when the loaded libraries cannot be listed, when none
    is found, or when one lacks either function.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
            mapped = {f[5].strip() for f in (line.split(maxsplit=5) for line in fh) if len(f) == 6}
        # shared libraries named for BLAS; Python extension modules are not
        libs = [ctypes.CDLL(p) for p in sorted(mapped) if Path(p).match("lib*blas*")]
    except OSError:
        return None
    functions = []
    for lib in libs:
        found = [pair for pair in _BLAS_THREAD_FUNCTIONS if all(hasattr(lib, n) for n in pair)]
        if not found:
            return None
        setter, getter = (getattr(lib, n) for n in found[0])
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        functions.append((setter, getter))
    return tuple(functions) or None


@contextlib.contextmanager
def _one_blas_thread():
    """Every loaded BLAS library on one thread for the duration; yields
    whether all could be set. Only libraries not already on one thread are
    set, and exactly those are restored on exit. Skipping the others keeps a
    forked worker, which inherits one thread, from restarting its thread
    pools: after a fork, any OpenBLAS setter call, even one to a single
    thread, starts them anew."""
    functions = _blas_thread_functions()
    changed = [(setter, count) for setter, getter in functions or () if (count := getter()) != 1]
    for setter, _ in changed:
        setter(1)
    try:
        yield functions is not None
    finally:
        for setter, count in changed:
            setter(count)


_worker_study: tuple[ScenarioConfig, Plant] | None = None  # set in forked workers only


def _start_worker(cfg: ScenarioConfig, plant: Plant) -> None:
    """Pool initializer: the study the fork inherited."""
    global _worker_study
    _worker_study = (cfg, plant)


def _worker_trial(index: int):
    return _trial(*_worker_study, index)


# ---------------------------------------------------------------------------
# output files


def metrics_rows(r: RunReport):
    m = r.local_residues.shape[1]
    header = ["step", "schedule_index", "err_central", "err_fused", "trace_P"] + [
        f"z_{s + 1}" for s in range(m)
    ]
    yield header
    series = (r.schedule, r.err_central, r.err_fused, r.trace_P, r.local_residues)
    for k, (*values, residues) in enumerate(zip(*(x.tolist() for x in series))):
        yield [k, *values, *residues]


def events_rows(r: RunReport):
    yield ["step", "sensor", "event"]
    for step, sensor, kind in r.events:
        yield [step, "" if sensor < 0 else sensor, kind]


def _write_table(out: Path, name: str, schema: str, rows, fmt: str) -> Path:
    """Write ``rows``, header first, to ``<name>.csv`` below a ``# <schema>``
    line, or to ``<name>.jsonl`` as one object per row keyed by the header.
    Values are written as ``str`` gives them, floats at full precision, and
    the JSON objects hold them as strings."""
    if fmt not in ("csv", "jsonl"):
        raise ConfigError(f"unknown output format '{fmt}'")
    p = out / f"{name}.{fmt}"
    rows = iter(rows)
    if fmt == "csv":
        with open(p, "w", newline="", encoding="ascii") as fh:
            fh.write(f"# {schema}\n")
            csv.writer(fh).writerows(rows)
    else:
        header = next(rows)
        with open(p, "w", encoding="ascii") as fh:
            for row in rows:
                fh.write(json.dumps(dict(zip(header, map(str, row))), sort_keys=True) + "\n")
    return p


def _write_json(p: Path, obj: dict) -> Path:
    p.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="ascii")
    return p


def write_run_outputs(r: RunReport, out_dir: str | os.PathLike, fmt: str = "csv") -> list[Path]:
    """Write metrics, events, and the summary for one run; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return [
        _write_table(out, "metrics", METRICS_SCHEMA, metrics_rows(r), fmt),
        _write_table(out, "events", EVENTS_SCHEMA, events_rows(r), fmt),
        _write_json(out / "summary.json", r.summary),
    ]


def write_monte_carlo_outputs(
    mc: MonteCarloReport, out_dir: str | os.PathLike, fmt: str = "csv"
) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = [["trial", "mse_central", "mse_fused", "n_removed", "first_detection"]]
    for i, s in enumerate(mc.summaries):
        first = _first_detection(s)
        rows.append(
            [i, s["mse_central"], s["mse_fused"], len(s["removed"]), "" if first is None else first]
        )
    return [
        _write_table(out, "trials", TRIALS_SCHEMA, rows, fmt),
        _write_json(out / "aggregate.json", mc.aggregate),
    ]
