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

A run takes three passes over the horizon. Nothing a run draws depends on
filter state, and every attack policy is open-loop, so the first pass draws
all inputs at once. The filter bank runs every sensor whatever the removals,
and removals depend only on the bank's residues, so the second pass steps
the bank, tests all active sensors at once and fixes the removal timeline.
Fusion runs in that pass too: it needs each step's joint bank covariance
(72 x 72 on the example plant), and keeping those for a later pass would
cost 41 MB per 1000 steps. The central filter's detector only logs, so the
third pass runs the central filter over the known active-set timeline and
then its detector as windowed sums, restarted at every removal. The result
is bit for bit that of one loop over steps with a detector object per
sensor.

A run happens on a :class:`Plant`: the target set, the noise model and a
filter bank over every sensor's Kalman decomposition. Generating the example
plant already decomposes each sensor to validate the draw, and its bank
keeps those decompositions; an explicit plant is decomposed once when it is
built. Monte Carlo trials differ from their study only in seeds and schedule
key, and no plant matrix depends on the key, so :func:`monte_carlo` builds
the plant, with its filter bank's arrays, once and runs every trial on it
under the trial's own key. A single run builds its own plant and then takes
the same path.

Reproducibility: every random quantity derives from config seeds (simulation
noise from ``seed``, the schedule from the schedule key, attacker guesses
from the attack seed), so identical configurations produce byte-identical
outputs.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from types import UnionType
from typing import Literal, Union, get_args, get_origin, get_type_hints

import numpy as np

from .adversary import (
    AttackerInfo,
    AttackPolicy,
    CrossModelPolicy,
    GuessingPolicy,
    OmniscientSchedulePolicy,
    PersistentBiasPolicy,
    dominant_unstable_direction,
)
from .detection import DetectorConfig, IdentificationLog, identify_and_remove
from .errors import AttackSetError, ConditioningError, ConfigError, MtidentError
from .estimation import (
    CentralKalmanFilter,
    FusionEstimator,
    LocalFilterBank,
    kalman_decomposition,
)
from .linalg import numerical_rank, observability_stack, spectral_radius
from .matrixio import read_matrix, read_vector
from .system_model import (
    AttackSet,
    LtiPair,
    NoiseModel,
    TargetSet,
    build_attack_matrix,
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
    tuples and integers become floats where ``hint`` asks for those."""
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
    if hint is float and isinstance(value, int):
        return float(value)
    if origin is None and isinstance(value, hint):
        return value
    raise ConfigError(f"'{where}' has wrong type {type(value).__name__}")


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
    if not 0.0 <= system.noise_scale < np.inf:
        raise ConfigError(f"'system.noise_scale' must be finite and >= 0, got {system.noise_scale}")
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
    their own keys; nothing in a run writes to the plant.
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
    retried until every pair is observable and every sensor decomposes
    cleanly, at most 40 draws; the returned plant's bank keeps those
    decompositions. No retry depends on ``key``.
    """
    check_example_size(n, l, "")
    b = n // 5
    m = 10
    last_err = None
    for attempt in range(40):
        rng = np.random.default_rng([seed, attempt])
        pairs = []
        degenerate = False
        for _ in range(l):
            A = np.zeros((n, n))
            for (r, c) in _BLOCK_PATTERN:
                Mb = rng.uniform(-1.0, 1.0, (b, b))
                if r == c:
                    target = rng.uniform(radius[0], radius[1])
                    sr = spectral_radius(Mb)
                    if sr < 1e-9:
                        degenerate = True
                        break
                    Mb = Mb * (target / sr)
                else:
                    Mb = Mb * coupling
                A[r * b : (r + 1) * b, c * b : (c + 1) * b] = Mb
            if degenerate:
                break
            C = np.zeros((m, n))
            for bank in range(2):
                for i in range(5):
                    C[bank * 5 + i, i * b : (i + 1) * b] = rng.uniform(-1.0, 1.0, b)
            pairs.append(LtiPair(A, C))
        if degenerate:
            continue
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
        try:
            for p in pairs:
                if numerical_rank(observability_stack(p.A, p.C, n)) < n:
                    raise ConditioningError("pair unobservable")
            decomps = [kalman_decomposition(ts, s) for s in range(m)]
        except (MtidentError, np.linalg.LinAlgError) as exc:  # retry with a new draw
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


def _read_file(read, path: str, key: str) -> np.ndarray:
    """``read(path)``, with a missing or malformed file reported as a
    :class:`ConfigError` naming the ``system`` key that points at it."""
    try:
        return read(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"'system.{key}': cannot read {path} ({exc})") from exc


def _read_system(cfg: ScenarioConfig) -> tuple[TargetSet, NoiseModel]:
    sysd = cfg.system
    pairs = tuple(
        LtiPair(
            _read_file(read_matrix, a, f"pairs[{i}].A"),
            _read_file(read_matrix, c, f"pairs[{i}].C"),
        )
        for i, (a, c) in enumerate(sysd.pair_files)
    )
    Q = _read_file(read_matrix, sysd.Q_file, "Q")
    R = _read_file(read_matrix, sysd.R_file, "R")
    x0 = _read_file(read_vector, sysd.x0_mean_file, "x0_mean") if sysd.x0_mean_file else None
    P0 = _read_file(read_matrix, sysd.P0_file, "P0") if sysd.P0_file else None
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


def _build_attack(
    cfg: ScenarioConfig, ts: TargetSet, schedule: np.ndarray
) -> tuple[AttackSet | None, AttackPolicy | None]:
    spec = cfg.attack
    if spec.kind == "none":
        return None, None
    try:
        attack = build_attack_matrix(spec.sensors, ts.m)
    except AttackSetError as exc:
        raise ConfigError(f"attack.sensors: {exc}") from exc
    if spec.kind == "omniscient":
        return attack, OmniscientSchedulePolicy(ts, schedule, attack, _resolve_x0_star(spec, ts))
    if spec.kind == "guessing":
        info = AttackerInfo.from_target_set(ts)
        return attack, GuessingPolicy(
            info,
            attack,
            _resolve_x0_star(spec, ts),
            seed=spec.seed,
            restart_each_period=spec.restart_each_period,
        )
    if spec.kind == "persistent_bias":
        if spec.constant == 0.0 and spec.ramp == 0.0:
            raise ConfigError("persistent_bias attack needs a nonzero constant or ramp")
        return attack, PersistentBiasPolicy(attack, constant=spec.constant, ramp=spec.ramp)
    i, j = spec.models  # cross_model
    if not (0 <= i < ts.l and 0 <= j < ts.l and i != j):
        raise ConfigError(f"attack.models {spec.models} invalid for l={ts.l}")
    return attack, CrossModelPolicy(ts.pairs[i], ts.pairs[j], attack, cfg.horizon)


# ---------------------------------------------------------------------------
# running


@dataclass
class RunReport:
    """Everything observable from one scenario run.

    Metric arrays cover steps ``0..horizon-1``; ``local_residues[k, s]`` is
    sensor ``s``'s whitened local residue (logged even after removal).
    Events are ``(step, sensor, kind)`` with ``sensor = -1`` for the central
    detector.
    """

    config: ScenarioConfig
    schedule: np.ndarray
    err_central: np.ndarray
    err_fused: np.ndarray
    trace_P: np.ndarray
    fused_trace: np.ndarray
    local_residues: np.ndarray
    events: list[tuple[int, int, str]]
    log: IdentificationLog
    summary: dict


def run_scenario(cfg: ScenarioConfig, plant: Plant | None = None) -> RunReport:
    """Run one seeded scenario end to end.

    ``plant`` defaults to ``build_system(cfg)``; :func:`monte_carlo` passes
    its study's shared plant instead. Either way the run uses the plant
    under ``cfg``'s schedule key and leaves the plant unchanged.

    The run takes three passes over the horizon (see the module docstring):
    the inputs (:func:`_draw_inputs`), the filter bank with fusion and the
    sensor tests (:func:`_bank_pass`), which fixes the removal timeline, and
    the central filter with its detector (:func:`_central_pass`). Their
    events are merged in the order a single per-step loop logs them: the
    central alarm, then sensor alarms in active order, then removals.
    """
    if plant is None:
        plant = build_system(cfg)
    ts = dataclasses.replace(plant.ts, key=config_schedule_key(cfg))
    T = cfg.horizon
    schedule = sample_schedule(ts, T)
    attack, policy = _build_attack(cfg, ts, schedule)
    det = cfg.detector
    sensor_cfg = DetectorConfig.from_alpha(
        det.sensor_window, 1, det.sensor_alpha, det.removal_policy
    )

    e0, y_err, w = _draw_inputs(cfg.seed, plant.noise, T, attack, policy)
    # error-coordinate setup: priors become x0_mean + offset = -(x0 - x0_mean)
    offset = -(plant.noise.x0_mean + e0)
    log = IdentificationLog()
    err_fused, fused_trace, local_z, sensor_events, segments = _bank_pass(
        plant, schedule, y_err, w, offset, sensor_cfg, det.removal_enabled, log
    )
    err_central, trace_P, central_alarms = _central_pass(
        plant.noise, ts, schedule, y_err, w, offset, segments, det
    )
    if central_alarms:
        log.record_central_alarm(central_alarms[0])
    events = sorted(
        [(k, -1, "central_alarm") for k in central_alarms] + sensor_events,
        key=lambda e: (e[0], e[1] >= 0),  # stable: sensor events keep their order
    )
    report = RunReport(
        config=cfg,
        schedule=schedule,
        err_central=err_central,
        err_fused=err_fused,
        trace_P=trace_P,
        fused_trace=fused_trace,
        local_residues=local_z,
        events=events,
        log=log,
        summary={},
    )
    report.summary = _summarize(report)
    return report


def _draw_inputs(seed, noise: NoiseModel, T: int, attack, policy):
    """Pass 1: the initial error ``e0``, the error-coordinate outputs
    ``y_k - C_k x_k = v_k + D d_k`` and the process noise ``w_k``, with the
    noise from :func:`draw_noise`. The batched mat-vecs
    ``matmul(D, d[:, :, None])`` are bitwise the per-step ``D @ d_k``.
    """
    # spawning two keeps the simulation stream unchanged
    ss_sim, _ = np.random.SeedSequence(seed).spawn(2)
    e0, v, w = draw_noise(noise, np.random.default_rng(ss_sim), T)
    if policy is None:
        return e0, v, w
    return e0, v + np.matmul(attack.D, policy.sequence(T)[:, :, None])[..., 0], w


def _bank_pass(plant: Plant, schedule, y_err, w, offset, sensor_cfg, removal_enabled, log):
    """Pass 2: the filter bank, fusion over the active set, and the sensor tests.

    The bank runs every sensor whatever the removals, but fusion at step
    ``k`` needs the bank's joint covariance of that step, so fusion runs
    here rather than in a later pass. Every sensor's detector starts at
    step 0 and is never restarted, so one window over the stored squared
    residues tests all active sensors at once, summed left to right as
    ``sum`` over a deque does. A sensor whose alarm streak reaches the
    removal policy is a candidate; removals take effect from the next step.

    Returns ``err_fused``, ``fused_trace``, the local residues, the sensor
    events in per-step order, and the active-set timeline as ``(first
    step, active sensors)`` segments.
    """
    T, m = y_err.shape
    bank = plant.bank.restarted(offset)
    active = list(range(m))
    fusion = FusionEstimator(bank, active)
    window, gamma, policy = sensor_cfg.window, sensor_cfg.gamma, sensor_cfg.removal_policy
    err_fused = np.empty(T)
    fused_trace = np.empty(T)
    local_z = np.empty((T, m))
    sq = np.empty((T, m))
    streak = np.zeros(m, dtype=np.int64)
    events: list[tuple[int, int, str]] = []
    segments = [(0, tuple(active))]
    for k in range(T):
        bres = bank.step(int(schedule[k]), y_err[k])
        fres = fusion.fuse(bres.zeta_post, bres.P_post)
        err_fused[k] = float(np.linalg.norm(fres.x_star))
        fused_trace[k] = float(np.trace(fres.cov))
        z = local_z[k] = bres.residues
        bank.shift_prediction(-w[k])

        sq[k] = z * z
        if k < window - 1:
            continue
        alarm = sum(sq[k - window + 1 : k + 1]) > gamma
        streak = np.where(alarm, streak + 1, 0)
        if not alarm.any():
            continue
        hits = [s for s in active if alarm[s]]
        for s in hits:
            events.append((k, s, "alarm"))
            log.record_alarm(k, s)
        candidates = [s for s in hits if streak[s] >= policy] if removal_enabled else []
        if not candidates:
            continue
        removed = identify_and_remove(
            candidates,
            active,
            lambda rest: FusionEstimator.removal_keeps_observability(bank, rest),
            log,
            k,
        )
        if removed:
            for s in removed:
                active.remove(s)
                events.append((k, s, "removed"))
            fusion = FusionEstimator(bank, active)
            segments.append((k + 1, tuple(active)))
    return err_fused, fused_trace, local_z, events, segments


def _central_pass(noise: NoiseModel, ts: TargetSet, schedule, y_err, w, offset, segments, det):
    """Pass 3: the central filter over the known active-set timeline, then
    its detector.

    The detector only logs. Its residue dimension changes at every removal,
    so it restarts at each segment with that segment's threshold; its
    window sums of ``|z_k|^2`` are accumulated left to right, as ``sum``
    over a deque does. Returns ``err_central``, ``trace_P`` and the steps of
    central alarms.
    """
    T, m = y_err.shape
    central = CentralKalmanFilter(noise, mean_offset=offset)
    err_central = np.empty(T)
    trace_P = np.empty(T)
    zsq = np.empty(T)
    alarms: list[int] = []
    bounds = [start for start, _ in segments[1:]] + [T]
    for (start, active), stop in zip(segments, bounds):
        mask = None if len(active) == m else active
        for k in range(start, stop):
            cres = central.step(ts.pairs[schedule[k]], y_err[k], active=mask)
            err_central[k] = float(np.linalg.norm(cres.x_post))  # |-e_k| = |e_k|
            trace_P[k] = float(np.trace(cres.P_prior))
            zsq[k] = np.sum(cres.residue * cres.residue)
            central.shift_prediction(-w[k])
        window = det.central_window
        gamma = DetectorConfig.from_alpha(window, len(active), det.central_alpha).gamma
        alarms += [
            k for k in range(start + window - 1, stop) if sum(zsq[k - window + 1 : k + 1]) > gamma
        ]
    return err_central, trace_P, alarms


def _summarize(r: RunReport) -> dict:
    T = r.err_central.size
    tail = slice(T // 2, None)
    removed = {int(s): int(k) for s, k in r.log.removed.items()}
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
        "first_alarm": {str(int(s)): int(k) for s, k in sorted(r.log.first_alarm.items())},
        "removed": {str(s): k for s, k in sorted(removed.items())},
        "central_first_alarm": (
            None if r.log.central_first_alarm is None else int(r.log.central_first_alarm)
        ),
        "alarm_count": sum(1 for _, s, kind in r.events if kind == "alarm"),
        "operator_alerts": list(r.log.alerts),
    }


# ---------------------------------------------------------------------------
# Monte Carlo


@dataclass
class MonteCarloReport:
    config: ScenarioConfig
    trials: int
    summaries: list[dict]
    mean_err_central: np.ndarray
    mean_err_fused: np.ndarray
    aggregate: dict


def trial_config(cfg: ScenarioConfig, index: int) -> ScenarioConfig:
    """Per-trial configuration: independent noise, schedule key, attack seed.

    Derivations depend only on (config, index), so trials can run in any
    order or in parallel and still reproduce.
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
    on the key. Trials are sequential here; per-trial seeding is
    index-based, so results are exchangeable under permutation of trial
    indices.
    """
    trials = trials if trials is not None else cfg.trials
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    plant = build_system(cfg)
    reports = [run_scenario(trial_config(cfg, i), plant) for i in range(trials)]
    summaries = [r.summary for r in reports]
    mean_c = np.mean(np.stack([r.err_central for r in reports]), axis=0)
    mean_f = np.mean(np.stack([r.err_fused for r in reports]), axis=0)

    attacked = set(cfg.attack.sensors)
    removed_all, removed_clean = 0, 0
    detect_steps = []
    for s in summaries:
        rem = {int(k) for k in s["removed"]}
        if attacked and attacked <= rem:
            removed_all += 1
        if rem - attacked:
            removed_clean += 1
        alarms = [v for k, v in s["first_alarm"].items() if int(k) in attacked]
        if alarms:
            detect_steps.append(min(alarms))
    aggregate = {
        "trials": trials,
        "mse_central_mean": float(np.mean([s["mse_central"] for s in summaries])),
        "mse_fused_mean": float(np.mean([s["mse_fused"] for s in summaries])),
        "all_attacked_removed_trials": removed_all,
        "trials_with_clean_removal": removed_clean,
        "first_detection_steps": [int(v) for v in detect_steps],
    }
    return MonteCarloReport(
        config=cfg,
        trials=trials,
        summaries=summaries,
        mean_err_central=mean_c,
        mean_err_fused=mean_f,
        aggregate=aggregate,
    )


# ---------------------------------------------------------------------------
# output files


def _fmt(v: float) -> str:
    return repr(float(v))


def metrics_rows(r: RunReport):
    m = r.local_residues.shape[1]
    header = ["step", "schedule_index", "err_central", "err_fused", "trace_P"] + [
        f"z_{s + 1}" for s in range(m)
    ]
    yield header
    for k in range(r.err_central.size):
        row = [
            str(k),
            str(int(r.schedule[k])),
            _fmt(r.err_central[k]),
            _fmt(r.err_fused[k]),
            _fmt(r.trace_P[k]),
        ] + [_fmt(v) for v in r.local_residues[k]]
        yield row


def events_rows(r: RunReport):
    yield ["step", "sensor", "event"]
    for step, sensor, kind in r.events:
        yield [str(step), "" if sensor < 0 else str(sensor), kind]


def _write_table(out: Path, name: str, schema: str, rows, fmt: str) -> Path:
    """Write ``rows``, header first, to ``<name>.csv`` below a ``# <schema>``
    line, or to ``<name>.jsonl`` as one object per row keyed by the header."""
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
                fh.write(json.dumps(dict(zip(header, row)), sort_keys=True) + "\n")
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
        first = min((v for v in s["first_alarm"].values()), default="")
        rows.append(
            [str(i), _fmt(s["mse_central"]), _fmt(s["mse_fused"]), str(len(s["removed"])), str(first)]
        )
    return [
        _write_table(out, "trials", TRIALS_SCHEMA, rows, fmt),
        _write_json(out / "aggregate.json", mc.aggregate),
    ]
