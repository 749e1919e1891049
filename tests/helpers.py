"""Shared construction helpers, oracles and reference code for the test suite.

The Jordan-form constructions use unimodular integer similarity transforms,
so the built matrices are exact in floating point and their true eigenvalues
and chain structure are known by construction. The oracles below are
direct, slow restatements of what the package computes more cleverly; only
tests call them. :func:`reference_run_scenario` is the scenario engine as
one per-step loop with per-sensor detector objects.
"""

import dataclasses

import numpy as np
from scipy.linalg import block_diag

from mtident import (
    CentralKalmanFilter,
    Chi2Detector,
    Chi2Result,
    DetectorConfig,
    FusionEstimator,
    IdentificationLog,
    LtiPair,
    NoiseModel,
    RemovalTracker,
    RunReport,
    TargetSet,
    build_system,
    identify_and_remove,
    sample_schedule,
    schedule_key,
)
from mtident.errors import DecompositionError
from mtident.estimation import _common_nullspace_basis
from mtident.linalg import numerical_rank, observability_stack, spectral_radius
from mtident.scenario import _build_attack, _summarize, config_schedule_key


def unimodular(rng, n, ops=None, max_entry=40):
    """Random integer matrix with determinant +-1 (so an exact integer inverse)."""
    T = np.eye(n, dtype=np.int64)
    ops = ops if ops is not None else 3 * n
    done = 0
    for _ in range(50 * ops):
        if done >= ops:
            break
        i, j = rng.integers(n, size=2)
        if i == j:
            continue
        cand = T.copy()
        cand[j] += (1 if rng.integers(2) else -1) * T[i]
        if np.max(np.abs(cand)) > max_entry:
            continue
        T = cand
        done += 1
    return T


def exact_int_inverse(T):
    Tinv = np.rint(np.linalg.inv(T)).astype(np.int64)
    assert np.array_equal(T @ Tinv, np.eye(T.shape[0], dtype=np.int64))
    return Tinv


def jordan_matrix(spec):
    """Block-diagonal real Jordan matrix from [(eigenvalue, chain_length), ...].

    A complex eigenvalue ``a + bi`` stands for the conjugate pair, each with
    a chain of the given length: a ``2r x 2r`` block with ``[[a, -b], [b, a]]``
    on the diagonal and identities above it.
    """
    blocks = []
    for lam, r in spec:
        if complex(lam).imag == 0.0:
            blocks.append(lam * np.eye(r) + np.diag(np.ones(r - 1), 1))
        else:
            rot = np.array([[lam.real, -lam.imag], [lam.imag, lam.real]])
            blocks.append(np.kron(np.eye(r), rot) + np.kron(np.eye(r, k=1), np.eye(2)))
    return block_diag(*blocks)


def matrix_with_jordan_structure(rng, spec, ops=None, max_entry=40):
    """Exact-arithmetic matrix with the given Jordan structure.

    Returns ``(A, T)``: A = T J T^{-1} with integer T, so the columns of T
    are exact (real) Jordan basis vectors (v_1 first within each real
    block). Exactness needs eigenvalue parts exact in binary. Long chains
    split numerically like eps**(1/r) scaled by cond(T); callers needing many
    well-conditioned defective instances should keep ``max_entry`` small.
    """
    J = jordan_matrix(spec)
    n = J.shape[0]
    T = unimodular(rng, n, ops=ops, max_entry=max_entry)
    A = T.astype(float) @ J @ exact_int_inverse(T).astype(float)
    return A, T.astype(float)


def random_observable_pair(rng, n, m, rho=0.9, attempts=50):
    """Random observable pair with spectral radius near ``rho``.

    The radius is jittered per draw; exact normalization would park every
    real dominant eigenvalue at the same value and silently create shared
    spectra between "independent" pairs.
    """
    for _ in range(attempts):
        A = rng.standard_normal((n, n))
        sr = spectral_radius(A)
        if sr < 1e-9:
            continue
        A *= rho * rng.uniform(0.75, 1.0) / sr
        C = rng.standard_normal((m, n))
        if numerical_rank(observability_stack(A, C, n)) == n:
            return LtiPair(A, C)
    raise AssertionError("failed to draw an observable pair")


def random_target_set(rng, n=3, m=2, l=2, rho=0.9, period=None, key="test-key"):
    pairs = tuple(random_observable_pair(rng, n, m, rho) for _ in range(l))
    return TargetSet(pairs=pairs, period=period if period else 2 * n, key=schedule_key(key))


def spd(rng, n, scale=1.0):
    M = rng.standard_normal((n, n))
    return scale * (M @ M.T) + 1e-3 * scale * np.eye(n)


def standard_noise(rng, n, m, scale=1.0):
    return NoiseModel(Q=spd(rng, n, scale), R=spd(rng, m, scale))


# ---------------------------------------------------------------------------
# oracles


def chi2_test(residues, cfg: DetectorConfig) -> Chi2Result:
    """Test one full window of residues (scalars, or vectors per step)."""
    r = np.asarray(residues, dtype=float)
    if r.ndim == 1:
        r = r.reshape(-1, 1)
    if r.shape[0] != cfg.window:
        raise ValueError(f"expected {cfg.window} residues, got {r.shape[0]}")
    stat = float(np.sum(r * r))
    return Chi2Result(statistic=stat, alarm=stat > cfg.gamma)


def check_common_nullspace(ts: TargetSet, sensor: int) -> bool:
    """True when every configuration gives the sensor the same unobservable
    subspace."""
    try:
        _common_nullspace_basis(ts, sensor)
    except DecompositionError:
        return False
    return True


def observability_matrix(pair: LtiPair, sensors, steps: int) -> np.ndarray:
    """Fixed-pair stack ``[C_S; C_S A; ...; C_S A^(steps-1)]`` for sensor rows S."""
    sensors = tuple(int(s) for s in sensors)
    for s in sensors:
        if not 0 <= s < pair.m:
            raise ValueError(f"sensor index {s} out of range")
    if not sensors:
        raise ValueError("sensor set must be non-empty")
    return observability_stack(pair.A, pair.C[list(sensors)], steps)


def brute_force_unidentifiability_oracle(pair1: LtiPair, pair2: LtiPair, sensor: int, t: int) -> bool:
    """Direct image-intersection test over the window ``0..t``.

    True iff some nonzero output sequence is produced by both models, i.e.
    ``rank([O1 O2]) < rank(O1) + rank(O2)`` for the stacked prediction
    matrices with rows ``k = 0..t``. An independent check of
    ``cross_model_unidentifiability`` on small systems (use ``t >= 2n - 1``).
    """
    O1 = observability_stack(pair1.A, pair1.C[[sensor]], t + 1)
    O2 = observability_stack(pair2.A, pair2.C[[sensor]], t + 1)
    return numerical_rank(np.hstack([O1, O2])) < numerical_rank(O1) + numerical_rank(O2)


# ---------------------------------------------------------------------------
# reference scenario engine


def reference_run_scenario(cfg, plant=None) -> RunReport:
    """``run_scenario`` as one loop over steps: every step draws its noise,
    asks the attack policy for its values, steps the central filter, the
    bank and fusion, and updates one ``Chi2Detector`` per active sensor, the
    central detector and a ``RemovalTracker``."""
    if plant is None:
        plant = build_system(cfg)
    ts = dataclasses.replace(plant.ts, key=config_schedule_key(cfg))
    noise = plant.noise
    n, m = ts.n, ts.m
    T = cfg.horizon
    schedule = sample_schedule(ts, T)
    attack, policy = _build_attack(cfg, ts, schedule)

    ss_sim, _ = np.random.SeedSequence(cfg.seed).spawn(2)
    rng_sim = np.random.default_rng(ss_sim)
    e0 = noise.P0_factor @ rng_sim.standard_normal(n)
    offset = -(noise.x0_mean + e0)
    central = CentralKalmanFilter(noise, mean_offset=offset)
    bank = plant.bank.restarted(offset)
    active = list(range(m))
    fusion = FusionEstimator(bank, active)

    det = cfg.detector
    sensor_cfg = DetectorConfig.from_alpha(det.sensor_window, 1, det.sensor_alpha, det.removal_policy)
    sensor_det = {s: Chi2Detector(sensor_cfg) for s in range(m)}
    central_det = Chi2Detector(DetectorConfig.from_alpha(det.central_window, m, det.central_alpha))
    tracker = RemovalTracker(det.removal_policy)
    log = IdentificationLog()

    err_central, err_fused, trace_P, fused_trace = (np.empty(T) for _ in range(4))
    local_z = np.empty((T, m))
    events = []
    for k in range(T):
        j = int(schedule[k])
        pair = ts.pairs[j]
        v = noise.R_factor @ rng_sim.standard_normal(m)
        dd = attack.D @ policy.values(k) if policy is not None else np.zeros(m)
        y_err = v + dd

        cres = central.step(pair, y_err, active=None if len(active) == m else active)
        bres = bank.step(j, y_err)
        fres = fusion.fuse(bres.zeta_post, bres.P_post)
        err_central[k] = float(np.linalg.norm(cres.x_post))
        err_fused[k] = float(np.linalg.norm(fres.x_star))
        trace_P[k] = float(np.trace(cres.P_prior))
        fused_trace[k] = float(np.trace(fres.cov))
        local_z[k] = bres.residues

        w = noise.Q_factor @ rng_sim.standard_normal(n)
        central.shift_prediction(-w)
        bank.shift_prediction(-w)

        cver = central_det.update(cres.residue)
        if cver is not None and cver.alarm:
            events.append((k, -1, "central_alarm"))
            log.record_central_alarm(k)
        candidates = []
        for s in active:
            r = sensor_det[s].update(local_z[k, s])
            if r is None:
                continue
            if r.alarm:
                events.append((k, s, "alarm"))
                log.record_alarm(k, s)
            if tracker.update(s, r.alarm) and det.removal_enabled:
                candidates.append(s)
        if candidates:
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
                central_det = Chi2Detector(
                    DetectorConfig.from_alpha(det.central_window, len(active), det.central_alpha)
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
