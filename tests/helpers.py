"""Shared construction helpers, oracles and reference code for the test suite.

The Jordan-form constructions use unimodular integer similarity transforms,
so the built matrices are exact in floating point and their true eigenvalues
and chain structure are known by construction. The oracles below are
direct, slow restatements of what the package computes more cleverly; only
tests call them. :func:`reference_run_scenario` is the scenario engine as
one per-step loop with per-sensor detector objects. The ``Reference*``
filter classes keep the step methods as first written, one numpy
expression per formula, as bit-for-bit oracles for the engine's lean ones;
the ``reference_*`` free-response functions (among them the eigenspace
output stacks of the cross-model test) do the same for
:func:`mtident.system_model.free_response`.
"""

import numpy as np
from scipy.linalg import block_diag

from mtident import (
    CentralKalmanFilter,
    Chi2Detector,
    Chi2Result,
    DetectorConfig,
    FusionEstimator,
    LocalFilterBank,
    LtiPair,
    NoiseModel,
    RunReport,
    TargetSet,
    build_system,
    identify_and_remove,
    sample_schedule,
)
from mtident.errors import FilterError, ModelError
from mtident.estimation import (
    FUSION_RANK_TOL,
    BankStep,
    CentralStep,
    FusionResult,
    dpotrf,
    dpotrs,
    dpstrf,
    dtrtrs,
)
from mtident.identifiability import GeneralizedEigenspace
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


# the schedule key under which tests sample their target sets' schedules
TEST_KEY = "test-key"


def random_target_set(rng, n=3, m=2, l=2, rho=0.9, period=None):
    pairs = tuple(random_observable_pair(rng, n, m, rho) for _ in range(l))
    return TargetSet(pairs=pairs, period=period if period else 2 * n)


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


class RemovalTracker:
    """Counts consecutive alarms per sensor and decides removals.

    A sensor becomes a removal candidate after ``policy`` consecutive
    alarmed steps; the count resets on any non-alarmed step (once its
    detector window is full).
    """

    def __init__(self, policy: int):
        if policy < 1:
            raise ValueError("removal policy must be >= 1")
        self.policy = policy
        self.counts: dict[int, int] = {}

    def update(self, sensor: int, alarmed: bool) -> bool:
        if alarmed:
            self.counts[sensor] = self.counts.get(sensor, 0) + 1
        else:
            self.counts[sensor] = 0
        return self.counts[sensor] >= self.policy


def reference_run_scenario(cfg, plant=None) -> RunReport:
    """``run_scenario`` as one loop over steps: every step draws its noise,
    reads its attack values as the last row of a ``k + 1``-step draw, steps
    the central filter, the bank and fusion, and updates one
    ``Chi2Detector`` per active sensor, the central detector and a
    ``RemovalTracker``."""
    if plant is None:
        plant = build_system(cfg)
    ts = plant.ts
    noise = plant.noise
    n, m = ts.n, ts.m
    T = cfg.horizon
    schedule = sample_schedule(ts, T, config_schedule_key(cfg))
    policy = _build_attack(cfg, ts, schedule)

    ss_sim, _ = np.random.SeedSequence(cfg.seed).spawn(2)
    rng_sim = np.random.default_rng(ss_sim)
    e0 = noise.P0_factor @ rng_sim.standard_normal(n)
    offset = -(noise.x0_mean + e0)
    central = CentralKalmanFilter(noise, mean_offset=offset)
    bank = plant.bank.restarted(offset)
    active = list(range(m))
    fusion = FusionEstimator(bank, active)

    det = cfg.detector
    sensor_cfg = DetectorConfig.from_alpha(det.sensor_window, 1, det.sensor_alpha)
    sensor_det = {s: Chi2Detector(sensor_cfg) for s in range(m)}
    central_det = Chi2Detector(DetectorConfig.from_alpha(det.central_window, m, det.central_alpha))
    tracker = RemovalTracker(det.removal_policy)
    alerts = []

    err_central, err_fused, trace_P, fused_trace = (np.empty(T) for _ in range(4))
    local_z = np.empty((T, m))
    events = []
    for k in range(T):
        j = int(schedule[k])
        pair = ts.pairs[j]
        v = noise.R_factor @ rng_sim.standard_normal(m)
        dd = policy.attack.D @ policy.values(k + 1)[k] if policy is not None else np.zeros(m)
        y_err = v + dd

        cres = central.step(pair, y_err)
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

        cver = central_det.update(np.sum(cres.residue * cres.residue))
        if cver is not None and cver.alarm:
            events.append((k, -1, "central_alarm"))
        candidates = []
        for s in active:
            r = sensor_det[s].update(local_z[k, s] * local_z[k, s])
            if r is None:
                continue
            if r.alarm:
                events.append((k, s, "alarm"))
            if tracker.update(s, r.alarm) and det.removal_enabled:
                candidates.append(s)
        if candidates:
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
        alerts=alerts,
        summary={},
    )
    report.summary = _summarize(report)
    return report


def sym(M):
    """The symmetric part as :func:`mtident.linalg.sym` was first written."""
    return 0.5 * (M + M.T)


class ReferenceCentralKalmanFilter(CentralKalmanFilter):
    """The central filter with its first-written step methods and its
    per-step ``active`` argument."""

    _restriction = None  # (active sensors, their rows, their R block)

    def _rows(self, active) -> tuple[np.ndarray, np.ndarray]:
        """The ``active`` sensors' row index and ``R`` block, formed once for
        each new active set; a run keeps one active set for many steps."""
        key = tuple(active)
        if self._restriction is None or self._restriction[0] != key:
            idx = np.array(key, dtype=np.intp)
            self._restriction = (key, idx, self.noise.R[np.ix_(idx, idx)])
        return self._restriction[1:]

    def step_covariance(self, pair: LtiPair, active=None):
        """Advance the attack-free Riccati recursion only; returns
        ``(gain, U, C_active, P_prior_used)`` with ``P_yy = U' U``."""
        if active is None:
            C, R = pair.C, self.noise.R
        else:
            idx, R = self._rows(active)
            C = pair.C.take(idx, axis=0)
        P = self.P_prior
        U, info = dpotrf(sym(C @ P @ C.T + R))
        if info or not np.isfinite(U).all():  # impossible with finite R > 0
            raise FilterError("innovation covariance lost positive definiteness")
        K = dpotrs(U, C @ P)[0].T
        P_post = sym(P - K @ C @ P)
        self.P_prior = sym(pair.A @ P_post @ pair.A.T + self.noise.Q)
        return K, U, C, P

    def step(self, pair: LtiPair, y, active=None) -> CentralStep:
        """Full measurement update + prediction with the step-k configuration.

        ``y`` is the full m-vector; only the ``active`` sensors' rows are used.
        """
        y = np.asarray(y, dtype=float).reshape(-1)
        if y.shape[0] != self.m:
            raise ModelError(f"measurement has {y.shape[0]} rows, expected {self.m}")
        if active is not None:
            y = y.take(self._rows(active)[0])
        x = self.x_prior
        K, U, C, P_used = self.step_covariance(pair, active)
        innov = y - C @ x
        x_post = x + K @ innov
        self.x_prior = pair.A @ x_post
        return CentralStep(residue=dtrtrs(U, innov, trans=1)[0], x_post=x_post, P_prior=P_used)


class ReferenceLocalFilterBank(LocalFilterBank):
    """The filter bank with its first-written step."""

    def step(self, model_index: int, y) -> BankStep:
        """Update every sensor filter with its own row of ``y``, then predict.

        ``y`` is the full m-vector; sensor ``s`` consumes ``y[s]`` only.
        """
        y = np.asarray(y, dtype=float).reshape(-1)
        if y.shape[0] != self.ts.m:
            raise ModelError(f"output has {y.shape[0]} rows, expected {self.ts.m}")
        j = int(model_index)
        A, C = self.A_blk[j], self.C_blk[j]
        P = self.P_prior
        PC = P @ C.T
        den = np.einsum("ij,ji->i", C, PC) + self._R.diagonal()
        K = (PC * self._mask) / den
        nu = y - C @ self.zeta_prior
        zeta_post = self.zeta_prior + K @ nu
        # Joseph form with each factor (I - K C) applied as a low-rank
        # update; C P = (P C')' because P is symmetric
        IKC_P = P - K @ PC.T
        P_post = sym(IKC_P + (K @ self._R - IKC_P @ C.T) @ K.T)
        self.zeta_prior = A @ zeta_post
        self.P_prior = sym(A @ P_post @ A.T + self.Q_red)
        return BankStep(residues=nu / np.sqrt(den), zeta_post=zeta_post, P_post=P_post)


class ReferenceFusionEstimator(FusionEstimator):
    """Fusion with its first-written step."""

    def fuse(self, zeta_post: np.ndarray, P_post: np.ndarray) -> FusionResult:
        """One fusion step from the bank's joint posterior ``(zeta_post, P_post)``.

        Takes the active sensors' rows and factors ``T = P + H H'`` by
        pivoted Cholesky (LAPACK ``dpstrf``, upper): ``T[p, p] = U_11' U_11``
        for the first ``r = rank(T)`` pivots ``p``, where the factorization
        stops at the first pivot below ``N eps max(diag T)``
        (:data:`FUSION_RANK_TOL`). Restricted to those rows and columns,
        ``T[p, p]^{-1}`` is a generalized inverse of ``T``, so one triangular
        solve ``U_11' [B b] = [H[p] zeta[p]]`` gives ``G = B'B``, ``x* =
        G^{-1} B' b`` and ``cov = G^{-1} - I``.
        """
        if self._rows is not None:
            zeta_post = zeta_post[self._rows]
            P_post = P_post[np.ix_(self._rows, self._rows)]
        T = P_post + self._HHt
        if not np.isfinite(T).all():
            raise FilterError("fusion covariance is not finite")
        U, piv, r, _ = dpstrf(T, tol=FUSION_RANK_TOL)
        p = piv[:r] - 1
        Bb = dtrtrs(U[:r, :r], np.column_stack((self.H[p], zeta_post[p])), trans=1)[0]
        B, b = Bb[:, :-1], Bb[:, -1]
        Gf, info = dpotrf(B.T @ B)
        if info:
            raise FilterError("fusion normal matrix lost positive definiteness")
        cov = dpotrs(Gf, np.eye(self.n))[0] - np.eye(self.n)
        return FusionResult(x_star=dpotrs(Gf, B.T @ b)[0], cov=sym(cov), rank=int(r))


# ---------------------------------------------------------------------------
# the free-response loops that system_model.free_response replaced, as
# first written


def reference_time_varying_observability(ts: TargetSet, sequence, sensor: int, t: int) -> np.ndarray:
    """``identifiability.time_varying_observability`` with its own loop."""
    sequence = np.asarray(sequence, dtype=np.int64).reshape(-1)
    rows = np.empty((t + 1, ts.n))
    phi = np.eye(ts.n)
    for k in range(t + 1):
        pair = ts.pairs[sequence[k]]
        rows[k] = pair.C[sensor] @ phi
        phi = pair.A @ phi
    return rows


def reference_witness_sequences(witness, pair1: LtiPair, pair2: LtiPair, sensor: int, horizon: int):
    """The two output sequences ``c_j A_j^k x0a_j`` that
    ``identifiability.construct_cross_model_attack`` compares, with its own
    loop."""
    seqs = []
    for pair, x in ((pair1, witness.x0a_1), (pair2, witness.x0a_2)):
        c = pair.C[sensor]
        d = np.empty(horizon, dtype=x.dtype)
        for k in range(horizon):
            d[k] = c @ x
            x = pair.A @ x
        seqs.append(d)
    return seqs


def reference_eigenspace_stack(
    A: np.ndarray, c_row: np.ndarray, space: GeneralizedEigenspace, rows: int
) -> np.ndarray:
    """Rows ``c (A - lam I)^q G`` for ``q < rows``, with ``G`` the eigenspace basis.

    For ``x = G z`` the output expands as
    ``c A^k x = sum_q C(k, q) lam^(k-q) (V z)_q``; the terms with ``q`` at
    or beyond the chain length vanish. Two models sharing ``lam`` thus give
    the same output for all ``k`` exactly when their stacks, taken to the
    longer chain length of the two, map to the same vector.
    """
    B = A - space.eigenvalue * np.eye(A.shape[0])
    W = space.basis
    V = np.empty((rows, W.shape[1]), dtype=W.dtype)
    for q in range(rows):
        V[q] = c_row @ W
        W = B @ W
    return V


def reference_trajectory_outputs(sensors, pairs, configs, x0_star, restart_every: int = 0) -> np.ndarray:
    """Attacked-sensor outputs ``C_j[s] x_k`` of the virtual trajectory
    ``x_{k+1} = A_j x_k`` from ``x0_star``, with ``j = configs[k]``; with
    ``restart_every`` the trajectory restarts at ``x0_star`` every that
    many steps. The attack policies' loop."""
    rows = list(sensors)
    out = np.empty((len(configs), len(rows)))
    x = x0_star
    for k, j in enumerate(configs):
        if restart_every and k % restart_every == 0:
            x = x0_star
        pair = pairs[j]
        out[k] = pair.C[rows] @ x
        x = pair.A @ x
    return out
