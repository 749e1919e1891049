"""State estimation under the switching schedule.

Three layers:

* :class:`CentralKalmanFilter` — the standard time-varying Kalman filter on
  the full output vector, producing whitened residues
  ``z_k = U^{-T} (y_k - C_k xhat_k^-)`` with ``P_yy = U' U`` the upper
  Cholesky factorization of the innovation covariance.
* :func:`bias_recursion` — the exact, noise-free propagation of an additive
  sensor attack through the filter: the difference between an attacked and a
  clean run with common noise is a deterministic linear recursion in the
  injected values.
* Per-sensor reduced-order filters (:func:`kalman_decomposition`) run as
  one joint filter (:class:`LocalFilterBank`): the sensors' observable
  coordinates are stacked into one state whose covariance carries the exact
  cross-covariances between sensors. Each step a minimum-variance unbiased
  combiner (:class:`FusionEstimator`) fuses the active sensors' rows of that
  joint state by Rao's unified least squares, which needs no inverse of
  their often singular covariance. Local filters require each sensor's
  unobservable subspace to be the same under every configuration; the moving
  target is designed so switching changes dynamics but not which directions
  a sensor can see.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import DecompositionError, FilterError, ModelError
from .linalg import (
    nullspace,
    numerical_rank,
    observability_stack,
    observable,
    scipy_compiled,
    sym,
)
from .system_model import AttackSet, LtiPair, NoiseModel, TargetSet

# loaded at import, so that scipy's OpenBLAS is mapped before
# scenario._blas_thread_functions lists the loaded BLAS libraries
dpotrf, dpotrs, dpstrf, dtrtrs = scipy_compiled(
    "linalg._flapack", "linalg.lapack", "dpotrf", "dpotrs", "dpstrf", "dtrtrs"
)


# ---------------------------------------------------------------------------
# central filter


@dataclass
class CentralStep:
    """One filter step: whitened residue, posterior estimate, and the prior
    covariance the step used."""

    residue: np.ndarray
    x_post: np.ndarray
    P_prior: np.ndarray


class CentralKalmanFilter:
    """Time-varying Kalman filter over all sensors, or the subset given to
    :meth:`restrict`.

    Update with the step-k pair, then predict with the same pair:

        P_yy = C P C' + R = U' U
        z    = U^{-T} (y - C xhat^-),   W = U^{-T} C P
        xhat = xhat^- + W' z
        P^+  = P - W' W
        xhat^- <- A xhat,   P <- A P^+ A' + Q

    ``U`` is the upper Cholesky factor of ``P_yy``, so ``z`` is white with
    ``|z|^2 = innov' P_yy^{-1} innov``, and ``W' z = K innov`` and ``W' W =
    K C P`` for the gain ``K = P C' P_yy^{-1}``, which is never formed.
    ``mean_offset`` shifts the initial predicted state by a known amount, and
    a step's ``shift`` is a known input added to the new prediction (the
    scenario engine runs the filter in error coordinates with both).
    """

    def __init__(self, noise: NoiseModel, mean_offset: np.ndarray | None = None):
        self.noise = noise
        self.n = noise.n
        self.m = noise.m
        self.x_prior = noise.x0_mean.copy()
        if mean_offset is not None:
            self.x_prior = self.x_prior + np.asarray(mean_offset, dtype=float).reshape(self.n)
        self.P_prior = noise.P0.copy()
        self._idx = None  # the active sensors' row index; None while all are active
        self._R = noise.R

    def restrict(self, active) -> None:
        """Use only the ``active`` sensors' rows of every later measurement,
        in the order given; their row index and ``R`` block are formed here,
        and each step gathers its configuration's rows of ``C``."""
        self._idx = np.array(tuple(active), dtype=np.intp)
        self._R = self.noise.R[np.ix_(self._idx, self._idx)]

    def step(self, pair: LtiPair, y, shift=None) -> CentralStep:
        """Full measurement update + prediction with the step-k configuration,
        then the known input ``shift``, if given, added to the prediction.

        ``y`` is the full m-vector; only the active sensors' rows are used.
        """
        y = np.asarray(y, dtype=float).reshape(-1)
        if y.shape[0] != self.m:
            raise ModelError(f"measurement has {y.shape[0]} rows, expected {self.m}")
        C = pair.C
        if self._idx is not None:
            y = y.take(self._idx)
            C = C.take(self._idx, axis=0)
        x, P = self.x_prior, self.P_prior
        # sums on new products are formed in place; dpotrf reads one triangle
        # of P_yy and numpy forms W' W by syrk, so only P_next needs sym
        CP = C @ P
        P_yy = CP @ C.T
        P_yy += self._R
        U, info = dpotrf(P_yy)
        if info or not np.isfinite(U).all():  # impossible with finite R > 0
            raise FilterError("innovation covariance lost positive definiteness")
        z = dtrtrs(U, y - C @ x, trans=1)[0]
        W = dtrtrs(U, CP, trans=1)[0]
        x_post = x + W.T @ z
        P_post = W.T @ W
        np.subtract(P, P_post, out=P_post)
        P_next = pair.A @ P_post @ pair.A.T
        P_next += self.noise.Q
        self.P_prior = sym(P_next)
        self.x_prior = pair.A @ x_post
        if shift is not None:
            self.shift_prediction(shift)
        return CentralStep(residue=z, x_post=x_post, P_prior=P)

    def shift_prediction(self, delta: np.ndarray) -> None:
        """Add the known input ``delta`` in place to the prediction (:meth:`step`'s ``shift``)."""
        self.x_prior += np.asarray(delta, dtype=float).reshape(self.n)


@dataclass(frozen=True)
class BiasTrace:
    """Deterministic attack propagation: estimation-error bias and residue bias
    per step."""

    delta_e: np.ndarray  # (T, n)
    delta_z: np.ndarray  # (T, m)


def bias_recursion(
    ts: TargetSet,
    schedule,
    noise: NoiseModel,
    attack: AttackSet,
    d,
) -> BiasTrace:
    """Propagate an additive sensor attack through the central filter.

    With gains and covariances from the attack-free Riccati recursion and
    prior bias ``b_k = A_{k-1} de_{k-1}`` (``b_0 = 0``):

        dz_k = U_k^{-T} (C_k b_k + D d_k),   P_yy,k = U_k' U_k
        de_k = b_k - K_k (C_k b_k + D d_k)

    That is the central filter fed ``D d_k`` from a zero prior mean: its
    prior estimate is ``-b_k``, its residue ``dz_k`` and its posterior
    ``-de_k``. By linearity this equals the exact difference between an
    attacked and a clean filter run sharing every noise realization.
    """
    schedule = np.asarray(schedule, dtype=np.int64).reshape(-1)
    T = schedule.size
    injected = attack.inject(d, T)
    filt = CentralKalmanFilter(noise, mean_offset=-noise.x0_mean)
    de = np.empty((T, ts.n))
    dz = np.empty((T, ts.m))
    for k in range(T):
        res = filt.step(ts.pairs[schedule[k]], injected[k])
        dz[k] = res.residue
        de[k] = -res.x_post
    return BiasTrace(delta_e=de, delta_z=dz)


# ---------------------------------------------------------------------------
# per-sensor decomposition


@dataclass(frozen=True)
class SensorDecomposition:
    """Observability decomposition of one sensor, shared across configurations.

    ``T_uo`` spans the sensor's unobservable subspace (identical for every
    configuration by assumption, verified numerically), ``T_o`` its
    orthogonal complement; ``[T_uo T_o]`` is orthogonal so the similarity
    transform has condition number 1. ``A_red[j] = T_o' A_j T_o`` and
    ``C_red[j] = C_j[sensor] T_o`` form the reduced observable pair of
    configuration ``j``.
    """

    sensor: int
    T_uo: np.ndarray
    T_o: np.ndarray
    A_red: tuple[np.ndarray, ...]
    C_red: tuple[np.ndarray, ...]

    @property
    def n_obs(self) -> int:
        return self.T_o.shape[1]

    @property
    def n_unobs(self) -> int:
        return self.T_uo.shape[1]


def kalman_decomposition(ts: TargetSet, sensor: int) -> SensorDecomposition:
    """Build the per-sensor reduced observable pairs for every configuration.

    The unobservable subspace ``T_uo`` is the null space of configuration
    0's observability stack; every other configuration's stack must have
    the same nullity and vanish on ``T_uo``. Raises
    :class:`DecompositionError` when the subspace is not common to all
    configurations or a reduced pair fails observability.
    """
    if not 0 <= sensor < ts.m:
        raise ValueError(f"sensor index {sensor} out of range")
    stacks = [observability_stack(p.A, p.C[[sensor]], ts.n) for p in ts.pairs]
    T_uo = nullspace(stacks[0])
    dim = T_uo.shape[1]
    for j, M in enumerate(stacks[1:], start=1):
        if ts.n - numerical_rank(M) != dim:
            raise DecompositionError(
                f"sensor {sensor}: unobservable dimension differs for configuration {j}"
            )
        scale = float(np.linalg.norm(M, np.inf)) + 1.0
        if dim and float(np.max(np.abs(M @ T_uo))) > 1e-8 * scale:
            raise DecompositionError(
                f"sensor {sensor}: unobservable subspace differs for configuration {j}"
            )
    T_o = nullspace(T_uo.T)
    if T_o.shape[1] == 0:
        raise DecompositionError(f"sensor {sensor} observes nothing")
    A_red, C_red = [], []
    for j, p in enumerate(ts.pairs):
        # invariance of the unobservable subspace makes the block triangular
        if dim:
            leak = float(np.max(np.abs(T_o.T @ p.A @ T_uo)))
            if leak > 1e-7 * (1.0 + float(np.linalg.norm(p.A, np.inf))):
                raise DecompositionError(
                    f"sensor {sensor}: unobservable subspace of configuration {j} "
                    f"is not invariant (leak {leak:.3e})"
                )
        Ar = T_o.T @ p.A @ T_o
        Cr = p.C[sensor] @ T_o
        if not observable(Ar, Cr):
            raise DecompositionError(
                f"sensor {sensor}: reduced pair of configuration {j} is unobservable"
            )
        A_red.append(Ar)
        C_red.append(Cr)
    return SensorDecomposition(
        sensor=sensor,
        T_uo=T_uo,
        T_o=T_o,
        A_red=tuple(A_red),
        C_red=tuple(C_red),
    )


# ---------------------------------------------------------------------------
# local filter bank: one joint state with exact cross-covariances


@dataclass
class BankStep:
    """Residues and joint posterior of the bank at one step.

    ``residues[s]`` is the whitened residue of sensor ``s``; ``zeta_post``
    stacks the sensors' posterior reduced estimates in sensor order (rows
    ``rows((s,))`` of :class:`LocalFilterBank` for sensor ``s``) and
    ``P_post`` is their exact joint error covariance.
    """

    residues: np.ndarray  # (m,)
    zeta_post: np.ndarray  # (N,)
    P_post: np.ndarray  # (N, N)


class LocalFilterBank:
    """One scalar-measurement Kalman filter per sensor, run as one joint filter.

    Sensor ``s`` filters its own output ``y[s]`` on its reduced observable
    coordinates ``zeta_s = T_o,s' x``. The filters share process noise and
    priors, so their errors are correlated and fusion needs their *joint*
    covariance. The bank therefore keeps one stacked state ``zeta`` in
    ``R^N`` (``N = sum n_obs``) with covariance ``P``; configuration ``j``
    acts through the block-diagonal ``A = diag(A_red,s[j])`` and ``C =
    diag(C_red,s[j])``, and each sensor's gain stays inside its own block:

        den_s = C_s P_ss C_s' + R_ss,   K = (P C' o mask) / den
        P^+   = (I - K C) P (I - K C)' + K R K'
        P^-  <- A P^+ A' + H Q H'

    with ``H`` stacking the ``T_o,s'``. Because ``K`` is not the joint
    optimal gain, the covariance update keeps the Joseph form.

    The bank decomposes all ``m`` sensors of the plant in sensor order
    (:func:`kalman_decomposition`), so ``decomps[s]`` is sensor ``s``'s
    decomposition. It owns the layout of the joint state (:meth:`rows`) and
    decides, per active set, whether the set observes the state
    (:meth:`observes`) and what fusion over it reads
    (:meth:`fusion_operators`); both are cached (see :meth:`restarted`).
    """

    def __init__(self, ts: TargetSet, noise: NoiseModel):
        if (noise.n, noise.m) != (ts.n, ts.m):
            raise ModelError("noise model dimensions do not match the target set")
        self.ts = ts
        decs = self.decomps = tuple(kalman_decomposition(ts, s) for s in range(ts.m))
        dims = [d.n_obs for d in decs]
        self.offsets = np.concatenate([[0], np.cumsum(dims)])
        self.H = np.vstack([d.T_o.T for d in decs])
        o, N = self.offsets, self.offsets[-1]
        self.A_blk = [np.zeros((N, N)) for _ in range(ts.l)]
        self.C_blk = [np.zeros((ts.m, N)) for _ in range(ts.l)]
        self._mask = np.zeros((N, ts.m))
        for s, d in enumerate(decs):
            b = slice(o[s], o[s + 1])
            self._mask[b, s] = 1.0
            for j in range(ts.l):
                self.A_blk[j][b, b] = d.A_red[j]
                self.C_blk[j][s, b] = d.C_red[j]
        self.Q_red = self.H @ noise.Q @ self.H.T
        self._R = noise.R
        self._R_diag = noise.R.diagonal()
        self._x0_mean = noise.x0_mean
        self._P0 = sym(self.H @ noise.P0 @ self.H.T)  # kept exactly symmetric
        # a contiguous A' makes the prediction's second product cheaper, same bits
        self._A_T = [np.ascontiguousarray(A.T) for A in self.A_blk]
        # every bank restarted from this one shares these arrays and caches
        for M in (self.offsets, self.H, *self.A_blk, *self._A_T, *self.C_blk, self._mask, self.Q_red, self._P0):
            M.setflags(write=False)
        self._observes: dict[tuple, bool] = {}
        self._fusion: dict[tuple, tuple] = {}
        self.zeta_prior = self.H @ noise.x0_mean
        self.P_prior = self._P0

    def rows(self, sensors) -> np.ndarray:
        """The joint-state rows of ``sensors``, in the order given."""
        return np.array(
            [r for s in sensors for r in range(self.offsets[s], self.offsets[s + 1])],
            dtype=np.intp,
        )

    def restarted(self, mean_offset: np.ndarray) -> "LocalFilterBank":
        """A new bank at its prior shifted by ``mean_offset``, sharing this
        bank's arrays.

        Only the prior mean depends on the run: the block-diagonal pairs,
        ``H``, ``Q_red``, the gain mask and the prior covariance depend only
        on the plant. A study therefore builds one bank per plant and
        restarts it for every run. Stepping either bank rebinds its own
        state; the shared arrays are read-only. It shares the per-active-set
        cache too: each set's joint-observability verdict and fusion's
        read-only operator arrays, formed at first use. So a study decides
        and forms each set once per plant (per worker process, whose plant
        is a forked copy); the cache lives and dies with the plant.
        """
        bank = copy.copy(self)
        x0 = self._x0_mean + np.asarray(mean_offset, dtype=float).reshape(self.ts.n)
        bank.zeta_prior = self.H @ x0
        bank.P_prior = self._P0
        return bank

    def step(self, model_index: int, y, shift=None) -> BankStep:
        """Update every sensor filter with its own row of ``y``, predict,
        then add the known full-state input ``shift``, if given, to every
        sensor's prediction.

        ``y`` is the full m-vector; sensor ``s`` consumes ``y[s]`` only.
        """
        y = np.asarray(y, dtype=float).reshape(-1)
        if y.shape[0] != self.ts.m:
            raise ModelError(f"output has {y.shape[0]} rows, expected {self.ts.m}")
        j = int(model_index)
        A, C = self.A_blk[j], self.C_blk[j]
        P = self.P_prior
        # every product below is new, so the sums are formed in place; the
        # shared arrays (A, C, P at a restart, R, Q_red, the mask) are read only
        PC = P @ C.T
        den = np.einsum("ij,ji->i", C, PC)
        den += self._R_diag
        K = PC * self._mask
        K /= den
        nu = y - C @ self.zeta_prior
        zeta_post = K @ nu
        zeta_post += self.zeta_prior
        # Joseph form with each factor (I - K C) applied as a low-rank
        # update; C P = (P C')' because P is symmetric
        IKC_P = K @ PC.T
        np.subtract(P, IKC_P, out=IKC_P)
        KR = K @ self._R
        KR -= IKC_P @ C.T
        P_post = KR @ K.T
        P_post += IKC_P
        P_post = sym(P_post)
        self.zeta_prior = A @ zeta_post
        P_next = A @ P_post @ self._A_T[j]
        P_next += self.Q_red
        self.P_prior = sym(P_next)
        if shift is not None:
            self.shift_prediction(shift)
        np.sqrt(den, out=den)
        nu /= den
        return BankStep(residues=nu, zeta_post=zeta_post, P_post=P_post)

    def shift_prediction(self, delta: np.ndarray) -> None:
        """Add the known full-state input ``delta`` in place to every
        sensor's prediction (:meth:`step`'s ``shift``)."""
        self.zeta_prior += self.H @ delta

    def observes(self, sensors) -> bool:
        """Would fusion over ``sensors`` pin down the state: does their
        stacked ``T_o'`` have ``sigma_min > 1e-8 sigma_max``?

        The bases ``T_o`` come from SVDs, so entries that are zero in exact
        arithmetic hold rounding noise; the default rank cutoff,
        ``max(rows, cols) eps sigma_max``, lies below that noise and can count
        a direction that no sensor of the set sees. The verdict of each set,
        in the order given, is cached: one SVD per set and plant.
        """
        sensors = tuple(sensors)
        verdict = self._observes.get(sensors)
        if verdict is None:
            H = self.H[self.rows(sensors)]
            if H.shape[0] < self.ts.n:
                verdict = False
            else:
                s = np.linalg.svd(H, compute_uv=False)
                verdict = bool(s[-1] > 1e-8 * s[0])
            self._observes[sensors] = verdict
        return verdict

    def fusion_operators(self, active) -> tuple:
        """:class:`FusionEstimator`'s read-only arrays over ``active``, formed
        at the set's first use. Raises :class:`DecompositionError` when
        ``active`` is empty or does not observe the state."""
        active = tuple(active)
        ops = self._fusion.get(active)
        if ops is None:
            if not active:
                raise DecompositionError("fusion needs at least one sensor")
            if not self.observes(active):
                raise DecompositionError(
                    "active sensors do not jointly observe the state (stacked T_o' is rank deficient)"
                )
            n = self.ts.n
            rows = self.rows(active)
            H = self.H[rows]
            # [H | zeta]', so that the rows fuse gathers form a Fortran-ordered
            # right-hand side
            HzT = np.empty((n + 1, rows.size))
            HzT[:-1] = H.T
            ops = (rows, H, H @ H.T, np.eye(n), HzT)
            for M in ops:
                M.setflags(write=False)
            if active == tuple(range(self.ts.m)):
                ops = (None, *ops[1:])  # fuse gathers no rows
            self._fusion[active] = ops
        return ops


# ---------------------------------------------------------------------------
# fusion


# dpstrf stops at the first pivot below this tolerance; a negative value
# selects LAPACK's default, N * eps * max(diag T)
FUSION_RANK_TOL = -1.0


@dataclass(frozen=True)
class FusionResult:
    """Fused state estimate, its error covariance, and the rank of ``T``
    that the solve used."""

    x_star: np.ndarray
    cov: np.ndarray
    rank: int


class FusionEstimator:
    """Minimum-variance unbiased combination of a bank's local estimates.

    Sensor ``s``'s posterior ``zeta_s`` estimates ``T^o_s' x``, so the active
    sensors' rows of the bank's joint posterior form the linear model
    ``zeta = H x + e``: ``H`` stacks the active ``T^o_s'`` and ``cov(e) = P``
    is their block of the joint covariance. ``P`` is singular early in a run
    (rank 25 of 72 after the first update on the example plant) and badly
    conditioned later, so :meth:`fuse` does not invert it. It uses Rao's
    unified least squares (C. R. Rao, Sankhya A 33, 1971) with

        T = P + H H',   G = H' T^- H,   x* = G^{-1} H' T^- zeta,
        cov(x* - x) = G^{-1} - I,

    which holds for any generalized inverse ``T^-`` and is the limit as
    eps -> 0 of the GLS fit with ``cov(e) = P + eps I``. The active sensors
    must jointly observe the state, i.e. ``H`` must have rank ``n``.

    The bank owns the layout of its joint state; ``active`` lists the fused
    sensors in any order. The rows, ``H``, ``H H'``, the identity and a
    ``[H | zeta]'`` template depend only on the plant and ``active``: the bank
    forms them read-only at the set's first use and caches them with the
    plant (:meth:`LocalFilterBank.fusion_operators`). Every estimator on the
    set reuses them and copies only the template.
    """

    def __init__(self, bank: LocalFilterBank, active):
        self.n = bank.ts.n
        self._rows, self.H, self._HHt, self._eye, HzT = bank.fusion_operators(active)
        self._HzT = HzT.copy()  # each fuse writes its zeta into the last row

    @classmethod
    def removal_keeps_observability(cls, bank: LocalFilterBank, remaining) -> bool:
        """The scenario engine's removal test, :meth:`LocalFilterBank.observes`,
        under the name that perfbench's tracer times."""
        return bank.observes(remaining)

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
        HzT = self._HzT
        rows = self._rows
        if rows is None:
            HzT[-1] = zeta_post
            T = P_post + self._HHt
        else:
            HzT[-1] = zeta_post.take(rows)
            # the same bytes as P_post[np.ix_(rows, rows)], gathered faster
            T = P_post.take(rows, 0).take(rows, 1)
            T += self._HHt
        if not np.isfinite(T).all():
            raise FilterError("fusion covariance is not finite")
        # T is exactly symmetric (P_post is, and numpy forms H H' by syrk), so
        # its transpose is T in the Fortran order LAPACK reads, factored in place
        U, piv, r, _ = dpstrf(T.T, tol=FUSION_RANK_TOL, overwrite_a=1)
        Bb = dtrtrs(U[:r, :r], HzT.take(piv[:r] - 1, axis=1).T, trans=1, overwrite_b=1)[0]
        B, b = Bb[:, :-1], Bb[:, -1]
        Gf, info = dpotrf(B.T @ B)
        if info:
            raise FilterError("fusion normal matrix lost positive definiteness")
        cov = dpotrs(Gf, self._eye)[0]
        cov -= self._eye
        return FusionResult(x_star=dpotrs(Gf, B.T @ b)[0], cov=sym(cov), rank=int(r))
