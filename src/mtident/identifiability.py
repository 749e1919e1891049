"""Attack identifiability analysis for switched sensing schedules.

An injected sensor attack is *unambiguously identifiable* when no initial
state can reproduce the attacked sensor's output over the window; the
defender can then pin the inconsistency on that sensor. This module provides

* observability stacks for time-varying schedules and sparse observability
  margins,
* the incremental output-consistency check that yields detection times,
* a feasibility test for schedule-guessing attackers (can a wrongly guessed
  configuration sequence still produce consistent outputs?),
* Jordan-chain extraction and the eigenstructure stacks that characterize
  cross-model unidentifiability for constant schedules, plus the explicit
  attack construction from a witness, and
* a design audit of a whole configuration set.

Everything is numerical: ranks and null spaces are SVD decisions at the
default cutoff of :mod:`mtident.linalg`, eigenvalue coincidence is decided
up to a fixed tolerance, and defective eigenvalues are clustered before
chains are extracted.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, ConditioningWarning, DegenerateWitnessError
from .linalg import numerical_rank, nullity, nullspace, observability_stack, orth
from .system_model import LtiPair, TargetSet, validate_design_recommendations

STATUS_CONSISTENT = "consistent"
STATUS_IDENTIFIED = "unambiguously-identified"


# ---------------------------------------------------------------------------
# observability stacks


def time_varying_observability(ts: TargetSet, sequence, sensor: int, t: int) -> np.ndarray:
    """Time-varying stack with rows ``C_k^s (A_{k-1} ... A_0)`` for k = 0..t.

    ``sequence`` holds configuration indices for steps ``0..t`` (at least
    ``t + 1`` entries); the k = 0 row uses the empty product, i.e. ``C_0^s``.
    """
    sequence = np.asarray(sequence, dtype=np.int64).reshape(-1)
    if t < 0:
        raise ValueError("t must be >= 0")
    if sequence.size < t + 1:
        raise ValueError(f"sequence has {sequence.size} entries, need {t + 1}")
    if not 0 <= sensor < ts.m:
        raise ValueError(f"sensor index {sensor} out of range")
    rows = np.empty((t + 1, ts.n))
    phi = np.eye(ts.n)
    for k in range(t + 1):
        pair = ts.pairs[sequence[k]]
        rows[k] = pair.C[sensor] @ phi
        phi = pair.A @ phi
    return rows


def is_sparse_observable(pair: LtiPair, r: int) -> bool:
    """True when every removal of ``r`` sensors leaves an observable pair.

    ``r = 0`` reduces to plain observability. A system that stays observable
    after any ``2q`` removals can identify attacks on up to ``q`` arbitrary
    sensors.
    """
    if not 0 <= r < pair.m:
        raise ValueError(f"r must be in [0, {pair.m}), got {r}")
    all_sensors = set(range(pair.m))
    for removed in itertools.combinations(range(pair.m), r):
        keep = sorted(all_sensors - set(removed))
        M = observability_stack(pair.A, pair.C[keep], pair.n)
        if numerical_rank(M) < pair.n:
            return False
    return True


def sparse_observability_margin(pair: LtiPair) -> int:
    """Largest ``r`` such that the pair is sparse observable at level ``r``; -1 if
    the pair is unobservable outright."""
    margin = -1
    for r in range(pair.m):
        if is_sparse_observable(pair, r):
            margin = r
        else:
            break
    return margin


# ---------------------------------------------------------------------------
# consistency checking


@dataclass(frozen=True)
class IdentVerdict:
    """Outcome of the per-sensor output-consistency check.

    ``witness`` is an initial state reproducing the whole output when the
    record is consistent; ``first_detection_time`` is the earliest step at
    which no initial state can explain the record.
    """

    sensor: int
    status: str
    witness: np.ndarray | None
    first_detection_time: int | None


def sensor_consistency_check(y_s, ts: TargetSet, schedule, sensor: int) -> IdentVerdict:
    """Incrementally test whether some initial state explains sensor ``sensor``.

    At each horizon ``t'`` the least-squares residual of the stacked
    prediction equations is compared against
    ``tol = 1e-8 * (1 + max |y|)``; the first horizon where the residual
    exceeds it is the detection time and the sensor's record is declared
    unambiguously identified as attacked.
    """
    y = np.asarray(y_s, dtype=float).reshape(-1)
    schedule = np.asarray(schedule, dtype=np.int64).reshape(-1)
    if y.size == 0:
        raise ValueError("empty output record")
    if schedule.size < y.size:
        raise ValueError("schedule shorter than the output record")
    tol = 1e-8 * (1.0 + float(np.max(np.abs(y))))

    rows = np.empty((y.size, ts.n))
    phi = np.eye(ts.n)
    witness = None
    for k in range(y.size):
        pair = ts.pairs[schedule[k]]
        rows[k] = pair.C[sensor] @ phi
        phi = pair.A @ phi
        M = rows[: k + 1]
        sol, *_ = np.linalg.lstsq(M, y[: k + 1], rcond=None)
        resid = float(np.max(np.abs(M @ sol - y[: k + 1])))
        if resid > tol:
            return IdentVerdict(
                sensor=sensor,
                status=STATUS_IDENTIFIED,
                witness=None,
                first_detection_time=k,
            )
        witness = sol
    return IdentVerdict(
        sensor=sensor, status=STATUS_CONSISTENT, witness=witness, first_detection_time=None
    )


def guess_attack_feasibility(ts: TargetSet, guessed, true_schedule, sensor: int, t: int) -> bool:
    """Can an attacker who committed to ``guessed`` stay consistent through ``t``?

    Feasibility of an undetectable nonzero attack is equivalent to the
    concatenated guessed/true stacks having more null directions than the
    two stacks separately:

        null([O_guess  O_true]) > null(O_guess) + null(O_true).
    """
    Og = time_varying_observability(ts, guessed, sensor, t)
    Os = time_varying_observability(ts, true_schedule, sensor, t)
    return nullity(np.hstack([Og, Os])) > nullity(Og) + nullity(Os)


# ---------------------------------------------------------------------------
# Jordan structure


@dataclass(frozen=True)
class JordanChain:
    """One Jordan chain: columns ``v_1 .. v_r`` with ``A v_1 = lam v_1`` and
    ``A v_{k+1} = lam v_{k+1} + v_k``."""

    eigenvalue: complex
    vectors: np.ndarray  # n x r, complex

    @property
    def length(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class JordanEigenvalue:
    """All chains attached to one clustered eigenvalue."""

    eigenvalue: complex
    multiplicity: int
    chains: tuple[JordanChain, ...]

    def chain_lengths(self) -> tuple[int, ...]:
        return tuple(c.length for c in self.chains)


@dataclass(frozen=True)
class JordanStructure:
    """Numerically extracted Jordan data of a single matrix."""

    n: int
    groups: tuple[JordanEigenvalue, ...]
    max_chain_residual: float

    @property
    def eigenvalues(self) -> tuple[complex, ...]:
        return tuple(g.eigenvalue for g in self.groups)

    def group_near(self, lam: complex, tol: float) -> JordanEigenvalue | None:
        best, dist = None, math.inf
        for g in self.groups:
            d = abs(g.eigenvalue - lam)
            if d < dist:
                best, dist = g, d
        return best if dist <= tol else None


def _cluster_complex(values: np.ndarray, tol: float) -> list[np.ndarray]:
    """Single-linkage clustering of complex numbers at distance ``tol``."""
    k = values.size
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(k):
        for j in range(i + 1, k):
            if abs(values[i] - values[j]) <= tol:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)
    clusters = [np.array(idx) for idx in groups.values()]
    for idx in clusters:
        vals = values[idx]
        diam = float(np.max(np.abs(vals[:, None] - vals[None, :]))) if idx.size > 1 else 0.0
        if diam > 3.0 * tol:
            raise ConditioningError(
                f"eigenvalue cluster of diameter {diam:.3e} exceeds 3x the clustering "
                f"tolerance {tol:.3e}; adjust the tolerance"
            )
    return clusters


def jordan_chains(A, cluster_tol: float | None = None) -> JordanStructure:
    """Extract eigenvalues, multiplicities, and Jordan chains of ``A``.

    Computed eigenvalues of a defective matrix scatter like ``eps**(1/r)``
    around the true value, so clustering uses the deliberately generous
    default ``cluster_tol = 1e-3 * (1 + max |eigenvalue|)``; the cluster mean
    is then accurate to roughly machine precision and null spaces of
    ``(A - mean I)^p`` are well separated at the relative SVD cutoff
    ``1e-8``. Chain relations are verified against ``chain_tol = 1e-7 *
    max(1, ||A||)``; residuals beyond ten times that raise a
    :class:`ConditioningWarning`.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    n = A.shape[0]
    eigs = np.linalg.eigvals(A)
    scale = 1.0 + float(np.max(np.abs(eigs))) if n else 1.0
    if cluster_tol is None:
        cluster_tol = 1e-3 * scale
    norm_A = float(np.linalg.norm(A, 2)) if n else 0.0
    chain_tol = 1e-7 * max(1.0, norm_A)

    groups = []
    max_resid = 0.0
    for idx in _cluster_complex(eigs, cluster_tol):
        lam = complex(np.mean(eigs[idx]))
        mult = int(idx.size)
        B = A.astype(complex) - lam * np.eye(n)
        sB = float(np.linalg.norm(B, 2))

        # nested null spaces of B^p until the algebraic multiplicity is reached
        bases: list[np.ndarray] = []
        powers: list[np.ndarray] = []
        nullities = [0]
        Bp = np.eye(n, dtype=complex)
        pmax = None
        for p in range(1, n + 1):
            Bp = Bp @ B
            powers.append(Bp)
            # a relative cutoff alone misreads numerically-zero powers (a
            # collapsed B^p is pure roundoff, so every singular value sits
            # "above" 1e-8 * smax); floor the cutoff at the roundoff scale
            # accumulated while forming the product
            floor = 32.0 * p * np.finfo(float).eps * sB**p
            smax_p = float(np.linalg.norm(Bp, 2))
            ns = nullspace(Bp, tol=max(1e-8 * smax_p, floor))
            bases.append(ns)
            nullities.append(ns.shape[1])
            if nullities[-1] > mult:
                raise ConditioningError(
                    f"null space of (A - {lam:.6g} I)^{p} has dimension "
                    f"{nullities[-1]} > algebraic multiplicity {mult}; the rank "
                    "tolerance or eigenvalue clustering is too loose"
                )
            if nullities[-1] == mult:
                pmax = p
                break
            if nullities[-1] <= nullities[-2]:
                raise ConditioningError(
                    f"null-space growth stalled at dimension {nullities[-1]} below "
                    f"multiplicity {mult} for eigenvalue {lam:.6g}"
                )
        if pmax is None:
            raise ConditioningError(f"could not reach multiplicity {mult} for {lam:.6g}")

        # chains with length >= p number d[p]; pick chain tops from the top level down
        d = {p: nullities[p] - nullities[p - 1] for p in range(1, pmax + 1)}
        d[pmax + 1] = 0
        tops: list[tuple[int, np.ndarray]] = []
        for p in range(pmax, 0, -1):
            want = d[p] - d[p + 1]
            if want == 0:
                continue
            blockers = []
            if p >= 2:
                blockers.append(bases[p - 2])
            for q, u in tops:
                if q > p:
                    blockers.append((powers[q - p - 1] @ u).reshape(-1, 1))
            V = bases[p - 1]
            if blockers:
                Z = orth(np.hstack(blockers))
                W = V - Z @ (Z.conj().T @ V)
            else:
                W = V
            U, s, _ = np.linalg.svd(W, full_matrices=False)
            if s.size < want or s[want - 1] <= 1e-8:
                raise ConditioningError(
                    f"could not separate {want} chain top(s) at level {p} for "
                    f"eigenvalue {lam:.6g} (smallest retained singular value "
                    f"{s[want - 1] if s.size >= want else 0.0:.3e})"
                )
            for i in range(want):
                tops.append((p, U[:, i]))

        chains = []
        for p, u in tops:
            vecs = [u]
            for _ in range(p - 1):
                vecs.append(B @ vecs[-1])
            vecs.reverse()  # v_1 (eigenvector) first
            V = np.column_stack(vecs)
            V = V / np.max(np.abs(V))
            chains.append(JordanChain(eigenvalue=lam, vectors=V))
            # verify the chain relations
            resid = float(np.linalg.norm(A @ V[:, 0] - lam * V[:, 0]))
            for c in range(1, p):
                resid = max(
                    resid,
                    float(np.linalg.norm(A @ V[:, c] - lam * V[:, c] - V[:, c - 1])),
                )
            max_resid = max(max_resid, resid)

        allv = np.hstack([c.vectors for c in chains])
        if numerical_rank(allv) != mult:
            raise ConditioningError(
                f"chain vectors for eigenvalue {lam:.6g} are numerically dependent"
            )
        chains.sort(key=lambda c: -c.length)
        groups.append(JordanEigenvalue(eigenvalue=lam, multiplicity=mult, chains=tuple(chains)))

    if max_resid > 10.0 * chain_tol:
        warnings.warn(
            f"Jordan chain residual {max_resid:.3e} exceeds 10x the chain tolerance "
            f"{chain_tol:.3e}; results may be inaccurate",
            ConditioningWarning,
        )
    groups.sort(key=lambda g: (round(g.eigenvalue.real, 9), round(g.eigenvalue.imag, 9)))
    return JordanStructure(n=n, groups=tuple(groups), max_chain_residual=max_resid)


# ---------------------------------------------------------------------------
# cross-model unidentifiability (constant schedules)


def _v_stack_for(group: JordanEigenvalue, c_row: np.ndarray, r_max: int) -> np.ndarray:
    """Horizontal concatenation of the per-chain upper-shift blocks.

    For a chain ``v_1..v_r`` the block is ``r_max x r`` with entry
    ``(p, q) = c_row . v_{q-p+1}`` for ``q >= p`` (1-based), zero elsewhere;
    rows beyond the chain length are zero padding. Row ``p`` collects the
    coefficient of the (p-1)-th derivative of ``lam^k`` in the output
    expansion, which is why equal stacks across two models yield identical
    output sequences.
    """
    blocks = []
    for chain in group.chains:
        r = chain.length
        cv = c_row.astype(complex) @ chain.vectors  # (r,) values c.v_1 .. c.v_r
        blk = np.zeros((r_max, r), dtype=complex)
        for p in range(r_max):
            for q in range(p, r):
                blk[p, q] = cv[q - p]
        blocks.append(blk)
    return np.hstack(blocks)


@dataclass(frozen=True)
class CrossModelWitness:
    """Shared-image witness: coefficients and initial states for each model.

    ``x0a_1``/``x0a_2`` are complex initial states (chain-vector combinations)
    whose sensor outputs agree between the two models for all time.
    """

    eigenvalue: complex
    alpha1: np.ndarray
    alpha2: np.ndarray
    x0a_1: np.ndarray
    x0a_2: np.ndarray

    def rotated(self, theta: float) -> "CrossModelWitness":
        ph = complex(math.cos(theta), math.sin(theta))
        return CrossModelWitness(
            eigenvalue=self.eigenvalue,
            alpha1=self.alpha1 * ph,
            alpha2=self.alpha2 * ph,
            x0a_1=self.x0a_1 * ph,
            x0a_2=self.x0a_2 * ph,
        )


@dataclass(frozen=True)
class CrossModelResult:
    exists: bool
    witness: CrossModelWitness | None
    shared_eigenvalues: tuple[complex, ...]


def cross_model_unidentifiability(
    pair1: LtiPair,
    pair2: LtiPair,
    sensor: int,
    structures: tuple[JordanStructure, JordanStructure] | None = None,
) -> CrossModelResult:
    """Does a nonzero attack exist that is consistent with both fixed models?

    For each eigenvalue shared by the two state matrices (within
    ``1e-8 * (1 + max |eigenvalue|)``), the per-model eigenstructure stacks
    ``V1``/``V2`` are built; unidentifiability is equivalent to their images
    intersecting nontrivially:

        null([V1 V2]) > null(V1) + null(V2).

    If no eigenvalue is shared, or no shared eigenvalue passes the test, a
    wrong constant guess is always exposed within ``2n - 1`` steps.
    ``structures`` shortcuts the Jordan extraction when the caller already
    has it (e.g. when scanning all configuration pairs).
    """
    if structures is not None:
        js1, js2 = structures
    else:
        js1 = jordan_chains(pair1.A)
        js2 = jordan_chains(pair2.A)
    scale = 1.0 + max(
        max((abs(v) for v in js1.eigenvalues), default=0.0),
        max((abs(v) for v in js2.eigenvalues), default=0.0),
    )
    tau_eig = 1e-8 * scale
    c1 = pair1.C[sensor]
    c2 = pair2.C[sensor]

    shared = []
    for g1 in js1.groups:
        for g2 in js2.groups:
            if abs(g1.eigenvalue - g2.eigenvalue) <= tau_eig:
                shared.append((g1, g2))
    shared.sort(key=lambda pair_: -abs(pair_[0].eigenvalue))
    shared_vals = tuple(0.5 * (g1.eigenvalue + g2.eigenvalue) for g1, g2 in shared)

    for g1, g2 in shared:
        lam = 0.5 * (g1.eigenvalue + g2.eigenvalue)
        r_max = max(max(g1.chain_lengths()), max(g2.chain_lengths()))
        V1 = _v_stack_for(g1, c1, r_max)
        V2 = _v_stack_for(g2, c2, r_max)
        both = np.hstack([V1, V2])
        if nullity(both) <= nullity(V1) + nullity(V2):
            continue
        # witness: null vector of [V1, -V2] maximizing the shared image norm
        Z = nullspace(np.hstack([V1, -V2]))
        k1 = V1.shape[1]
        M = V1 @ Z[:k1]
        U, s, Vh = np.linalg.svd(M)
        if s.size == 0 or s[0] <= 1e-12 * (1.0 + float(np.linalg.norm(V1))):
            continue
        z = Z @ Vh[0].conj()
        alpha1, alpha2 = z[:k1], z[k1:]
        # normalize so the shared image has unit peak magnitude
        peak = float(np.max(np.abs(V1 @ alpha1)))
        alpha1, alpha2 = alpha1 / peak, alpha2 / peak
        vbar1 = np.hstack([c.vectors for c in g1.chains])
        vbar2 = np.hstack([c.vectors for c in g2.chains])
        witness = CrossModelWitness(
            eigenvalue=lam,
            alpha1=alpha1,
            alpha2=alpha2,
            x0a_1=vbar1 @ alpha1,
            x0a_2=vbar2 @ alpha2,
        )
        return CrossModelResult(exists=True, witness=witness, shared_eigenvalues=shared_vals)
    return CrossModelResult(exists=False, witness=None, shared_eigenvalues=shared_vals)


def construct_cross_model_attack(
    witness: CrossModelWitness,
    pair1: LtiPair,
    pair2: LtiPair,
    sensor: int,
    horizon: int,
) -> np.ndarray:
    """Realize a witness as a real scalar attack sequence of length ``horizon``.

    The complex sequences ``c_j A_j^k x0a_j`` agree between the two models by
    construction; a complex witness is realified by adding the conjugate
    trajectory (the conjugate initial state is also a valid chain
    combination). Raises :class:`DegenerateWitnessError` when the two
    sequences differ by more than ``1e-8 * (1 + max |d_1|)`` or
    realification collapses to the zero sequence; callers retry with a
    rotated witness.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    seqs = []
    for pair, x0a in ((pair1, witness.x0a_1), (pair2, witness.x0a_2)):
        c = pair.C[sensor].astype(complex)
        x = x0a.astype(complex)
        d = np.empty(horizon, dtype=complex)
        for k in range(horizon):
            d[k] = c @ x
            x = pair.A @ x
        seqs.append(d)
    d1, d2 = seqs
    tol = 1e-8 * (1.0 + float(np.max(np.abs(d1))))
    if float(np.max(np.abs(d1 - d2))) > tol:
        raise DegenerateWitnessError(
            "witness output sequences disagree between the two models"
        )
    if float(np.max(np.abs(d1.imag))) <= tol:
        d = d1.real.copy()
    else:
        d = 2.0 * d1.real  # add the conjugate trajectory
    if float(np.max(np.abs(d))) <= tol:
        raise DegenerateWitnessError(
            "realified attack sequence is identically zero; rotate the witness"
        )
    return d


@dataclass(frozen=True)
class AnalysisReport:
    """Design-time audit of a moving-target configuration set.

    ``sparse_margins[j]`` is the largest number of arbitrary sensor removals
    configuration ``j`` survives (-1 when unobservable on its own).
    ``vulnerable_pairs`` maps a configuration pair ``(i, j)`` to the sensors
    on which an attacker committed to either constant configuration could
    stay consistent with the other; a sound deployment wants this empty.
    ``failures`` records configuration pairs whose eigenstructure could not
    be extracted reliably.
    """

    recommendations: object  # RecommendationReport
    sparse_margins: tuple[int, ...]
    vulnerable_pairs: dict[tuple[int, int], tuple[int, ...]]
    failures: dict[tuple[int, int], str]

    def findings(self) -> list[str]:
        lines = list(self.recommendations.problems())
        for j, margin in enumerate(self.sparse_margins):
            if margin < 0:
                lines.append(f"configuration {j} is unobservable with all sensors")
        for (i, j), sensors in sorted(self.vulnerable_pairs.items()):
            lines.append(
                f"configurations ({i}, {j}) admit cross-model attacks on sensor(s) "
                f"{', '.join(str(s) for s in sensors)}"
            )
        for (i, j), msg in sorted(self.failures.items()):
            lines.append(f"configurations ({i}, {j}): analysis failed ({msg})")
        return lines


def analyze_target_set(ts: TargetSet) -> AnalysisReport:
    """Audit a configuration set: design recommendations, per-configuration
    sparse observability margins, and a scan of every configuration pair and
    sensor for cross-model unidentifiability."""
    recs = validate_design_recommendations(ts)
    margins = tuple(sparse_observability_margin(p) for p in ts.pairs)
    structures: dict[int, JordanStructure] = {}
    vulnerable: dict[tuple[int, int], tuple[int, ...]] = {}
    failures: dict[tuple[int, int], str] = {}
    for i in range(ts.l):
        for j in range(i + 1, ts.l):
            try:
                for idx in (i, j):
                    if idx not in structures:
                        structures[idx] = jordan_chains(ts.pairs[idx].A)
                hit = []
                for s in range(ts.m):
                    res = cross_model_unidentifiability(
                        ts.pairs[i],
                        ts.pairs[j],
                        s,
                        structures=(structures[i], structures[j]),
                    )
                    if res.exists:
                        hit.append(s)
                if hit:
                    vulnerable[(i, j)] = tuple(hit)
            except ConditioningError as exc:
                failures[(i, j)] = str(exc)
    return AnalysisReport(
        recommendations=recs,
        sparse_margins=margins,
        vulnerable_pairs=vulnerable,
        failures=failures,
    )
