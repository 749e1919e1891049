"""Attack identifiability analysis for switched sensing schedules.

An injected sensor attack is *unambiguously identifiable* when no initial
state can reproduce the attacked sensor's output over the window; the
defender can then pin the inconsistency on that sensor. This module provides

* observability stacks for time-varying schedules and sparse observability
  margins,
* the incremental output-consistency check that yields detection times,
* a feasibility test for schedule-guessing attackers (can a wrongly guessed
  configuration sequence still produce consistent outputs?),
* generalized eigenspaces and the output stacks built on them that
  characterize cross-model unidentifiability for constant schedules, plus
  the explicit attack construction from a witness, and
* a design audit of a whole configuration set.

Everything is numerical: ranks and null spaces are SVD decisions, eigenvalue
coincidence is decided up to a fixed tolerance, and defective eigenvalues
are clustered before their generalized eigenspaces are taken.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import ConditioningError, DegenerateWitnessError
from .linalg import EPS, numerical_rank, observable
from .system_model import LtiPair, TargetSet, free_response, validate_design_recommendations

STATUS_CONSISTENT = "consistent"
STATUS_IDENTIFIED = "unambiguously-identified"


# ---------------------------------------------------------------------------
# observability stacks


def time_varying_observability(ts: TargetSet, sequence, sensor: int, t: int) -> np.ndarray:
    """Time-varying stack with rows ``C_k^s (A_{k-1} ... A_0)`` for k = 0..t:
    the free response of the identity.

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
    return free_response(ts.pairs, sequence[: t + 1], np.eye(ts.n), sensor)


def is_sparse_observable(pair: LtiPair, r: int) -> bool:
    """True when every removal of ``r`` sensors leaves an observable pair.

    ``r = 0`` reduces to plain observability. A system that stays observable
    after any ``2q`` removals can identify attacks on up to ``q`` arbitrary
    sensors.
    """
    if not 0 <= r < pair.m:
        raise ValueError(f"r must be in [0, {pair.m}), got {r}")
    all_sensors = set(range(pair.m))
    return all(
        observable(pair.A, pair.C[sorted(all_sensors - set(removed))])
        for removed in itertools.combinations(range(pair.m), r)
    )


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
    unambiguously identified as attacked. The stacked rows are those of
    :func:`time_varying_observability`.
    """
    y = np.asarray(y_s, dtype=float).reshape(-1)
    if y.size == 0:
        raise ValueError("empty output record")
    tol = 1e-8 * (1.0 + float(np.max(np.abs(y))))

    rows = time_varying_observability(ts, schedule, sensor, y.size - 1)
    witness = None
    for k in range(y.size):
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
    images of the guessed and true stacks intersecting nontrivially:

        rank([O_guess  O_true]) < rank(O_guess) + rank(O_true).
    """
    Og = time_varying_observability(ts, guessed, sensor, t)
    Os = time_varying_observability(ts, true_schedule, sensor, t)
    return numerical_rank(np.hstack([Og, Os])) < numerical_rank(Og) + numerical_rank(Os)


# ---------------------------------------------------------------------------
# generalized eigenspaces


@dataclass(frozen=True)
class GeneralizedEigenspace:
    """One clustered eigenvalue of a matrix and its generalized eigenspace.

    ``basis`` is an orthonormal basis of ``null((A - eigenvalue I)^p)`` with
    ``p = chain_lengths[0]``, the longest Jordan chain; its column count is
    the algebraic multiplicity. ``chain_lengths`` lists the Jordan chain
    lengths, longest first. A conjugate-symmetric cluster has a float
    eigenvalue and a real basis.
    """

    eigenvalue: complex
    basis: np.ndarray
    chain_lengths: tuple[int, ...]


def _cluster_complex(values: np.ndarray, tol: float) -> list[np.ndarray]:
    """Single-linkage clustering of complex numbers at distance ``tol``.

    Values are linked when at most ``tol`` apart; squaring the link matrix
    until it stops growing joins each value to every value it reaches.
    Clusters list their indices in order and are ordered by their first
    index."""
    reach = np.abs(values[:, None] - values[None, :]) <= tol
    while not np.array_equal(grown := reach @ reach, reach):
        reach = grown
    first = reach.argmax(axis=1)  # each value's cluster, named by its first index
    clusters = [np.flatnonzero(reach[i]) for i in range(values.size) if first[i] == i]
    for idx in clusters:
        vals = values[idx]
        diam = float(np.max(np.abs(vals[:, None] - vals[None, :]))) if idx.size > 1 else 0.0
        if diam > 3.0 * tol:
            raise ConditioningError(
                f"eigenvalue cluster of diameter {diam:.3e} exceeds 3x the clustering "
                f"tolerance {tol:.3e}; adjust the tolerance"
            )
    return clusters


def jordan_chains(A) -> tuple[GeneralizedEigenspace, ...]:
    """Generalized eigenspaces of ``A``, one per clustered eigenvalue.

    Each result gives an eigenvalue's Jordan chain lengths and the span of
    its chains, not the chains themselves; the function keeps its name
    because the benchmark tracer times it as ``identifiability.jordan_chains``.

    Computed eigenvalues of a defective matrix scatter like ``eps**(1/r)``
    around the true value, so clustering uses the deliberately generous
    tolerance ``tol = 1e-3 * (1 + max |eigenvalue|)``; the cluster mean is
    then accurate to roughly machine precision and null spaces of
    ``(A - mean I)^p`` are well separated at the relative SVD cutoff
    ``1e-8``. The power ``p`` grows until the null space reaches the cluster
    size; a null space that outgrows the cluster or stops growing first
    raises :class:`ConditioningError`. One stall is not a failure: when the
    mean of two or more distinct eigenvalues has no null space at all, they
    are distinct eigenvalues closer than the tolerance (the mean of one
    defective eigenvalue's estimates is accurate), so they are clustered
    again at a tenth of the tolerance and each sub-cluster is extracted.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    n = A.shape[0]
    eigs = np.linalg.eigvals(A)
    tol = 1e-3 * (1.0 + float(np.max(np.abs(eigs), initial=0.0)))

    spaces = []
    clusters = [(idx, tol) for idx in _cluster_complex(eigs, tol)]
    for idx, tol in clusters:  # a split appends its sub-clusters
        lam = complex(np.mean(eigs[idx]))
        # A is real: a cluster with a member within tol/2 of the real axis
        # holds that member's conjugate, hence all its conjugates, and its
        # mean is real up to roundoff; any other cluster lies beyond tol/2
        if abs(lam.imag) <= 0.5 * tol:
            lam = lam.real
        mult = int(idx.size)
        B = A - lam * np.eye(n)
        nullities = [0]
        Bp = np.eye(n)
        while nullities[-1] < mult:
            p = len(nullities)
            Bp = Bp @ B
            _, s, Vh = np.linalg.svd(Bp)
            if p == 1:
                sB = float(s[0])
            # a relative cutoff alone misreads numerically-zero powers (a
            # collapsed B^p is pure roundoff, so every singular value sits
            # "above" 1e-8 * smax); floor the cutoff at the roundoff scale
            # ||B||^p accumulated while forming the product
            cutoff = max(1e-8 * float(s[0]), 32.0 * p * EPS * sB**p)
            basis = Vh[int(np.sum(s > cutoff)):].conj().T
            nullities.append(basis.shape[1])
            if nullities[-1] > mult:
                raise ConditioningError(
                    f"null space of (A - {complex(lam):.6g} I)^{p} has dimension "
                    f"{nullities[-1]} > algebraic multiplicity {mult}; the rank "
                    "tolerance or eigenvalue clustering is too loose"
                )
            if nullities == [0, 0] and np.unique(eigs[idx]).size > 1:
                clusters += [(idx[sub], 0.1 * tol) for sub in _cluster_complex(eigs[idx], 0.1 * tol)]
                break
            if nullities[-1] <= nullities[-2]:
                raise ConditioningError(
                    f"null-space growth stalled at dimension {nullities[-1]} below "
                    f"multiplicity {mult} for eigenvalue {complex(lam):.6g}"
                )
        else:  # the null space reached the cluster size
            # growth[p - 1] counts the chains of length >= p
            growth = np.diff(nullities)
            lengths = tuple(int(np.sum(growth >= j)) for j in range(1, growth[0] + 1))
            spaces.append(GeneralizedEigenspace(eigenvalue=lam, basis=basis, chain_lengths=lengths))

    spaces.sort(key=lambda e: (round(e.eigenvalue.real, 9), round(e.eigenvalue.imag, 9)))
    return tuple(spaces)


# ---------------------------------------------------------------------------
# cross-model unidentifiability (constant schedules)


@dataclass(frozen=True)
class CrossModelWitness:
    """Initial states ``x0a_1``/``x0a_2``, in the shared eigenvalue's
    generalized eigenspace of each model, whose sensor outputs agree between
    the two models for all time. They are real when the eigenvalue is."""

    eigenvalue: complex
    x0a_1: np.ndarray
    x0a_2: np.ndarray


@dataclass(frozen=True)
class CrossModelResult:
    exists: bool
    witness: CrossModelWitness | None
    shared_eigenvalues: tuple[complex, ...]


def cross_model_unidentifiability(
    pair1: LtiPair,
    pair2: LtiPair,
    sensor: int,
    structures: tuple[tuple[GeneralizedEigenspace, ...], ...] | None = None,
) -> CrossModelResult:
    """Does a nonzero attack exist that is consistent with both fixed models?

    For each eigenvalue ``lam`` shared by the two state matrices (within
    ``1e-8 * (1 + max |eigenvalue|)``), each model gives the stack ``V`` of
    rows ``c (A - lam I)^q G``, the free response of the shifted pair
    ``(A - lam I, C)`` from the eigenspace basis ``G``. For ``x = G z`` the
    output expands as ``c A^k x = sum_q C(k, q) lam^(k-q) (V z)_q``, whose
    terms at or beyond the chain length vanish, so stacks ``V1``/``V2`` taken
    to the longer chain decide the test: unidentifiability is equivalent to
    their images intersecting nontrivially:

        rank([V1 -V2]) < rank(V1) + rank(V2),

    all three ranks counting singular values above ``1e-8 * ||[V1 -V2]||``.
    The witness is the null vector of ``[V1 -V2]`` with the largest shared
    image. If no eigenvalue is shared, or no shared eigenvalue passes the
    test, a wrong constant guess is always exposed within ``2n - 1`` steps.
    ``structures`` shortcuts the eigenspace extraction when the caller
    already has it (e.g. when scanning all configuration pairs).
    """
    if structures is not None:
        spaces1, spaces2 = structures
    else:
        spaces1, spaces2 = jordan_chains(pair1.A), jordan_chains(pair2.A)
    scale = 1.0 + max((abs(e.eigenvalue) for e in spaces1 + spaces2), default=0.0)
    tau_eig = 1e-8 * scale

    ev1, ev2 = (np.array([e.eigenvalue for e in spaces], dtype=complex) for spaces in (spaces1, spaces2))
    hits = np.argwhere(np.abs(ev1[:, None] - ev2) <= tau_eig).tolist()  # in row-major order
    shared = [(spaces1[i], spaces2[j]) for i, j in hits]
    shared.sort(key=lambda pair_: -abs(pair_[0].eigenvalue))
    shared_vals = tuple(0.5 * (e1.eigenvalue + e2.eigenvalue) for e1, e2 in shared)

    for (e1, e2), lam in zip(shared, shared_vals):
        steps = [0] * max(e1.chain_lengths[0], e2.chain_lengths[0])
        V1, V2 = (
            free_response([SimpleNamespace(A=p.A - e.eigenvalue * np.eye(p.n), C=p.C)], steps, e.basis, sensor)
            for p, e in ((pair1, e1), (pair2, e2))
        )
        _, s, Vh = np.linalg.svd(np.hstack([V1, -V2]))
        cutoff = 1e-8 * s[0]
        rank_both = int(np.sum(s > cutoff))
        ranks = (int(np.sum(np.linalg.svd(V, compute_uv=False) > cutoff)) for V in (V1, V2))
        if rank_both >= sum(ranks):
            continue
        Z = Vh[rank_both:].conj().T
        m1 = V1.shape[1]
        _, _, Wh = np.linalg.svd(V1 @ Z[:m1])
        z = Z @ Wh[0].conj()
        # normalize so the shared image has unit peak magnitude
        z = z / float(np.max(np.abs(V1 @ z[:m1])))
        witness = CrossModelWitness(
            eigenvalue=lam, x0a_1=e1.basis @ z[:m1], x0a_2=e2.basis @ z[m1:]
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

    The sequences ``c_j A_j^k x0a_j`` agree between the two models by
    construction. A real witness gives the attack directly; a complex one is
    realified by adding the conjugate trajectory (the conjugate initial
    states are also a witness), and ``2 Re(d)`` is zero at every step only
    when ``d`` is, since ``d`` and its conjugate live on the distinct
    eigenvalues ``lam`` and ``conj(lam)``. Raises
    :class:`DegenerateWitnessError` when the two sequences differ by more
    than ``1e-8 * (1 + max |d_1|)``.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    d1, d2 = (
        free_response((pair,), [0] * horizon, x, sensor)
        for pair, x in ((pair1, witness.x0a_1), (pair2, witness.x0a_2))
    )
    if float(np.max(np.abs(d1 - d2))) > 1e-8 * (1.0 + float(np.max(np.abs(d1)))):
        raise DegenerateWitnessError(
            "witness output sequences disagree between the two models"
        )
    return d1 if np.isrealobj(d1) else 2.0 * d1.real


@dataclass(frozen=True)
class AnalysisReport:
    """Design-time audit of a moving-target configuration set.

    ``sparse_margins[j]`` is the largest number of arbitrary sensor removals
    configuration ``j`` survives (-1 when unobservable on its own).
    ``vulnerable_pairs`` maps a configuration pair ``(i, j)`` to the sensors
    on which an attacker committed to either constant configuration could
    stay consistent with the other; a sound deployment wants this empty.
    ``failures`` maps each configuration whose generalized eigenspaces could
    not be extracted reliably to the reason; its pairs are not scanned.
    """

    recommendations: object  # RecommendationReport
    sparse_margins: tuple[int, ...]
    vulnerable_pairs: dict[tuple[int, int], tuple[int, ...]]
    failures: dict[int, str]

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
        for j, msg in sorted(self.failures.items()):
            lines.append(f"configuration {j}: analysis failed ({msg})")
        return lines


def analyze_target_set(ts: TargetSet) -> AnalysisReport:
    """Audit a configuration set: design recommendations, per-configuration
    sparse observability margins, and a scan of every configuration pair and
    sensor for cross-model unidentifiability. Each configuration's
    generalized eigenspaces are extracted once, before the scan."""
    recs = validate_design_recommendations(ts)
    margins = tuple(sparse_observability_margin(p) for p in ts.pairs)
    structures: dict[int, tuple[GeneralizedEigenspace, ...]] = {}
    failures: dict[int, str] = {}
    for j, pair in enumerate(ts.pairs):
        try:
            structures[j] = jordan_chains(pair.A)
        except ConditioningError as exc:
            failures[j] = str(exc)
    vulnerable: dict[tuple[int, int], tuple[int, ...]] = {}
    for i, j in itertools.combinations(structures, 2):
        pair_structures = (structures[i], structures[j])
        hit = tuple(
            s
            for s in range(ts.m)
            if cross_model_unidentifiability(
                ts.pairs[i], ts.pairs[j], s, structures=pair_structures
            ).exists
        )
        if hit:
            vulnerable[(i, j)] = hit
    return AnalysisReport(
        recommendations=recs,
        sparse_margins=margins,
        vulnerable_pairs=vulnerable,
        failures=failures,
    )
