import itertools
from math import comb
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helpers import (
    brute_force_unidentifiability_oracle,
    matrix_with_jordan_structure,
    observability_matrix,
    random_observable_pair,
    TEST_KEY,
    random_target_set,
    reference_eigenspace_stack,
)
from mtident import (
    AttackSet,
    ConditioningError,
    LtiPair,
    STATUS_CONSISTENT,
    STATUS_IDENTIFIED,
    TargetSet,
    analyze_target_set,
    construct_cross_model_attack,
    cross_model_unidentifiability,
    generate_example_system,
    guess_attack_feasibility,
    is_sparse_observable,
    jordan_chains,
    sample_schedule,
    sensor_consistency_check,
    simulate_deterministic,
    sparse_observability_margin,
    time_varying_observability,
)
from mtident import identifiability
from mtident.identifiability import _cluster_complex
from mtident.linalg import numerical_rank
from mtident.system_model import free_response


# ---------------------------------------------------------------------------
# observability stacks


def test_observability_matrix_rows():
    A = np.array([[1.0, 1.0], [0.0, 2.0]])
    C = np.array([[1.0, 0.0], [0.0, 1.0]])
    stack = observability_matrix(LtiPair(A, C), sensors=(0,), steps=3)
    expected = np.vstack([C[0], C[0] @ A, C[0] @ A @ A])
    assert_allclose(stack, expected)


def test_time_varying_observability_rows():
    A0 = np.array([[2.0, 0.0], [0.0, 3.0]])
    A1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    C = np.array([[1.0, 1.0]])
    ts = TargetSet(pairs=(LtiPair(A0, C), LtiPair(A1, C)), period=1)
    stack = time_varying_observability(ts, [0, 1, 0], sensor=0, t=2)
    expected = np.vstack([C[0], C[0] @ A0, C[0] @ A1 @ A0])
    assert_allclose(stack, expected)
    with pytest.raises(ValueError):
        time_varying_observability(ts, [0, 1], sensor=0, t=2)


def _pbh_observable(A, C_keep):
    # Hautus test: rank [lam I - A; C] = n at every eigenvalue
    n = A.shape[0]
    for lam in np.linalg.eigvals(A):
        M = np.vstack([lam * np.eye(n) - A, C_keep.astype(complex)])
        if numerical_rank(M) < n:
            return False
    return True


def _pbh_sparse_observable(pair, r):
    for removed in itertools.combinations(range(pair.m), r):
        keep = [s for s in range(pair.m) if s not in removed]
        if not _pbh_observable(pair.A, pair.C[keep]):
            return False
    return True


def test_sparse_observability_matches_hautus_oracle():
    rng = np.random.default_rng(20)
    for _ in range(25):
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        A = rng.standard_normal((n, n))
        C = rng.standard_normal((m, n))
        # sprinkle zero rows to create unobservable removals
        for s in range(m):
            if rng.random() < 0.3:
                C[s] = 0.0
        pair = LtiPair(A, C)
        for r in range(min(m, 3)):
            assert is_sparse_observable(pair, r) == _pbh_sparse_observable(pair, r)


def test_sparse_margin_redundant_and_unobservable():
    A = np.diag([0.5, 1.5])
    ones = np.ones((1, 2))
    redundant = LtiPair(A, np.vstack([ones, ones, ones]))
    assert sparse_observability_margin(redundant) == 2
    unobs = LtiPair(A, np.array([[1.0, 0.0]]))
    assert sparse_observability_margin(unobs) == -1
    with pytest.raises(ValueError):
        is_sparse_observable(redundant, 3)


# ---------------------------------------------------------------------------
# consistency checking


def test_clean_record_is_consistent_and_witnessed():
    rng = np.random.default_rng(21)
    ts = random_target_set(rng, n=3, m=2, l=2, period=2)
    sched = sample_schedule(ts, 12, TEST_KEY)
    x0 = rng.standard_normal(3)
    traj = simulate_deterministic(ts, sched, x0)
    verdict = sensor_consistency_check(traj.outputs[:, 0], ts, sched, sensor=0)
    assert verdict.status == STATUS_CONSISTENT
    assert verdict.first_detection_time is None
    # the witness explains the record; for an observable record it is x0 itself
    assert_allclose(verdict.witness, x0, atol=1e-7)


def test_garbage_attack_is_identified_quickly():
    rng = np.random.default_rng(22)
    ts = random_target_set(rng, n=3, m=2, l=2, period=2)
    sched = sample_schedule(ts, 12, TEST_KEY)
    atk = AttackSet([0], ts.m)
    d = rng.standard_normal((12, 1)) * 5.0
    traj = simulate_deterministic(ts, sched, rng.standard_normal(3), attack=atk, d=d)
    verdict = sensor_consistency_check(traj.outputs[:, 0], ts, sched, sensor=0)
    assert verdict.status == STATUS_IDENTIFIED
    assert verdict.first_detection_time is not None
    assert verdict.first_detection_time <= 2 * ts.n - 1
    # the untouched sensor stays consistent
    clean = sensor_consistency_check(traj.outputs[:, 1], ts, sched, sensor=1)
    assert clean.status == STATUS_CONSISTENT


def test_schedule_mimicking_attack_stays_consistent():
    # d_k = C_k[s] x~_k along the true schedule looks like a state offset
    rng = np.random.default_rng(23)
    ts = random_target_set(rng, n=3, m=2, l=3, period=2)
    sched = sample_schedule(ts, 14, TEST_KEY)
    x_virtual = rng.standard_normal(3)
    d = np.empty((14, 1))
    xv = x_virtual.copy()
    for k in range(14):
        pair = ts.pairs[sched[k]]
        d[k, 0] = pair.C[0] @ xv
        xv = pair.A @ xv
    atk = AttackSet([0], ts.m)
    x0 = rng.standard_normal(3)
    traj = simulate_deterministic(ts, sched, x0, attack=atk, d=d)
    verdict = sensor_consistency_check(traj.outputs[:, 0], ts, sched, sensor=0)
    assert verdict.status == STATUS_CONSISTENT
    assert_allclose(verdict.witness, x0 + x_virtual, atol=1e-6)


def test_guess_feasibility_correct_guess_is_feasible():
    rng = np.random.default_rng(24)
    ts = random_target_set(rng, n=3, m=1, l=2, period=3)
    sched = sample_schedule(ts, 2 * ts.n, TEST_KEY)
    assert guess_attack_feasibility(ts, sched, sched, sensor=0, t=2 * ts.n - 1)


def test_guess_feasibility_wrong_guess_disjoint_spectra():
    rng = np.random.default_rng(25)
    ts = random_target_set(rng, n=3, m=1, l=2, period=2 * 3)
    true_sched = np.zeros(6, dtype=int)
    guessed = np.ones(6, dtype=int)
    assert not guess_attack_feasibility(ts, guessed, true_sched, sensor=0, t=5)


def test_guess_feasibility_shared_eigenvalue_models():
    # both models expose the lam = 2 mode on the sensor: the attacker can ride it
    C = np.array([[1.0, 1.0]])
    ts = TargetSet(
        pairs=(LtiPair(np.diag([2.0, 0.5]), C), LtiPair(np.diag([2.0, 0.7]), C)),
        period=4,
    )
    true_sched = np.zeros(8, dtype=int)
    guessed = np.ones(8, dtype=int)
    assert guess_attack_feasibility(ts, guessed, true_sched, sensor=0, t=7)


# ---------------------------------------------------------------------------
# generalized eigenspaces


def _nearest(spaces, lam):
    return min(spaces, key=lambda e: abs(e.eigenvalue - lam))


def _assert_eigenspace(A, space, multiplicity, atol=1e-6):
    """``G`` is orthonormal, has one column per unit of multiplicity, and
    ``(A - lam I)^p`` annihilates it at the longest chain length ``p``."""
    G = space.basis
    assert G.shape == (A.shape[0], multiplicity)
    assert sum(space.chain_lengths) == multiplicity
    assert_allclose(G.conj().T @ G, np.eye(multiplicity), atol=1e-12)
    B = A - space.eigenvalue * np.eye(A.shape[0])
    assert_allclose(np.linalg.matrix_power(B, space.chain_lengths[0]) @ G, 0.0, atol=atol)


def test_jordan_chains_diagonalizable():
    rng = np.random.default_rng(26)
    lams = np.array([0.5, -1.0, 2.0, 3.5])
    T = rng.standard_normal((4, 4)) + 2 * np.eye(4)
    A = T @ np.diag(lams) @ np.linalg.inv(T)
    spaces = jordan_chains(A)
    got = sorted(e.eigenvalue.real for e in spaces)
    assert_allclose(got, sorted(lams), atol=1e-7)
    for e in spaces:
        assert e.chain_lengths == (1,)
        assert np.isrealobj(e.basis)
        _assert_eigenspace(A, e, 1, atol=1e-8)


def test_jordan_chains_defective_structure():
    rng = np.random.default_rng(27)
    spec = [(3.0, 2), (3.0, 1), (-1.0, 2)]
    A, _ = matrix_with_jordan_structure(rng, spec)
    spaces = jordan_chains(A)
    by_eig = {round(e.eigenvalue.real): e for e in spaces}
    assert set(by_eig) == {3, -1}
    assert by_eig[3].chain_lengths == (2, 1)
    assert by_eig[-1].chain_lengths == (2,)
    _assert_eigenspace(A, by_eig[3], 3)
    _assert_eigenspace(A, by_eig[-1], 2)


def test_jordan_chains_complex_pair():
    r, th = 1.2, 0.7
    A = r * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    spaces = jordan_chains(A)
    eigs = sorted((e.eigenvalue for e in spaces), key=lambda z: z.imag)
    assert_allclose(eigs[0], r * np.exp(-1j * th), atol=1e-9)
    assert_allclose(eigs[1], r * np.exp(1j * th), atol=1e-9)
    for e in spaces:
        _assert_eigenspace(A, e, 1, atol=1e-12)


def test_jordan_chains_tolerates_defective_perturbation():
    rng = np.random.default_rng(28)
    A, _ = matrix_with_jordan_structure(rng, [(2.0, 3), (0.5, 1)])
    A = A + 1e-10 * rng.standard_normal(A.shape)
    e = _nearest(jordan_chains(A), 2.0)
    assert abs(e.eigenvalue - 2.0) < 1e-2
    assert e.basis.shape[1] == 3
    assert e.chain_lengths[0] == 3


def test_jordan_chains_splits_distinct_eigenvalues_closer_than_the_tolerance():
    # 1.0 and 1.0005 fall into one eigenvalue cluster, but A is diagonal:
    # (A - 1.00025 I) has no null space, so the cluster is split at a tenth
    # of the tolerance and each eigenvalue gets its own eigenspace
    A = np.diag([1.0, 1.0005, 0.3])
    spaces = jordan_chains(A)
    assert [e.eigenvalue for e in spaces] == [0.3, 1.0, 1.0005]
    for e in spaces:
        _assert_eigenspace(A, e, 1, atol=1e-12)
    # a conjugate pair 5e-4 apart: the sub-clusters are off the real axis by
    # more than half the sub-tolerance, so their eigenvalues stay complex
    A = np.array([[1.0, -2.5e-4], [2.5e-4, 1.0]])
    spaces = jordan_chains(A)
    assert_allclose([e.eigenvalue for e in spaces], [1.0 - 2.5e-4j, 1.0 + 2.5e-4j], rtol=1e-15)
    for e in spaces:
        _assert_eigenspace(A, e, 1, atol=1e-12)
    # the example plants of these seeds hold such close pairs
    for seed in (2, 123):
        assert analyze_target_set(generate_example_system(seed=seed, n=15, l=7).ts).failures == {}


def test_jordan_cluster_chain_raises_on_ambiguous_diameter():
    # eigenvalues chained 0.9 tol apart: single linkage merges a cluster of
    # diameter 3.6 tol, which is too wide to trust
    tol = 1e-3
    values = 1.0 + tol * np.array([0.0, 0.9, 1.8, 2.7, 3.6])
    assert [idx.tolist() for idx in _cluster_complex(values[:4], tol)] == [[0, 1, 2, 3]]
    with pytest.raises(ConditioningError):
        _cluster_complex(values, tol)


# ---------------------------------------------------------------------------
# eigenspace output stacks


def _shifted(A, C, space):
    """The pair ``(A - lam I, C)`` whose free response from the eigenspace
    basis gives the output stack ``c (A - lam I)^q G``."""
    return SimpleNamespace(A=A - space.eigenvalue * np.eye(A.shape[0]), C=C)


def test_v_stack_matches_output_derivative_expansion():
    # y_k = c A^k x0 with x0 = G z expands in binomials:
    # y_k = sum_q C(k, q) lam^(k-q) beta_q with beta = V z
    rng = np.random.default_rng(29)
    spec = [(3.0, 2), (3.0, 1), (-1.0, 2)]
    A, _ = matrix_with_jordan_structure(rng, spec)
    c = rng.standard_normal(5)
    space = _nearest(jordan_chains(A), 3.0)
    V = free_response([_shifted(A, c[None], space)], [0] * space.chain_lengths[0], space.basis, 0)
    assert V.shape == (2, 3)  # one row per power below the longest chain, 3 basis columns
    z = rng.standard_normal(3)
    beta = V @ z
    y = space.basis @ z
    for k in range(8):
        expected = sum(comb(k, q) * (3.0 ** (k - q)) * beta[q] for q in range(min(k, 1) + 1))
        assert abs((c @ y) - expected) < 1e-6 * (1 + abs(expected))
        y = A @ y


_STACK_MODES = (2.0, -0.5, 0.5, 0.5 + 1.0j, -1.0 + 0.5j)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(
    spec=st.lists(st.tuples(st.sampled_from(_STACK_MODES), st.integers(1, 3)), min_size=1, max_size=3),
    jordan=st.booleans(),
    n=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_shifted_free_response_replays_the_eigenspace_stack_bit_for_bit(spec, jordan, n, seed):
    """Each eigenspace's output stack, up to one row past its longest chain,
    keeps the bytes of the loop the cross-model test used to write out."""
    rng = np.random.default_rng(seed)
    A = matrix_with_jordan_structure(rng, spec, max_entry=6)[0] if jordan else rng.standard_normal((n, n))
    C = rng.standard_normal((2, A.shape[0]))
    for space in jordan_chains(A):
        for rows in range(1, space.chain_lengths[0] + 2):
            for sensor in range(2):
                got = free_response([_shifted(A, C, space)], [0] * rows, space.basis, sensor)
                want = reference_eigenspace_stack(A, C[sensor], space, rows)
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert got.tobytes() == want.tobytes()


def test_v_stack_pads_to_common_chain_length():
    rng = np.random.default_rng(30)
    A1, _ = matrix_with_jordan_structure(rng, [(2.0, 3), (5.0, 1)])
    A2, _ = matrix_with_jordan_structure(rng, [(2.0, 1), (7.0, 3)])
    c = rng.standard_normal(4)
    e1, e2 = _nearest(jordan_chains(A1), 2.0), _nearest(jordan_chains(A2), 2.0)
    steps = [0] * max(e1.chain_lengths[0], e2.chain_lengths[0])
    V1 = free_response([_shifted(A1, c[None], e1)], steps, e1.basis, 0)
    V2 = free_response([_shifted(A2, c[None], e2)], steps, e2.basis, 0)
    assert V1.shape == (3, 3) and V2.shape == (3, 1)  # r = max(p1, p2) = 3 rows
    assert np.linalg.matrix_rank(V1) == 3
    # beyond its chain length, a model's rows vanish
    assert_allclose(V2[1:, :], 0.0, atol=1e-9 * np.linalg.norm(A2, 2))


# ---------------------------------------------------------------------------
# cross-model unidentifiability


def _explained_by(pair, sensor, d, t):
    O = np.vstack([pair.C[sensor] @ np.linalg.matrix_power(pair.A, k) for k in range(t)])
    sol, *_ = np.linalg.lstsq(O, d[:t], rcond=None)
    return float(np.max(np.abs(O @ sol - d[:t])))


def test_cross_model_positive_with_witness_attack():
    # both models expose the shared lam = 2 mode
    c = np.array([[1.0, 1.0]])
    p1 = LtiPair(np.diag([2.0, 0.5]), c)
    p2 = LtiPair(np.diag([2.0, 0.7]), c)
    res = cross_model_unidentifiability(p1, p2, sensor=0)
    assert res.exists
    assert any(abs(z - 2.0) < 1e-6 for z in res.shared_eigenvalues)
    assert brute_force_unidentifiability_oracle(p1, p2, 0, t=3)
    d = construct_cross_model_attack(res.witness, p1, p2, sensor=0, horizon=8)
    assert float(np.max(np.abs(d))) > 1e-3
    assert _explained_by(p1, 0, d, 8) < 1e-8
    assert _explained_by(p2, 0, d, 8) < 1e-8


def test_cross_model_negative_disjoint_spectra():
    rng = np.random.default_rng(31)
    p1 = random_observable_pair(rng, 3, 1, rho=0.9)
    p2 = random_observable_pair(rng, 3, 1, rho=1.2)
    res = cross_model_unidentifiability(p1, p2, sensor=0)
    assert not res.exists
    assert res.shared_eigenvalues == ()
    assert not brute_force_unidentifiability_oracle(p1, p2, 0, t=5)


def test_cross_model_shared_eigenvalue_invisible_on_sensor():
    # lam = 2 is shared but model 2's sensor row annihilates its eigenvector,
    # so no common nonzero output exists
    p1 = LtiPair(np.diag([2.0, 0.5]), np.array([[1.0, 1.0]]))
    p2 = LtiPair(np.diag([2.0, 0.7]), np.array([[0.0, 1.0]]))
    res = cross_model_unidentifiability(p1, p2, sensor=0)
    assert not res.exists
    assert len(res.shared_eigenvalues) == 1
    assert not brute_force_unidentifiability_oracle(p1, p2, 0, t=3)


def test_cross_model_defective_shared_structure():
    rng = np.random.default_rng(32)
    A1, _ = matrix_with_jordan_structure(rng, [(2.0, 2), (0.5, 1)])
    A2, _ = matrix_with_jordan_structure(rng, [(2.0, 2), (-0.5, 1)])
    c1 = rng.standard_normal((1, 3))
    c2 = rng.standard_normal((1, 3))
    p1, p2 = LtiPair(A1, c1), LtiPair(A2, c2)
    res = cross_model_unidentifiability(p1, p2, sensor=0)
    assert res.exists == brute_force_unidentifiability_oracle(p1, p2, 0, t=5)
    if res.exists:
        d = construct_cross_model_attack(res.witness, p1, p2, 0, horizon=10)
        assert _explained_by(p1, 0, d, 10) < 1e-6
        assert _explained_by(p2, 0, d, 10) < 1e-6


def test_cross_model_complex_witness_realifies():
    # shared complex rotation mode; the witness is complex and must be
    # realified by adding the conjugate trajectory
    r, th = 1.1, 0.9
    rot = r * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    A1 = np.block([[rot, np.zeros((2, 1))], [np.zeros((1, 2)), np.array([[0.5]])]])
    A2 = np.block([[rot, np.zeros((2, 1))], [np.zeros((1, 2)), np.array([[-0.4]])]])
    c = np.array([[1.0, 0.3, 1.0]])
    p1, p2 = LtiPair(A1, c), LtiPair(A2, c)
    res = cross_model_unidentifiability(p1, p2, sensor=0)
    assert res.exists
    d = construct_cross_model_attack(res.witness, p1, p2, 0, horizon=12)
    assert np.isrealobj(d) and float(np.max(np.abs(d))) > 1e-6
    assert _explained_by(p1, 0, d, 12) < 1e-7
    assert _explained_by(p2, 0, d, 12) < 1e-7


# Shared modes, real and complex; a chain length of 2 makes one defective.
# Each model's own modes come from a set the other never uses.
_SHARED_MODES = (2.0, -0.5, 0.5 + 1.0j, -1.0 + 0.5j)
_OWN_MODES = ((-1.0, 1.5), (0.5, -1.5))
_own_lengths = st.lists(st.integers(1, 2), min_size=1, max_size=2)


def _modes_size(spec):
    return sum(r * (1 if complex(lam).imag == 0.0 else 2) for lam, r in spec)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    shared=st.sampled_from((None,) + _SHARED_MODES),
    lengths=st.tuples(st.integers(1, 2), st.integers(1, 2)),
    own=st.tuples(_own_lengths, _own_lengths),
    seed=st.integers(0, 2**32 - 1),
    same_row=st.booleans(),
)
def test_cross_model_witnesses_are_real_and_explained_by_both_models(
    shared, lengths, own, seed, same_row
):
    # exact pairs: the verdict must match the brute-force oracle, and every
    # witness must give a real, nonzero attack that both models explain
    rng = np.random.default_rng(seed)
    specs = []
    for i in range(2):
        spec = [] if shared is None else [(shared, lengths[i])]
        specs.append(spec + [(lam, r) for lam, r in zip(_OWN_MODES[i], own[i])])
    n = max(_modes_size(spec) for spec in specs)
    for i, spec in enumerate(specs):
        if _modes_size(spec) < n:
            spec.append((_OWN_MODES[i][0], n - _modes_size(spec)))
    A1, _ = matrix_with_jordan_structure(rng, specs[0], max_entry=6)
    A2, _ = matrix_with_jordan_structure(rng, specs[1], max_entry=6)
    c1 = rng.integers(-2, 3, (1, n)).astype(float)
    c2 = c1 if same_row else rng.integers(-2, 3, (1, n)).astype(float)
    p1, p2 = LtiPair(A1, c1), LtiPair(A2, c2)
    res = cross_model_unidentifiability(p1, p2, sensor=0)
    assert res.exists == brute_force_unidentifiability_oracle(p1, p2, 0, t=2 * n - 1)
    if not res.exists:
        return
    w = res.witness
    assert np.isrealobj(w.x0a_1) == (complex(w.eigenvalue).imag == 0.0)
    d = construct_cross_model_attack(w, p1, p2, 0, horizon=2 * n)
    assert np.isrealobj(d) and float(np.max(np.abs(d))) > 1e-3
    for pair in (p1, p2):
        assert _explained_by(pair, 0, d, 2 * n) < 1e-8 * (1.0 + float(np.max(np.abs(d))))


def test_brute_force_oracle_identical_models():
    rng = np.random.default_rng(33)
    p = random_observable_pair(rng, 3, 1)
    assert brute_force_unidentifiability_oracle(p, p, 0, t=5)


# ---------------------------------------------------------------------------
# whole-set audit


def test_analyze_target_set_flags_vulnerable_pair():
    c = np.ones((2, 2))
    p1 = LtiPair(np.diag([2.0, 0.5]), c)
    p2 = LtiPair(np.diag([2.0, 0.7]), c)
    p3 = LtiPair(np.diag([-1.5, 0.3]), c)
    ts = TargetSet(pairs=(p1, p2, p3), period=4)
    report = analyze_target_set(ts)
    assert (0, 1) in report.vulnerable_pairs
    assert report.vulnerable_pairs[(0, 1)] == (0, 1)  # both sensors see the mode
    assert (0, 2) not in report.vulnerable_pairs
    assert not report.failures
    assert not report.recommendations.disjoint_spectra
    assert any("cross-model" in line for line in report.findings())


def test_analyze_target_set_records_each_refused_configuration_once(monkeypatch):
    calls = []

    def counting(A):
        calls.append(A)
        return jordan_chains(A)

    monkeypatch.setattr(identifiability, "jordan_chains", counting)
    # five eigenvalues chained 0.9 tol apart, tol = 1e-3 (1 + max |eigenvalue|),
    # form one cluster of diameter 3.6 tol, which is refused
    tol = 2e-3 / (1.0 - 3.6e-3)
    c = np.array([[1.0, 1.0, 1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 2.0, 0.5, -2.0, 1.5]])
    p1 = LtiPair(np.diag(np.append(1.0 + tol * np.array([0.0, 0.9, 1.8, 2.7, 3.6]), 0.3)), c)
    p2 = LtiPair(np.diag([2.0, 0.5, -0.4, 0.1, -0.7, 0.8]), c)
    p3 = LtiPair(np.diag([-1.5, 0.25, 0.6, -0.2, 0.9, 0.05]), c)
    report = analyze_target_set(TargetSet(pairs=(p1, p2, p3), period=6))
    assert len(calls) == 3
    assert list(report.failures) == [0]
    assert "exceeds 3x the clustering tolerance" in report.failures[0]
    assert [line for line in report.findings() if "analysis failed" in line] == [
        f"configuration 0: analysis failed ({report.failures[0]})"
    ]

    # distinct eigenvalues closer than the tolerance are analysed: a
    # diagonal pair 5e-4 apart and configuration 0 of the seed-2 plant
    c = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 2.0]])
    p1 = LtiPair(np.diag([1.0, 1.0005, 0.3]), c)
    p2 = LtiPair(np.diag([2.0, 0.5, -0.4]), c)
    report = analyze_target_set(TargetSet(pairs=(p1, p2), period=6))
    assert report.failures == {}
    assert report.vulnerable_pairs == {}
    calls.clear()
    report = analyze_target_set(generate_example_system(seed=2, n=15, l=7).ts)
    assert len(calls) == 7
    assert report.failures == {}
    assert not any("analysis failed" in line for line in report.findings())


def test_analyze_target_set_clean_design():
    rng = np.random.default_rng(34)
    ts = random_target_set(rng, n=3, m=2, l=3, period=6)
    report = analyze_target_set(ts)
    assert report.vulnerable_pairs == {}
    assert report.sparse_margins == (0,) * 3 or all(m >= 0 for m in report.sparse_margins)
    assert report.recommendations.satisfied()
