import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose
from scipy.linalg import block_diag

from helpers import (
    ReferenceCentralKalmanFilter,
    ReferenceFusionEstimator,
    ReferenceLocalFilterBank,
    random_target_set,
    spd,
    standard_noise,
)
from mtident import (
    AttackSet,
    AttackSetError,
    CentralKalmanFilter,
    DecompositionError,
    FilterError,
    FusionEstimator,
    LocalFilterBank,
    LtiPair,
    ModelError,
    NoiseModel,
    TargetSet,
    bias_recursion,
    generate_example_system,
    kalman_decomposition,
    sample_schedule,
    simulate_stochastic,
)
from mtident.estimation import SensorDecomposition
from mtident.linalg import numerical_rank


# ---------------------------------------------------------------------------
# central filter


def test_central_filter_scalar_riccati_closed_form():
    # A = C = 1, Q = 0, R = 1, P0 = 1: P_k|k-1 = 1/(k+1), K_k = 1/(k+2)
    pair = LtiPair(np.array([[1.0]]), np.array([[1.0]]))
    nm = NoiseModel(
        Q=np.array([[0.0]]), R=np.array([[1.0]]), x0_mean=np.zeros(1), P0=np.array([[1.0]])
    )
    f = CentralKalmanFilter(nm)
    for k in range(6):
        assert_allclose(f.P_prior[0, 0], 1.0 / (k + 1), atol=1e-12)
        # a unit innovation moves the estimate by the gain K and whitens to
        # 1 / sqrt(P_yy)
        x = f.x_prior[0]
        res = f.step(pair, [x + 1.0])
        assert_allclose(res.x_post[0] - x, 1.0 / (k + 2), atol=1e-12)
        assert_allclose(res.residue[0] ** -2, 1.0 / (k + 1) + 1.0, atol=1e-12)


def _textbook_filter(pairs, sched, noise, ys):
    # independent dense implementation with explicit inverses
    x = noise.x0_mean.copy()
    P = noise.P0.copy()
    xs, zs, Ps = [], [], []
    for k, y in enumerate(ys):
        A, C = pairs[sched[k]].A, pairs[sched[k]].C
        Pyy = C @ P @ C.T + noise.R
        K = P @ C.T @ np.linalg.inv(Pyy)
        innov = y - C @ x
        L = np.linalg.cholesky(Pyy)  # Pyy = L L', so z = L^{-1} innov is white
        zs.append(np.linalg.solve(L, innov))
        x = x + K @ innov
        xs.append(x.copy())
        P = P - K @ C @ P
        x = A @ x
        P = A @ P @ A.T + noise.Q
        Ps.append(P.copy())
    return np.array(xs), np.array(zs), np.array(Ps)


def test_central_filter_matches_textbook_implementation():
    rng = np.random.default_rng(41)
    ts = random_target_set(rng, n=4, m=3, l=2)
    nm = standard_noise(rng, 4, 3)
    sched = sample_schedule(ts, 25)
    traj = simulate_stochastic(ts, sched, nm, np.random.default_rng(1))
    f = CentralKalmanFilter(nm)
    xs, zs = [], []
    for k in range(25):
        st = f.step(ts.pairs[sched[k]], traj.outputs[k])
        xs.append(st.x_post)
        zs.append(st.residue)
    exp_x, exp_z, exp_P = _textbook_filter(ts.pairs, sched, nm, traj.outputs)
    assert_allclose(np.array(xs), exp_x, atol=1e-9)
    assert_allclose(np.array(zs), exp_z, atol=1e-9)
    assert_allclose(f.P_prior, exp_P[-1], atol=1e-9)


def test_central_filter_residues_are_white():
    rng = np.random.default_rng(42)
    ts = random_target_set(rng, n=3, m=2, l=3)
    nm = standard_noise(rng, 3, 2)
    sched = sample_schedule(ts, 4000)
    traj = simulate_stochastic(ts, sched, nm, np.random.default_rng(2))
    f = CentralKalmanFilter(nm)
    zs = np.array([f.step(ts.pairs[sched[k]], traj.outputs[k]).residue for k in range(4000)])
    assert abs(float(np.mean(zs))) < 3.0 / np.sqrt(zs.size)
    assert abs(float(np.var(zs)) - 1.0) < 0.08
    # adjacent-step correlation of each component should vanish
    for c in range(2):
        corr = np.corrcoef(zs[:-1, c], zs[1:, c])[0, 1]
        assert abs(corr) < 0.06


def test_central_filter_active_subset_matches_reduced_model():
    rng = np.random.default_rng(43)
    ts = random_target_set(rng, n=3, m=4, l=2)
    nm = standard_noise(rng, 3, 4)
    sched = sample_schedule(ts, 15)
    traj = simulate_stochastic(ts, sched, nm, np.random.default_rng(3))
    keep = (0, 2)
    f_sub = CentralKalmanFilter(nm)
    nm_red = NoiseModel(Q=nm.Q, R=nm.R[np.ix_(keep, keep)], x0_mean=nm.x0_mean, P0=nm.P0)
    pairs_red = tuple(LtiPair(p.A, p.C[list(keep)]) for p in ts.pairs)
    f_red = CentralKalmanFilter(nm_red)
    f_sub.restrict(keep)
    for k in range(15):
        a = f_sub.step(ts.pairs[sched[k]], traj.outputs[k])
        b = f_red.step(pairs_red[sched[k]], traj.outputs[k][list(keep)])
        assert_allclose(a.x_post, b.x_post, atol=1e-10)
        assert_allclose(a.residue, b.residue, atol=1e-10)


def test_central_filter_translation_equivalence():
    # running on data translated by a known trajectory t_k (prior shifted by
    # -t_0, each predict corrected by -delta_k) reproduces the original
    # filter exactly, shifted by t_k; this is the error-coordinate engine
    rng = np.random.default_rng(44)
    ts = random_target_set(rng, n=3, m=2, l=2)
    nm = standard_noise(rng, 3, 2)
    sched = sample_schedule(ts, 20)
    traj = simulate_stochastic(ts, sched, nm, np.random.default_rng(4))
    t0 = rng.standard_normal(3)
    deltas = rng.standard_normal((20, 3))
    f_ref = CentralKalmanFilter(nm)
    f_tr = CentralKalmanFilter(nm, mean_offset=-t0)
    t = t0.copy()
    for k in range(20):
        pair = ts.pairs[sched[k]]
        a = f_ref.step(pair, traj.outputs[k])
        b = f_tr.step(pair, traj.outputs[k] - pair.C @ t)
        assert_allclose(b.residue, a.residue, atol=1e-10)
        assert_allclose(b.x_post, a.x_post - t, atol=1e-10)
        # t_{k+1} = A_k t_k + delta_k: the translated filter absorbs delta
        t = pair.A @ t + deltas[k]
        f_tr.shift_prediction(-deltas[k])
    assert_allclose(f_tr.x_prior, f_ref.x_prior - t, atol=1e-9)


# ---------------------------------------------------------------------------
# attack bias propagation


def test_bias_recursion_equals_paired_filter_difference():
    rng = np.random.default_rng(45)
    ts = random_target_set(rng, n=4, m=3, l=2)
    nm = standard_noise(rng, 4, 3)
    sched = sample_schedule(ts, 40)
    atk = AttackSet([1, 2], ts.m)
    d = rng.standard_normal((40, 2)) * 2.0
    traj = simulate_stochastic(ts, sched, nm, np.random.default_rng(5))
    y_att = traj.outputs + d @ atk.D.T  # same noise realization, attack added
    f0 = CentralKalmanFilter(nm)
    f1 = CentralKalmanFilter(nm)
    dz_obs, de_obs = [], []
    for k in range(40):
        pair = ts.pairs[sched[k]]
        s0 = f0.step(pair, traj.outputs[k])
        s1 = f1.step(pair, y_att[k])
        dz_obs.append(s1.residue - s0.residue)
        de_obs.append(s1.x_post - s0.x_post)
    trace = bias_recursion(ts, sched, nm, atk, d)
    assert_allclose(np.array(dz_obs), trace.delta_z, atol=1e-9)
    # the recursion reports the attack-induced estimate shift = -(error shift)
    assert_allclose(-np.array(de_obs), trace.delta_e, atol=1e-9)


def test_bias_recursion_is_linear_in_the_attack():
    rng = np.random.default_rng(46)
    ts = random_target_set(rng, n=3, m=2, l=2)
    nm = standard_noise(rng, 3, 2)
    sched = sample_schedule(ts, 30)
    atk = AttackSet([0], ts.m)
    d1 = rng.standard_normal((30, 1))
    d2 = rng.standard_normal((30, 1))
    t1 = bias_recursion(ts, sched, nm, atk, d1)
    t2 = bias_recursion(ts, sched, nm, atk, d2)
    t12 = bias_recursion(ts, sched, nm, atk, d1 + d2)
    assert_allclose(t12.delta_z, t1.delta_z + t2.delta_z, atol=1e-11)
    assert_allclose(t12.delta_e, t1.delta_e + t2.delta_e, atol=1e-11)


def test_bias_recursion_rejects_wrong_shaped_attack_values():
    rng = np.random.default_rng(47)
    ts = random_target_set(rng, n=3, m=2, l=2)
    sched = sample_schedule(ts, 10)
    with pytest.raises(AttackSetError):
        bias_recursion(ts, sched, standard_noise(rng, 3, 2), AttackSet([0], ts.m), np.zeros((9, 1)))


# ---------------------------------------------------------------------------
# per-sensor decomposition


def test_kalman_decomposition_block_structure():
    ts = generate_example_system(seed=7, n=10, l=2).ts
    expected_unobs = [2, 4, 6, 6, 8] * 2  # block reachability, two sensor banks
    for s in range(10):
        dec = kalman_decomposition(ts, s)
        assert dec.n_unobs == expected_unobs[s]
        B = np.hstack([dec.T_uo, dec.T_o])
        assert_allclose(B.T @ B, np.eye(10), atol=1e-10)
        for j, p in enumerate(ts.pairs):
            # C kills the unobservable subspace; A leaves it invariant
            assert_allclose(p.C[s] @ dec.T_uo, 0.0, atol=1e-9)
            assert_allclose(dec.T_o.T @ p.A @ dec.T_uo, 0.0, atol=1e-8)
            assert_allclose(dec.T_o.T @ p.A @ dec.T_o, dec.A_red[j], atol=1e-12)


def test_decomposition_rejects_model_dependent_subspace():
    # sensor 0 sees coordinate 0 under model 0 but coordinate 1 under model 1
    A = np.diag([0.5, 0.8])
    pairs = (
        LtiPair(A, np.array([[1.0, 0.0]])),
        LtiPair(A, np.array([[0.0, 1.0]])),
    )
    ts = TargetSet(pairs=pairs, period=4, key=0)
    with pytest.raises(DecompositionError, match="unobservable subspace differs for configuration 1"):
        kalman_decomposition(ts, 0)


@pytest.mark.parametrize(
    "C0, C1, message",
    [
        # sensor 0 sees one coordinate under model 0 and both under model 1
        ([1.0, 0.0], [1.0, 1.0], "unobservable dimension differs for configuration 1"),
        ([0.0, 0.0], [0.0, 0.0], "sensor 0 observes nothing"),
    ],
)
def test_decomposition_rejects_sensors_without_reduced_filters(C0, C1, message):
    A = np.diag([0.5, 0.8])
    ts = TargetSet(pairs=(LtiPair(A, np.array([C0])), LtiPair(A, np.array([C1]))), period=4, key=0)
    with pytest.raises(DecompositionError, match=message):
        kalman_decomposition(ts, 0)


def test_decomposition_fully_observable_sensor():
    rng = np.random.default_rng(47)
    ts = random_target_set(rng, n=3, m=2, l=2)
    dec = kalman_decomposition(ts, 0)
    assert dec.n_unobs == 0 and dec.n_obs == 3
    assert dec.T_uo.shape == (3, 0)


# ---------------------------------------------------------------------------
# local filter bank


class _BlockBank:
    """Reference bank: one filter per sensor, with the joint covariance kept
    as ``(s1, s2)`` blocks (bank order, ``s1`` first) updated block by block:

        P^+_{s1,s2} = (I - K_1 C_1) P^-_{s1,s2} (I - K_2 C_2)' + K_1 R_{s1,s2} K_2'
        P^-_{s1,s2} <- A_1 P^+_{s1,s2} A_2' + T_1' Q T_2
    """

    def __init__(self, ts, noise, sensors, decomps):
        self.sensors = tuple(sensors)
        self.decomps = decomps
        self.zeta_prior = {s: decomps[s].T_o.T @ noise.x0_mean for s in self.sensors}
        self.P_prior, self.Q_red, self.R_red = {}, {}, {}
        for i, s1 in enumerate(self.sensors):
            T1 = decomps[s1].T_o
            for s2 in self.sensors[i:]:
                T2 = decomps[s2].T_o
                self.P_prior[(s1, s2)] = T1.T @ noise.P0 @ T2
                self.Q_red[(s1, s2)] = T1.T @ noise.Q @ T2
                self.R_red[(s1, s2)] = float(noise.R[s1, s2])

    def step(self, j, y):
        gains, ikc, z, zeta_post = {}, {}, {}, {}
        for s in self.sensors:
            dec = self.decomps[s]
            C = dec.C_red[j]
            Pp = self.P_prior[(s, s)]
            den = float(C @ Pp @ C) + self.R_red[(s, s)]
            K = (Pp @ C) / den
            nu = float(y[s] - C @ self.zeta_prior[s])
            gains[s] = K
            ikc[s] = np.eye(dec.n_obs) - np.outer(K, C)
            z[s] = nu / np.sqrt(den)
            zeta_post[s] = self.zeta_prior[s] + K * nu
        P_post = {}
        for i, s1 in enumerate(self.sensors):
            for s2 in self.sensors[i:]:
                P_post[(s1, s2)] = (
                    ikc[s1] @ self.P_prior[(s1, s2)] @ ikc[s2].T
                    + self.R_red[(s1, s2)] * np.outer(gains[s1], gains[s2])
                )
        for i, s1 in enumerate(self.sensors):
            A1 = self.decomps[s1].A_red[j]
            self.zeta_prior[s1] = A1 @ zeta_post[s1]
            for s2 in self.sensors[i:]:
                A2 = self.decomps[s2].A_red[j]
                self.P_prior[(s1, s2)] = A1 @ P_post[(s1, s2)] @ A2.T + self.Q_red[(s1, s2)]
        return z, zeta_post, P_post

    def shift_prediction(self, delta):
        for s in self.sensors:
            self.zeta_prior[s] = self.zeta_prior[s] + self.decomps[s].T_o.T @ delta


@functools.lru_cache(maxsize=None)
def _bank_plant():
    plant = generate_example_system(seed=11, n=10, l=2)
    ts, noise = plant.ts, plant.noise
    return ts, noise, [kalman_decomposition(ts, s) for s in range(ts.m)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_local_bank_matches_per_block_reference(data):
    ts, noise, decomps = _bank_plant()
    sensors = tuple(range(ts.m))
    T = data.draw(st.integers(1, 8))
    sched = data.draw(st.lists(st.integers(0, ts.l - 1), min_size=T, max_size=T))
    values = st.floats(-5.0, 5.0)
    ys = data.draw(arrays(float, (T, ts.m), elements=values))
    shifts = data.draw(arrays(float, (T, ts.n), elements=values))
    bank = LocalFilterBank(ts, noise, decomps)
    ref = _BlockBank(ts, noise, sensors, decomps)
    blocks = [bank.rows((s,)) for s in sensors]
    for k in range(T):
        got = bank.step(sched[k], ys[k])
        z, zeta_post, P_post = ref.step(sched[k], ys[k])
        for i, s1 in enumerate(sensors):
            assert_allclose(got.residues[i], z[s1], atol=1e-9)
            assert_allclose(got.zeta_post[blocks[i]], zeta_post[s1], atol=1e-9)
            for j in range(i, len(sensors)):
                blk = P_post[(s1, sensors[j])]
                assert_allclose(got.P_post[np.ix_(blocks[i], blocks[j])], blk, atol=1e-9)
        bank.shift_prediction(shifts[k])
        ref.shift_prediction(shifts[k])


def test_local_bank_needs_every_sensor_in_sensor_order():
    ts, noise, decomps = _bank_plant()
    for partial in (decomps[:-1], decomps[::-1]):
        with pytest.raises(ModelError, match="sensor order"):
            LocalFilterBank(ts, noise, partial)


def test_restarted_bank_equals_a_fresh_bank_whatever_the_original_did():
    ts, noise, decomps = _bank_plant()
    rng = np.random.default_rng(53)
    offset = rng.standard_normal(ts.n)
    template = LocalFilterBank(ts, noise, decomps)
    for k in range(3):  # the template's own steps must not leak into restarts
        template.step(k % ts.l, rng.standard_normal(ts.m))
        template.shift_prediction(rng.standard_normal(ts.n))
    restarted = template.restarted(offset)
    fresh = LocalFilterBank(ts, noise, decomps).restarted(offset)
    for k in range(4):
        y, w = rng.standard_normal(ts.m), rng.standard_normal(ts.n)
        got, want = restarted.step(k % ts.l, y), fresh.step(k % ts.l, y)
        for name in ("residues", "zeta_post", "P_post"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        restarted.shift_prediction(w)
        fresh.shift_prediction(w)


def test_a_restarted_bank_writes_to_none_of_its_templates_arrays():
    ts, noise, decomps = _bank_plant()
    rng = np.random.default_rng(59)
    template = LocalFilterBank(ts, noise, decomps)
    fusion_template = FusionEstimator(template, range(1, ts.m))
    shared = [
        template.offsets, template.H, *template.A_blk, *template._A_T, *template.C_blk, template._mask,
        template.Q_red, template._P0, template._R, template._R_diag,
        fusion_template._rows, fusion_template.H, fusion_template._HHt, fusion_template._eye,
    ]
    before = [M.tobytes() for M in shared]
    bank = template.restarted(rng.standard_normal(ts.n))
    fusion = FusionEstimator(bank, range(ts.m))
    for k in range(4):
        step = bank.step(k % ts.l, rng.standard_normal(ts.m))
        fusion.fuse(step.zeta_post, step.P_post)
        fusion_template.fuse(step.zeta_post, step.P_post)
        bank.shift_prediction(rng.standard_normal(ts.n))
    assert bank.P_prior is not template.P_prior
    for M, data in zip(shared, before):
        assert M.tobytes() == data
        with pytest.raises(ValueError, match="read-only"):
            M[...] = 0


def test_a_plant_decides_each_active_set_once_for_all_its_restarted_banks(monkeypatch):
    # the observability verdict and fusion's operator arrays depend only on
    # the plant and the active set: every bank restarted from one template
    # reuses them, and only the [H | zeta]' buffer is each estimator's own
    ts, noise, decomps = _bank_plant()
    svd, svds = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: svds.append(a[0].shape) or svd(*a, **kw))
    active, blind = tuple(range(1, ts.m)), (1, 2, 3, 4)  # sensor 0 alone sees its block
    for plant_svds in (2, 4):  # a second bank of the same plant is a second cache
        template = LocalFilterBank(ts, noise, decomps)
        first = FusionEstimator(template, active)
        for bank in (template.restarted(np.zeros(ts.n)), template.restarted(np.ones(ts.n))):
            for sensors in (active, blind, active):
                assert FusionEstimator.removal_keeps_observability(bank, sensors) == (sensors == active)
            with pytest.raises(DecompositionError, match="jointly observe"):
                FusionEstimator(bank, blind)
            second = FusionEstimator(bank, active)
            for name in ("_rows", "H", "_HHt", "_eye"):
                M = getattr(second, name)
                assert M is getattr(first, name), name
                with pytest.raises(ValueError, match="read-only"):
                    M[...] = 0
            assert second._HzT.flags.writeable and not np.shares_memory(second._HzT, first._HzT)
            assert second._HzT[:-1].tobytes() == first._HzT[:-1].tobytes() == first.H.T.tobytes()
        assert len(svds) == plant_svds


@functools.lru_cache(maxsize=None)
def _example_plant(n, l):
    return generate_example_system(seed=n + l, n=n, l=l)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_step_methods_match_the_reference_steps_bit_for_bit(data):
    # the bank and fusion steps form the reference steps' floating-point
    # operations in the same order on the same operands, so they match bit for
    # bit; the first steps fuse a rank-deficient covariance. The central step
    # forms the same update from the whitened factor W = U^{-T} C P instead of
    # the gain, a reassociation that moves only rounding: its drift stays
    # below 1e-13 relative, in norm, over these draws, so 1e-12 leaves 10x
    plant = _example_plant(data.draw(st.sampled_from((5, 10, 15))), data.draw(st.integers(1, 4)))
    ts, noise = plant.ts, plant.noise
    order = data.draw(st.permutations(range(ts.m)))
    size = next(i for i in range(1, ts.m + 1) if FusionEstimator.removal_keeps_observability(plant.bank, order[:i]))
    sensors = tuple(order[: data.draw(st.integers(size, ts.m))])
    central_active = None if len(sensors) == ts.m else sensors
    T = 25
    sched = data.draw(st.lists(st.integers(0, ts.l - 1), min_size=T, max_size=T))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    offset, ys, ws = rng.standard_normal(ts.n), rng.standard_normal((T, ts.m)), rng.standard_normal((T, ts.n))
    # a removal mid-run restricts both again, to a drawn subset that still
    # observes the state; a stale restricted C or fusion entry shows there
    kept = data.draw(st.permutations(sensors))
    size = next(i for i in range(1, len(kept) + 1) if FusionEstimator.removal_keeps_observability(plant.bank, kept[:i]))
    later, switch = tuple(kept[: data.draw(st.integers(size, len(kept)))]), data.draw(st.integers(1, T - 1))
    central = CentralKalmanFilter(noise, mean_offset=offset)
    if central_active is not None:
        central.restrict(central_active)
    ref_central = ReferenceCentralKalmanFilter(noise, mean_offset=offset)
    bank = plant.bank.restarted(offset)
    ref_bank = ReferenceLocalFilterBank(ts, noise, plant.bank.decomps).restarted(offset)
    fusion, ref_fusion = FusionEstimator(bank, sensors), ReferenceFusionEstimator(ref_bank, sensors)

    def outputs(central, bank, fusion, k, **active):
        c = central.step(ts.pairs[sched[k]], ys[k], **active)
        b = bank.step(sched[k], ys[k])
        f = fusion.fuse(b.zeta_post, b.P_post)
        central.shift_prediction(ws[k])
        bank.shift_prediction(ws[k])
        return (c.residue, c.x_post, c.P_prior, central.x_prior, central.P_prior,
                b.residues, b.zeta_post, b.P_post, bank.zeta_prior, bank.P_prior, f.x_star, f.cov, f.rank)

    for k in range(T):
        if k == switch:
            central.restrict(later)
            central_active = later
            fusion, ref_fusion = FusionEstimator(bank, later), ReferenceFusionEstimator(ref_bank, later)
        got = outputs(central, bank, fusion, k)
        want = outputs(ref_central, ref_bank, ref_fusion, k, active=central_active)
        for i, (g, w) in enumerate(zip(got[:5], want[:5])):
            assert np.linalg.norm(g - w) <= 1e-12 * np.linalg.norm(w), (k, i)
        for i, (g, w) in enumerate(zip(got[5:], want[5:]), start=5):
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes(), (k, i)


@pytest.mark.parametrize("l", range(1, 6))
def test_observability_rule_matches_the_coordinates_the_sensors_see(l):
    # each sensor of the example plant sees a set of state coordinates: its
    # T_o has unit rows there and rounding-level rows elsewhere. Sensors
    # observe the state jointly when those sets cover every coordinate. On
    # n = 5 plants the rounding sits above the default rank cutoff, which
    # called 246 of these 5,115 subsets jointly observable although they are not
    bank = _example_plant(5, l).bank
    ts = bank.ts
    sees = [set(np.flatnonzero(np.linalg.norm(d.T_o, axis=1) > 0.5)) for d in bank.decomps]
    for size in range(1, ts.m + 1):
        for subset in itertools.combinations(range(ts.m), size):
            covered = set().union(*(sees[s] for s in subset)) == set(range(ts.n))
            assert FusionEstimator.removal_keeps_observability(bank, subset) == covered, subset


@settings(max_examples=48, deadline=None, derandomize=True)
@given(data=st.data())
def test_fusion_never_beats_the_central_filter(data):
    # the fused estimate is a linear function of the active sensors' outputs,
    # and the central filter over the same outputs is the optimal one, so
    # cov_fused - P+ is PSD at every step. Both covariances depend only on
    # the schedule and the active set, so the outputs are all zero. P+ comes
    # from the textbook update of the prior that the central step used
    plant = _example_plant(data.draw(st.sampled_from((5, 10, 15))), data.draw(st.integers(1, 4)))
    ts, noise = plant.ts, plant.noise
    order = data.draw(st.permutations(range(ts.m)))
    size = next(i for i in range(1, ts.m + 1) if FusionEstimator.removal_keeps_observability(plant.bank, order[:i]))
    sensors = list(order[: data.draw(st.integers(size, ts.m))])
    sched = data.draw(st.lists(st.integers(0, ts.l - 1), min_size=60, max_size=60))
    central = CentralKalmanFilter(noise)
    central.restrict(sensors)
    bank = plant.bank.restarted(np.zeros(ts.n))
    fusion = FusionEstimator(bank, sensors)
    R = noise.R[np.ix_(sensors, sensors)]
    y = np.zeros(ts.m)
    for j in sched:
        P = central.step(ts.pairs[j], y).P_prior
        C = ts.pairs[j].C[sensors]
        P_post = P - P @ C.T @ np.linalg.solve(C @ P @ C.T + R, C @ P)
        step = bank.step(j, y)
        cov = fusion.fuse(step.zeta_post, step.P_post).cov
        gap = np.linalg.eigvalsh(cov - 0.5 * (P_post + P_post.T)).min()
        assert gap >= -1e-8 * np.linalg.norm(P_post, 2), (j, gap)


def _dense_joint_bank(decomps, sensors, ts, noise, sched, ys):
    """Independent implementation: stack the per-sensor filters into one
    block system and propagate the exact joint covariance densely."""
    dims = [decomps[s].n_obs for s in sensors]
    offs = np.cumsum([0] + dims)
    N = offs[-1]
    zeta = np.concatenate([decomps[s].T_o.T @ noise.x0_mean for s in sensors])
    Sigma = np.zeros((N, N))
    Qbig = np.zeros((N, N))
    for i, s1 in enumerate(sensors):
        for j, s2 in enumerate(sensors):
            T1, T2 = decomps[s1].T_o, decomps[s2].T_o
            Sigma[offs[i] : offs[i + 1], offs[j] : offs[j + 1]] = T1.T @ noise.P0 @ T2
            Qbig[offs[i] : offs[i + 1], offs[j] : offs[j + 1]] = T1.T @ noise.Q @ T2
    Rsub = noise.R[np.ix_(sensors, sensors)]
    out = []
    for k, y in enumerate(ys):
        j = sched[k]
        Cb = block_diag(*[decomps[s].C_red[j].reshape(1, -1) for s in sensors])
        Ab = block_diag(*[decomps[s].A_red[j] for s in sensors])
        Ks = []
        for i, s in enumerate(sensors):
            C = decomps[s].C_red[j]
            P = Sigma[offs[i] : offs[i + 1], offs[i] : offs[i + 1]]
            den = float(C @ P @ C) + noise.R[s, s]
            Kfull = np.zeros((dims[i], len(sensors)))
            Kfull[:, i] = (P @ C) / den
            Ks.append(Kfull)
        K = np.vstack(Ks)
        innov = y[list(sensors)] - Cb @ zeta
        zeta = zeta + K @ innov
        I_KC = np.eye(N) - K @ Cb
        Sigma = I_KC @ Sigma @ I_KC.T + K @ Rsub @ K.T
        out.append((zeta.copy(), Sigma.copy()))
        zeta = Ab @ zeta
        Sigma = Ab @ Sigma @ Ab.T + Qbig
    return offs, out


def test_local_bank_matches_dense_joint_implementation():
    ts, noise, decomps = _bank_plant()
    sensors = tuple(range(ts.m))
    bank = LocalFilterBank(ts, noise, decomps)
    sched = sample_schedule(ts, 8)
    rng = np.random.default_rng(48)
    ys = rng.standard_normal((8, 10))
    offs, dense = _dense_joint_bank(decomps, sensors, ts, noise, sched, ys)
    assert np.array_equal(bank.offsets, offs)
    for k in range(8):
        step = bank.step(int(sched[k]), ys[k])
        zeta_d, Sigma_d = dense[k]
        assert_allclose(step.zeta_post, zeta_d, atol=1e-9)
        assert_allclose(step.P_post, Sigma_d, atol=1e-9)


@pytest.mark.parametrize("n,l,seed", [(15, 7, 7), (10, 2, 11)])  # the example plant, and n = 10
def test_local_bank_blocks_equal_scipy_block_diag(n, l, seed):
    bank = generate_example_system(seed=seed, n=n, l=l).bank
    decs = bank.decomps
    pairs = [(bank._mask, block_diag(*(np.ones((d.n_obs, 1)) for d in decs)))]
    for j in range(l):
        pairs.append((bank.A_blk[j], block_diag(*(d.A_red[j] for d in decs))))
        pairs.append((bank.C_blk[j], block_diag(*(d.C_red[j].reshape(1, -1) for d in decs))))
    for got, want in pairs:
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def test_local_bank_covariance_is_calibrated_empirically():
    # the reported joint covariance matches the sample covariance of the
    # actual reduced estimation errors T_o' x - zeta
    ts, noise, decomps = _bank_plant()
    template = LocalFilterBank(ts, noise, decomps)
    rows = template.rows((3, 4))
    sched = sample_schedule(ts, 4)
    trials = 1200
    errs = []
    P_last = None
    for t in range(trials):
        rng = np.random.default_rng(1000 + t)
        traj = simulate_stochastic(ts, sched, noise, rng)
        bank = template.restarted(np.zeros(ts.n))  # at the prior
        for k in range(4):
            step = bank.step(int(sched[k]), traj.outputs[k])
        P_last = step.P_post[np.ix_(rows, rows)]
        errs.append(bank.H[rows] @ traj.states[3] - step.zeta_post[rows])
    errs = np.array(errs)
    emp = errs.T @ errs / trials
    ref = P_last
    assert np.mean(np.abs(errs)) < 10  # errors are bounded, not degenerate
    scale = float(np.linalg.norm(ref))
    assert float(np.linalg.norm(emp - ref)) < 0.15 * scale


def test_local_bank_residues_are_standardized():
    # stable variant: direct long simulation would overflow with the
    # default unstable block dynamics
    plant = generate_example_system(seed=11, n=10, l=2, radius=(0.55, 0.9))
    ts, noise, bank = plant.ts, plant.noise, plant.bank
    sched = sample_schedule(ts, 600)
    traj = simulate_stochastic(ts, sched, noise, np.random.default_rng(49))
    zs = np.array([bank.step(int(sched[k]), traj.outputs[k]).residues for k in range(600)])
    assert abs(float(np.mean(zs))) < 0.05
    assert abs(float(np.var(zs)) - 1.0) < 0.12


# ---------------------------------------------------------------------------
# fusion


def _trivial_decomp(sensor, n):
    return SensorDecomposition(
        sensor=sensor,
        T_uo=np.zeros((n, 0)),
        T_o=np.eye(n),
        A_red=(np.eye(n),),
        C_red=(np.ones(n),),
    )


def _design_matrix(decomps, sensors, n):
    """Lifted GLS design: block row ``s`` is ``[0 .. -T_uo,s .. 0  I]``, one
    nuisance column group per sensor and ``x`` last."""
    widths = [decomps[s].n_unobs for s in sensors]
    cols = sum(widths) + n
    W = np.zeros((len(sensors) * n, cols))
    off = 0
    for i, s in enumerate(sensors):
        u = decomps[s].n_unobs
        W[i * n : (i + 1) * n, off : off + u] = -decomps[s].T_uo
        W[i * n : (i + 1) * n, cols - n :] = np.eye(n)
        off += u
    return W


def test_fusion_averages_independent_full_estimates():
    # two fully observing sensors with identity covariances and no cross
    # correlation: the fused estimate is the plain average
    n = 3
    ts = TargetSet(pairs=(LtiPair(np.eye(n), np.ones((2, n))),), period=1, key="k")
    noise = standard_noise(np.random.default_rng(0), n, 2)
    bank = LocalFilterBank(ts, noise, [_trivial_decomp(0, n), _trivial_decomp(1, n)])
    fus = FusionEstimator(bank, (0, 1))
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([5.0, 4.0, 3.0])
    res = fus.fuse(np.concatenate([a, b]), np.eye(2 * n))
    assert res.rank == 2 * n
    assert_allclose(res.x_star, 0.5 * (a + b), rtol=1e-14)
    assert_allclose(res.cov, 0.5 * np.eye(n), atol=1e-14)


def test_fusion_matches_explicit_gls_oracle():
    bank = generate_example_system(seed=11, n=10, l=2).bank
    # the bank holds sensors fusion leaves out, and the active set lists the
    # rest out of order, so fuse must pick and reorder the active rows
    sensors = (4, 0, 2)
    rng = np.random.default_rng(51)
    # any symmetric positive definite joint covariance will do for the algebra
    big = spd(rng, bank.H.shape[0])
    zeta = rng.standard_normal(bank.H.shape[0])
    fus = FusionEstimator(bank, sensors)
    res = fus.fuse(zeta, big)

    # oracle: plain GLS (H' P^-1 H)^-1 H' P^-1 zeta on the active rows
    offs = bank.offsets
    rows = np.concatenate([np.arange(offs[s], offs[s + 1]) for s in sensors])
    H = np.vstack([bank.decomps[s].T_o.T for s in sensors])
    Pi = np.linalg.inv(big[np.ix_(rows, rows)])
    cov = np.linalg.inv(H.T @ Pi @ H)
    assert res.rank == rows.size
    assert_allclose(res.x_star, cov @ H.T @ Pi @ zeta[rows], atol=1e-7)
    assert_allclose(res.cov, cov, atol=1e-7)


def test_fusion_matches_explicit_gls_oracle_on_bank_covariance():
    # the joint covariance of a real bank after its first update is the
    # lifted prior plus measurement terms: rank 25 = n + m of 72, so plain
    # GLS does not exist. Fusion must be the limit eps -> 0 of the GLS fit
    # with covariance P + eps I, which it approaches linearly in eps.
    plant = generate_example_system(seed=7, n=15, l=7, period=30)
    ts, noise, bank = plant.ts, plant.noise, plant.bank
    y = noise.R_factor @ np.random.default_rng(53).standard_normal(ts.m)
    st = bank.step(0, y)
    res = FusionEstimator(bank, range(ts.m)).fuse(st.zeta_post, st.P_post)
    assert np.linalg.matrix_rank(st.P_post) == res.rank == ts.n + ts.m

    H, N = bank.H, bank.H.shape[0]
    gaps = []
    for eps in (1e-6, 1e-8):
        Si = np.linalg.inv(st.P_post + eps * np.eye(N))
        cov = np.linalg.inv(H.T @ Si @ H)
        x = cov @ H.T @ Si @ st.zeta_post
        gaps.append(
            (
                np.linalg.norm(x - res.x_star) / np.linalg.norm(res.x_star),
                np.abs(cov - res.cov).max(),
            )
        )
    (x6, c6), (x8, c8) = gaps
    # the eps-GLS is off by O(eps), so a hundredfold smaller eps gives a
    # hundredfold smaller gap
    assert 1e-7 < x6 < 1e-3 and 1e-7 < c6 < 1e-3
    assert_allclose([x8 / x6, c8 / c6], 1e-2, rtol=0.05)


def test_fusion_rejects_a_non_finite_covariance():
    ts, noise, decomps = _bank_plant()
    bank = LocalFilterBank(ts, noise, decomps)
    st = bank.step(0, np.zeros(ts.m))
    P = st.P_post.copy()
    P[3, 5] = P[5, 3] = np.nan
    with pytest.raises(FilterError, match="not finite"):
        FusionEstimator(bank, range(ts.m)).fuse(st.zeta_post, P)


@functools.lru_cache(maxsize=None)
def _example_bank():
    # fusion and the removal test only read the bank's layout, never step it
    return generate_example_system(seed=7, n=15, l=7, period=30).bank


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_fusion_of_exact_local_estimates_is_unbiased(data):
    # zeta = H x with no error is consistent with every PSD covariance, so
    # the unbiased fusion must return x itself, however singular P is
    bank = _example_bank()
    ts = bank.ts
    active = data.draw(st.permutations(range(ts.m)))
    observes = FusionEstimator.removal_keeps_observability
    size = next(i for i in range(1, ts.m + 1) if observes(bank, active[:i]))
    sensors = tuple(active[: data.draw(st.integers(size, ts.m))])
    N = bank.H.shape[0]
    rank = data.draw(st.integers(0, N))
    scale = 10.0 ** data.draw(st.integers(-3, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    M = rng.standard_normal((N, rank))
    P = scale * (M @ M.T)
    x = rng.standard_normal(ts.n)
    zeta = np.concatenate([d.T_o.T @ x for d in bank.decomps])

    res = FusionEstimator(bank, sensors).fuse(zeta, P)
    assert_allclose(res.x_star, x, rtol=0, atol=1e-8 * np.linalg.norm(x))
    assert np.array_equal(res.cov, res.cov.T)
    # cov = G^-1 - I loses ~1e-10 * |P| to cancellation where it is 0
    assert np.linalg.eigvalsh(res.cov).min() >= -1e-8 * max(1.0, scale)


def test_fusion_requires_joint_observability():
    bank = generate_example_system(seed=7, n=10, l=2).bank
    assert FusionEstimator.removal_keeps_observability(bank, tuple(range(10)))
    assert FusionEstimator.removal_keeps_observability(bank, (0, 1, 2, 3, 4))
    # dropping sensor 0 from the first bank loses its exclusive block
    assert not FusionEstimator.removal_keeps_observability(bank, (1, 2, 3, 4))
    assert not FusionEstimator.removal_keeps_observability(bank, (4,))
    assert not FusionEstimator.removal_keeps_observability(bank, ())
    with pytest.raises(DecompositionError):
        FusionEstimator(bank, (1, 2, 3, 4))


def test_observability_rule_matches_design_matrix_rank_on_every_subset():
    # rank(H) = n and full column rank of W both say that the sensors'
    # unobservable subspaces meet only in {0}
    bank = _example_bank()
    ts = bank.ts
    verdicts = []
    for size in range(1, ts.m + 1):
        for subset in itertools.combinations(range(ts.m), size):
            W = _design_matrix(bank.decomps, subset, ts.n)
            by_W = numerical_rank(W) == W.shape[1]
            assert FusionEstimator.removal_keeps_observability(bank, subset) == by_W, subset
            verdicts.append(by_W)
    assert len(verdicts) == 2**ts.m - 1 and any(verdicts) and not all(verdicts)
