import hashlib

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import chi2

from helpers import random_target_set, spd, standard_noise
from mtident import (
    AttackSet,
    AttackSetError,
    LtiPair,
    ModelError,
    NoiseModel,
    TargetSet,
    sample_schedule,
    schedule_key,
    simulate_deterministic,
    simulate_stochastic,
    validate_design_recommendations,
)
from mtident.matrixio import read_matrix, read_vector, write_matrix, write_vector


# ---------------------------------------------------------------------------
# model containers


def test_lti_pair_validates_shapes():
    with pytest.raises(ModelError):
        LtiPair(np.zeros((2, 3)), np.zeros((1, 2)))
    with pytest.raises(ModelError):
        LtiPair(np.eye(2), np.zeros((1, 3)))
    with pytest.raises(ModelError):
        LtiPair(np.array([[np.nan, 0], [0, 1]]), np.zeros((1, 2)))
    p = LtiPair(np.eye(3), np.ones((2, 3)))
    assert (p.n, p.m) == (3, 2)


def test_lti_pair_matrices_are_frozen_copies():
    A = np.eye(2)
    p = LtiPair(A, np.ones((1, 2)))
    A[0, 0] = 99.0  # caller's array, not the pair's
    assert p.A[0, 0] == 1.0
    with pytest.raises(ValueError):
        p.A[0, 0] = 5.0


def test_target_set_rejects_mixed_shapes_and_bad_period():
    p2 = LtiPair(np.eye(2), np.ones((1, 2)))
    p3 = LtiPair(np.eye(3), np.ones((1, 3)))
    with pytest.raises(ModelError):
        TargetSet(pairs=(p2, p3), period=4, key=b"\x00" * 32)
    with pytest.raises(ModelError):
        TargetSet(pairs=(p2,), period=0, key=b"\x00" * 32)
    with pytest.raises(ModelError):
        TargetSet(pairs=(), period=4, key=b"\x00" * 32)


def test_target_set_hides_key_from_repr():
    key = schedule_key("super-secret")
    ts = TargetSet(pairs=(LtiPair(np.eye(2), np.ones((1, 2))),), period=4, key=key)
    assert key.hex() not in repr(ts)
    assert "key" not in repr(ts)


# ---------------------------------------------------------------------------
# schedule generation


def test_schedule_key_normalization():
    assert schedule_key(5) == (5).to_bytes(32, "big")
    assert schedule_key((1 << 256) + 5) == (5).to_bytes(32, "big")
    raw = bytes(range(32))
    assert schedule_key(raw) == raw
    assert schedule_key(b"short") == hashlib.sha256(b"short").digest()
    assert schedule_key("abc") == hashlib.sha256(b"abc").digest()
    with pytest.raises(ModelError):
        schedule_key(3.14)


def _oracle_index(key: bytes, counter: int, l: int) -> int:
    # independent restatement of the keyed-counter construction
    bound = (1 << 64) - ((1 << 64) % l)
    word = 0
    while True:
        dig = hashlib.sha256(
            key + counter.to_bytes(8, "big") + word.to_bytes(4, "big")
        ).digest()
        for off in range(0, 32, 8):
            v = int.from_bytes(dig[off : off + 8], "big")
            if v < bound:
                return v % l
        word += 1


def test_schedule_matches_keyed_counter_construction():
    rng = np.random.default_rng(0)
    ts = random_target_set(rng, n=2, m=1, l=7, period=3, key=12345)
    sched = sample_schedule(ts, 36)
    expected_blocks = [_oracle_index(schedule_key(12345), b, 7) for b in range(12)]
    assert list(sched.reshape(12, 3)[:, 0]) == expected_blocks
    # constant within each period block
    assert np.all(sched.reshape(12, 3) == sched.reshape(12, 3)[:, :1])


def test_schedule_frozen_values():
    # pinned outputs of the construction; any change to it must fail here
    rng = np.random.default_rng(0)
    ts = random_target_set(rng, n=2, m=1, l=7, period=1, key=12345)
    assert list(sample_schedule(ts, 12)) == [3, 4, 5, 3, 6, 6, 4, 2, 3, 3, 6, 6]
    ts3 = random_target_set(rng, n=2, m=1, l=3, period=1, key="gof-key")
    assert list(sample_schedule(ts3, 12)) == [0, 0, 2, 2, 2, 0, 1, 0, 0, 0, 0, 2]


def test_schedule_reproducible_and_key_sensitive():
    rng = np.random.default_rng(1)
    ts = random_target_set(rng, n=2, m=1, l=4, period=5, key="key-a")
    assert np.array_equal(sample_schedule(ts, 100), sample_schedule(ts, 100))
    ts_b = TargetSet(pairs=ts.pairs, period=ts.period, key=schedule_key("key-b"))
    assert not np.array_equal(sample_schedule(ts, 100), sample_schedule(ts_b, 100))
    # a longer horizon extends, never rewrites, earlier blocks
    assert np.array_equal(sample_schedule(ts, 100), sample_schedule(ts, 200)[:100])


def test_schedule_uniformity_chi_square():
    rng = np.random.default_rng(2)
    l = 7
    ts = random_target_set(rng, n=2, m=1, l=l, period=1, key="gof-uniformity")
    draws = sample_schedule(ts, 7000)
    counts = np.bincount(draws, minlength=l)
    expected = draws.size / l
    stat = float(np.sum((counts - expected) ** 2 / expected))
    assert stat < chi2.ppf(0.9999, l - 1)


# ---------------------------------------------------------------------------
# attack sets


def test_attack_set_structure():
    atk = AttackSet([2, 0], m=4)
    assert atk.sensors == (2, 0)
    assert atk.D.shape == (4, 2)
    assert atk.D[2, 0] == 1.0 and atk.D[0, 1] == 1.0
    assert np.sum(atk.D) == 2.0
    empty = AttackSet([], m=4)
    assert empty.size == 0 and empty.D.shape[1] == 0


def test_attack_set_rejects_bad_sensors():
    with pytest.raises(AttackSetError):
        AttackSet([1, 1], m=3)
    with pytest.raises(AttackSetError):
        AttackSet([3], m=3)
    with pytest.raises(AttackSetError):
        AttackSet([-1], m=3)
    with pytest.raises(AttackSetError, match="out of range"):
        AttackSet((0, 5), 3)
    with pytest.raises(AttackSetError, match="distinct"):
        AttackSet((2, 0, 2), 3)


def test_attack_set_inject_puts_each_value_on_its_own_row():
    atk = AttackSet((3, 0, 5), 6)
    d = np.arange(1.0, 13.0).reshape(4, 3)
    injected = atk.inject(d, 4)
    want = np.zeros((4, 6))
    want[:, 3], want[:, 0], want[:, 5] = d[:, 0], d[:, 1], d[:, 2]
    assert np.array_equal(injected, want)
    assert np.array_equal(injected, d @ atk.D.T)
    assert np.array_equal(AttackSet((), 6).inject(np.zeros((4, 0)), 4), np.zeros((4, 6)))


@pytest.mark.parametrize("shape", [(4, 2), (3, 3), (4,), (12,)])
def test_attack_set_inject_rejects_wrong_shapes(shape):
    with pytest.raises(AttackSetError, match="shape"):
        AttackSet((3, 0, 5), 6).inject(np.zeros(shape), 4)


def test_simulation_rejects_wrong_shaped_attack_values():
    rng = np.random.default_rng(5)
    ts = random_target_set(rng, n=3, m=3, l=2)
    sched = sample_schedule(ts, 5)
    atk = AttackSet((1, 2), 3)
    with pytest.raises(AttackSetError):
        simulate_deterministic(ts, sched, np.ones(3), attack=atk, d=np.zeros((5, 1)))
    with pytest.raises(AttackSetError):
        simulate_stochastic(ts, sched, standard_noise(rng, 3, 3), rng, attack=atk, d=np.zeros((4, 2)))


# ---------------------------------------------------------------------------
# noise model


def test_noise_model_validates_covariances():
    rng = np.random.default_rng(3)
    with pytest.raises(ModelError):
        NoiseModel(Q=np.eye(2), R=np.diag([1.0, -0.5]))
    with pytest.raises(ModelError):
        NoiseModel(Q=-np.eye(2), R=np.eye(3))
    nm = NoiseModel(Q=spd(rng, 3), R=spd(rng, 2))
    assert_allclose(nm.Q_factor @ nm.Q_factor.T, nm.Q, atol=1e-10)
    assert_allclose(nm.R_factor @ nm.R_factor.T, nm.R, atol=1e-10)
    assert_allclose(nm.P0_factor @ nm.P0_factor.T, nm.P0, atol=1e-10)


def test_noise_model_accepts_singular_q():
    nm = NoiseModel(Q=np.zeros((2, 2)), R=np.eye(2))
    assert_allclose(nm.Q_factor, np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# simulation


def test_deterministic_simulation_hand_unrolled():
    A0 = np.array([[1.0, 1.0], [0.0, 1.0]])
    A1 = np.array([[0.5, 0.0], [0.0, 2.0]])
    C = np.array([[1.0, 0.0], [0.0, 1.0]])
    ts = TargetSet(pairs=(LtiPair(A0, C), LtiPair(A1, C)), period=1, key=0)
    x0 = np.array([1.0, 2.0])
    traj = simulate_deterministic(ts, [0, 1, 0], x0)
    assert_allclose(traj.states[0], x0)
    assert_allclose(traj.states[1], A0 @ x0)
    assert_allclose(traj.states[2], A1 @ A0 @ x0)
    assert_allclose(traj.outputs, traj.states)  # C = I here
    assert len(traj) == 3


def test_deterministic_attack_enters_selected_rows_only():
    rng = np.random.default_rng(4)
    ts = random_target_set(rng, n=3, m=3, l=2)
    atk = AttackSet([1], m=3)
    d = rng.standard_normal((5, 1))
    sched = sample_schedule(ts, 5)
    clean = simulate_deterministic(ts, sched, np.ones(3))
    hit = simulate_deterministic(ts, sched, np.ones(3), attack=atk, d=d)
    assert_allclose(hit.outputs[:, [0, 2]], clean.outputs[:, [0, 2]])
    assert_allclose(hit.outputs[:, 1] - clean.outputs[:, 1], d[:, 0])
    assert_allclose(hit.attacks[:, 1], d[:, 0])


def test_stochastic_simulation_reproducible():
    rng = np.random.default_rng(6)
    ts = random_target_set(rng, n=3, m=2, l=2)
    nm = NoiseModel(Q=spd(rng, 3), R=spd(rng, 2))
    sched = sample_schedule(ts, 20)
    t1 = simulate_stochastic(ts, sched, nm, np.random.default_rng(42))
    t2 = simulate_stochastic(ts, sched, nm, np.random.default_rng(42))
    assert np.array_equal(t1.states, t2.states)
    assert np.array_equal(t1.outputs, t2.outputs)


@pytest.mark.parametrize("n,m", [(1, 1), (3, 2), (8, 5), (15, 10)])
def test_stochastic_simulation_draw_order(n, m):
    """Bit for bit a per-step loop drawing the prior, then ``v_k``, then ``w_k``."""
    rng = np.random.default_rng(100 + n)
    ts = random_target_set(rng, n=n, m=m, l=2)
    nm = NoiseModel(Q=spd(rng, n), R=spd(rng, m), x0_mean=rng.standard_normal(n), P0=spd(rng, n))
    sched = sample_schedule(ts, 50)
    atk = AttackSet([0], m=m)
    d = rng.standard_normal((50, 1))
    traj = simulate_stochastic(ts, sched, nm, np.random.default_rng(9), attack=atk, d=d)

    draw = np.random.default_rng(9)
    x = nm.x0_mean + nm.P0_factor @ draw.standard_normal(n)
    for k, j in enumerate(sched):
        pair = ts.pairs[j]
        v = nm.R_factor @ draw.standard_normal(m)
        assert np.array_equal(traj.states[k], x)
        assert np.array_equal(traj.outputs[k], pair.C @ x + atk.D @ d[k] + v)
        x = pair.A @ x + nm.Q_factor @ draw.standard_normal(n)


def test_stochastic_scalar_stationary_variance():
    # x_{k+1} = a x_k + w: stationary variance q / (1 - a^2)
    a, q = 0.8, 1.0
    pair = LtiPair(np.array([[a]]), np.array([[1.0]]))
    ts = TargetSet(pairs=(pair,), period=1, key=0)
    nm = NoiseModel(
        Q=np.array([[q]]),
        R=np.array([[1e-12]]),
        x0_mean=np.zeros(1),
        P0=np.array([[q / (1 - a * a)]]),
    )
    traj = simulate_stochastic(ts, np.zeros(20000, dtype=int), nm, np.random.default_rng(7))
    target = q / (1 - a * a)
    assert abs(float(np.var(traj.states)) - target) < 0.15 * target


def test_stochastic_rejects_mismatched_noise():
    rng = np.random.default_rng(8)
    ts = random_target_set(rng, n=3, m=2, l=2)
    nm = NoiseModel(Q=spd(rng, 2), R=spd(rng, 2))
    with pytest.raises(ModelError):
        simulate_stochastic(ts, [0], nm, rng)


# ---------------------------------------------------------------------------
# design recommendations


def test_recommendations_satisfied_for_good_design():
    rng = np.random.default_rng(9)
    ts = random_target_set(rng, n=3, m=2, l=3, period=6, key="good")
    rep = validate_design_recommendations(ts)
    assert rep.satisfied()
    assert rep.problems() == []
    assert rep.min_cross_gap > 0


def test_recommendations_flag_shared_spectrum_and_short_period():
    rng = np.random.default_rng(10)
    A = np.diag([0.5, 1.5, -0.7])
    C = rng.standard_normal((2, 3))
    C2 = rng.standard_normal((2, 3))
    ts = TargetSet(pairs=(LtiPair(A, C), LtiPair(A, C2)), period=2, key=0)
    rep = validate_design_recommendations(ts)
    assert not rep.disjoint_spectra
    assert not rep.period_at_least_2n
    assert not rep.satisfied()
    msgs = " ".join(rep.problems())
    assert "overlap" in msgs and "period" in msgs


def test_recommendations_flag_zero_eigenvalue_and_unobservable():
    A_sing = np.array([[0.0, 1.0], [0.0, 0.8]])  # eigenvalue at 0
    ts = TargetSet(
        pairs=(
            LtiPair(A_sing, np.array([[1.0, 0.0]])),
            LtiPair(np.diag([0.6, 0.9]), np.array([[1.0, 0.0]])),  # unobservable
        ),
        period=4,
        key=0,
    )
    rep = validate_design_recommendations(ts)
    assert not rep.spectra_exclude_zero
    assert not rep.all_pairs_observable
    assert rep.unobservable_pairs == (1,)


def test_recommendations_single_pair_is_degenerate():
    ts = TargetSet(pairs=(LtiPair(np.eye(2) * 0.5, np.eye(2)),), period=4, key=0)
    rep = validate_design_recommendations(ts)
    assert rep.disjoint_spectra  # vacuous
    assert not rep.schedule_nondegenerate


# ---------------------------------------------------------------------------
# matrix files


def test_matrix_file_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(11)
    M = rng.standard_normal((4, 3)) * np.logspace(-12, 12, 12).reshape(4, 3)
    path = tmp_path / "m.txt"
    write_matrix(path, M)
    assert np.array_equal(read_matrix(path), M)
    v = rng.standard_normal(5)
    write_vector(tmp_path / "v.txt", v)
    assert np.array_equal(read_vector(tmp_path / "v.txt"), v)


def test_matrix_file_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 3\n1 2 3\n4 5 6\n")
    with pytest.raises(ValueError):
        read_matrix(path)
