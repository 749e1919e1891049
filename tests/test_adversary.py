import numpy as np
import pytest

from mtident import (
    AttackerInfo,
    AttackPolicy,
    build_attack_matrix,
    CrossModelPolicy,
    DegenerateWitnessError,
    GuessingPolicy,
    LtiPair,
    OmniscientSchedulePolicy,
    PersistentBiasPolicy,
    dominant_unstable_direction,
    sample_schedule,
    simulate_deterministic,
)

from helpers import random_target_set


@pytest.fixture
def ts():
    return random_target_set(np.random.default_rng(70), n=3, m=2, l=3, period=4)


def test_attacker_info_excludes_schedule_secrets(ts):
    info = AttackerInfo.from_target_set(ts)
    assert info.pairs == ts.pairs
    assert info.period == ts.period
    assert info.l == 3
    assert info.distribution == "uniform-per-period"
    for secret in ("key", "schedule"):
        assert not hasattr(info, secret)


def test_policy_enforces_step_order_and_reset(ts):
    attack = build_attack_matrix((1,), 2)
    pol = PersistentBiasPolicy(attack, constant=2.0)
    pol.values(0)
    pol.values(1)
    with pytest.raises(ValueError):
        pol.values(3)  # skipped step 2
    with pytest.raises(ValueError):
        pol.values(1)  # replay
    pol.reset()
    assert pol.values(0) == pytest.approx([2.0])


def test_persistent_bias_profile():
    attack = build_attack_matrix((0, 1), 2)
    pol = PersistentBiasPolicy(attack, constant=1.5, ramp=0.25)
    seq = pol.sequence(4)
    assert seq.shape == (4, 2)
    assert seq[:, 0] == pytest.approx([1.5, 1.75, 2.0, 2.25])
    assert seq[:, 0] == pytest.approx(seq[:, 1])
    with pytest.raises(ValueError):
        PersistentBiasPolicy(attack, constant=0.0, ramp=0.0)


def test_omniscient_policy_mimics_offset_initial_state(ts):
    attack = build_attack_matrix((0,), 2)
    schedule = sample_schedule(ts, 12)
    x0_star = np.array([0.3, -0.1, 0.2])
    pol = OmniscientSchedulePolicy(ts, schedule, attack, x0_star)
    assert pol.admissible is False
    x0 = np.array([1.0, 0.5, -0.4])
    att = simulate_deterministic(ts, schedule, x0, attack=attack, d=pol.sequence(12))
    clean = simulate_deterministic(ts, schedule, x0 + x0_star)
    # attacked sensor looks exactly like a clean run from a shifted start
    assert att.outputs[:, 0] == pytest.approx(clean.outputs[:, 0], abs=1e-12)
    # the untouched sensor still reports the true trajectory
    true = simulate_deterministic(ts, schedule, x0)
    assert att.outputs[:, 1] == pytest.approx(true.outputs[:, 1], abs=1e-12)


def test_guessing_policy_draws_one_guess_per_period(ts):
    info = AttackerInfo.from_target_set(ts)
    attack = build_attack_matrix((1,), 2)
    pol = GuessingPolicy(info, attack, [1.0, 0.0, 0.0], seed=5)
    assert pol.admissible is True
    for k in range(10):  # period 4 -> periods 0..2
        pol.values(k)
    assert len(pol.guesses) == 3
    assert all(0 <= g < 3 for g in pol.guesses)


def test_guessing_policy_is_reproducible_and_seed_sensitive(ts):
    info = AttackerInfo.from_target_set(ts)
    attack = build_attack_matrix((0,), 2)
    a = GuessingPolicy(info, attack, [1.0, 0.0, 0.0], seed=5).sequence(12)
    b = GuessingPolicy(info, attack, [1.0, 0.0, 0.0], seed=5).sequence(12)
    c = GuessingPolicy(info, attack, [1.0, 0.0, 0.0], seed=6).sequence(12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_guessing_policy_matches_manual_recursion(ts):
    info = AttackerInfo.from_target_set(ts)
    attack = build_attack_matrix((0,), 2)
    x0_star = np.array([0.4, -0.2, 0.1])
    pol = GuessingPolicy(info, attack, x0_star, seed=9)
    seq = pol.sequence(8)
    rng = np.random.default_rng(9)
    x = x0_star.copy()
    for k in range(8):
        if k % 4 == 0:
            guess = int(rng.integers(3))
        pair = ts.pairs[guess]
        assert seq[k, 0] == pytest.approx(pair.C[0] @ x, abs=1e-12)
        x = pair.A @ x


def test_guessing_policy_period_restart(ts):
    info = AttackerInfo.from_target_set(ts)
    attack = build_attack_matrix((0,), 2)
    x0_star = np.array([0.4, -0.2, 0.1])
    pol = GuessingPolicy(info, attack, x0_star, seed=9, restart_each_period=True)
    seq = np.array([pol.values(k) for k in range(12)])
    # at every period boundary the virtual trajectory restarts at x0_star
    for p, g in enumerate(pol.guesses):
        expect = ts.pairs[g].C[0] @ x0_star
        assert seq[4 * p, 0] == pytest.approx(expect, abs=1e-12)


def _shared_mode_pairs():
    # both models contain the same (eigenvalue, output-gain) mode on sensor 0
    A1 = np.diag([0.9, 0.3])
    A2 = np.diag([0.9, -0.5])
    C = np.array([[1.0, 1.0], [0.0, 1.0]])
    return LtiPair(A1, C), LtiPair(A2, C)


def test_cross_model_policy_fools_both_models():
    pair1, pair2 = _shared_mode_pairs()
    attack = build_attack_matrix((0,), 2)
    horizon = 9
    pol = CrossModelPolicy(pair1, pair2, attack, horizon)
    seq = pol.sequence(horizon)[:, 0]
    assert np.max(np.abs(seq)) > 1e-9
    # the injected sequence is a legitimate sensor-0 output of either model
    for pair in (pair1, pair2):
        rows = np.stack([(pair.C[0] @ np.linalg.matrix_power(pair.A, k)) for k in range(horizon)])
        _, res, _, _ = np.linalg.lstsq(rows, seq, rcond=None)
        misfit = res[0] if res.size else np.linalg.norm(rows @ np.linalg.pinv(rows) @ seq - seq) ** 2
        assert misfit < 1e-16
    with pytest.raises(ValueError):
        pol.values(horizon)  # beyond the precomputed table


def test_cross_model_policy_requires_a_witness():
    # disjoint spectra: no shared output behaviour exists
    pair1 = LtiPair(np.diag([0.9, 0.3]), np.eye(2))
    pair2 = LtiPair(np.diag([0.7, -0.5]), np.eye(2))
    with pytest.raises(DegenerateWitnessError):
        CrossModelPolicy(pair1, pair2, build_attack_matrix((0,), 2), horizon=6)


def test_dominant_unstable_direction_picks_largest_mode():
    A = np.diag([0.5, -1.4, 0.9])
    v = dominant_unstable_direction(A)
    assert np.linalg.norm(v) == pytest.approx(1.0)
    assert abs(v[1]) == pytest.approx(1.0)


def test_base_policy_is_abstract():
    pol = AttackPolicy(build_attack_matrix((0,), 2))
    with pytest.raises(NotImplementedError):
        pol.values(0)
