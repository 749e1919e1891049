import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtident import (
    AttackerInfo,
    AttackPolicy,
    AttackSet,
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

from helpers import (
    random_target_set,
    reference_time_varying_observability,
    reference_trajectory_outputs,
    reference_witness_sequences,
)
from mtident.identifiability import (
    construct_cross_model_attack,
    cross_model_unidentifiability,
    time_varying_observability,
)
from mtident.system_model import free_response


@pytest.fixture
def ts():
    return random_target_set(np.random.default_rng(70), n=3, m=2, l=3, period=4)


def test_attacker_info_excludes_schedule_secrets(ts):
    info = AttackerInfo.from_target_set(ts)
    assert info.pairs == ts.pairs
    assert info.period == ts.period
    assert info.l == 3
    for secret in ("key", "schedule"):
        assert not hasattr(info, secret)


def _policies(horizon, seed):
    """One policy of every kind on two sensors (the cross-model one on the
    one sensor that has a witness); the omniscient one follows a schedule of
    ``horizon`` steps, the guessing ones draw from ``seed``."""
    ts = random_target_set(np.random.default_rng(70), n=3, m=2, l=3, period=4)
    attack = AttackSet((0, 1), 2)
    info = AttackerInfo.from_target_set(ts)
    x0_star = np.array([0.4, -0.2, 0.1])
    pair1, pair2 = _shared_mode_pairs()
    return {
        "omniscient": OmniscientSchedulePolicy(ts, sample_schedule(ts, horizon), attack, x0_star),
        "guessing": GuessingPolicy(info, attack, x0_star, seed=seed),
        "guessing_restart": GuessingPolicy(info, attack, x0_star, seed=seed, restart_each_period=True),
        "persistent_bias": PersistentBiasPolicy(attack, constant=1.5, ramp=0.25),
        "cross_model": CrossModelPolicy(pair1, pair2, AttackSet((0,), 2)),
    }


@settings(max_examples=30, deadline=None, derandomize=True)
@given(horizon=st.integers(1, 25), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_policy_values_are_open_loop_prefixes(horizon, seed, data):
    """The first ``k`` steps of an ``h``-step draw are, bit for bit, the
    ``k``-step draw, so a run may draw its whole attack up front."""
    k = data.draw(st.integers(1, horizon))
    for kind, pol in _policies(horizon, seed).items():
        full = pol.values(horizon)
        assert full.shape == (horizon, pol.attack.size), kind
        assert full[:k].tobytes() == pol.values(k).tobytes(), kind


def test_persistent_bias_profile():
    attack = AttackSet((0, 1), 2)
    pol = PersistentBiasPolicy(attack, constant=1.5, ramp=0.25)
    seq = pol.values(4)
    assert seq.shape == (4, 2)
    assert seq[:, 0] == pytest.approx([1.5, 1.75, 2.0, 2.25])
    assert seq[:, 0] == pytest.approx(seq[:, 1])
    with pytest.raises(ValueError):
        PersistentBiasPolicy(attack, constant=0.0, ramp=0.0)


def test_omniscient_policy_mimics_offset_initial_state(ts):
    attack = AttackSet((0,), 2)
    schedule = sample_schedule(ts, 12)
    x0_star = np.array([0.3, -0.1, 0.2])
    pol = OmniscientSchedulePolicy(ts, schedule, attack, x0_star)
    assert pol.admissible is False
    x0 = np.array([1.0, 0.5, -0.4])
    att = simulate_deterministic(ts, schedule, x0, attack=attack, d=pol.values(12))
    clean = simulate_deterministic(ts, schedule, x0 + x0_star)
    # attacked sensor looks exactly like a clean run from a shifted start
    assert att.outputs[:, 0] == pytest.approx(clean.outputs[:, 0], abs=1e-12)
    # the untouched sensor still reports the true trajectory
    true = simulate_deterministic(ts, schedule, x0)
    assert att.outputs[:, 1] == pytest.approx(true.outputs[:, 1], abs=1e-12)


def test_guessing_policy_draws_one_guess_per_period(ts):
    info = AttackerInfo.from_target_set(ts)
    attack = AttackSet((1,), 2)
    pol = GuessingPolicy(info, attack, [1.0, 0.0, 0.0], seed=5)
    assert pol.admissible is True
    guesses = pol.guesses(10)  # period 4 -> periods 0..2
    assert guesses.shape == (10,)
    for p in range(3):
        assert len(set(guesses[4 * p : 4 * p + 4])) == 1
    assert all(0 <= g < 3 for g in guesses)
    np.testing.assert_array_equal(guesses, pol.guesses(12)[:10])


def test_guessing_policy_is_reproducible_and_seed_sensitive(ts):
    info = AttackerInfo.from_target_set(ts)
    attack = AttackSet((0,), 2)
    a = GuessingPolicy(info, attack, [1.0, 0.0, 0.0], seed=5).values(12)
    b = GuessingPolicy(info, attack, [1.0, 0.0, 0.0], seed=5).values(12)
    c = GuessingPolicy(info, attack, [1.0, 0.0, 0.0], seed=6).values(12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_guessing_policy_matches_manual_recursion(ts):
    info = AttackerInfo.from_target_set(ts)
    attack = AttackSet((0,), 2)
    x0_star = np.array([0.4, -0.2, 0.1])
    pol = GuessingPolicy(info, attack, x0_star, seed=9)
    seq = pol.values(8)
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
    attack = AttackSet((0,), 2)
    x0_star = np.array([0.4, -0.2, 0.1])
    pol = GuessingPolicy(info, attack, x0_star, seed=9, restart_each_period=True)
    seq = pol.values(12)
    # at every period boundary the virtual trajectory restarts at x0_star
    for p, g in enumerate(pol.guesses(12)[::4]):
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
    attack = AttackSet((0,), 2)
    horizon = 9
    pol = CrossModelPolicy(pair1, pair2, attack)
    seq = pol.values(horizon)[:, 0]
    assert np.max(np.abs(seq)) > 1e-9
    # the injected sequence is a legitimate sensor-0 output of either model
    for pair in (pair1, pair2):
        rows = np.stack([(pair.C[0] @ np.linalg.matrix_power(pair.A, k)) for k in range(horizon)])
        _, res, _, _ = np.linalg.lstsq(rows, seq, rcond=None)
        misfit = res[0] if res.size else np.linalg.norm(rows @ np.linalg.pinv(rows) @ seq - seq) ** 2
        assert misfit < 1e-16


def test_cross_model_policy_requires_a_witness():
    # disjoint spectra: no shared output behaviour exists
    pair1 = LtiPair(np.diag([0.9, 0.3]), np.eye(2))
    pair2 = LtiPair(np.diag([0.7, -0.5]), np.eye(2))
    with pytest.raises(DegenerateWitnessError):
        CrossModelPolicy(pair1, pair2, AttackSet((0,), 2))


def test_dominant_unstable_direction_picks_largest_mode():
    A = np.diag([0.5, -1.4, 0.9])
    v = dominant_unstable_direction(A)
    assert np.linalg.norm(v) == pytest.approx(1.0)
    assert abs(v[1]) == pytest.approx(1.0)


def test_base_policy_is_abstract():
    pol = AttackPolicy(AttackSet((0,), 2))
    with pytest.raises(NotImplementedError):
        pol.values(1)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 6),
    m=st.integers(1, 4),
    l=st.integers(1, 4),
    period=st.integers(1, 5),
    horizon=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
    restart=st.booleans(),
    data=st.data(),
)
def test_free_response_replays_the_replaced_loops_bit_for_bit(n, m, l, period, horizon, seed, restart, data):
    """The observability rows, the policies' outputs and a complex witness's
    output sequences keep the bytes of the loops they replaced."""
    rng = np.random.default_rng(seed)
    ts = random_target_set(rng, n=n, m=m, l=l, period=period)
    sched = np.array(data.draw(st.lists(st.integers(0, l - 1), min_size=horizon, max_size=horizon)))
    sensors = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True))
    x0_star = rng.standard_normal(n)

    got = time_varying_observability(ts, sched, sensors[0], horizon - 1)
    assert got.tobytes() == reference_time_varying_observability(ts, sched, sensors[0], horizon - 1).tobytes()

    attack = AttackSet(sensors, m)
    omniscient = OmniscientSchedulePolicy(ts, sched, attack, x0_star)
    want = reference_trajectory_outputs(sensors, ts.pairs, sched, x0_star)
    assert omniscient.values(horizon).tobytes() == want.tobytes()
    guessing = GuessingPolicy(AttackerInfo.from_target_set(ts), attack, x0_star, seed, restart_each_period=restart)
    guesses = guessing.guesses(horizon)
    want = reference_trajectory_outputs(sensors, ts.pairs, guesses, x0_star, period if restart else 0)
    assert guessing.values(horizon).tobytes() == want.tobytes()

    # two plants sharing a rotation mode, each with its own well-separated
    # real modes, in random orthonormal coordinates
    radius, angle = rng.uniform(0.5, 1.2), rng.uniform(0.3, 2.8)
    rot = radius * np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    pairs = []
    for own in (np.linspace(0.05, 0.45, n), np.linspace(-0.45, -0.05, n)):
        Qo = np.linalg.qr(rng.standard_normal((n + 2, n + 2)))[0]
        A = np.zeros((n + 2, n + 2))
        A[:2, :2], A[2:, 2:] = rot, np.diag(own)
        pairs.append(LtiPair(Qo @ A @ Qo.T, rng.standard_normal((1, n + 2))))
    witness = cross_model_unidentifiability(*pairs, sensor=0).witness
    assert np.iscomplexobj(witness.x0a_1)
    d1, d2 = reference_witness_sequences(witness, *pairs, 0, horizon)
    for pair, x, d in zip(pairs, (witness.x0a_1, witness.x0a_2), (d1, d2)):
        assert free_response((pair,), [0] * horizon, x, 0).tobytes() == d.tobytes()
    assert construct_cross_model_attack(witness, *pairs, 0, horizon).tobytes() == (2.0 * d1.real).tobytes()
