"""End-to-end acceptance gates.

Each test is one numbered release criterion; the terminal summary prints a
PASS/FAIL line per criterion (see ``conftest.py``). Statistical gates use
fixed seeds, so outcomes are deterministic run to run.
"""

import json
import time

import numpy as np
import pytest
from scipy.linalg import solve_discrete_are
from scipy.stats import chi2

from mtident import (
    AttackSet,
    CentralKalmanFilter,
    ConditioningError,
    DetectorConfig,
    LtiPair,
    OmniscientSchedulePolicy,
    PersistentBiasPolicy,
    STATUS_CONSISTENT,
    STATUS_IDENTIFIED,
    bias_recursion,
    build_system,
    config_from_dict,
    cross_model_unidentifiability,
    generate_example_system,
    guess_attack_feasibility,
    is_sparse_observable,
    monte_carlo,
    run_scenario,
    sample_schedule,
    sensor_consistency_check,
    simulate_deterministic,
    validate_design_recommendations,
    write_run_outputs,
)

from helpers import (
    brute_force_unidentifiability_oracle,
    chi2_test,
    matrix_with_jordan_structure,
    pbh_sparse_observable,
    TEST_KEY,
    random_target_set,
    standard_noise,
)

_EIGS = [-2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0, 3.0]


def _example_raw(seed, horizon, key, attack=None, detector=None, trials=1):
    """Scenario dict for the ten-sensor, five-block unstable plant family."""
    return {
        "horizon": horizon,
        "seed": seed,
        "system": {"kind": "generated", "seed": 7, "n": 15, "l": 7},
        "schedule": {"period": 30, "key": key},
        "attack": attack if attack is not None else {"kind": "none"},
        "detector": detector if detector is not None else {"removal_enabled": False},
        "trials": trials,
    }


@pytest.fixture(scope="module")
def long_clean_run():
    """One 10^4-step clean run of the example plant, shared by the residue
    calibration and covariance boundedness gates."""
    cfg = config_from_dict(_example_raw(424242, 10_000, "acceptance-calibration"))
    t0 = time.perf_counter()
    report = run_scenario(cfg)
    return report, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# criterion 1: the eigenstructure unidentifiability test agrees with a direct
# image-intersection oracle on exactly constructed instances


def _draw_chain_spec(rng, n):
    spec = []
    left = n
    eigs = list(rng.choice(_EIGS, size=4, replace=False))
    while left > 0:
        length = int(rng.integers(1, left + 1))
        spec.append((float(eigs.pop()), length))
        left -= length
    return spec


def test_criterion_01_cross_model_test_matches_brute_force_oracle():
    rng = np.random.default_rng(2026)
    t0 = time.perf_counter()
    agree = total = refused = positives = 0
    while total < 200:
        n = int(rng.integers(2, 5))
        spec1 = _draw_chain_spec(rng, n)
        A1, _ = matrix_with_jordan_structure(rng, spec1, max_entry=6)
        if rng.random() < 0.5:
            # force a shared eigenvalue so positive cases are well represented
            lam = spec1[0][0]
            length = int(rng.integers(1, n + 1))
            spec2 = [(lam, length)]
            if n - length > 0:
                other = float(rng.choice([e for e in _EIGS if e != lam]))
                spec2.append((other, n - length))
        else:
            spec2 = _draw_chain_spec(rng, n)
        A2, _ = matrix_with_jordan_structure(rng, spec2, max_entry=6)
        rows = int(rng.integers(1, 3))
        C = rng.integers(-3, 4, (rows, n)).astype(float)
        if not C[0].any():
            C[0, 0] = 1.0
        pair1, pair2 = LtiPair(A1, C), LtiPair(A2, C)
        try:
            res = cross_model_unidentifiability(pair1, pair2, 0)
        except ConditioningError:
            refused += 1
            continue
        truth = brute_force_unidentifiability_oracle(pair1, pair2, 0, 2 * n - 1)
        total += 1
        positives += int(truth)
        agree += int(res.exists == truth)
    elapsed = time.perf_counter() - t0
    assert agree == 200, f"agreement {agree}/200"
    assert refused <= 10, f"{refused} well-posed instances refused"
    assert 40 <= positives <= 160  # both outcomes genuinely exercised
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# criterion 2: a constant wrong configuration guess on a recommendation-passing
# design is flagged within 2n - 1 steps


def test_criterion_02_wrong_guess_detected_within_2n_minus_1():
    rng = np.random.default_rng(77)
    n = 3
    window = 2 * n  # steps 0 .. 2n-1
    detected = total = 0
    while total < 50:
        ts = random_target_set(rng, n=n, m=2, l=3, rho=0.85, period=window)
        if not validate_design_recommendations(ts).satisfied():
            continue
        schedule = sample_schedule(ts, window, TEST_KEY)
        guess = int(rng.choice([g for g in range(3) if g != int(schedule[0])]))
        sensor = int(rng.integers(2))
        # precondition: no undetectable nonzero attack exists for this guess
        if guess_attack_feasibility(ts, np.full(window, guess), schedule, sensor, window - 1):
            continue
        attack = AttackSet((sensor,), 2)
        d = np.empty((window, 1))
        x_virtual = rng.standard_normal(n)
        for k in range(window):
            d[k, 0] = ts.pairs[guess].C[sensor] @ x_virtual
            x_virtual = ts.pairs[guess].A @ x_virtual
        traj = simulate_deterministic(ts, schedule, rng.standard_normal(n), attack=attack, d=d)
        verdict = sensor_consistency_check(traj.outputs[:, sensor], ts, schedule, sensor)
        total += 1
        if (
            verdict.status == STATUS_IDENTIFIED
            and verdict.first_detection_time is not None
            and verdict.first_detection_time <= 2 * n - 1
        ):
            detected += 1
    assert detected == 50, f"detected {detected}/50"


# ---------------------------------------------------------------------------
# criterion 3: the schedule-aware mimicry attack is consistent forever
# (it must evade the consistency check; only its damage is observable)


def test_criterion_03_omniscient_attack_stays_consistent():
    rng = np.random.default_rng(31)
    consistent = 0
    for _ in range(50):
        ts = random_target_set(rng, n=3, m=2, l=3, rho=0.85, period=6)
        horizon = 10 * ts.period
        schedule = sample_schedule(ts, horizon, TEST_KEY)
        sensor = int(rng.integers(2))
        attack = AttackSet((sensor,), 2)
        policy = OmniscientSchedulePolicy(ts, schedule, attack, rng.standard_normal(3))
        traj = simulate_deterministic(
            ts, schedule, rng.standard_normal(3), attack=attack, d=policy.values(horizon)
        )
        verdict = sensor_consistency_check(traj.outputs[:, sensor], ts, schedule, sensor)
        consistent += int(verdict.status == STATUS_CONSISTENT)
    assert consistent == 50, f"consistent {consistent}/50"


# ---------------------------------------------------------------------------
# criterion 4: sparse observability agrees with exhaustive subset enumeration


def test_criterion_04_sparse_observability_matches_subset_enumeration():
    rng = np.random.default_rng(404)
    checked = agree = 0
    for _ in range(200):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 7))
        A = rng.standard_normal((n, n))
        C = rng.standard_normal((m, n))
        if rng.random() < 0.4:  # degrade some rows so unobservable cases appear
            C[rng.integers(m)] = 0.0
        if rng.random() < 0.3 and m >= 2:
            C[rng.integers(m)] = C[rng.integers(m)]
        pair = LtiPair(A, C)
        for r in range(m):
            checked += 1
            agree += int(is_sparse_observable(pair, r) == pbh_sparse_observable(pair, r))
    assert agree == checked, f"{agree}/{checked} (A, C, r) cases agree"


# ---------------------------------------------------------------------------
# criterion 5: the attack-effect recursion reproduces paired filter runs


def test_criterion_05_bias_recursion_matches_paired_runs():
    rng = np.random.default_rng(55)
    horizon = 1000
    worst = 0.0
    for _ in range(5):
        ts = random_target_set(rng, n=3, m=2, l=2, rho=0.8, period=6)
        noise = standard_noise(rng, 3, 2, 0.3)
        schedule = sample_schedule(ts, horizon, TEST_KEY)
        sensor = int(rng.integers(2))
        attack = AttackSet((sensor,), 2)
        d_seq = PersistentBiasPolicy(attack, constant=0.7, ramp=0.002).values(horizon)
        trace = bias_recursion(ts, schedule, noise, attack, d_seq)

        f_clean = CentralKalmanFilter(noise)
        f_attacked = CentralKalmanFilter(noise)
        x = noise.x0_mean + noise.P0_factor @ rng.standard_normal(3)
        for k in range(horizon):
            pair = ts.pairs[int(schedule[k])]
            y = pair.C @ x + noise.R_factor @ rng.standard_normal(2)
            clean = f_clean.step(pair, y)
            attacked = f_attacked.step(pair, y + attack.D @ d_seq[k])
            delta_e = -(attacked.x_post - clean.x_post)
            delta_z = attacked.residue - clean.residue
            worst = max(
                worst,
                np.max(np.abs(delta_e - trace.delta_e[k]))
                / max(1.0, np.max(np.abs(trace.delta_e[k]))),
                np.max(np.abs(delta_z - trace.delta_z[k]))
                / max(1.0, np.max(np.abs(trace.delta_z[k]))),
            )
            x = pair.A @ x + noise.Q_factor @ rng.standard_normal(3)
    assert worst < 1e-10, f"worst relative deviation {worst:.3e}"


# ---------------------------------------------------------------------------
# criterion 6: clean-run residues are calibrated standard normal and the
# chi-square alarm rate matches its design level


def test_criterion_06_clean_residues_are_calibrated(long_clean_run):
    report, elapsed = long_clean_run
    Z = report.local_residues
    T, m = Z.shape
    assert T == 10_000
    assert report.summary["removed"] == {}

    mean_bound = 3.0 / np.sqrt(T)
    for s in range(m):
        assert abs(Z[:, s].mean()) <= mean_bound, f"sensor {s} mean {Z[:, s].mean():.4f}"
        assert 0.9 <= Z[:, s].var() <= 1.1, f"sensor {s} variance {Z[:, s].var():.4f}"

    # alarm rate at alpha = 1e-2 over disjoint windows (independent trials)
    alpha, window = 1e-2, 5
    det = DetectorConfig(window=window, gamma=float(chi2.ppf(1 - alpha, window)))
    alarms = trials = 0
    for s in range(m):
        for k in range(0, T - window + 1, window):
            alarms += int(chi2_test(Z[k : k + window, s], det).alarm)
            trials += 1
    rate = alarms / trials
    sigma = np.sqrt(alpha * (1 - alpha) / trials)
    assert abs(rate - alpha) <= 3 * sigma, f"alarm rate {rate:.5f} vs {alpha} +- {3 * sigma:.5f}"
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# criterion 7: fused estimates track the central filter and their reported
# covariance is honest


def test_criterion_07_fusion_tracks_central_filter():
    cfg = config_from_dict(_example_raw(515, 240, "acceptance-fusion"))
    mc = monte_carlo(cfg, trials=50)
    ratios = [s["mse_fused_tail"] / s["mse_central_tail"] for s in mc.summaries]
    assert np.mean(ratios) <= 1.15, f"mean tail MSE ratio {np.mean(ratios):.4f}"
    mse = np.mean([s["mse_fused_tail"] for s in mc.summaries])
    trace = np.mean([s["fused_trace_tail"] for s in mc.summaries])
    assert abs(mse / trace - 1.0) <= 0.10, f"fused MSE/trace {mse / trace:.4f}"


# ---------------------------------------------------------------------------
# criterion 8: the time-varying prior covariance stays bounded


def test_criterion_08_prior_covariance_stays_bounded(long_clean_run):
    report, _ = long_clean_run
    plant = generate_example_system(seed=7, n=15, l=7, period=30)
    ts, noise = plant.ts, plant.noise
    steady = [
        float(np.trace(solve_discrete_are(p.A.T, p.C.T, noise.Q, noise.R)))
        for p in ts.pairs
    ]
    bound = 2.0 * max(steady)
    assert report.trace_P.max() <= bound, f"max trace {report.trace_P.max():.1f} > {bound:.1f}"

    half = report.trace_P[report.trace_P.size // 2 :]
    slope = np.polyfit(np.arange(half.size), half, 1)[0]
    drift = slope * half.size
    assert drift <= 0.01 * half.mean(), f"upward drift {drift:.3f} over the last half"


# ---------------------------------------------------------------------------
# criterion 9: schedule-aware mimicry on five sensors wrecks the estimate
# while every windowed residue statistic stays below the detection threshold


def test_criterion_09_omniscient_attack_is_damaging_but_silent():
    gamma = float(chi2.ppf(0.99, 5))
    # every run shares the seed-7 plant; each runs it under its own key
    plant = build_system(config_from_dict(_example_raw(9000, 120, "acceptance-omniscient")))
    passing = 0
    for i in range(50):
        seed = 9000 + i
        attacked_raw = _example_raw(
            seed,
            120,
            "acceptance-omniscient",
            attack={
                "kind": "omniscient",
                "sensors": [5, 6, 7, 8, 9],
                "x0_star": "auto",
                "x0_star_scale": 0.1,
            },
        )
        clean_raw = _example_raw(seed, 120, "acceptance-omniscient")
        attacked = run_scenario(config_from_dict(attacked_raw), plant)
        clean = run_scenario(config_from_dict(clean_raw), plant)
        # same seed -> identical noise; the residue difference is the attack's
        # entire detectable footprint
        damage = attacked.err_central[-1] / np.median(clean.err_central)
        delta_z = attacked.local_residues - clean.local_residues
        windowed = np.stack(
            [(delta_z[k : k + 5] ** 2).sum(axis=0) for k in range(delta_z.shape[0] - 4)]
        )
        if damage >= 10.0 and windowed.max() < gamma:
            passing += 1
    assert passing >= 45, f"{passing}/50 seeds pass"


# ---------------------------------------------------------------------------
# criterion 10: guessing attackers on five sensors are identified and removed
# quickly, with no collateral removals


def test_criterion_10_guessing_attackers_are_identified_end_to_end():
    cfg = config_from_dict(
        _example_raw(
            77,
            60,  # 2 * period
            "acceptance-guessing",
            attack={
                "kind": "guessing",
                "sensors": [5, 6, 7, 8, 9],
                "x0_star": "auto",
                "x0_star_scale": 10.0,
                "seed": 99,
            },
            detector={},  # production detector settings, removal enabled
        )
    )
    mc = monte_carlo(cfg, trials=100)
    attacked = {5, 6, 7, 8, 9}
    all_removed = clean_removal = 0
    for s in mc.summaries:
        removed = {int(k) for k in s["removed"]}
        if attacked <= removed:
            all_removed += 1
        if removed - attacked:
            clean_removal += 1
    assert all_removed >= 90, f"all five removed in only {all_removed}/100 trials"
    assert clean_removal <= 1, f"clean sensors removed in {clean_removal} trials"


# ---------------------------------------------------------------------------
# criterion 11: identical configurations reproduce byte-identical outputs


def test_criterion_11_outputs_are_byte_identical(tmp_path):
    raw = _example_raw(
        2024,
        90,
        "acceptance-repro",
        attack={
            "kind": "guessing",
            "sensors": [5, 6, 7, 8, 9],
            "x0_star": "auto",
            "x0_star_scale": 10.0,
            "seed": 99,
        },
        detector={},
    )
    for fmt, names in (
        ("csv", ("metrics.csv", "events.csv", "summary.json")),
        ("jsonl", ("metrics.jsonl", "events.jsonl", "summary.json")),
    ):
        a = tmp_path / f"{fmt}-a"
        b = tmp_path / f"{fmt}-b"
        write_run_outputs(run_scenario(config_from_dict(raw)), a, fmt=fmt)
        write_run_outputs(run_scenario(config_from_dict(raw)), b, fmt=fmt)
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), f"{fmt}/{name}"
    # sanity: the attacked run actually produced events to serialize
    assert (tmp_path / "csv-a" / "events.csv").read_text().count("\n") > 1
