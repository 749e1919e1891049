import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from mpmath import mp
from scipy.stats import chi2

from helpers import RemovalTracker, chi2_test, subprocess_env
from mtident import (
    Chi2Detector,
    DetectorConfig,
    identify_and_remove,
    threshold_from_alpha,
)

mp.dps = 50


def _sf(x, k):
    # chi-square survival function via the regularized upper incomplete gamma
    return mp.gammainc(mp.mpf(k) / 2, mp.mpf(x) / 2, mp.inf, regularized=True)


def _oracle_threshold(window, dof, alpha):
    k = window * dof
    lo, hi = mp.mpf(0), mp.mpf(1)
    while _sf(hi, k) > alpha:
        hi *= 2
    for _ in range(300):
        mid = (lo + hi) / 2
        if _sf(mid, k) > alpha:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


@pytest.mark.parametrize(
    "window,dof,alpha",
    [
        (5, 1, 6.9e-8),
        (3, 10, 4.2e-4),
        (1, 1, 0.05),
        (5, 1, 1e-2),
        (10, 3, 1e-6),
    ],
)
def test_threshold_matches_high_precision_oracle(window, dof, alpha):
    got = threshold_from_alpha(window, dof, alpha)
    want = _oracle_threshold(window, dof, alpha)
    assert abs(got - want) < 1e-9 * want
    # round trip: the exceedance probability at the threshold is alpha
    assert abs(float(chi2.sf(got, window * dof)) - alpha) < 1e-12 + 1e-6 * alpha


def test_threshold_equals_scipy_stats_chi2_ppf_bit_for_bit():
    # production settings: sensor detectors (5, 1, 6.9e-8); the central
    # detector (3, d, 4.2e-4) for every active-set size d of the example plant
    cases = [(5, 1, 6.9e-8)] + [(3, d, 4.2e-4) for d in range(1, 11)]
    alphas = [float(a) for a in np.logspace(-12, -0.01, 60)] + [6.9e-8, 4.2e-4, 0.05, 0.5]
    cases += [(df, 1, a) for df in range(1, 200) for a in alphas]
    cases += [(3, d, a) for d in range(1, 11) for a in alphas]
    mismatches = [
        (w, d, a)
        for w, d, a in cases
        if threshold_from_alpha(w, d, a) != float(chi2.ppf(1.0 - a, w * d))
    ]
    assert not mismatches, mismatches[:5]


def test_the_cli_starts_without_scipy_packages_and_holds_scipy_own_functions():
    code = """
import sys, mtident.cli
print(sorted({'scipy', 'scipy.linalg', 'scipy.special', 'scipy.stats'} & set(sys.modules)))
import scipy.linalg.lapack, scipy.special, scipy.stats
from mtident import detection, estimation
print([getattr(estimation, f) is getattr(scipy.linalg.lapack, f) for f in ('dpotrf', 'dpotrs', 'dpstrf', 'dtrtrs')])
print(detection.gammaincinv is scipy.special.gammaincinv)
"""
    out = subprocess.run([sys.executable, "-c", code], env=subprocess_env(), capture_output=True, text=True, check=True)
    assert out.stdout.split("\n")[:3] == ["[]", "[True, True, True, True]", "True"]


def test_scipy_functions_fall_back_to_the_public_modules(monkeypatch):
    from mtident import detection, estimation, linalg

    import scipy.linalg.lapack
    import scipy.special

    # a name the loaded extension module lacks sends every name to the public module
    assert linalg.scipy_compiled("linalg._flapack", "linalg.lapack", "dpotrf", "get_lapack_funcs") == (
        scipy.linalg.lapack.dpotrf,
        scipy.linalg.lapack.get_lapack_funcs,
    )
    A = np.random.default_rng(5).standard_normal((6, 4))
    A = A @ A.T  # rank 4 of 6, so the pivoted Cholesky stops early
    want_chol = estimation.dpstrf(A, lower=1)
    want_gamma = threshold_from_alpha(3, 10, 4.2e-4)
    monkeypatch.setattr(linalg, "_extension_file", lambda module: None)
    for module in ("scipy.linalg._flapack", "scipy.special._special_ufuncs"):
        monkeypatch.delitem(sys.modules, module, raising=False)
    (dpstrf,) = linalg.scipy_compiled("linalg._flapack", "linalg.lapack", "dpstrf")
    (gammaincinv,) = linalg.scipy_compiled("special._special_ufuncs", "special", "gammaincinv")
    assert dpstrf is scipy.linalg.lapack.dpstrf
    assert gammaincinv is scipy.special.gammaincinv
    bits = lambda out: [np.asarray(v).tobytes() for v in out]  # noqa: E731
    assert bits(dpstrf(A, lower=1)) == bits(want_chol)
    monkeypatch.setattr(detection, "gammaincinv", gammaincinv)
    assert threshold_from_alpha(3, 10, 4.2e-4) == want_gamma


def test_threshold_rejects_bad_arguments():
    with pytest.raises(ValueError):
        threshold_from_alpha(0, 1, 0.05)
    with pytest.raises(ValueError):
        threshold_from_alpha(5, 0, 0.05)
    with pytest.raises(ValueError):
        threshold_from_alpha(5, 1, 0.0)
    with pytest.raises(ValueError):
        threshold_from_alpha(5, 1, 1.0)


def test_chi2_test_statistic_and_threshold():
    cfg = DetectorConfig(window=3, gamma=10.0)
    r = chi2_test([1.0, 2.0, -1.0], cfg)
    assert r.statistic == pytest.approx(6.0)
    assert not r.alarm
    assert chi2_test([2.0, 2.0, 2.0], cfg).alarm  # 12 > 10
    with pytest.raises(ValueError):
        chi2_test([1.0, 2.0], cfg)
    # vector residues: all components pooled
    v = chi2_test(np.ones((3, 2)), cfg)
    assert v.statistic == pytest.approx(6.0)


def test_detector_waits_for_full_window_and_slides():
    cfg = DetectorConfig(window=3, gamma=5.0)
    det = Chi2Detector(cfg)
    assert det.update(1.0) is None
    assert det.update(1.0) is None
    r = det.update(1.0)
    assert r is not None and r.statistic == pytest.approx(3.0) and not r.alarm
    r = det.update(4.0)  # window is now (1, 1, 4)
    assert r.statistic == pytest.approx(6.0) and r.alarm


@settings(max_examples=60, deadline=None, derandomize=True)
@given(window=st.integers(1, 8), gamma=st.floats(0.0, 40.0), data=st.data())
def test_vector_detector_equals_one_scalar_detector_per_sensor(window, gamma, data):
    """Per-sensor increments fed as one vector give, bit for bit, the
    statistics and alarms of one scalar detector per sensor."""
    m = data.draw(st.integers(1, 10), label="m")
    steps = data.draw(st.integers(1, 20), label="steps")
    z = data.draw(arrays(np.float64, (steps, m), elements=st.floats(-1e3, 1e3)), label="z")
    cfg = DetectorConfig(window=window, gamma=gamma)
    vector = Chi2Detector(cfg)
    scalars = [Chi2Detector(cfg) for _ in range(m)]
    for zk in z:
        got = vector.update(zk * zk)
        want = [det.update(zk[s] * zk[s]) for s, det in enumerate(scalars)]
        if got is None:
            assert all(r is None for r in want)
            continue
        assert got.statistic.tobytes() == np.array([r.statistic for r in want]).tobytes()
        assert got.alarm.tolist() == [bool(r.alarm) for r in want]


def test_detector_false_alarm_rate_is_calibrated():
    cfg = DetectorConfig.from_alpha(5, 1, 0.05)
    rng = np.random.default_rng(60)
    alarms, total = 0, 0
    for _ in range(4000):  # disjoint windows: independent trials
        det = Chi2Detector(cfg)
        r = None
        for z in rng.standard_normal(5):
            r = det.update(z * z)
        alarms += int(r.alarm)
        total += 1
    rate = alarms / total
    sigma = np.sqrt(0.05 * 0.95 / total)
    assert abs(rate - 0.05) < 4 * sigma


def test_detector_config_validation():
    with pytest.raises(ValueError):
        DetectorConfig(window=0, gamma=1.0)
    with pytest.raises(ValueError):
        DetectorConfig(window=3, gamma=-1.0)


def test_removal_tracker_requires_consecutive_alarms():
    tr = RemovalTracker(policy=2)
    assert not tr.update(0, True)
    assert tr.update(0, True)  # second consecutive
    assert not tr.update(1, True)  # sensors are independent
    tr2 = RemovalTracker(policy=2)
    assert not tr2.update(0, True)
    assert not tr2.update(0, False)  # reset
    assert not tr2.update(0, True)
    assert tr2.update(0, True)


def test_identify_and_remove_serializes_and_refuses():
    alerts = []
    active = [0, 1, 2]
    # removal is allowed only while at least two sensors remain
    removed = identify_and_remove(
        [0, 1, 2], active, lambda rest: len(rest) >= 2, alerts, step=7
    )
    assert removed == [0]
    assert active == [0, 1, 2]  # the caller applies removals
    assert len(alerts) == 2  # sensors 1 and 2 refused
    assert all(a.startswith("step 7: sensor ") and "observability" in a for a in alerts)
    # candidates outside the active set are ignored silently
    alerts2 = []
    assert identify_and_remove([5], [0, 1], lambda rest: True, alerts2, step=0) == []
    assert alerts2 == []
