import contextlib
import copy
import csv
import dataclasses
import functools
import hashlib
import inspect
import itertools
import json
import math
import os
import pickle
import re
import signal
import threading
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mtident import estimation, scenario
from mtident import (
    AttackSpec,
    CentralKalmanFilter,
    ConditioningError,
    ConfigError,
    FilterError,
    FusionEstimator,
    LocalFilterBank,
    ModelError,
    SystemSpec,
    build_system,
    config_from_dict,
    generate_example_system,
    kalman_decomposition,
    load_config,
    monte_carlo,
    run_scenario,
    sample_schedule,
    schedule_key,
    trial_config,
    write_matrix,
    write_monte_carlo_outputs,
    write_run_outputs,
    write_vector,
)

from mtident.cli import build_parser

from helpers import random_target_set, reference_run_scenario, spd

# a stable instance: direct (non-error-coordinate) simulation stays bounded,
# which the cross-check below needs
_STABLE = {
    "kind": "generated",
    "seed": 11,
    "n": 10,
    "l": 2,
    "spectral_radius": [0.55, 0.9],
}


_EXPLICIT = {
    "kind": "explicit",
    "pairs": [{"A": "A.txt", "C": "C.txt"}],
    "Q": "Q.txt",
    "R": "R.txt",
}


def _raw(**over):
    raw = {
        "horizon": 40,
        "seed": 321,
        "system": dict(_STABLE),
        "schedule": {"period": 5, "key": "scenario-test-key"},
        "attack": {"kind": "none"},
    }
    raw.update(over)
    return raw


def _stable_system():
    plant = generate_example_system(
        seed=11, n=10, l=2, radius=(0.55, 0.9), period=5
    )
    return plant.ts, plant.noise


# ---------------------------------------------------------------------------
# configuration parsing


def test_config_defaults_and_parsing():
    cfg = config_from_dict(_raw())
    assert cfg.horizon == 40 and cfg.seed == 321 and cfg.trials == 1
    assert cfg.system.n == 10 and cfg.system.l == 2
    assert cfg.system.spectral_radius == (0.55, 0.9)
    assert cfg.schedule.period == 5
    assert cfg.attack.kind == "none"
    assert cfg.detector.sensor_window == 5 and cfg.detector.removal_policy == 2
    assert cfg.detector.removal_enabled is True


@pytest.mark.parametrize(
    "raw",
    [
        {"horizon": 10, "seed": 1, "horzion": 2},
        {"horizon": 10, "seed": 1, "system": {"bogus": 3}},
        {"horizon": 10, "seed": 1, "schedule": {"窗口": 3}},
        {"horizon": 10, "seed": 1, "attack": {"kind": "none", "extra": 1}},
        {"horizon": 10, "seed": 1, "estimator": {"eps": 1e-6}},
        {"horizon": 10, "seed": 1, "detector": {"window": 5}},
    ],
)
def test_config_rejects_unknown_keys(raw):
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_dict(raw)


@pytest.mark.parametrize(
    "raw,msg",
    [
        ({"seed": 1}, "horizon"),
        ({"horizon": 0, "seed": 1}, "horizon"),
        ({"horizon": 10}, "seed"),
        ({"horizon": 10, "seed": 1, "trials": 0}, "trials"),
        ({"horizon": "long", "seed": 1}, "wrong type"),
        ({"horizon": 10, "seed": 1, "attack": {"kind": "sneaky"}}, "attack.kind"),
        ({"horizon": 10, "seed": 1, "attack": {"kind": "guessing"}}, "sensors"),
        (
            {"horizon": 10, "seed": 1, "attack": {"kind": "none", "x0_star": "big"}},
            "x0_star",
        ),
        (
            {"horizon": 10, "seed": 1, "attack": {"kind": "none", "models": [0]}},
            "models",
        ),
        ({"horizon": 10, "seed": 1, "schedule": {"period": 0}}, "period"),
        # fusion has no settings; the section older configs carried is unknown
        ({"horizon": 10, "seed": 1, "estimator": {"epsilon": 1e-6}}, "estimator"),
        ({"horizon": 10, "seed": 1, "system": {"kind": "explicit"}}, "explicit"),
        ({"horizon": 10, "seed": 1, "system": {"kind": "magic"}}, "system.kind"),
        (
            {"horizon": 10, "seed": 1, "system": {"spectral_radius": [1.0]}},
            "spectral_radius",
        ),
        ({"horizon": 10, "seed": 1, "system": {"n": 12}}, "system.n"),
        ({"horizon": 10, "seed": 1, "system": {"n": 0}}, "system.n"),
        ({"horizon": 10, "seed": 1, "system": {"l": 0}}, "system.l"),
        ({"horizon": 10, "seed": 1, "detector": {"sensor_window": 0}}, "detector.sensor_window"),
        ({"horizon": 10, "seed": 1, "detector": {"central_window": 0}}, "detector.central_window"),
        ({"horizon": 10, "seed": 1, "detector": {"sensor_alpha": 1.5}}, "detector.sensor_alpha"),
        ({"horizon": 10, "seed": 1, "detector": {"central_alpha": 0}}, "detector.central_alpha"),
        ({"horizon": 10, "seed": 1, "detector": {"removal_policy": 0}}, "detector.removal_policy"),
        ({"horizon": 10, "seed": 1, "system": {"noise_scale": -1.0}}, "system.noise_scale"),
        ("not a dict", "mapping"),
    ]
    # each system kind rejects the other kind's keys, whatever their values
    + [
        ({"horizon": 10, "seed": 1, "system": dict(_EXPLICIT, **{key: value})}, f"system.{key}")
        for key, value in [
            ("seed", 0),
            ("n", 25),
            ("l", 7),
            ("spectral_radius", [1.05, 1.3]),
            ("coupling", 9.0),
            ("noise_scale", 1000.0),
        ]
    ]
    + [
        ({"horizon": 10, "seed": 1, "system": {key: value}}, f"system.{key}")
        for key, value in [
            ("pairs", _EXPLICIT["pairs"]),
            ("Q", "Q.txt"),
            ("R", "R.txt"),
            ("x0_mean", "x0.txt"),
            ("P0", "P0.txt"),
        ]
    ]
    # each attack kind rejects the keys it does not read, whatever their values
    + [
        (
            {"horizon": 10, "seed": 1, "attack": {"kind": kind, "sensors": [0], key: value}},
            f"'attack.{key}' is read only by attack.kind",
        )
        for kind, key, value in [
            ("persistent_bias", "x0_star", "auto"),
            ("cross_model", "x0_star_scale", 10.0),
            ("omniscient", "seed", 99),
            ("persistent_bias", "restart_each_period", True),
            ("guessing", "constant", 5.0),
            ("omniscient", "ramp", 0.0),
            ("guessing", "models", [2, 3]),
        ]
    ]
    + [
        (
            {"horizon": 10, "seed": 1, "attack": {"kind": "none", "sensors": []}},
            "'attack.sensors' is read only by attack.kind",
        ),
        # the type and length checks, on kinds that read the key
        (
            {"horizon": 10, "seed": 1, "attack": {"kind": "guessing", "sensors": [0], "x0_star": "big"}},
            "x0_star",
        ),
        (
            {"horizon": 10, "seed": 1, "attack": {"kind": "cross_model", "sensors": [0], "models": [0]}},
            "models",
        ),
    ],
)
def test_config_rejects_invalid_values(raw, msg):
    with pytest.raises(ConfigError, match=msg):
        config_from_dict(raw)


@pytest.mark.parametrize(
    "section, key, value, reason",
    [
        # JSON's true is an int to Python, but no number here
        (None, "horizon", True, "wrong type bool"),
        ("schedule", "key", True, "wrong type bool"),
        ("attack", "sensors", [True], "wrong type bool"),
        ("system", "coupling", True, "wrong type bool"),
        ("detector", "sensor_window", False, "wrong type bool"),
        # float keys take finite values only; json reads Infinity, NaN and
        # 1e309 as inf, nan and inf, and an integer past 2**1024 overflows
        ("attack", "constant", float("inf"), "finite"),
        ("attack", "ramp", float("nan"), "finite"),
        ("system", "coupling", -float("inf"), "finite"),
        ("system", "noise_scale", float("inf"), "finite"),
        ("system", "spectral_radius", [1.05, float("inf")], "finite"),
        pytest.param("attack", "x0_star_scale", 10**400, "finite", id="x0_star_scale-10**400"),
        pytest.param("detector", "sensor_alpha", 2**1024, "finite", id="sensor_alpha-2**1024"),
        # seeds feed numpy's SeedSequence, which refuses negative ones
        (None, "seed", -1, ">= 0"),
        ("system", "seed", -3, ">= 0"),
        ("attack", "seed", -5, ">= 0"),
        ("system", "spectral_radius", [0, 0], "0 < low <= high"),
        ("system", "spectral_radius", [-1, 0.5], "0 < low <= high"),
        ("system", "spectral_radius", [1.3, 1.05], "0 < low <= high"),
    ],
)
def test_config_rejects_booleans_non_finite_numbers_and_negative_seeds(section, key, value, reason):
    raw = {"horizon": 10, "seed": 1}
    if section == "attack":
        kind = "persistent_bias" if key in ("constant", "ramp") else "guessing"
        raw["attack"] = {"kind": kind, "sensors": [0]}
    (raw if section is None else raw.setdefault(section, {}))[key] = value
    where = key if section is None else f"{section}.{key}"
    with pytest.raises(ConfigError, match=re.escape(f"'{where}'") + ".*" + re.escape(reason)):
        config_from_dict(raw)


def test_config_defaults_are_the_schema_defaults():
    spelled_out = {
        "horizon": 10,
        "seed": 1,
        "trials": 1,
        "system": {
            "kind": "generated",
            "seed": 0,
            "n": 15,
            "l": 7,
            "spectral_radius": [1.05, 1.3],
            "coupling": 0.2,
            "noise_scale": 1.0,
        },
        "schedule": {"period": None, "key": None},
        "attack": {"kind": "none"},
        "detector": {
            "sensor_window": 5,
            "sensor_alpha": 6.9e-8,
            "central_window": 3,
            "central_alpha": 4.2e-4,
            "removal_policy": 2,
            "removal_enabled": True,
        },
    }
    assert config_from_dict(spelled_out) == config_from_dict({"horizon": 10, "seed": 1})
    # each attack kind with the keys it reads spelled out at their defaults
    attack_keys = {
        "omniscient": {"x0_star": "auto", "x0_star_scale": 1.0},
        "guessing": {"x0_star": "auto", "x0_star_scale": 1.0, "seed": 1, "restart_each_period": False},
        "persistent_bias": {"constant": 0.0, "ramp": 0.0},
        "cross_model": {"models": [0, 1]},
    }
    for kind, keys in attack_keys.items():
        attack = {"kind": kind, "sensors": [0]}
        assert config_from_dict(
            {"horizon": 10, "seed": 1, "attack": dict(attack, **keys)}
        ) == config_from_dict({"horizon": 10, "seed": 1, "attack": attack})
    explicit = dict(_EXPLICIT, x0_mean=None, P0=None)
    assert config_from_dict({"horizon": 10, "seed": 1, "system": explicit}) == config_from_dict(
        {"horizon": 10, "seed": 1, "system": _EXPLICIT}
    )
    # the generator and `gen-system` take their defaults from the schema
    spec = SystemSpec()
    params = inspect.signature(generate_example_system).parameters
    assert [params[p].default for p in ("n", "l", "radius", "coupling", "noise_scale")] == [
        spec.n,
        spec.l,
        spec.spectral_radius,
        spec.coupling,
        spec.noise_scale,
    ]
    args = build_parser().parse_args(["gen-system", "--seed", "1", "--out-dir", "unused"])
    assert (args.n, args.l) == (spec.n, spec.l)


def test_readme_system_table_matches_the_schema():
    """README's `system` and `attack` tables give each key, the kinds that
    read it and its default, as the spec classes do."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    tables = text.split("| key | kinds | default | meaning |")[1:]
    assert len(tables) == 2
    for table, spec in zip(tables, (SystemSpec, AttackSpec)):
        documented = {}
        for line in table.split("\n\n")[0].splitlines()[2:]:
            keys, kinds, default, _ = (cell.strip() for cell in line.strip("|").split("|"))
            for key in re.findall(r"`(\w+)`", keys):
                documented[key] = (kinds, None if default == "—" else json.loads(default.strip("`")))
        schema = {}
        for f in dataclasses.fields(spec):
            default = None if f.default in (None, ()) else json.loads(json.dumps(f.default))
            schema[f.metadata.get("key", f.name)] = (", ".join(f.metadata.get("kinds", ["all"])), default)
        assert documented == schema


def test_readme_library_quickstart_prints_what_it_says(capsys):
    """README's "Library quickstart" block runs as written and prints the
    values its comments give."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", text, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == ["[]", "consistent", "{'4': 5}"]


def test_load_config_round_trip(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(_raw()))
    assert load_config(p) == config_from_dict(_raw())
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(p)
    with pytest.raises(ConfigError, match="read"):
        load_config(tmp_path / "missing.json")


# ---------------------------------------------------------------------------
# the generated example family


def test_generated_system_has_the_documented_block_structure():
    ts, noise = _stable_system()
    assert ts.l == 2 and ts.n == 10 and ts.m == 10 and ts.period == 5
    b = 2
    allowed = {(0, 0), (0, 1), (1, 1), (1, 3), (2, 2), (2, 4), (3, 3), (3, 4), (4, 4)}
    for pair in ts.pairs:
        for r in range(5):
            for c in range(5):
                blk = pair.A[r * b : (r + 1) * b, c * b : (c + 1) * b]
                if (r, c) in allowed:
                    assert np.any(blk != 0.0)
                else:
                    assert np.all(blk == 0.0)
        # each sensor reads exactly one state block; two parallel banks
        for s in range(10):
            row = pair.C[s]
            i = s % 5
            assert np.all(row[: i * b] == 0.0) and np.all(row[(i + 1) * b :] == 0.0)
            assert np.any(row[i * b : (i + 1) * b] != 0.0)
    # noise shapes and definiteness
    assert noise.Q.shape == (10, 10) and noise.R.shape == (10, 10)
    assert np.all(np.linalg.eigvalsh(noise.R) > 0)


def test_generated_system_argument_validation():
    with pytest.raises(ConfigError, match="'n' must be a positive multiple of 5, got 7"):
        generate_example_system(seed=1, n=7)
    with pytest.raises(ConfigError, match="'l' must be >= 1, got 0"):
        generate_example_system(seed=1, n=10, l=0)


def test_generated_system_reports_why_its_last_draw_failed(monkeypatch):
    # every diagonal block reads as nilpotent, so every draw fails
    monkeypatch.setattr(scenario, "spectral_radius", lambda M: 0.0)
    with pytest.raises(
        ConditioningError,
        match=r"after 40 attempts \(last failure: diagonal block of spectral radius 0\.0e\+00 cannot be rescaled\)",
    ):
        generate_example_system(seed=1, n=5, l=1)


def test_generated_system_sensor_observability_profile():
    ts, _ = _stable_system()
    dims = [kalman_decomposition(ts, s).n_unobs for s in range(10)]
    # coupling chain 0->1->3->4, 2->4: downstream blocks never reach upstream sensors
    assert dims == [2, 4, 6, 6, 8, 2, 4, 6, 6, 8]


# ---------------------------------------------------------------------------
# the run engine


def test_run_scenario_matches_direct_coordinate_filtering():
    """The engine filters noise-only data in error coordinates; its reported
    estimation errors (central and fused) and local residues must equal those
    of ordinary filters and fusion run on the physically simulated outputs."""
    cfg = config_from_dict(_raw())
    r = run_scenario(cfg)

    ts, noise = _stable_system()
    schedule = sample_schedule(ts, cfg.horizon, "scenario-test-key")
    assert np.array_equal(schedule, r.schedule)

    # replay the engine's draws (same stream, same order)
    ss_sim, _ = np.random.SeedSequence(cfg.seed).spawn(2)
    rng = np.random.default_rng(ss_sim)
    n, m = ts.n, ts.m
    x = noise.x0_mean + noise.P0_factor @ rng.standard_normal(n)

    f = CentralKalmanFilter(noise)
    bank = LocalFilterBank(ts, noise)
    fusion = FusionEstimator(bank, range(m))
    assert not any(kind == "removed" for _, _, kind in r.events)
    for k in range(cfg.horizon):
        j = int(schedule[k])
        pair = ts.pairs[j]
        v = noise.R_factor @ rng.standard_normal(m)
        y = pair.C @ x + v
        cres = f.step(pair, y)
        bres = bank.step(j, y)
        assert r.err_central[k] == pytest.approx(
            np.linalg.norm(cres.x_post - x), abs=1e-8
        )
        assert r.trace_P[k] == pytest.approx(np.trace(cres.P_prior), abs=1e-9)
        fres = fusion.fuse(bres.zeta_post, bres.P_post)
        assert r.err_fused[k] == pytest.approx(np.linalg.norm(fres.x_star - x), abs=1e-8)
        assert r.fused_trace[k] == pytest.approx(np.trace(fres.cov), abs=1e-9)
        for s in range(m):
            assert r.local_residues[k, s] == pytest.approx(bres.residues[s], abs=1e-8)
        w = noise.Q_factor @ rng.standard_normal(n)
        x = pair.A @ x + w


def test_run_scenario_is_reproducible():
    cfg = config_from_dict(_raw())
    r1 = run_scenario(cfg)
    r2 = run_scenario(cfg)
    assert np.array_equal(r1.err_central, r2.err_central)
    assert np.array_equal(r1.err_fused, r2.err_fused)
    assert np.array_equal(r1.local_residues, r2.local_residues)
    assert r1.summary == r2.summary
    r3 = run_scenario(config_from_dict(_raw(seed=322)))
    assert not np.array_equal(r1.err_central, r3.err_central)


# a small example plant (n = 5, one state per block) with detectors tuned to
# alarm within a few steps, so short runs reach alarms and removals
_SMALL = {"kind": "generated", "seed": 3, "n": 5, "l": 3}


def _engine_raw(kind, sensors, seed, horizon, removal, policy, sensor_window, central_window, system=_SMALL):
    attack = {"kind": kind}
    if kind != "none":
        attack["sensors"] = list(sensors)
    if kind == "persistent_bias":
        attack["ramp"] = 0.5
    if kind in ("guessing", "omniscient"):
        attack["x0_star_scale"] = 10.0
    return {
        "horizon": horizon,
        "seed": seed,
        "system": dict(system),
        "schedule": {"period": 4},
        "attack": attack,
        "detector": {
            "sensor_window": sensor_window,
            "sensor_alpha": 1e-3,
            "central_window": central_window,
            "central_alpha": 1e-2,
            "removal_policy": policy,
            "removal_enabled": removal,
        },
    }


def _assert_bitwise_same_run(got, want):
    for name in ("schedule", "err_central", "err_fused", "trace_P", "fused_trace", "local_residues"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert got.events == want.events
    assert got.alerts == want.alerts
    assert json.dumps(got.summary, sort_keys=True) == json.dumps(want.summary, sort_keys=True)


# example plants of both block sizes the bank distinguishes (one and two
# states per block) and one to four configurations
_PLANTS = st.fixed_dictionaries(
    {
        "kind": st.just("generated"),
        "seed": st.integers(0, 2**32 - 1),
        "n": st.sampled_from([5, 10]),
        "l": st.sampled_from([1, 2, 3, 4]),
    }
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["none", "guessing", "persistent_bias", "omniscient"]),
    sensors=st.sampled_from([(2,), (1, 7), (0, 5), (5, 6, 7, 8, 9)]),
    seed=st.integers(0, 2**32 - 1),
    horizon=st.integers(1, 30),
    removal=st.booleans(),
    policy=st.integers(1, 3),
    sensor_window=st.integers(1, 6),
    central_window=st.integers(1, 6),
    system=_PLANTS,
)
# sensors 0 and 5 alone observe block 0 of _SMALL: removing 0 leaves 5
# unremovable, so its alerts repeat on every further alarmed step
@example("persistent_bias", (0, 5), 1, 30, True, 2, 3, 3, _SMALL)
# sensors 1 and 7 are removed at two different steps (6 and 10)
@example("persistent_bias", (1, 7), 1, 30, True, 2, 3, 3, _SMALL)
def test_run_engine_matches_the_per_step_reference(
    kind, sensors, seed, horizon, removal, policy, sensor_window, central_window, system
):
    """The engine reproduces, bit for bit, one loop over steps with a
    ``Chi2Detector`` per sensor and a ``RemovalTracker``, on random plants."""
    cfg = config_from_dict(
        _engine_raw(kind, sensors, seed, horizon, removal, policy, sensor_window, central_window, system)
    )
    try:
        plant = build_system(cfg)
    except ConditioningError:
        assume(False)  # generation refused the draw
    got = run_scenario(cfg, plant)
    _assert_bitwise_same_run(got, reference_run_scenario(cfg, plant))


def test_reference_cases_reach_repeated_alerts_and_staggered_removals():
    """The two explicit examples above exercise what they claim to."""
    refused = run_scenario(config_from_dict(_engine_raw("persistent_bias", (0, 5), 1, 30, True, 2, 3, 3)))
    assert list(refused.summary["removed"]) == ["0"]
    assert len(refused.alerts) >= 2
    assert all("sensor 5" in a for a in refused.alerts)
    staggered = run_scenario(config_from_dict(_engine_raw("persistent_bias", (1, 7), 1, 30, True, 2, 3, 3)))
    assert len(set(staggered.summary["removed"].values())) == 2


def test_clean_run_summary_is_quiet_and_serializable():
    r = run_scenario(config_from_dict(_raw()))
    s = r.summary
    json.dumps(s)  # plain types only
    assert s["horizon"] == 40
    assert s["attack_kind"] == "none" and s["attacked_sensors"] == []
    assert s["removed"] == {} and s["operator_alerts"] == []
    assert s["mse_central"] > 0 and s["mse_fused"] > 0
    assert s["trace_P_max"] >= np.max(r.trace_P) - 1e-12


def test_persistent_bias_is_identified_and_removed():
    raw = _raw(attack={"kind": "persistent_bias", "sensors": [0], "constant": 25.0})
    r = run_scenario(config_from_dict(raw))
    s = r.summary
    assert s["first_alarm"].get("0") is not None
    assert list(s["removed"]) == ["0"]
    # alarms must accumulate for removal_policy consecutive windows first
    assert s["removed"]["0"] >= s["first_alarm"]["0"] + 1
    assert (s["removed"]["0"], 0, "removed") in r.events
    # residues keep being logged for the removed sensor
    k_rm = s["removed"]["0"]
    assert np.all(np.isfinite(r.local_residues[k_rm:, 0]))


def test_removals_keep_the_coordinates_that_no_other_sensor_sees():
    # on this n = 5 plant sensors {0, 5, 9} see nothing of coordinate 2;
    # removing 7 along with the others once left fusion without it, and
    # err_fused reached 1.8e16
    raw = {
        "horizon": 60,
        "seed": 1,
        "system": {"kind": "generated", "seed": 8, "n": 5, "l": 3},
        "schedule": {"period": 10},
        "attack": {"kind": "persistent_bias", "sensors": [1, 2, 3, 4, 6, 7, 8, 9], "constant": 25.0},
    }
    r = run_scenario(config_from_dict(raw))
    assert r.summary["removed"] == {str(s): 5 for s in (1, 2, 3, 4, 6, 8, 9)}
    alerts = r.summary["operator_alerts"]
    assert len(alerts) == 55 and all("sensor 7 met the removal policy" in a for a in alerts)
    assert r.err_fused.max() < 1e3


@settings(max_examples=50, deadline=None, derandomize=True)
@given(system=_PLANTS, data=st.data())
def test_removals_never_lose_joint_observability(system, data):
    """On drawn plants under a persistent bias, the sensors left active still
    observe the state jointly, and every operator alert names a sensor whose
    removal from the set active at that moment would have lost that."""
    sensors = data.draw(st.lists(st.integers(0, 9), min_size=1, max_size=10, unique=True))
    seed = data.draw(st.integers(0, 2**32 - 1))
    cfg = config_from_dict(_engine_raw("persistent_bias", sorted(sensors), seed, 30, True, 1, 3, 3, system))
    try:
        plant = build_system(cfg)
    except ConditioningError:
        assume(False)  # generation refused the draw
    r = run_scenario(cfg, plant)

    observes = plant.bank.observes
    removed_at = {int(s): k for s, k in r.summary["removed"].items()}
    assert observes([s for s in range(plant.ts.m) if s not in removed_at])
    for alert in r.alerts:
        step, sensor = map(int, re.match(r"step (\d+): sensor (\d+) met", alert).groups())
        # identify_and_remove takes the step's candidates in sorted order
        gone = {s for s, k in removed_at.items() if k < step or (k == step and s < sensor)}
        active = [s for s in range(plant.ts.m) if s not in gone]
        assert sensor in active, alert
        assert not observes([s for s in active if s != sensor]), alert


def test_a_run_whose_outputs_overflow_raises_a_filter_error(tmp_path):
    # the attacker's target state 1e300 overflows the error-coordinate
    # outputs at the first step; a run used to write nan rows and exit 0
    example = json.loads((Path(__file__).resolve().parents[1] / "configs" / "example.json").read_text())
    example["horizon"] = 60
    example["attack"]["x0_star_scale"] = 1e300
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(FilterError, match="not finite from step 0"):
            run_scenario(config_from_dict(example))


def test_removal_can_be_disabled():
    raw = _raw(
        attack={"kind": "persistent_bias", "sensors": [0], "constant": 25.0},
        detector={"removal_enabled": False},
    )
    r = run_scenario(config_from_dict(raw))
    assert r.summary["removed"] == {}
    assert r.summary["first_alarm"].get("0") is not None
    assert not any(kind == "removed" for _, _, kind in r.events)


def test_run_scenario_validates_attack_against_system():
    raw = _raw(attack={"kind": "guessing", "sensors": [0], "x0_star": [1.0, 2.0]})
    with pytest.raises(ConfigError, match="x0_star"):
        run_scenario(config_from_dict(raw))
    raw = _raw(attack={"kind": "cross_model", "sensors": [0], "models": [0, 0]})
    with pytest.raises(ConfigError, match="models"):
        run_scenario(config_from_dict(raw))
    raw = _raw(attack={"kind": "persistent_bias", "sensors": [0]})
    with pytest.raises(ConfigError, match="nonzero"):
        run_scenario(config_from_dict(raw))
    for sensors, msg in (([12], "out of range"), ([5, 5], "distinct")):
        raw = _raw(attack={"kind": "persistent_bias", "sensors": sensors, "constant": 1.0})
        with pytest.raises(ConfigError, match=f"attack.sensors: .*{msg}"):
            run_scenario(config_from_dict(raw))


# ---------------------------------------------------------------------------
# Monte Carlo


def test_trial_config_is_deterministic_and_varied():
    cfg = config_from_dict(_raw())
    t0 = trial_config(cfg, 0)
    assert t0 == trial_config(cfg, 0)
    t1 = trial_config(cfg, 1)
    assert t0.seed != t1.seed
    assert t0.schedule.key != t1.schedule.key
    assert t0.attack.seed != t1.attack.seed
    # everything else is shared
    assert t0.horizon == cfg.horizon and t0.system == cfg.system
    assert t0.detector == cfg.detector


def test_monte_carlo_aggregates_identification_outcomes():
    raw = _raw(
        horizon=30,
        attack={"kind": "persistent_bias", "sensors": [2], "constant": 25.0},
    )
    mc = monte_carlo(config_from_dict(raw), trials=3)
    assert len(mc.summaries) == 3
    agg = mc.aggregate
    assert agg["trials"] == 3
    assert agg["all_attacked_removed_trials"] == 3
    assert agg["trials_with_clean_removal"] == 0
    assert len(agg["first_detection_steps"]) == 3
    json.dumps(agg)


def _guessing_raw():
    # the example plant under criterion 10's attack: trials remove sensors
    return {
        "horizon": 60,
        "seed": 77,
        "system": {"kind": "generated", "seed": 7, "n": 15, "l": 7},
        "schedule": {"period": 30, "key": "independence-test"},
        "attack": {
            "kind": "guessing",
            "sensors": [5, 6, 7, 8, 9],
            "x0_star_scale": 10.0,
            "seed": 99,
        },
    }


def _explicit_raw(tmp_path, key="explicit-mc-key"):
    plant = generate_example_system(seed=11, n=10, l=2, radius=(0.55, 0.9))
    pairs = []
    for j, pair in enumerate(plant.ts.pairs):
        write_matrix(tmp_path / f"A{j}.txt", pair.A)
        write_matrix(tmp_path / f"C{j}.txt", pair.C)
        pairs.append({"A": f"A{j}.txt", "C": f"C{j}.txt"})
    write_matrix(tmp_path / "Q.txt", plant.noise.Q)
    write_matrix(tmp_path / "R.txt", plant.noise.R)
    raw = {
        "horizon": 30,
        "seed": 5,
        "system": {"kind": "explicit", "pairs": pairs, "Q": "Q.txt", "R": "R.txt"},
        "schedule": {"period": 5},
        "attack": {"kind": "persistent_bias", "sensors": [2], "constant": 25.0},
    }
    if key is not None:
        raw["schedule"]["key"] = key
    return raw


def _plant_snapshot(plant):
    arrays = [plant.noise.Q, plant.noise.R, plant.noise.x0_mean, plant.noise.P0]
    arrays += [M for p in plant.ts.pairs for M in (p.A, p.C)]
    for d in plant.bank.decomps:
        arrays += [d.T_uo, d.T_o, *d.A_red, *d.C_red]
    return [d.sensor for d in plant.bank.decomps], copy.deepcopy(arrays)


def _assert_same_trial(got, want):
    assert got.summary == want.summary
    assert np.array_equal(got.err_central, want.err_central)
    assert np.array_equal(got.err_fused, want.err_fused)


def _assert_same_study(got, want):
    assert got.summaries == want.summaries
    assert got.aggregate == want.aggregate


@pytest.mark.parametrize("kind", ["generated", "explicit"])
def test_the_shared_plant_holds_no_schedule_key(kind, tmp_path):
    """The plant that a study forks into its workers holds neither the
    study's schedule key nor a trial's; each run passes its own key to
    ``sample_schedule``."""
    if kind == "generated":
        cfg = config_from_dict(_raw())
    else:
        cfg = config_from_dict(_explicit_raw(tmp_path), base_dir=tmp_path)
    plant = build_system(cfg)
    pickled = pickle.dumps(plant)
    key = scenario.config_schedule_key(cfg)
    for secret in [key] + [trial_config(cfg, i).schedule.key for i in range(3)]:
        assert secret not in pickled
    want = sample_schedule(plant.ts, cfg.horizon, key)
    assert np.array_equal(run_scenario(cfg, plant).schedule, want)


@pytest.mark.parametrize("kind", ["guessing", "explicit"])
def test_monte_carlo_trials_are_independent_of_the_shared_plant(kind, tmp_path, monkeypatch):
    if kind == "guessing":
        cfg = config_from_dict(_guessing_raw())
    else:
        cfg = config_from_dict(_explicit_raw(tmp_path), base_dir=tmp_path)
    trials = 4
    in_study = []

    def recorded(*args, **kwargs):
        in_study.append(run_scenario(*args, **kwargs))
        return in_study[-1]

    pooled = monte_carlo(cfg, trials=trials)
    # forked workers cannot append to the recorder, so record the study in
    # this process, and require the worker pool to give the same bits
    monkeypatch.setattr(scenario, "run_scenario", recorded)
    monkeypatch.setattr(scenario, "_worker_count", lambda trials: 1)
    mc = monte_carlo(cfg, trials=trials)
    monkeypatch.undo()
    _assert_same_study(pooled, mc)
    alone = [run_scenario(trial_config(cfg, i)) for i in range(trials)]
    assert sum(len(r.summary["removed"]) for r in alone) > 0
    assert len(in_study) == trials
    for i, r in enumerate(alone):
        _assert_same_trial(in_study[i], r)
        assert mc.summaries[i] == r.summary

    # the trials again, in reverse order, on one shared plant
    plant = build_system(cfg)
    before = _plant_snapshot(plant)
    for i in reversed(range(trials)):
        _assert_same_trial(run_scenario(trial_config(cfg, i), plant), alone[i])
    after = _plant_snapshot(plant)
    assert after[0] == before[0]
    assert all(np.array_equal(a, b) for a, b in zip(after[1], before[1], strict=True))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(system=_PLANTS, data=st.data())
def test_monte_carlo_summaries_match_trials_run_in_any_order(system, data):
    """A study's summaries equal its trials run one by one on one shared
    plant, in a drawn order of the trial indices, on drawn plants."""
    trials = 3
    raw = _engine_raw("guessing", (1, 7), data.draw(st.integers(0, 2**32 - 1)), 20, True, 1, 3, 3, system)
    cfg = config_from_dict(raw)
    try:
        plant = build_system(cfg)
    except ConditioningError:
        assume(False)  # generation refused the draw
    mc = monte_carlo(cfg, trials=trials)
    for i in data.draw(st.permutations(range(trials))):
        assert run_scenario(trial_config(cfg, i), plant).summary == mc.summaries[i]


def test_monte_carlo_builds_and_decomposes_the_plant_once(monkeypatch):
    calls = {"generate": 0, "decompose": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        scenario, "generate_example_system", counted("generate", scenario.generate_example_system)
    )
    monkeypatch.setattr(
        estimation, "kalman_decomposition", counted("decompose", estimation.kalman_decomposition)
    )
    cfg = config_from_dict(_raw(horizon=10))
    build_system(cfg)
    once = dict(calls)
    assert once["generate"] == 1 and once["decompose"] >= 10
    monte_carlo(cfg, trials=3)
    assert calls == {name: 2 * c for name, c in once.items()}


def _blas_threads() -> list[int]:
    """The thread count of each loaded BLAS library."""
    return [get() for _, get in scenario._blas_thread_functions() or ()]


class _FakeBlas:
    """A BLAS library's thread count with its ``(set, get)`` functions; the
    setter of a ``stuck`` one leaves the count as it is."""

    def __init__(self, threads, stuck=False):
        self.threads, self.stuck, self.set_calls = threads, stuck, []
        self.functions = (self.set, self.get)

    def set(self, threads):
        self.set_calls.append(threads)
        if not self.stuck:
            self.threads = threads

    def get(self):
        return self.threads


def test_one_blas_thread_sets_and_restores_only_the_libraries_it_changes(monkeypatch):
    single, double, quad, stuck = _FakeBlas(1), _FakeBlas(2), _FakeBlas(4), _FakeBlas(2, stuck=True)
    monkeypatch.setattr(scenario, "_blas_thread_functions", lambda: (single.functions,))
    with scenario._one_blas_thread():
        assert single.threads == 1
    assert single.set_calls == []  # a library already on one thread is left alone

    fakes = (single, double, quad, stuck)
    monkeypatch.setattr(scenario, "_blas_thread_functions", lambda: tuple(f.functions for f in fakes))
    with pytest.raises(FilterError):
        with scenario._one_blas_thread():
            assert [f.threads for f in fakes] == [1, 1, 1, 2]
            assert [f.set_calls for f in fakes] == [[], [1], [1], [1]]
            raise FilterError("the counts are restored on the way out")
    assert [f.threads for f in fakes] == [1, 2, 4, 2]
    assert [f.set_calls for f in fakes] == [[], [1, 2], [1, 4], [1, 2]]

    monkeypatch.setattr(scenario, "_blas_thread_functions", lambda: None)
    with scenario._one_blas_thread():  # no library found: nothing to set
        assert [f.set_calls for f in fakes] == [[], [1, 2], [1, 4], [1, 2]]


@pytest.mark.skipif(scenario._blas_thread_functions() is None, reason="no BLAS thread functions found")
def test_a_run_reads_one_blas_thread_and_leaves_the_previous_count(monkeypatch):
    before = _blas_threads()
    inside = []
    filter_loop = scenario._filter_loop

    def recorded(*args):
        inside.append(_blas_threads())
        return filter_loop(*args)

    monkeypatch.setattr(scenario, "_filter_loop", recorded)
    run_scenario(config_from_dict(_raw(horizon=5)))
    assert inside == [[1] * len(before)]
    assert _blas_threads() == before


# ---------------------------------------------------------------------------
# forked children: a run's bank helper and a study's workers

_CHILDREN = pytest.mark.skipif(
    scenario._worker_count(2) < 2 or scenario._blas_thread_functions() is None,
    reason="no child may be forked here",
)
_trial = scenario._trial
_setter_calls: list[tuple[int, int]] = []  # (pid, count) of each spied setter call


def _spied(functions):
    """``functions`` with each setter call recorded in ``_setter_calls``."""

    def spy(set_threads):
        def recorded(threads):
            _setter_calls.append((os.getpid(), threads))
            set_threads(threads)

        return recorded

    return tuple((spy(set_threads), get) for set_threads, get in functions)


def _reporting_trial(cfg, plant, index):
    """A trial that also says which process ran it, on how many BLAS threads,
    and which setter calls that process made."""
    summary = _trial(cfg, plant, index)
    pid = os.getpid()
    calls = [threads for caller, threads in _setter_calls if caller == pid]
    process = {"pid": pid, "blas_threads": _blas_threads(), "setter_calls": calls}
    return dict(summary, process=process)


@_CHILDREN
def test_monte_carlo_workers_run_on_one_blas_thread(monkeypatch):
    _setter_calls.clear()
    cfg = config_from_dict(_guessing_raw())
    want = monte_carlo(cfg, trials=3)
    parent_threads = _blas_threads()
    monkeypatch.setattr(scenario, "_trial", _reporting_trial)
    spied = _spied(scenario._blas_thread_functions())
    monkeypatch.setattr(scenario, "_blas_thread_functions", lambda: spied)
    pooled = monte_carlo(cfg, trials=3)
    # no BLAS thread functions found: the trials run in this process
    monkeypatch.setattr(scenario, "_blas_thread_functions", lambda: None)
    in_parent = monte_carlo(cfg, trials=3)
    monkeypatch.undo()

    workers = [s.pop("process") for s in pooled.summaries]
    assert all(w["pid"] != os.getpid() for w in workers)
    # the workers inherit one thread and call no setter, which would restart
    # their thread pools
    assert all(w["blas_threads"] == [1] * len(parent_threads) for w in workers)
    assert all(w["setter_calls"] == [] for w in workers)
    parent_calls = [threads for pid, threads in _setter_calls if pid == os.getpid()]
    changed = [n for n in parent_threads if n != 1]
    assert parent_calls == [1] * len(changed) + changed  # set once, restored once
    assert [s.pop("process")["pid"] for s in in_parent.summaries] == [os.getpid()] * 3
    assert _blas_threads() == parent_threads  # the parent's threading is restored
    _assert_same_study(pooled, want)
    _assert_same_study(in_parent, want)


_FROM = scenario.HELPER_MIN_HORIZON
# a clean run, guessing attackers removed at steps 3 and 17, and a sensor
# whose removal is refused on 162 steps
_HELPER_CASES = (("none", ()), ("guessing", (1, 7)), ("persistent_bias", (0, 5)))


def _recorded_forks(mp) -> list[int]:
    """Patch ``os.fork`` to record, in this process, each child's pid."""
    pids, fork = [], os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    mp.setattr(os, "fork", recorded)
    return pids


def _process_resources():
    """This process's descriptors and shared mappings; it must have no child."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        shared = [line for line in fh if line.split()[1].endswith("s")]
    return sorted(os.listdir("/proc/self/fd")), shared


def _helped_and_in_line(cfg, plant):
    """Run ``cfg`` on ``plant`` with its bank in a forked helper and in
    line, require the same bytes, and return the helped run."""
    with pytest.MonkeyPatch.context() as mp:
        pids = _recorded_forks(mp)
        helped = run_scenario(cfg, plant)
        assert len(pids) == 1
        mp.setattr(scenario, "HELPER_MIN_HORIZON", cfg.horizon + 1)
        in_line = run_scenario(cfg, plant)
        assert len(pids) == 1
    _assert_bitwise_same_run(helped, in_line)
    return helped


@_CHILDREN
def test_a_helper_steps_the_bank_to_the_in_line_bytes():
    """The same bytes on a clean run, with removals, and with refused
    removals."""
    cfgs = [config_from_dict(_engine_raw(k, s, 1, _FROM, True, 2, 3, 3)) for k, s in _HELPER_CASES]
    clean, guessed, refused = (_helped_and_in_line(cfg, build_system(cfg)).summary for cfg in cfgs)
    assert clean["removed"] == {} and clean["operator_alerts"] == []
    assert sorted(guessed["removed"].values()) == [3, 17]
    assert refused["removed"] == {"0": 14} and len(refused["operator_alerts"]) == 162


@_CHILDREN
@settings(max_examples=3, deadline=None, derandomize=True)
@given(
    case=st.sampled_from(_HELPER_CASES),
    seed=st.integers(0, 2**32 - 1),
    horizon=st.integers(_FROM, _FROM + 50),
    system=st.fixed_dictionaries(
        {"kind": st.just("generated"), "seed": st.integers(0, 2**32 - 1), "n": st.sampled_from([5, 10]), "l": st.just(3)}
    ),
)
def test_a_helper_steps_the_bank_to_the_in_line_bytes_on_drawn_plants(case, seed, horizon, system):
    cfg = config_from_dict(_engine_raw(*case, seed, horizon, True, 2, 3, 3, system))
    try:
        plant = build_system(cfg)
    except ConditioningError:
        assume(False)  # generation refused the draw
    _helped_and_in_line(cfg, plant)


def _trial_without_fork(cfg, plant, index):
    """A trial in which ``os.fork`` fails the test."""

    def no_fork():
        pytest.fail("os.fork was called")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "fork", no_fork)
        return _trial(cfg, plant, index)


@_CHILDREN
def test_monte_carlo_workers_step_their_banks_in_line(monkeypatch):
    """Workers never fork a helper; the same trials run alone use one, to
    the same bytes."""
    cfg = config_from_dict(_engine_raw(*_HELPER_CASES[1], 1, _FROM, True, 2, 3, 3))
    monkeypatch.setattr(scenario, "_trial", _trial_without_fork)  # before the workers fork
    pooled = monte_carlo(cfg, trials=2)
    monkeypatch.undo()
    plant = build_system(cfg)
    pids = _recorded_forks(monkeypatch)
    for i in range(2):
        assert run_scenario(trial_config(cfg, i), plant).summary == pooled.summaries[i]
    assert len(pids) == 2


def _failing_after(calls: int, fail):
    """A stand-in for a method that calls ``fail()`` on its call ``calls``
    (counted from 0, in the process that calls it) and otherwise calls the
    method."""

    def patch(method):
        count = itertools.count()

        def failing(*args):
            if next(count) == calls:
                fail()
            return method(*args)

        return failing

    return patch


def _raise(exc):
    def fail():
        raise exc

    return fail


def _overflow():
    np.float64(1e308) * 10.0  # a RuntimeWarning, an error under Tier-1's filterwarnings


# (class, method, call, fail): ``fail()`` on the method's call ``call``
_FAILURES = {
    "bank_error": (LocalFilterBank, "step", 250, _raise(ModelError("the bank failed at step 250"))),
    "bank_warning": (LocalFilterBank, "step", 250, _overflow),
    "fusion_error": (FusionEstimator, "fuse", 100, _raise(FilterError("fusion failed at step 100"))),
    "interrupt": (FusionEstimator, "fuse", 100, _raise(KeyboardInterrupt("interrupted at step 100"))),
}
# the ways a child dies at its bank's step 250: it exits, or a signal kills
# it, as the kernel's out-of-memory killer does
_DEATHS = {
    "exits": (LocalFilterBank, "step", 250, lambda: os._exit(1)),
    "killed": (LocalFilterBank, "step", 250, lambda: os.kill(os.getpid(), signal.SIGKILL)),
}
_FAILING_TRIAL = 2


def _fail_in_run(mp, failure):
    """Patch ``failure`` into every run."""
    cls, name, calls, fail = failure
    mp.setattr(cls, name, _failing_after(calls, fail)(getattr(cls, name)))


def _fail_in_trial(mp, failure):
    """Patch ``failure`` into trial ``_FAILING_TRIAL`` of a study, counting
    calls from that trial's start."""

    def trial(cfg, plant, index):
        with pytest.MonkeyPatch.context() as trial_mp:
            if index == _FAILING_TRIAL:
                _fail_in_run(trial_mp, failure)
            return _trial(cfg, plant, index)

    mp.setattr(scenario, "_trial", trial)  # before the workers fork


class _Caller(NamedTuple):
    """One caller of ``scenario._forked``, as the tests below drive it."""

    work: Callable  # (cfg): the caller's work
    in_process: Callable  # (mp): patch the caller to do its work in this process
    forks: int  # how many children its work forks
    fail: Callable  # (mp, failure): patch a ``_FAILURES`` entry into its work
    item: Callable  # (failure): the step or trial that ``failure`` fails
    done: tuple  # (owner, name) of the functions whose returns in this process count its finished items
    ended: str  # its error's message, before the item, when a child has gone
    raw: dict  # the config of its work without children
    same: Callable  # (got, want): assert two results of its work are the same bytes


_STUDY_TRIALS = 4
_CALLERS = {
    "run": _Caller(
        work=run_scenario,
        in_process=lambda mp: mp.setattr(scenario, "HELPER_MIN_HORIZON", math.inf),
        forks=1,
        fail=_fail_in_run,
        item=lambda failure: failure[2],
        done=((FusionEstimator, "fuse"),),
        ended="the filter bank's helper process ended before step",
        raw=_engine_raw(*_HELPER_CASES[1], 1, _FROM, True, 2, 3, 3),
        same=_assert_bitwise_same_run,
    ),
    "study": _Caller(
        work=lambda cfg: monte_carlo(cfg, trials=_STUDY_TRIALS),
        in_process=lambda mp: mp.setattr(scenario, "_worker_count", lambda trials: 1),
        forks=scenario._worker_count(_STUDY_TRIALS),
        fail=_fail_in_trial,
        item=lambda failure: _FAILING_TRIAL,
        done=((scenario, "_next_record"), (scenario, "_trial")),
        ended="a Monte Carlo worker process ended before trial",
        raw=_guessing_raw(),
        same=_assert_same_study,
    ),
}
# a clean run long enough for a helper and for every failure
_FAILING_RAW = _engine_raw("none", (), 5, 300, False, 1, 3, 3)


def _failed(caller: _Caller, failure, children: bool):
    """Do ``caller``'s work on ``_FAILING_RAW`` with ``failure`` patched in,
    with children or in this process: (the error, the items finished in this
    process, the forks)."""
    cfg = config_from_dict(_FAILING_RAW)
    done = []

    def counted(fn):
        def counting(*args):
            result = fn(*args)
            done.append(1)
            return result

        return counting

    with pytest.MonkeyPatch.context() as mp:
        pids = _recorded_forks(mp)
        if not children:
            caller.in_process(mp)
        caller.fail(mp, failure)
        for owner, name in caller.done:
            mp.setattr(owner, name, counted(getattr(owner, name)))
        with pytest.raises(BaseException) as raised:
            caller.work(cfg)
    return raised.value, len(done), pids


@_CHILDREN
@pytest.mark.parametrize("failure", sorted(_FAILURES))
@pytest.mark.parametrize("caller", sorted(_CALLERS))
def test_an_error_in_a_child_reaches_the_caller_as_in_process_and_leaves_nothing(caller, failure):
    """A child's error reaches the caller with its type and arguments when
    the caller reaches the step or trial that failed, as in this process; an
    error or interrupt in the caller ends its children. Either way no child,
    descriptor or shared mapping outlives the work."""
    c, failure = _CALLERS[caller], _FAILURES[failure]
    before = _process_resources()
    forked, forked_done, pids = _failed(c, failure, children=True)
    assert len(pids) == c.forks
    assert _process_resources() == before
    here, here_done, no_pids = _failed(c, failure, children=False)
    assert no_pids == []
    assert _process_resources() == before
    assert (type(forked), forked.args) == (type(here), here.args)
    assert forked_done == here_done == c.item(failure)


@_CHILDREN
@pytest.mark.parametrize("death", sorted(_DEATHS))
@pytest.mark.parametrize("caller", sorted(_CALLERS))
def test_a_child_that_dies_fails_the_caller_at_its_step_or_trial(caller, death):
    c, death = _CALLERS[caller], _DEATHS[death]
    before = _process_resources()
    error, done, pids = _failed(c, death, children=True)
    assert (type(error), error.args) == (RuntimeError, (f"{c.ended} {c.item(death)}",))
    assert done == c.item(death)
    assert len(pids) == c.forks
    assert _process_resources() == before


def _stuck_blas(mp, stack, caller):
    """Add a BLAS library whose setter leaves its getter reading two threads."""
    functions = (scenario._blas_thread_functions() or ()) + (_FakeBlas(2, stuck=True).functions,)
    mp.setattr(scenario, "_blas_thread_functions", lambda: functions)


def _second_thread(mp, stack, caller):
    """Start a second thread, which runs until ``stack`` closes."""
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    stack.callback(thread.join)
    stack.callback(stop.set)


# (mp, stack, caller): the ways a child may not be forked; os.fork is never called
_MAY_NOT_FORK = {
    "in_process": lambda mp, stack, caller: caller.in_process(mp),
    "worker": lambda mp, stack, caller: mp.setattr(scenario, "_in_child", True),
    "one_cpu": lambda mp, stack, caller: mp.setattr(os, "sched_getaffinity", lambda pid: {0}),
    "unpinned": lambda mp, stack, caller: mp.setattr(scenario, "_blas_thread_functions", lambda: None),
    "two_threads": _stuck_blas,
    "thread": _second_thread,
}
# (fork number, from 0): whether that fork fails; every fork is tried
_FAILING_FORKS = {"fork_fails": lambda k: True, "second_fork_fails": lambda k: k == 1}


@functools.cache
def _with_children(caller: str):
    """``caller``'s config and its work done as usual, with children where
    they may be forked."""
    c = _CALLERS[caller]
    cfg = config_from_dict(c.raw)
    return cfg, c.work(cfg)


@pytest.mark.parametrize(
    "caller, case",
    [(caller, case) for caller in sorted(_CALLERS) for case in sorted(_MAY_NOT_FORK)]
    + [
        pytest.param(caller, case, marks=_CHILDREN)
        for caller in sorted(_CALLERS)
        for case in sorted(_FAILING_FORKS)
        if case != "second_fork_fails" or _CALLERS[caller].forks > 1
    ],
)
def test_without_a_child_the_work_runs_here_to_the_same_bytes(caller, case):
    """Where a child may not be forked, or its fork fails, the caller does
    that child's work in this process, to the same bytes, and leaves
    nothing behind."""
    c = _CALLERS[caller]
    cfg, want = _with_children(caller)
    before = _process_resources()
    fails, tried, fork = _FAILING_FORKS.get(case, lambda k: True), [], os.fork

    def flaky():
        tried.append(len(tried))
        if fails(tried[-1]):
            raise OSError(11, "Resource temporarily unavailable")
        return fork()

    with contextlib.ExitStack() as stack:
        mp = stack.enter_context(pytest.MonkeyPatch.context())
        if case in _MAY_NOT_FORK:
            _MAY_NOT_FORK[case](mp, stack, c)
        mp.setattr(os, "fork", flaky)
        got = c.work(cfg)
    assert tried == ([] if case in _MAY_NOT_FORK else list(range(c.forks)))
    assert _process_resources() == before
    c.same(got, want)


def test_keyless_explicit_studies_derive_keys_from_their_seed(tmp_path):
    raw = _explicit_raw(tmp_path, key=None)
    cfg = config_from_dict(raw, base_dir=tmp_path)
    other = config_from_dict(dict(raw, seed=6), base_dir=tmp_path)
    base = schedule_key("mtident-explicit-5")
    assert scenario.config_schedule_key(cfg) == base
    for i in range(3):
        key_i = trial_config(cfg, i).schedule.key
        assert key_i == hashlib.sha256(base + i.to_bytes(8, "big")).digest()
        assert key_i != trial_config(other, i).schedule.key
    # a generated system's keyless studies keep the system-seed rule
    gen = config_from_dict(_raw(schedule={"period": 5}))
    assert scenario.config_schedule_key(gen) == schedule_key("mtident-example-11")


# ---------------------------------------------------------------------------
# outputs


def test_write_run_outputs_csv(tmp_path):
    cfg = config_from_dict(_raw(horizon=12))
    r = run_scenario(cfg)
    paths = write_run_outputs(r, tmp_path, fmt="csv")
    assert [p.name for p in paths] == ["metrics.csv", "events.csv", "summary.json"]

    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert lines[0] == "# mtident-metrics-v1"
    rows = list(csv.reader(lines[1:]))
    assert rows[0] == ["step", "schedule_index", "err_central", "err_fused", "trace_P"] + [
        f"z_{s}" for s in range(1, 11)
    ]
    assert len(rows) == 1 + 12
    # repr-format round trip is exact
    assert float(rows[1][2]) == r.err_central[0]
    assert float(rows[5][7]) == r.local_residues[4, 2]

    elines = (tmp_path / "events.csv").read_text().splitlines()
    assert elines[0] == "# mtident-events-v1"
    assert elines[1].split(",") == ["step", "sensor", "event"]

    assert json.loads((tmp_path / "summary.json").read_text()) == r.summary


def test_write_run_outputs_jsonl(tmp_path):
    cfg = config_from_dict(_raw(horizon=8))
    r = run_scenario(cfg)
    write_run_outputs(r, tmp_path, fmt="jsonl")
    recs = [
        json.loads(line)
        for line in (tmp_path / "metrics.jsonl").read_text().splitlines()
    ]
    assert len(recs) == 8
    assert recs[3]["step"] == "3"
    assert float(recs[3]["err_central"]) == r.err_central[3]
    with pytest.raises(ConfigError, match="format"):
        write_run_outputs(r, tmp_path, fmt="xml")


def test_write_monte_carlo_outputs(tmp_path):
    mc = monte_carlo(config_from_dict(_raw(horizon=10)), trials=2)
    paths = write_monte_carlo_outputs(mc, tmp_path)
    assert [p.name for p in paths] == ["trials.csv", "aggregate.json"]
    lines = (tmp_path / "trials.csv").read_text().splitlines()
    assert lines[0] == "# mtident-trials-v1"
    assert lines[1].split(",")[0] == "trial"
    assert len(lines) == 2 + 2
    assert json.loads((tmp_path / "aggregate.json").read_text()) == mc.aggregate


def test_a_clean_sensors_false_alarm_is_no_detection(tmp_path, monkeypatch):
    """``trials.csv``'s first_detection and ``aggregate.json``'s
    first_detection_steps both read the attacked sensors' first alarms only."""
    summaries = [
        # clean sensor 2 alarms at step 3, attacked sensor 5 at step 7
        {"attacked_sensors": [5, 6], "first_alarm": {"2": 3, "5": 7}, "removed": {"5": 8}},
        # only a clean sensor alarms
        {"attacked_sensors": [5, 6], "first_alarm": {"0": 4}, "removed": {}},
        {"attacked_sensors": [5, 6], "first_alarm": {"6": 9, "5": 12}, "removed": {}},
    ]
    for s in summaries:
        s.update(mse_central=1.5, mse_fused=0.25)
    monkeypatch.setattr(scenario, "_trial", lambda cfg, plant, i: summaries[i])
    monkeypatch.setattr(scenario, "_worker_count", lambda trials: 1)
    raw = _raw(horizon=10, attack={"kind": "persistent_bias", "sensors": [5, 6], "constant": 1.0})
    mc = monte_carlo(config_from_dict(raw), trials=3)
    assert mc.aggregate["first_detection_steps"] == [7, 9]
    write_monte_carlo_outputs(mc, tmp_path)
    rows = list(csv.DictReader((tmp_path / "trials.csv").read_text().splitlines()[1:]))
    assert [row["first_detection"] for row in rows] == ["7", "", "9"]
    assert [row["mse_fused"] for row in rows] == ["0.25"] * 3


# ---------------------------------------------------------------------------
# explicit systems from matrix files


def test_explicit_system_config_resolves_and_runs(tmp_path):
    rng = np.random.default_rng(81)
    ts = random_target_set(rng, n=3, m=2, l=2, rho=0.8, period=4)
    for i, pair in enumerate(ts.pairs):
        write_matrix(tmp_path / f"A{i}.txt", pair.A)
        write_matrix(tmp_path / f"C{i}.txt", pair.C)
    write_matrix(tmp_path / "Q.txt", spd(rng, 3, 0.05))
    write_matrix(tmp_path / "R.txt", spd(rng, 2, 0.1))
    write_vector(tmp_path / "x0.txt", np.array([1.0, -1.0, 0.5]))
    write_matrix(tmp_path / "P0.txt", np.eye(3))
    raw = {
        "horizon": 12,
        "seed": 9,
        "system": {
            "kind": "explicit",
            "pairs": [
                {"A": "A0.txt", "C": "C0.txt"},
                {"A": "A1.txt", "C": "C1.txt"},
            ],
            "Q": "Q.txt",
            "R": "R.txt",
            "x0_mean": "x0.txt",
            "P0": "P0.txt",
        },
        "schedule": {"period": 4, "key": "explicit-key"},
    }
    cfg = config_from_dict(raw, base_dir=tmp_path)
    assert cfg.system.Q_file == str(tmp_path / "Q.txt")
    r = run_scenario(cfg)
    assert r.err_central.shape == (12,)
    assert np.all(np.isfinite(r.err_central))
    assert np.all(np.isfinite(r.local_residues))
    # malformed pair entries are rejected
    bad = dict(raw)
    bad["system"] = dict(raw["system"], pairs=[{"A": "A0.txt"}])
    with pytest.raises(ConfigError, match="pairs"):
        config_from_dict(bad, base_dir=tmp_path)
