import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mtident
from mtident import schedule_key, write_matrix, write_vector
from mtident.cli import main


def _write_cfg(path, **over):
    raw = {
        "horizon": 12,
        "seed": 4,
        "system": {
            "kind": "generated",
            "seed": 11,
            "n": 10,
            "l": 2,
            "spectral_radius": [0.55, 0.9],
        },
        "schedule": {"period": 5, "key": "cli-key"},
    }
    raw.update(over)
    path.write_text(json.dumps(raw))
    return path


def test_gen_system_analyze_simulate_round_trip(tmp_path, capsys):
    sysdir = tmp_path / "sys"
    assert main(
        ["gen-system", "--seed", "5", "--out-dir", str(sysdir), "--n", "10", "--l", "2", "--period", "6"]
    ) == 0
    for name in ("A_0.txt", "A_1.txt", "C_0.txt", "C_1.txt", "Q.txt", "R.txt", "x0_mean.txt", "P0.txt", "config.json"):
        assert (sysdir / name).exists()
    cfg = json.loads((sysdir / "config.json").read_text())
    assert cfg["horizon"] == 60 and cfg["system"]["kind"] == "explicit"
    capsys.readouterr()

    assert main(["analyze", "--config", str(sysdir / "config.json")]) == 0
    out = capsys.readouterr().out
    assert "sparse observability margins" in out
    assert "configurations: 2, state dimension: 10, sensors: 10" in out

    simdir = tmp_path / "sim"
    assert main(
        ["simulate", "--config", str(sysdir / "config.json"), "--out-dir", str(simdir)]
    ) == 0
    lines = (simdir / "metrics.csv").read_text().splitlines()
    assert lines[0] == "# mtident-metrics-v1"
    assert len(lines) == 2 + 60  # schema + header + one row per step
    assert (simdir / "events.csv").exists() and (simdir / "summary.json").exists()


def test_gen_system_config_runs_under_the_generated_plants_default_key(tmp_path):
    """A `gen-system` design runs exactly as the generated config it came from."""
    assert main(
        ["gen-system", "--seed", "5", "--n", "10", "--l", "2", "--period", "6", "--out-dir", str(tmp_path / "sys")]
    ) == 0
    generated = tmp_path / "generated.json"
    generated.write_text(json.dumps({
        "horizon": 60,
        "seed": 5,
        "system": {"kind": "generated", "seed": 5, "n": 10, "l": 2},
        "schedule": {"period": 6},
    }))
    runs = {"design": tmp_path / "sys" / "config.json", "generated": generated}
    for name, cfg in runs.items():
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / name)]) == 0
    names = ("metrics.csv", "events.csv", "summary.json")
    for name in names:
        assert (tmp_path / "design" / name).read_bytes() == (tmp_path / "generated" / name).read_bytes()
    assert sorted(p.name for p in (tmp_path / "design").iterdir()) == sorted(names)


def test_simulate_is_reproducible_and_seed_override_changes_output(tmp_path):
    cfg = _write_cfg(tmp_path / "cfg.json")
    for d in ("a", "b"):
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / d)]) == 0
    assert (tmp_path / "a" / "metrics.csv").read_bytes() == (tmp_path / "b" / "metrics.csv").read_bytes()
    assert main(
        ["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "c"), "--seed-override", "999"]
    ) == 0
    assert (tmp_path / "a" / "metrics.csv").read_bytes() != (tmp_path / "c" / "metrics.csv").read_bytes()


def _subprocess_env(**extra):
    """This environment, with ``extra`` set and this package importable."""
    src = str(Path(mtident.__file__).parents[1])
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


def test_simulate_writes_the_same_bytes_at_any_blas_thread_count(tmp_path):
    """Plant generation runs at the process's BLAS threading and the filter
    loop on one thread; an n = 30 plant is large enough for OpenBLAS to
    thread its products."""
    cfg = _write_cfg(
        tmp_path / "cfg.json",
        horizon=40,
        system={"kind": "generated", "seed": 7, "n": 30, "l": 2},
        attack={"kind": "persistent_bias", "sensors": [3], "constant": 50.0},
    )
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        subprocess.run(
            [sys.executable, "-m", "mtident.cli", "simulate", "--config", str(cfg), "--out-dir", str(out)],
            env=_subprocess_env(OPENBLAS_NUM_THREADS=threads),
            check=True,
            capture_output=True,
        )
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert list(outputs[0]) == ["events.csv", "metrics.csv", "summary.json"]
    assert outputs[0] == outputs[1]
    assert list(json.loads(outputs[0]["summary.json"])["removed"]) == ["3"]


def test_a_run_after_importing_the_cli_imports_no_numpy_or_scipy_module(tmp_path):
    """numpy loads ``numpy.random`` lazily; the CLI loads it at import, so a
    run's timed work does not."""
    raw = json.loads((Path(__file__).parents[1] / "configs" / "example.json").read_text())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(raw, horizon=40)))
    code = f"""
import sys, mtident.cli
before = set(sys.modules)
assert mtident.cli.main(['simulate', '--config', {str(cfg)!r}, '--out-dir', {str(tmp_path / "out")!r}]) == 0
print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] in ('numpy', 'scipy')))
"""
    out = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(), capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[]"


def test_simulate_jsonl_format(tmp_path):
    cfg = _write_cfg(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert main(
        ["simulate", "--config", str(cfg), "--out-dir", str(out), "--format", "jsonl"]
    ) == 0
    lines = (out / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 12
    json.loads(lines[0])


def test_montecarlo_cli(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "cfg.json", horizon=10)
    out = tmp_path / "mc"
    assert main(
        ["montecarlo", "--config", str(cfg), "--out-dir", str(out), "--trials", "2"]
    ) == 0
    assert "2 trial(s)" in capsys.readouterr().out
    assert (out / "trials.csv").exists()
    agg = json.loads((out / "aggregate.json").read_text())
    assert agg["trials"] == 2


def test_configuration_problems_exit_with_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"horizon": 10, "seed": 1, "oops": True}))
    assert main(["simulate", "--config", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert main(
        ["simulate", "--config", str(tmp_path / "missing.json"), "--out-dir", str(tmp_path / "o")]
    ) == 2
    bad.write_text(json.dumps({"horizon": 10, "seed": 1, "detector": {"sensor_window": 0}}))
    assert main(["simulate", "--config", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
    assert "detector.sensor_window" in capsys.readouterr().err
    _write_cfg(bad, attack={"kind": "persistent_bias", "sensors": [12], "constant": 1.0})
    assert main(["simulate", "--config", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
    assert "attack.sensors" in capsys.readouterr().err
    assert main(["gen-system", "--seed", "1", "--n", "12", "--out-dir", str(tmp_path / "g")]) == 2
    assert "'--n'" in capsys.readouterr().err
    assert main(["gen-system", "--seed", "1", "--period", "0", "--out-dir", str(tmp_path / "g")]) == 2
    assert "'--period'" in capsys.readouterr().err
    assert not (tmp_path / "g").exists()
    # a generated-system key on the explicit system that gen-system writes
    assert main(["gen-system", "--seed", "1", "--n", "10", "--l", "2", "--out-dir", str(tmp_path / "sys")]) == 0
    design = tmp_path / "sys" / "config.json"
    cfg = json.loads(design.read_text())
    cfg["system"]["noise_scale"] = 1000.0
    design.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["simulate", "--config", str(design), "--out-dir", str(tmp_path / "o")]) == 2
    assert "system.noise_scale" in capsys.readouterr().err
    # persistent-bias and cross-model keys on the guessing attack of the example
    example = json.loads((Path(__file__).resolve().parents[1] / "configs" / "example.json").read_text())
    example["horizon"] = 60
    example["attack"].update(constant=5.0, models=[2, 3])
    bad.write_text(json.dumps(example))
    assert main(["simulate", "--config", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
    assert "'attack.constant'" in capsys.readouterr().err
    # a cross-model attack on a sensor where configurations 0 and 1 share no
    # output behaviour: the attack the config asks for does not exist
    example.update(horizon=40, attack={"kind": "cross_model", "sensors": [5], "models": [0, 1]})
    bad.write_text(json.dumps(example))
    assert main(["simulate", "--config", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "attack.sensors [5]" in err and "attack.models [0, 1]" in err and "sensor 5" in err
    # a missing, then a malformed matrix file of the explicit design
    del cfg["system"]["noise_scale"]
    design.write_text(json.dumps(cfg))
    runs = (
        ["simulate", "--config", str(design), "--out-dir", str(tmp_path / "o")],
        ["analyze", "--config", str(design)],
    )
    q_file, r_file = tmp_path / "sys" / "Q.txt", tmp_path / "sys" / "R.txt"
    q_text = q_file.read_text()
    q_file.unlink()
    for cmd in runs:
        assert main(cmd) == 2
        err = capsys.readouterr().err
        assert "'system.Q'" in err and str(q_file) in err
    q_file.write_text(q_text)
    r_file.write_text("garbage\n")
    for cmd in runs:
        assert main(cmd) == 2
        err = capsys.readouterr().err
        assert "'system.R'" in err and str(r_file) in err


def test_numerical_failures_exit_with_3(tmp_path, capsys):
    # explicit system with a singular measurement covariance
    rng = np.random.default_rng(3)
    A = 0.5 * np.eye(2)
    C = np.eye(2)
    write_matrix(tmp_path / "A.txt", A)
    write_matrix(tmp_path / "C.txt", C)
    write_matrix(tmp_path / "Q.txt", np.eye(2))
    write_matrix(tmp_path / "R.txt", np.zeros((2, 2)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "horizon": 5,
                "seed": 1,
                "system": {
                    "kind": "explicit",
                    "pairs": [{"A": "A.txt", "C": "C.txt"}],
                    "Q": "Q.txt",
                    "R": "R.txt",
                },
            }
        )
    )
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_analyze_audits_a_design_whose_sensors_do_not_decompose(tmp_path, capsys):
    # sensor 0 sees x1 under configuration 0 and x2 under configuration 1, so
    # its unobservable subspace moves: no per-sensor filter, but an audit
    A = np.diag([1.1, 0.9])
    pairs = []
    for j, C in enumerate((np.eye(2), np.eye(2)[::-1])):
        write_matrix(tmp_path / f"A{j}.txt", A)
        write_matrix(tmp_path / f"C{j}.txt", C)
        pairs.append({"A": f"A{j}.txt", "C": f"C{j}.txt"})
    write_matrix(tmp_path / "Q.txt", np.eye(2))
    write_matrix(tmp_path / "R.txt", np.eye(2))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "horizon": 5,
                "seed": 1,
                "system": {"kind": "explicit", "pairs": pairs, "Q": "Q.txt", "R": "R.txt"},
            }
        )
    )
    assert main(["analyze", "--config", str(cfg)]) == 0
    assert "configurations: 2, state dimension: 2, sensors: 2" in capsys.readouterr().out
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 3
    assert "unobservable" in capsys.readouterr().err


def test_schedule_key_reaches_no_output(tmp_path, capsys):
    key = "do-not-leak-this-schedule-key"
    raw = schedule_key(key)
    secrets = (key.encode(), raw, raw.hex().encode(), raw.hex().upper().encode())
    cfg = _write_cfg(
        tmp_path / "cfg.json",
        schedule={"period": 5, "key": key},
        attack={"kind": "guessing", "sensors": [4], "x0_star_scale": 10.0},
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out / "sim")]) == 0
    assert main(
        ["montecarlo", "--config", str(cfg), "--out-dir", str(out / "mc"), "--trials", "3"]
    ) == 0
    captured = capsys.readouterr()
    written = sorted(p for p in out.rglob("*") if p.is_file())
    names = {"metrics.csv", "events.csv", "summary.json", "trials.csv", "aggregate.json"}
    assert names <= {p.name for p in written}
    for blob in [p.read_bytes() for p in written] + [captured.out.encode(), captured.err.encode()]:
        for secret in secrets:
            assert secret not in blob


def test_package_exports_resolve_without_duplicates():
    import mtident

    assert len(set(mtident.__all__)) == len(mtident.__all__)
    for name in mtident.__all__:
        assert hasattr(mtident, name), name


def test_benchmark_trace_layers_resolve():
    # the traced benchmark wraps these names; a rename would break only its
    # traced runs, so check them here the way Tracer.install looks them up,
    # on this checkout's src/, without installing any wrapper
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("perfbench_tracer", root / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, module, cls_name, attr in tracer.LAYERS:
        assert Path(module.__file__).resolve().is_relative_to(root / "src"), layer
        if cls_name is None:
            assert callable(getattr(module, attr, None)), layer
        else:
            assert attr in vars(getattr(module, cls_name)), (layer, cls_name, attr)
