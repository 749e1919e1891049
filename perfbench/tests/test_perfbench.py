"""Tests of the benchmark itself: ``python3 -m pytest perfbench/tests``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from mtident.cli import main as cli_main  # noqa: E402


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER


def test_reported_metrics_are_exactly_the_declared_ones():
    rec = {"problems": [], "setup_s": 1.0, "wall_s": 3.0, "ops": 10, "compute_s": 2.0, "rss_mb": 100.0}
    assert set(run.end_to_end([rec])) == set(run.END_TO_END)
    traced = {"compute_s": 2.5, "layers": {"layers": {}, "compute_s": 2.5, "unattributed_s": 0.1}}
    plain = {"compute_s": 2.0, "cpu_s": 3.0, "nivcsw": 5, "fingerprint": {"os_threads_after_import": 3}}
    imports = {"cli.import_s": 1.1, "cli.import_scipy_stats_s": 0.9}
    assert set(run.per_layer(traced, plain, imports)) == set(run.PER_LAYER)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_a_seed_always_generates_the_same_configs(tmp_path, workload):
    def generated(seed, where):
        prep = workloads.prepare(workload, seed, tmp_path / where)
        files = {p.name: p.read_bytes() for p in (tmp_path / where).glob("*.json")}
        return json.loads(json.dumps(prep).replace(str(tmp_path / where), "")), files

    assert generated(7, "a") == generated(7, "b")
    assert generated(7, "a") != generated(8, "c")


@pytest.fixture(scope="module")
def sim_out(tmp_path_factory):
    d = tmp_path_factory.mktemp("sim")
    cfg = dict(workloads.sim_config(3), horizon=200)
    (d / "cfg.json").write_text(json.dumps(cfg))
    assert cli_main(["simulate", "--config", str(d / "cfg.json"), "--out-dir", str(d / "out")]) == 0
    return d / "out", cfg


def _copy(src: Path, dst: Path) -> Path:
    shutil.copytree(src, dst)
    return dst


def test_sim_check_accepts_program_output(sim_out):
    out, cfg = sim_out
    quality, problems = checks.check_sim(out, cfg)
    assert problems == []
    assert set(quality) == {"calib_err", "mse_ratio"}


def test_sim_check_rejects_inflated_residue_variance(sim_out, tmp_path):
    out, cfg = sim_out
    bad = _copy(out, tmp_path / "bad")
    lines = (bad / "metrics.csv").read_text().splitlines()
    header = lines[1].split(",")
    rows = []
    for line in lines[2:]:
        cells = line.split(",")
        rows.append(",".join(repr(2.0 * float(c)) if h.startswith("z_") else c for h, c in zip(header, cells)))
    (bad / "metrics.csv").write_text("\n".join(lines[:2] + rows) + "\n")
    _, problems = checks.check_sim(bad, cfg)
    assert any("variance" in p for p in problems)


def test_sim_check_rejects_a_removed_clean_sensor(sim_out, tmp_path):
    out, cfg = sim_out
    bad = _copy(out, tmp_path / "bad")
    summary = json.loads((bad / "summary.json").read_text())
    summary["removed"] = {"3": 40}
    (bad / "summary.json").write_text(json.dumps(summary))
    _, problems = checks.check_sim(bad, cfg)
    assert any("removed sensors" in p for p in problems)


def test_mc_check_accepts_output_and_rejects_clean_removals(tmp_path):
    cfg = dict(workloads.mc_config(3), trials=4)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli_main(["montecarlo", "--config", str(tmp_path / "cfg.json"), "--out-dir", str(out)]) == 0
    quality, problems = checks.check_mc(out, cfg)
    assert problems == []
    assert set(quality) == {"id_rate", "false_removal_rate", "detect_delay_steps"}
    agg = json.loads((out / "aggregate.json").read_text())
    (out / "aggregate.json").write_text(json.dumps(dict(agg, trials_with_clean_removal=4)))
    _, problems = checks.check_mc(out, cfg)
    assert any("clean sensors removed" in p for p in problems)
    (out / "aggregate.json").write_text(json.dumps(dict(agg, all_attacked_removed_trials=0)))
    _, problems = checks.check_mc(out, cfg)
    assert any("all attackers removed" in p for p in problems)


def test_analyze_check_rejects_a_malformed_margin():
    good = (
        "configurations: 2, state dimension: 10, sensors: 10\n"
        "schedule period: 20 (recommended minimum 20)\n"
        "sparse observability margins per configuration:\n"
        "  configuration 0: survives any 3 removal(s); identifies up to 1 attacked sensor(s)\n"
        "  configuration 1: survives any 1 removal(s); identifies up to 0 attacked sensor(s)\n"
        "findings: none (design recommendations satisfied, no cross-model attacks)\n"
    )
    assert checks.check_analyze(good, 10, 2) == ({"margins": [3, 1], "findings": 0}, [])
    _, problems = checks.check_analyze(good.replace("up to 1", "up to 4"), 10, 2)
    assert problems


def _child(tmp_path, trace):
    design = tmp_path / "design"
    job = {
        "calls": [
            ["gen-system", "--seed", "1", "--n", "10", "--l", "2", "--out-dir", str(design)],
            ["analyze", "--config", str(design / "config.json")],
        ],
        "out": str(tmp_path / "out"),
        "labels": ["gen", "analyze"],
        "spans": str(tmp_path / "spans.jsonl"),
    }
    (tmp_path / "job.json").write_text(json.dumps(job))
    cmd = [sys.executable, str(HERE / "child.py"), str(tmp_path / "job.json"), str(tmp_path / "result.json")]
    subprocess.run(cmd + (["--trace"] if trace else []), check=True, timeout=120)
    return json.loads((tmp_path / "result.json").read_text())


def test_untraced_path_installs_no_wrappers(tmp_path):
    result = _child(tmp_path, trace=False)
    assert result["codes"] == [0, 0]
    assert result["wrappers"] == 0
    assert "layers" not in result
    assert not (tmp_path / "spans.jsonl").exists()


def test_traced_path_wraps_every_layer_and_accounts_for_its_time(tmp_path):
    result = _child(tmp_path, trace=True)
    assert result["wrappers"] > 0
    summary = result["layers"]
    assert summary["layers"]["identifiability.jordan_chains"]["calls"] > 0
    self_sum = sum(e["self_s"] for e in summary["layers"].values())
    assert self_sum + summary["unattributed_s"] == pytest.approx(summary["compute_s"], abs=1e-6)
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert len(spans) == summary["spans"]
    assert {s["request"] for s in spans} == {"gen", "analyze"}


def test_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for f in HERE.glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_guessing", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
