"""Benchmark workloads: a seed deterministically yields the inputs of a run.

Each workload turns a benchmark seed into mtident CLI invocations plus the
scenario configs they read. The program only ever sees those files; the seed
never reaches it directly. Why each workload exists is recorded in
``BENCHMARK.json`` and in ``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

# The worked-example plant of configs/example.json: n=15, m=10, l=7.
EXAMPLE_PLANT = {"kind": "generated", "seed": 7, "n": 15, "l": 7}
EXAMPLE_PERIOD = 30

SIM_HORIZON = 1000  # filter steps per sim_clean_long process
MC_TRIALS = 32  # trials per mc_guessing process
MC_HORIZON = 2 * EXAMPLE_PERIOD  # criterion 10's trial length
ATTACKED = [5, 6, 7, 8, 9]
# mc_guessing also audits one explicit design of the example plant's size, so
# identifiability and matrixio are measured too (see README.md).
DESIGN_N, DESIGN_L = 15, 7

WORKLOADS = ("sim_clean_long", "mc_guessing")


def derive(seed: int, *labels) -> int:
    """A 32-bit value that depends only on the seed and the labels."""
    text = ":".join(str(v) for v in (seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


def sim_config(seed: int) -> dict:
    """Long clean run of the example plant: no attack, removal disabled."""
    return {
        "horizon": SIM_HORIZON,
        "seed": derive(seed, "sim", "noise"),
        "system": dict(EXAMPLE_PLANT),
        "schedule": {"period": EXAMPLE_PERIOD, "key": f"perfbench-{derive(seed, 'sim', 'key')}"},
        "attack": {"kind": "none"},
        "detector": {"removal_enabled": False},
    }


def mc_config(seed: int) -> dict:
    """Guessing attackers on sensors 5-9, production detector settings."""
    return {
        "horizon": MC_HORIZON,
        "seed": derive(seed, "mc", "noise"),
        "trials": MC_TRIALS,
        "system": dict(EXAMPLE_PLANT),
        "schedule": {"period": EXAMPLE_PERIOD, "key": f"perfbench-{derive(seed, 'mc', 'key')}"},
        "attack": {
            "kind": "guessing",
            "sensors": list(ATTACKED),
            "x0_star": "auto",
            "x0_star_scale": 10.0,
            "seed": derive(seed, "mc", "attacker"),
        },
        "detector": {},
    }


def prepare(workload: str, seed: int, work: Path) -> dict:
    """Write the workload's configs under ``work`` and describe its run.

    Returns ``{"setup_calls": [...], "calls": [...], "ops": int, "config":
    dict}``: the CLI argument lists that build inputs once (untimed), the
    ones each measured process runs, the ops one process does, and the
    scenario config. An ``{out}`` entry in an argument list stands for that
    process's own output directory.
    """
    work.mkdir(parents=True, exist_ok=True)
    if workload == "sim_clean_long":
        cfg = sim_config(seed)
        path = work / "sim.json"
        path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
        return {
            "setup_calls": [],
            "calls": [["simulate", "--config", str(path), "--out-dir", "{out}"]],
            "ops": cfg["horizon"],
            "config": cfg,
        }
    if workload == "mc_guessing":
        cfg = mc_config(seed)
        path = work / "mc.json"
        path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
        design = work / "design"
        return {
            "setup_calls": [
                ["gen-system", "--seed", str(derive(seed, "design") % 100_000), "--n", str(DESIGN_N),
                 "--l", str(DESIGN_L), "--out-dir", str(design)]
            ],
            "calls": [
                ["analyze", "--config", str(design / "config.json")],
                ["montecarlo", "--config", str(path), "--out-dir", "{out}"],
            ],
            "ops": cfg["trials"] * cfg["horizon"],
            "config": cfg,
        }
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
