"""Command-line interface.

Subcommands:

* ``gen-system``  -- generate a worked-example system and write its matrices
  plus a ready-to-run configuration file,
* ``analyze``     -- audit the configured system (design recommendations,
  sparse observability margins, cross-model vulnerabilities),
* ``simulate``    -- run one seeded scenario and write metrics/events,
* ``montecarlo``  -- run repeated trials and write per-trial and aggregate
  results.

Exit codes: 0 on success, 2 for configuration problems, 3 for numerical
failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .errors import (
    ConditioningError,
    ConfigError,
    DecompositionError,
    FilterError,
    ModelError,
    MtidentError,
)
from .identifiability import analyze_target_set
from .matrixio import write_matrix, write_vector
from .scenario import (
    ScenarioConfig,
    SystemSpec,
    build_target_set,
    check_example_size,
    check_seed,
    example_key,
    generate_example_system,
    load_config,
    monte_carlo,
    run_scenario,
    write_monte_carlo_outputs,
    write_run_outputs,
)

_NUMERICAL = (ConditioningError, FilterError, DecompositionError, ModelError, np.linalg.LinAlgError)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", required=True, help="JSON scenario configuration")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.add_argument(
        "--seed-override", type=int, default=None, help="replace the configured seed"
    )
    p.add_argument(
        "--format", choices=("csv", "jsonl"), default="csv", help="tabular output format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtident",
        description="Moving-target sensing schedules: identifiability analysis, "
        "estimation, and attack detection experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-system", help="generate a worked-example system")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out-dir", required=True)
    g.add_argument("--n", type=int, default=SystemSpec.n, help="state dimension (multiple of 5)")
    g.add_argument("--l", type=int, default=SystemSpec.l, help="number of configurations")
    g.add_argument("--period", type=int, default=None, help="schedule dwell time (default 2n)")
    g.set_defaults(func=_cmd_gen_system)

    a = sub.add_parser("analyze", help="audit the configured system design")
    a.add_argument("--config", required=True)
    a.set_defaults(func=_cmd_analyze)

    s = sub.add_parser("simulate", help="run one scenario")
    _add_common(s)
    s.set_defaults(func=_cmd_simulate)

    mc = sub.add_parser("montecarlo", help="run repeated trials")
    _add_common(mc)
    mc.add_argument("--trials", type=int, default=None, help="override configured trial count")
    mc.set_defaults(func=_cmd_montecarlo)
    return parser


def _load(args) -> ScenarioConfig:
    cfg = load_config(args.config)
    if args.seed_override is not None:
        check_seed(args.seed_override, "--seed-override")
        cfg = dataclasses.replace(cfg, seed=args.seed_override)
    return cfg


def _cmd_gen_system(args) -> int:
    check_example_size(args.n, args.l, "--")
    check_seed(args.seed, "--seed")
    if args.period is not None and args.period < 1:
        raise ConfigError("'--period' must be >= 1")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    plant = generate_example_system(seed=args.seed, n=args.n, l=args.l, period=args.period)
    ts, noise = plant.ts, plant.noise
    pair_entries = []
    for j, pair in enumerate(ts.pairs):
        write_matrix(out / f"A_{j}.txt", pair.A)
        write_matrix(out / f"C_{j}.txt", pair.C)
        pair_entries.append({"A": f"A_{j}.txt", "C": f"C_{j}.txt"})
    write_matrix(out / "Q.txt", noise.Q)
    write_matrix(out / "R.txt", noise.R)
    write_vector(out / "x0_mean.txt", noise.x0_mean)
    write_matrix(out / "P0.txt", noise.P0)
    config = {
        "horizon": 10 * ts.period,
        "seed": args.seed,
        "system": {
            "kind": "explicit",
            "pairs": pair_entries,
            "Q": "Q.txt",
            "R": "R.txt",
            "x0_mean": "x0_mean.txt",
            "P0": "P0.txt",
        },
        "schedule": {"period": ts.period, "key": example_key(args.seed)},
    }
    (out / "config.json").write_text(json.dumps(config, indent=2) + "\n", encoding="ascii")
    print(
        f"wrote {ts.l} configuration(s) of dimension {ts.n} with {ts.m} sensors to {out}"
    )
    print(f"configuration file: {out / 'config.json'}")
    return 0


def _cmd_analyze(args) -> int:
    cfg = load_config(args.config)
    ts = build_target_set(cfg)
    report = analyze_target_set(ts)
    print(f"configurations: {ts.l}, state dimension: {ts.n}, sensors: {ts.m}")
    print(f"schedule period: {ts.period} (recommended minimum {2 * ts.n})")
    print("sparse observability margins per configuration:")
    for j, margin in enumerate(report.sparse_margins):
        ident = margin // 2
        print(
            f"  configuration {j}: survives any {margin} removal(s); "
            f"identifies up to {max(ident, 0)} attacked sensor(s)"
        )
    findings = report.findings()
    if findings:
        print("findings:")
        for line in findings:
            print(f"  - {line}")
    else:
        print("findings: none (design recommendations satisfied, no cross-model attacks)")
    return 0


def _cmd_simulate(args) -> int:
    cfg = _load(args)
    report = run_scenario(cfg)
    paths = write_run_outputs(report, args.out_dir, fmt=args.format)
    for p in paths:
        print(f"wrote {p}")
    s = report.summary
    print(
        f"horizon {s['horizon']}: central MSE {s['mse_central']:.6g}, "
        f"fused MSE {s['mse_fused']:.6g}, alarms {s['alarm_count']}, "
        f"removed {sorted(int(k) for k in s['removed'])}"
    )
    for alert in s["operator_alerts"]:
        print(f"alert: {alert}")
    return 0


def _cmd_montecarlo(args) -> int:
    cfg = _load(args)
    mc = monte_carlo(cfg, trials=args.trials)
    paths = write_monte_carlo_outputs(mc, args.out_dir, fmt=args.format)
    for p in paths:
        print(f"wrote {p}")
    agg = mc.aggregate
    print(
        f"{agg['trials']} trial(s): mean central MSE {agg['mse_central_mean']:.6g}, "
        f"mean fused MSE {agg['mse_fused_mean']:.6g}, "
        f"all-attacked-removed in {agg['all_attacked_removed_trials']} trial(s)"
    )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MtidentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
