"""mtident benchmark: ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``.

Runs one workload (see ``workloads.py``) through ``mtident.cli.main``, each
measured process a fresh interpreter started with the caller's environment
unchanged, and checks every process's outputs (see ``checks.py``).

``--trace 0`` starts processes one after another for about S seconds (at
least two), each followed by an import-only process that adds a set-up
sample, and reports the end-to-end metrics as medians over them.
``--trace 1`` runs the same job once untraced and once with span wrappers
(``tracer.py``), attributes import time with ``-X importtime``, and reports
the per-layer metrics. On sim_clean_long it adds an informational run with
one BLAS thread, which is printed but is not a metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full result set,
with the environment fingerprint, goes to ``perfbench/_work/results/``. The
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

MIN_PROCS = 2
DEADLINE_S = 170.0  # every run must end within 180 s

# name -> (unit, better, bound); the same table is in BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.24),
    "ops_per_s": ("1/s", "higher", 0.24),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

_UNITS = {"calls": "count", "s": "s", "self_s": "s", "p50_us": "us", "p99_us": "us",
          "p50_ms": "ms", "p99_ms": "ms", "removed": "count", "bytes": "bytes"}
_LAYER_STATS = (
    ("estimation.fuse", ("calls", "self_s", "p50_us", "p99_us")),
    ("estimation.bank_step", ("calls", "self_s", "p50_us", "p99_us")),
    ("estimation.bank_shift", ("self_s",)),
    ("estimation.bank_init", ("calls", "s")),
    ("estimation.central_step", ("calls", "self_s", "p50_us", "p99_us")),
    ("estimation.central_shift", ("self_s",)),
    ("estimation.kalman_decomposition", ("calls", "s")),
    ("scenario.generate_example_system", ("calls", "s")),
    ("estimation.fusion_init", ("calls", "s")),
    ("estimation.removal_check", ("calls", "s")),
    ("detection.from_alpha", ("calls", "s")),
    ("detection.identify_and_remove", ("calls", "removed")),
    ("detection.update", ("calls", "self_s")),
    ("adversary.values", ("calls", "self_s")),
    ("identifiability.analyze_target_set", ("calls", "self_s")),
    ("identifiability.jordan_chains", ("calls", "self_s")),
    ("identifiability.cross_model_unidentifiability", ("calls", "self_s")),
    ("identifiability.sparse_observability_margin", ("calls", "self_s")),
    ("system_model.validate_design_recommendations", ("calls", "s")),
    ("matrixio.read_matrix", ("calls", "s")),
    ("system_model.sample_schedule", ("calls", "s")),
    ("scenario.load_config", ("s",)),
    ("scenario.run_scenario", ("calls", "p50_ms", "p99_ms")),
    ("scenario.write_outputs", ("s", "bytes")),
)
# name -> (unit, better); the same table is in BENCHMARK.json.
PER_LAYER = {
    f"{layer}.{stat}": (_UNITS[stat], "higher" if stat == "removed" else "lower")
    for layer, stats in _LAYER_STATS
    for stat in stats
}
PER_LAYER.update({
    "cli.import_s": ("s", "lower"),
    "cli.import_scipy_stats_s": ("s", "lower"),
    "process.cpu_per_wall": ("ratio", "lower"),
    "process.nivcsw": ("count", "lower"),
    "process.os_threads": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.unattributed_frac": ("fraction", "lower"),
})


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# processes


class Runner:
    """Starts the benchmark processes of one prepared workload, one at a time."""

    def __init__(self, name: str, prep: dict, work: Path, started: float):
        self.name, self.prep, self.work, self.started = name, prep, work, started
        self.count = 0

    def _launch(self, calls, trace=False, env=None) -> dict:
        tag = f"proc-{self.count}"
        self.count += 1
        job = {"calls": calls, "out": str(self.work / tag), "spans": str(self.work / f"{tag}-spans.jsonl"),
               "labels": [argv[0] for argv in calls]}
        job_path, result_path = self.work / f"{tag}-job.json", self.work / f"{tag}-result.json"
        job_path.write_text(json.dumps(job))
        cmd = [sys.executable, str(HERE / "child.py"), str(job_path), str(result_path)]
        if trace:
            cmd.append("--trace")
        timeout = max(1.0, DEADLINE_S - (time.monotonic() - self.started))
        log = self.work / f"{tag}.log"
        with open(log, "wb") as fh:
            launch = time.monotonic()
            try:
                code = subprocess.run(cmd, cwd=ROOT, env=env, stdout=fh, stderr=fh, timeout=timeout).returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
            end = time.monotonic()
        rec = {"tag": tag, "out": Path(job["out"]), "spans": job["spans"], "trace": trace, "problems": []}
        if code != 0 or not result_path.is_file():
            tail = log.read_text(errors="replace").strip().splitlines()[-3:]
            rec["problems"].append(f"process exited with {code}: {' | '.join(tail)}")
            return rec
        res = json.loads(result_path.read_text())
        rec.update(res)
        rec["setup_s"] = res["ready"] - launch
        rec["wall_s"] = end - launch
        rec["rss_mb"] = res["maxrss_kb"] / 1024.0
        bad = [k for k, c in enumerate(res["codes"]) if c != 0]
        if bad:
            rec["problems"].append(f"CLI calls {bad} exited non-zero")
        return rec

    def setup(self) -> None:
        if self.prep["setup_calls"]:
            rec = self._launch(self.prep["setup_calls"])
            if rec["problems"]:
                fail(f"generating inputs failed: {rec['problems']}")

    def probe(self) -> dict:
        """A process that only starts and imports mtident.cli: one more set-up sample."""
        return self._launch([])

    def measured(self, trace=False, env=None) -> dict:
        rec = self._launch(self.prep["calls"], trace=trace, env=env)
        rec["ops"] = self.prep["ops"]
        if not rec["problems"]:
            try:
                rec["quality"], problems, rec["digest"] = check_outputs(self.name, self.prep, rec["out"])
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"outputs unreadable: {exc!r}"]
            rec["problems"] += problems
            if trace and rec["wrappers"] == 0:
                rec["problems"].append("traced process installed no wrappers")
            if not trace and rec["wrappers"] != 0:
                rec["problems"].append(f"untraced process has {rec['wrappers']} wrappers installed")
        return rec


def check_outputs(name: str, prep: dict, out: Path):
    """(quality, problems, digest) of one process's outputs."""
    if name == "sim_clean_long":
        quality, problems = checks.check_sim(out, prep["config"])
        return quality, problems, checks.digest(out, ("metrics.csv", "events.csv", "summary.json"))
    quality, problems = checks.check_mc(out, prep["config"])
    audit, audit_problems = checks.check_analyze(
        (out / "stdout-0.txt").read_text(), workloads.DESIGN_N, workloads.DESIGN_L
    )
    quality["design_findings"] = audit.get("findings")
    problems += [f"analyze: {p}" for p in audit_problems]
    return quality, problems, checks.digest(out, ("stdout-0.txt", "trials.csv", "aggregate.json"))


def import_profile(started: float) -> dict:
    """Import seconds of mtident.cli and of scipy.stats from -X importtime."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import mtident.cli"
    timeout = max(1.0, DEADLINE_S - (time.monotonic() - started))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    found = {}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        depth = len(name) - len(name.lstrip())
        key = name.strip()
        if key in ("mtident.cli", "scipy.stats") and (key not in found or depth < found[key][0]):
            found[key] = (depth, int(cumulative) / 1e6)
    if proc.returncode != 0 or "mtident.cli" not in found:
        fail(f"import profile failed: {proc.stderr.strip()[-300:]}")
    return {"cli.import_s": found["mtident.cli"][1],
            "cli.import_scipy_stats_s": found.get("scipy.stats", (0, 0.0))[1]}


# ---------------------------------------------------------------------------
# the two kinds of run


def untraced_run(runner: Runner, seconds: float):
    """Measured processes for about ``seconds``; end-to-end medians."""
    recs, probes, rounds = [], [], []
    begin = time.monotonic()
    while True:
        t0 = time.monotonic()
        recs.append(runner.measured())
        probes.append(runner.probe())
        rounds.append(time.monotonic() - t0)
        typical = statistics.median(rounds)
        if len(recs) >= MIN_PROCS and time.monotonic() - begin + typical > seconds:
            break
        if time.monotonic() - runner.started + typical > DEADLINE_S:
            break
    return recs, end_to_end(recs, probes), [], {}


def traced_run(runner: Runner):
    """One untraced and one traced process of the same job; per-layer metrics."""
    plain = runner.measured()
    traced = runner.measured(trace=True)
    recs = [plain, traced]
    imports = import_profile(runner.started)
    info = {}
    if runner.name == "sim_clean_long":
        one = runner.measured(env=dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"))
        one["digest"] = None  # one BLAS thread changes low-order bits: compare it to nothing
        recs.append(one)
        if not one["problems"] and not plain["problems"]:
            info["single_blas_thread"] = {
                "ops_per_s": one["ops"] / one["compute_s"],
                "default_threads_ops_per_s": plain["ops"] / plain["compute_s"],
            }
    if plain["problems"] or traced["problems"]:
        return recs, {}, [], info
    shutil.copy(traced["spans"], HERE / "_work" / "results" / f"{runner.name}-spans.jsonl")
    return recs, per_layer(traced, plain, imports), self_time_table(traced), info


# ---------------------------------------------------------------------------
# metrics


def end_to_end(recs, probes=()) -> dict:
    ok = [r for r in recs if not r["problems"]]
    if not ok:
        return {}
    return {
        "setup_s": statistics.median(r["setup_s"] for r in [*ok, *probes] if not r["problems"]),
        "wall_s": statistics.median(r["wall_s"] for r in ok),
        "ops_per_s": statistics.median(r["ops"] / r["compute_s"] for r in ok),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in ok),
    }


def per_layer(traced: dict, plain: dict, imports: dict) -> dict:
    layers = traced["layers"]["layers"]
    values = {}
    for name in PER_LAYER:
        layer, stat = name.rsplit(".", 1)
        entry = layers.get(layer, {})
        if stat in ("p50_ms", "p99_ms"):
            values[name] = entry.get(stat.replace("_ms", "_us"), 0.0) / 1e3
        else:
            values[name] = entry.get(stat, 0)
    values.update(imports)
    values["process.cpu_per_wall"] = plain["cpu_s"] / plain["compute_s"]
    values["process.nivcsw"] = plain["nivcsw"]
    values["process.os_threads"] = plain["fingerprint"]["os_threads_after_import"]
    values["trace.overhead_s"] = traced["compute_s"] - plain["compute_s"]
    values["trace.unattributed_frac"] = traced["layers"]["unattributed_s"] / traced["compute_s"]
    return values


def self_time_table(traced: dict) -> list[str]:
    summary = traced["layers"]
    total = summary["compute_s"]
    rows = sorted(summary["layers"].items(), key=lambda kv: -kv[1]["self_s"])
    lines = [f"{'layer':48s} {'calls':>8s} {'self_s':>10s} {'share':>7s}"]
    for layer, e in rows:
        lines.append(f"{layer:48s} {e['calls']:8d} {e['self_s']:10.4f} {e['self_s'] / total:7.1%}")
    lines.append(f"{'(not in any layer)':48s} {'':8s} {summary['unattributed_s']:10.4f} "
                 f"{summary['unattributed_s'] / total:7.1%}")
    attributed = sum(e["self_s"] for e in summary["layers"].values())
    lines.append(f"{'traced compute wall':48s} {'':8s} {total:10.4f}  (layers {attributed:.4f} + rest "
                 f"{summary['unattributed_s']:.4f}, {summary['spans']} spans)")
    return lines


# ---------------------------------------------------------------------------
# fingerprint


def git_commit():
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def fingerprint(child: dict) -> dict:
    src_lines = sum(len(p.read_bytes().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        **child.get("fingerprint", {}),
        "git_commit": git_commit(),
        "src_lines": src_lines,
    }


# ---------------------------------------------------------------------------


def report(args, recs, metrics, table, info) -> int:
    """Print the results, store them with the fingerprint; the exit code."""
    spec = PER_LAYER if args.trace else END_TO_END
    first = next((r["digest"] for r in recs if r.get("digest")), None)
    for r in recs:
        if r.get("digest") not in (None, first):
            r["problems"].append("outputs differ from the first process on the same seed")
    attempted = sum(r["ops"] for r in recs)
    failed = sum(r["ops"] for r in recs if r["problems"])
    problems = [f"{r['tag']}: {p}" for r in recs for p in r["problems"]]
    if set(metrics) != set(spec):
        problems.insert(0, "some metrics could not be measured")
    correct = not problems
    quality = next((r["quality"] for r in recs if "quality" in r), {})
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": metrics,
        "quality": quality,
        "info": info,
        "problems": problems,
        "per_process": [
            {k: r.get(k) for k in ("tag", "trace", "setup_s", "wall_s", "compute_s", "rss_mb", "cpu_s", "nivcsw")}
            for r in recs
        ],
        "fingerprint": fingerprint(next((r for r in recs if "fingerprint" in r), {})),
    }
    out_path = HERE / "_work" / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")

    print(f"{args.workload} seed {args.seed}: {len(recs)} processes, {attempted} ops, {failed} failed "
          f"(failed_frac {result['failed_frac']:.4g})")
    for name, value in metrics.items():
        print(f"  {name:52s} {value:14.6g} {spec[name][0]}")
    for name, value in quality.items():
        print(f"  quality {name:44s} {value}")
    for line in table:
        print("  " + line)
    for name, value in info.items():
        print(f"  info {name}: {json.dumps(value)}")
    for p in problems:
        print(f"  PROBLEM {p}")
    print(f"  results and fingerprint: {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": spec[name][0]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    started = time.monotonic()
    if not (ROOT / "src" / "mtident" / "cli.py").is_file():
        fail(f"no mtident sources under {ROOT / 'src'}")
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    (HERE / "_work" / "results").mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(args.workload, workloads.prepare(args.workload, args.seed, work), work, started)
        runner.setup()
        if args.trace:
            recs, metrics, table, info = traced_run(runner)
        else:
            recs, metrics, table, info = untraced_run(runner, args.seconds)
        return report(args, recs, metrics, table, info)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
