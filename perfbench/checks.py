"""Output checks taken from the acceptance gates, not golden bytes.

Later changes may legitimately move low-order bits, so each check tests the
property a gate guards, at a threshold that a correct program passes on
every seed:

* sim_clean_long: no removals, and residues calibrated as in criterion 6.
  Criterion 6 bounds |mean| by 3/sqrt(T) and |var - 1| by 0.1 at T = 10^4.
  The variance bound is rescaled to the benchmark's horizon (0.1 at 10^4
  steps is about 7 standard errors); the mean bound uses 5 standard errors,
  because each run draws a fresh seed and a 3-sigma test over ten sensors
  fails about 3 % of correct runs.
* mc_guessing: criterion 10 asks for all attacked sensors removed in at
  least 90 % of trials and a clean removal in at most 1 %. A run has few
  trials, so the check rejects when its counts are inconsistent with those
  rates at the 0.1 % level (one-sided binomial tests).
* mc_guessing's design audit: analyze exits 0 and prints one well-formed
  margin per configuration.

Each check returns ``(quality, problems)``: the quality metrics of the
output and a list of what is wrong with it (empty when it passes).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
import statistics
from pathlib import Path

CALIB_MEAN_SIGMAS = 5.0
CALIB_VAR_BOUND_AT_1E4 = 0.1
MIN_ID_RATE = 0.9
MAX_CLEAN_REMOVAL_RATE = 0.01
BINOMIAL_LEVEL = 1e-3


def digest(out_dir: Path, names) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode() + b"\0" + (Path(out_dir) / name).read_bytes())
    return h.hexdigest()


def _read_table(path: Path, schema: str) -> list[list[str]]:
    with open(path, newline="", encoding="ascii") as fh:
        first = fh.readline().strip()
        if first != f"# {schema}":
            raise ValueError(f"{path.name}: expected '# {schema}', found {first!r}")
        return list(csv.reader(fh))


def check_sim(out_dir: Path, cfg: dict):
    """Clean long run: calibrated residues and no removals."""
    out_dir = Path(out_dir)
    problems = []
    rows = _read_table(out_dir / "metrics.csv", "mtident-metrics-v1")
    header, data = rows[0], rows[1:]
    T = cfg["horizon"]
    if len(data) != T:
        return {}, [f"metrics.csv has {len(data)} rows, expected {T}"]
    zcols = [i for i, h in enumerate(header) if h.startswith("z_")]
    values = [[float(r[i]) for r in data] for i in zcols]
    if not all(math.isfinite(v) for col in values for v in col):
        return {}, ["metrics.csv holds non-finite residues"]
    mean_bound = CALIB_MEAN_SIGMAS / math.sqrt(T)
    var_bound = CALIB_VAR_BOUND_AT_1E4 * math.sqrt(1e4 / T)
    calib_err = 0.0
    for col, i in zip(values, zcols):
        mean = statistics.fmean(col)
        var = statistics.pvariance(col, mean)
        calib_err = max(calib_err, abs(var - 1.0))
        if abs(mean) > mean_bound:
            problems.append(f"{header[i]} mean {mean:.4f} exceeds {mean_bound:.4f}")
        if abs(var - 1.0) > var_bound:
            problems.append(f"{header[i]} variance {var:.4f} is off 1 by more than {var_bound:.4f}")
    summary = json.loads((out_dir / "summary.json").read_text(encoding="ascii"))
    if summary["removed"]:
        problems.append(f"clean run removed sensors {sorted(summary['removed'])}")
    events = _read_table(out_dir / "events.csv", "mtident-events-v1")[1:]
    if any(row[2] == "removed" for row in events):
        problems.append("events.csv records a removal in a clean run")
    quality = {
        "calib_err": calib_err,
        "mse_ratio": summary["mse_fused_tail"] / summary["mse_central_tail"],
    }
    return quality, problems


def binom_cdf(k: int, n: int, p: float) -> float:
    """P(X <= k) for X ~ Binomial(n, p)."""
    return sum(math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(0, k + 1))


def check_mc(out_dir: Path, cfg: dict):
    """Guessing Monte Carlo: attackers identified, clean sensors kept."""
    out_dir = Path(out_dir)
    n = cfg["trials"]
    rows = _read_table(out_dir / "trials.csv", "mtident-trials-v1")
    if len(rows) - 1 != n:
        return {}, [f"trials.csv has {len(rows) - 1} trials, expected {n}"]
    agg = json.loads((out_dir / "aggregate.json").read_text(encoding="ascii"))
    if agg["trials"] != n:
        return {}, [f"aggregate.json reports {agg['trials']} trials, expected {n}"]
    found = agg["all_attacked_removed_trials"]
    clean = agg["trials_with_clean_removal"]
    delays = agg["first_detection_steps"]
    problems = []
    if binom_cdf(found, n, MIN_ID_RATE) < BINOMIAL_LEVEL:
        problems.append(f"all attackers removed in only {found}/{n} trials")
    if 1.0 - binom_cdf(clean - 1, n, MAX_CLEAN_REMOVAL_RATE) < BINOMIAL_LEVEL:
        problems.append(f"clean sensors removed in {clean}/{n} trials")
    if not delays:
        problems.append("no trial detected an attacked sensor")
    quality = {
        "id_rate": found / n,
        "false_removal_rate": clean / n,
        "detect_delay_steps": statistics.median(delays) if delays else float("nan"),
    }
    return quality, problems


_MARGIN = re.compile(
    r"  configuration (\d+): survives any (-?\d+) removal\(s\); identifies up to (\d+) attacked sensor\(s\)"
)


def check_analyze(text: str, n: int, l: int):
    """One analyze report: header, one well-formed margin per configuration."""
    lines = text.splitlines()
    problems = []
    if len(lines) < 4 + l:
        return {}, [f"analyze printed {len(lines)} lines, expected at least {4 + l}"]
    if lines[0] != f"configurations: {l}, state dimension: {n}, sensors: 10":
        problems.append(f"unexpected header {lines[0]!r}")
    if not re.fullmatch(rf"schedule period: \d+ \(recommended minimum {2 * n}\)", lines[1]):
        problems.append(f"unexpected period line {lines[1]!r}")
    if lines[2] != "sparse observability margins per configuration:":
        problems.append(f"unexpected margins heading {lines[2]!r}")
    margins = []
    for j, line in enumerate(lines[3 : 3 + l]):
        m = _MARGIN.fullmatch(line)
        if m is None or int(m.group(1)) != j or int(m.group(3)) != max(int(m.group(2)) // 2, 0):
            problems.append(f"malformed margin line {line!r}")
        else:
            margins.append(int(m.group(2)))
    rest = lines[3 + l :]
    if not rest[0].startswith("findings:") or any(not r.startswith("  - ") for r in rest[1:]):
        problems.append("malformed findings section")
    return {"margins": margins, "findings": len(rest) - 1}, problems
