"""Per-layer spans for the traced benchmark run.

``Tracer.install`` wraps the public callables listed in ``LAYERS`` in the
namespace where each is looked up: the class for methods, and every loaded
``mtident`` module that holds a function imported by name (for example
``scenario.kalman_decomposition`` and ``cli.analyze_target_set``), so no
call bypasses its wrapper. Spans stay in memory until ``write_spans``.

Only ``child.py --trace`` imports this module; untraced runs load no wrapper.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time

from mtident import adversary, detection, estimation, identifiability, matrixio, scenario, system_model

MARK = "__perfbench_layer__"

# (layer, module, class name or None, attribute). Two entries may share a layer.
LAYERS = (
    ("scenario.load_config", scenario, None, "load_config"),
    ("scenario.generate_example_system", scenario, None, "generate_example_system"),
    ("scenario.run_scenario", scenario, None, "run_scenario"),
    ("scenario.write_outputs", scenario, None, "write_run_outputs"),
    ("scenario.write_outputs", scenario, None, "write_monte_carlo_outputs"),
    ("system_model.sample_schedule", system_model, None, "sample_schedule"),
    ("system_model.validate_design_recommendations", system_model, None, "validate_design_recommendations"),
    ("matrixio.read_matrix", matrixio, None, "read_matrix"),
    ("estimation.kalman_decomposition", estimation, None, "kalman_decomposition"),
    ("estimation.central_step", estimation, "CentralKalmanFilter", "step"),
    ("estimation.central_shift", estimation, "CentralKalmanFilter", "shift_prediction"),
    ("estimation.bank_init", estimation, "LocalFilterBank", "__init__"),
    ("estimation.bank_step", estimation, "LocalFilterBank", "step"),
    ("estimation.bank_shift", estimation, "LocalFilterBank", "shift_prediction"),
    ("estimation.fusion_init", estimation, "FusionEstimator", "__init__"),
    ("estimation.fuse", estimation, "FusionEstimator", "fuse"),
    ("estimation.removal_check", estimation, "FusionEstimator", "removal_keeps_observability"),
    ("detection.from_alpha", detection, "DetectorConfig", "from_alpha"),
    ("detection.update", detection, "Chi2Detector", "update"),
    ("detection.identify_and_remove", detection, None, "identify_and_remove"),
    ("adversary.values", adversary, "AttackPolicy", "values"),
    ("identifiability.analyze_target_set", identifiability, None, "analyze_target_set"),
    ("identifiability.jordan_chains", identifiability, None, "jordan_chains"),
    ("identifiability.cross_model_unidentifiability", identifiability, None, "cross_model_unidentifiability"),
    ("identifiability.sparse_observability_margin", identifiability, None, "sparse_observability_margin"),
)

# Layers whose every call is one request (a Monte Carlo trial).
REQUEST_LAYERS = {"scenario.run_scenario"}


def _file_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


# Per-layer counters taken from a wrapped call's return value.
COUNTERS = {
    "detection.identify_and_remove": ("removed", len),
    "scenario.write_outputs": ("bytes", _file_bytes),
}


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of a non-empty ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Tracer:
    def __init__(self):
        # spans[i] = (layer, start_ns, end_ns, parent index or -1, request id)
        self.spans: list = []
        self.counters: dict[str, int] = {}
        self.request = None
        self._stack: list[int] = []
        self._trials = 0

    def wrap(self, layer: str, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(layer)
        is_request = layer in REQUEST_LAYERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer_request = self.request
            if is_request:
                self.request = f"{outer_request}/trial-{self._trials}"
                self._trials += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[idx] = (layer, start, end, parent, self.request)
                self.request = outer_request
            if counter is not None:
                key = f"{layer}.{counter[0]}"
                self.counters[key] = self.counters.get(key, 0) + counter[1](result)
            return result

        setattr(wrapper, MARK, layer)
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "mtident" or n.startswith("mtident.")]
        for layer, module, cls_name, attr in LAYERS:
            if cls_name is not None:
                cls = getattr(module, cls_name)
                raw = vars(cls)[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self.wrap(layer, raw.__func__)))
                else:
                    setattr(cls, attr, self.wrap(layer, raw))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(layer, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapped)

    def summary(self, compute_s: float) -> dict:
        """Per-layer calls, inclusive and self seconds, duration percentiles.

        Self time is a span's duration minus the time its child spans
        cover. The self times of all spans add up to the time covered by
        root spans; ``unattributed_s`` is the rest of ``compute_s``.
        """
        child_ns = [0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        layers: dict[str, dict] = {}
        durations: dict[str, list[int]] = {}
        root_ns = 0
        for i, (layer, start, end, parent, _) in enumerate(self.spans):
            d = end - start
            entry = layers.setdefault(layer, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += d / 1e9
            entry["self_s"] += (d - child_ns[i]) / 1e9
            durations.setdefault(layer, []).append(d)
            if parent < 0:
                root_ns += d
        for layer, ds in durations.items():
            ds.sort()
            layers[layer]["p50_us"] = percentile(ds, 0.50) / 1e3
            layers[layer]["p99_us"] = percentile(ds, 0.99) / 1e3
        for key, value in self.counters.items():
            layer, name = key.rsplit(".", 1)
            layers[layer][name] = value
        return {
            "layers": layers,
            "compute_s": compute_s,
            "unattributed_s": compute_s - root_ns / 1e9,
            "spans": len(self.spans),
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for layer, start, end, parent, request in self.spans:
                fh.write(
                    json.dumps(
                        {"name": layer, "start_ns": start, "end_ns": end, "parent": parent, "request": request}
                    )
                    + "\n"
                )
