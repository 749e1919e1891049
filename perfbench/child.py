"""One measured benchmark process: ``python3 child.py JOB RESULT [--trace]``.

JOB is a JSON file ``{"calls": [[...argv...], ...], "out": dir, "labels":
[...], "spans": path}``. Each argument list runs through ``mtident.cli.main``
in this interpreter; its standard output goes to ``<out>/stdout-<i>.txt``.
RESULT receives timings, resource usage, exit codes and the environment
fingerprint. With ``--trace``, spans carry the call's label as request id
and are written to the ``spans`` path.

Nothing but the interpreter start and ``import mtident.cli`` happens before
the ready timestamp, so the parent's launch time to ``ready`` is the set-up
cost users pay. Without ``--trace`` no wrapper is loaded.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import mtident.cli  # noqa: E402

READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

MARK = "__perfbench_layer__"  # tracer.MARK; untraced runs must not import tracer
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def os_threads() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def installed_wrappers() -> int:
    """Count benchmark wrappers reachable from any loaded mtident module."""
    found = set()
    for name, mod in list(sys.modules.items()):
        if not (name == "mtident" or name.startswith("mtident.")):
            continue
        for value in vars(mod).values():
            members = vars(value).values() if isinstance(value, type) else (value,)
            for obj in members:
                obj = getattr(obj, "__func__", obj)
                if getattr(obj, MARK, None) is not None:
                    found.add(id(obj))
    return len(found)


def fingerprint(threads_after_import: int) -> dict:
    import numpy
    import scipy

    def blas(mod):
        deps = mod.show_config(mode="dicts").get("Build Dependencies", {})
        info = deps.get("blas", {})
        return {k: info.get(k) for k in ("name", "version", "openblas configuration")}

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "os_threads_after_import": threads_after_import,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def main() -> int:
    job_path, result_path = sys.argv[1], sys.argv[2]
    trace = "--trace" in sys.argv[3:]
    if not os.path.realpath(mtident.cli.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f"mtident was imported from {mtident.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    threads = os_threads()
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    out = job["out"]
    os.makedirs(out, exist_ok=True)
    tracer = None
    if trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    codes, call_s = [], []
    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.monotonic()
    for i, argv in enumerate(job["calls"]):
        argv = [out if a == "{out}" else a for a in argv]
        buf = io.StringIO()
        if tracer is not None:
            tracer.request = job["labels"][i]
        c0 = time.monotonic()
        with contextlib.redirect_stdout(buf):
            codes.append(mtident.cli.main(argv))
        call_s.append(time.monotonic() - c0)
        with open(os.path.join(out, f"stdout-{i}.txt"), "w", encoding="utf-8") as fh:
            fh.write(buf.getvalue())
    compute = time.monotonic() - t0
    after = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "ready": READY,
        "compute_s": compute,
        "call_s": call_s,
        "codes": codes,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "nivcsw": after.ru_nivcsw - before.ru_nivcsw,
        "maxrss_kb": after.ru_maxrss,
        "wrappers": installed_wrappers(),
        "fingerprint": fingerprint(threads),
    }
    if tracer is not None:
        result["layers"] = tracer.summary(compute)
        tracer.write_spans(job["spans"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
