#!/usr/bin/env python3
"""ecsched benchmark: one closed-loop run of one workload.

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.
With ``--trace 0`` the run reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run and its tracing
overhead.  Human-readable lines come first; the last line of standard
output is the JSON result ``{"correct", "attempted", "failed", "metrics"}``.
Work files go to ``.perfbench_work/`` under the current directory.
"""

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

# one BLAS thread: the closed loop occupies a single core and starts no threads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("desk-train", "default-sample", "exact-small"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import ecsched from this checkout's src/, never from anywhere else."""
    if not (SRC / "ecsched" / "__init__.py").is_file():
        raise SystemExit(f"error: no ecsched package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ecsched
    if Path(ecsched.__file__).resolve().parent != (SRC / "ecsched").resolve():
        raise SystemExit(f"error: imported ecsched from {ecsched.__file__}, not {SRC}")
    return ecsched


def git_commit():
    """Commit of the checkout from .git, without starting a process."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unavailable (not a git checkout)"


def blas_record():
    """BLAS library and its thread count as numpy reports them."""
    import ctypes
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    record = {"name": blas.get("name"), "version": blas.get("version"),
              "threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                record["threads"] = fn()
                return record
    return record


def environment(ecsched, args, run, plan, out, details):
    import platform
    import numpy as np
    import stats

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": ecsched.BACKEND,
        "blas": blas_record(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "plan": plan.__dict__,
        "run_wall_s": time.perf_counter() - run.started[0],
        "run_cpu_s": time.process_time() - run.started[1],
        "timed_cpu_s": run.raw_s,
        "host_slowdown": {"probes": len(run.slowdowns) + 1,
                          "median": stats.median(run.slowdowns),
                          "min": min(run.slowdowns, default=None),
                          "max": max(run.slowdowns, default=None)},
        "sizes": out.get("sizes"),
        "samples": details,
    }


def finite_or_none(value):
    return value if isinstance(value, int) or math.isfinite(value) else None


def main(argv=None):
    args = parse_args(argv)
    ecsched = import_package()
    sys.path.insert(0, str(HERE))
    import tracer as tracing
    import workloads

    workdir = Path.cwd() / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        with tracing.installed(tracer):
            run, out, plan = workloads.execute(args.workload, args.seed, args.seconds,
                                               tracer, workdir)
        metrics = tracing.layer_metrics(tracer.spans)
        overhead = (run.traced_s / run.plain_s - 1.0) * 100.0 if run.plain_s else float("nan")
        metrics["trace.overhead_pct"] = (overhead, "%")
        metrics["trace.spans"] = (len(tracer.spans), "count")
        tracer.write(workdir / "spans.jsonl")
        details = {}
    else:
        run, out, plan = workloads.execute(args.workload, args.seed, args.seconds, None, workdir)
        metrics, details = workloads.end_to_end(out)

    env = environment(ecsched, args, run, plan, out, details)
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value!r:>24} {unit}")
    for error in run.errors:
        print(f"FAILED {error}")
    print("environment " + json.dumps(env, sort_keys=True))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": finite_or_none(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (workdir / "result.json").write_text(json.dumps({**result, "environment": env}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
