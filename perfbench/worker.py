"""One benchmark worker process: set up one workload, then run it closed-loop.

Usage (normally started by run.py):
    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                [--scale full|tiny] [--setup-only]

The worker pins BLAS/OpenMP to one thread before numpy is imported, imports
specbound from the checkout's ``src``, builds the workload's inputs, prints
``ready``, times the speed kernel for a moment (timing.py) and then runs
operations one after another (one client, closed loop) until ``--seconds``
have passed. Its last stdout line is a JSON object with the raw results;
run.py turns it into the benchmark's result line.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:  # must precede the first numpy import
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer, layer_metrics  # noqa: E402
from timing import SpeedSampler, burst_slowdown  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
MAX_ERRORS_SHOWN = 5


def import_specbound():
    """Import specbound from this checkout's src, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import specbound

    if Path(specbound.__file__).resolve().parent != src / "specbound":
        raise ImportError(f"specbound came from {specbound.__file__}, not {src}")


def blas_threads_in_use() -> int | None:
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "blas_threads_in_use": blas_threads_in_use(),
    }


def timed_loop(workload, seconds: float, tracer=None) -> dict:
    """Run ops until ``seconds`` have passed (at least one); check each output."""
    latencies: list[float] = []
    passed: list[bool] = []
    errors: list[str] = []
    begin = time.perf_counter()
    deadline = begin + seconds
    i = 0
    while True:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = workload.op(i)
            else:
                with tracer.operation(i):
                    out = workload.op(i)
            t1 = time.perf_counter()
            problems = workload.check(i, out)
        except Exception:  # a failed op is counted, and the run goes on
            t1 = time.perf_counter()
            problems = [traceback.format_exc(limit=3)]
        latencies.append(t1 - t0)
        passed.append(not problems)
        if problems and len(errors) < MAX_ERRORS_SHOWN:
            errors.append(f"op {i}: " + "; ".join(problems))
        i += 1
        if time.perf_counter() >= deadline:
            break
    return {
        "attempted": i,
        "failed": passed.count(False),
        "ops_per_s": passed.count(True) / (time.perf_counter() - begin),
        "latencies_s": latencies,
        "errors": errors,
    }


def measure(workload, seconds: float, trace: bool) -> dict:
    """Run a built workload closed-loop and return the raw results.

    ``slowdown`` is the speed kernel's mean time during the loop over its
    reference time (timing.py); ``ops_per_s`` is raw.
    """
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        with SpeedSampler() as sampler:
            result = timed_loop(workload, seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["slowdown"] = sampler.slowdown()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, result["ops_per_s"] * result["slowdown"])
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{workload.name}.npz")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_specbound()
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, args.scale)
        print("ready", flush=True)
        setup_slowdown = burst_slowdown()
        if args.setup_only:
            print(json.dumps({"setup_slowdown": setup_slowdown}), flush=True)
            return 0
        result = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_slowdown"] = setup_slowdown
    result["env"] = environment(args.seed)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
