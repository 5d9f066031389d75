"""specbound benchmark: one workload per run, or every workload with --all.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all --seed N --seconds S

A run starts fresh worker processes (worker.py). SETUP_SAMPLES - 1 of them
only set the workload up and exit; the last one also runs it closed-loop for
--seconds. setup_s is the median, over all of them, of the wall time from
starting the process until it is ready for its first timed op. Every
end-to-end time is scaled to the machine's reference speed (timing.py); the
raw figures are in the record line.

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones (END_TO_END),
with --trace 1 the per-layer ones (spans.PER_LAYER). The line before it
records the run: seed, machine, library and BLAS versions, BLAS threads,
failed_ratio and the latency tail, which not every run has samples for.

--all runs every workload untraced and traced and prints each end-to-end
metric by name and unit, failed_ratio, and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from timing import latency_tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

WORKLOADS = ("reproduce-n2000", "audit-n10", "bounds-n200", "bestcut-n11")
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("peak_rss_mb", "MB"),
)
SETUP_SAMPLES = 5
# A run is cut at this many seconds, so that it always ends within 180.
RUN_LIMIT_S = 170.0


class WorkerError(RuntimeError):
    pass


class Worker:
    """A started worker process; ``setup_s`` is how long it took to be ready."""

    def __init__(self, args: list[str], deadline: float):
        begin = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), *args], stdout=subprocess.PIPE, text=True, cwd=ROOT
        )
        self.killer = threading.Timer(max(deadline - time.monotonic(), 0.0), self.proc.kill)
        self.killer.daemon = True
        self.killer.start()
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - begin
        if line.strip() != "ready":
            self.finish()
            raise WorkerError(f"worker {args} failed during set-up")

    def finish(self) -> list[str]:
        """Read the rest of the worker's stdout and wait for it to end."""
        lines = self.proc.stdout.read().splitlines()
        self.proc.stdout.close()
        code = self.proc.wait()
        self.killer.cancel()
        if code != 0:
            raise WorkerError(f"worker exited with code {code} (killed after {RUN_LIMIT_S:g} s "
                              "if negative)")
        return lines


def run_once(workload: str, seed: int, seconds: float, trace: int, scale: str = "full") -> dict:
    """One benchmark run; returns {"record": ..., "result": ...}."""
    deadline = time.monotonic() + RUN_LIMIT_S
    args = ["--workload", workload, "--seed", str(seed), "--scale", scale]
    setup = []  # (raw seconds, machine slowdown) per worker
    for _ in range(SETUP_SAMPLES - 1):
        probe = Worker([*args, "--seconds", "0", "--setup-only"], deadline)
        setup.append((probe.setup_s, json.loads(probe.finish()[-1])["setup_slowdown"]))
    worker = Worker([*args, "--seconds", str(seconds), "--trace", str(trace)], deadline)
    raw = json.loads(worker.finish()[-1])
    setup.append((worker.setup_s, raw["setup_slowdown"]))

    attempted, failed = raw["attempted"], raw["failed"]
    raw_p50 = statistics.median(raw["latencies_s"])
    if trace:
        metrics = raw["layers"]
    else:
        values = {
            "setup_s": statistics.median(s / slowdown for s, slowdown in setup),
            "ops_per_s": raw["ops_per_s"] * raw["slowdown"],
            "latency_p50_s": raw_p50 / raw["slowdown"],
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    record = {
        "workload": workload,
        "trace": trace,
        "scale": scale,
        "env": raw["env"],
        "failed_ratio": {"value": failed / attempted, "unit": "ratio"},
        "latency_samples": len(raw["latencies_s"]),
        "latency_tail_s": latency_tail([x / raw["slowdown"] for x in raw["latencies_s"]]),
        "slowdown": raw["slowdown"],
        "ops_per_s": raw["ops_per_s"] * raw["slowdown"],
        "raw": {"ops_per_s": raw["ops_per_s"], "latency_p50_s": raw_p50,
                "setup_s": [s for s, _ in setup], "setup_slowdown": [d for _, d in setup]},
        "errors": raw["errors"],
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return {"record": record, "result": result}


def print_all(seed: int, seconds: float) -> bool:
    """Run every workload untraced and traced; print a readable report."""
    all_correct = True
    for workload in WORKLOADS:
        plain = run_once(workload, seed, seconds, 0)
        traced = run_once(workload, seed, seconds, 1)
        env = plain["record"]["env"]
        print(f"== {workload}  seed {seed}  {seconds:g} s  (nproc {env['nproc']}, "
              f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
              f"{env['blas']}, BLAS threads {env['blas_threads_in_use']})")
        for name, metric in plain["result"]["metrics"].items():
            print(f"  {name:<16} {metric['value']:.6g} {metric['unit']}")
        tail = plain["record"]["latency_tail_s"]
        if "value" in tail:
            print(f"  {'latency_tail_s':<16} {tail['value']:.6g} s "
                  f"(p{tail['percentile']:g} of {tail['samples']} samples)")
        else:
            print(f"  {'latency_tail_s':<16} omitted ({tail['omitted']})")
        print(f"  {'latency_p50_s':<16} over {plain['record']['latency_samples']} samples")
        ratio = plain["record"]["failed_ratio"]
        print(f"  {'failed_ratio':<16} {ratio['value']:.6g} {ratio['unit']} "
              f"({plain['result']['failed']} of {plain['result']['attempted']} ops)")
        overhead = traced["record"]["ops_per_s"] / plain["record"]["ops_per_s"]
        print(f"  tracing overhead: traced/untraced ops_per_s = {overhead:.4f}")
        print("  per-layer (traced run, non-zero only):")
        for name, metric in traced["result"]["metrics"].items():
            if metric["value"]:
                print(f"    {name:<48} {metric['value']:.6g} {metric['unit']}")
        for run in (plain, traced):
            for error in run["record"]["errors"]:
                print(f"  ERROR {error}")
            all_correct &= run["result"]["correct"]
    return all_correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=WORKLOADS)
    target.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "specbound" / "__init__.py").is_file():
        print(f"error: no specbound sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.all:
            return 0 if print_all(args.seed, args.seconds) else 1
        run = run_once(args.workload, args.seed, args.seconds, args.trace)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for error in run["record"]["errors"]:
        print(f"error: {error}", file=sys.stderr)
    print(json.dumps(run["record"]))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
