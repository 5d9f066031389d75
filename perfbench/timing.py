"""Op-timing statistics, and the machine-speed correction of the end-to-end times.

On a shared machine the same code runs at different speeds from one minute
to the next: a fixed pure-Python loop has been measured to swing by a third
within seconds, and its median over 15-second windows by a quarter from one
window to another. The benchmark therefore times a fixed kernel alongside the
work (every SAMPLE_EVERY_S while ops run, and in a short burst right after
set-up) and scales the end-to-end times by REFERENCE_KERNEL_S over the
kernel's mean time. The kernel is the benchmark's own code and never calls
specbound, so a change to specbound moves the scaled figures exactly as it
moves the raw ones; the raw figures are kept in the record line.
"""

from __future__ import annotations

import signal
import statistics
import time

KERNEL_ROUNDS = 3000
# The kernel's time on a quiet machine: an Intel Xeon (Sapphire Rapids) KVM
# guest with 2 vCPUs, Python 3.11. Only ratios to it matter, so any fixed
# value would do; this one keeps scaled times close to quiet wall times there.
REFERENCE_KERNEL_S = 1.5e-4
SAMPLE_EVERY_S = 0.05
BURST_S = 0.1

# Candidate tail percentiles, in tenths of a percent, highest first.
TAIL_PERCENTILES = (999, 990, 950, 900, 750)
TAIL_MIN_BEYOND = 10


def kernel() -> float:
    """Wall time of one run of a fixed pure-Python loop."""
    begin = time.perf_counter()
    total = 0
    for k in range(KERNEL_ROUNDS):
        total += k * k
    return time.perf_counter() - begin


def burst_slowdown() -> float:
    """The machine's slowdown against the reference, over BURST_S of kernel runs."""
    samples = []
    end = time.perf_counter() + BURST_S
    while time.perf_counter() < end:
        samples.append(kernel())
    return statistics.mean(samples) / REFERENCE_KERNEL_S


class SpeedSampler:
    """Times the kernel every SAMPLE_EVERY_S, on a timer signal, while entered.

    The signal handler runs between bytecodes of the main thread, so a long
    native call delays a sample rather than overlapping it.
    """

    def __enter__(self):
        self.samples: list[float] = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame):
        self.samples.append(kernel())

    def slowdown(self) -> float:
        """Mean kernel time over the reference (a burst if no tick came)."""
        if not self.samples:
            return burst_slowdown()
        return statistics.mean(self.samples) / REFERENCE_KERNEL_S


def latency_tail(samples: list[float]) -> dict:
    """The highest percentile with at least TAIL_MIN_BEYOND samples beyond it.

    Nearest-rank percentiles. With too few samples for any candidate the
    tail is omitted, never replaced by the maximum.
    """
    ordered = sorted(samples)
    count = len(ordered)
    for tenths in TAIL_PERCENTILES:
        rank = -(-tenths * count // 1000)  # ceil(tenths / 1000 * count)
        if count - rank >= TAIL_MIN_BEYOND:
            return {"value": ordered[rank - 1], "percentile": tenths / 10, "samples": count}
    return {"omitted": f"{count} samples; p75 needs at least {4 * TAIL_MIN_BEYOND}"}
