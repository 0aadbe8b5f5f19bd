"""Host-speed reference: a fixed loop that calls no butterfree code.

On a shared host the speed of one core can change by a third from one
run to the next.  Timings are therefore scaled by a reference block timed
on the same core during the same run: while the workload runs, a SIGALRM
handler in the main thread times the block every PERIOD_S seconds.  A
scaled time is the time the work would have taken on a host where the
block takes exactly NOMINAL_S.  The handler's own time is removed from
every operation it interrupts.

One factor serves the whole run.  A 2-ms block is itself noisy: scaling
each operation by the blocks timed within a second of it made per-document
ingest times within a run vary more (coefficient of variation 0.112)
than leaving them raw (0.076).  Over a run's 80 or so samples that noise
averages out, while the level shift between runs is still removed.
"""

from __future__ import annotations

import os
import signal
import statistics
from bisect import bisect_left
from time import perf_counter

#: Reference block length on this repository's 2-core Xeon host at its
#: usual speed; scaled times read like raw times taken there.
NOMINAL_S = 0.002
PERIOD_S = 0.25


def reference_block() -> float:
    """Seconds for a fixed pure-Python loop of float arithmetic."""
    t0 = perf_counter()
    acc, x = 0.0, 1.0
    for i in range(20_000):
        x = x * 1.0000001 + 1e-9
        acc += x if i & 1 else -x
    return perf_counter() - t0


def typical(blocks) -> float:
    """Mean of the fastest three quarters of some block times.

    Rescaling the twenty 10-s runs of each workload on the seed commit,
    this gave steadier times than the plain mean or the median: on
    fit-model the quartile spread was 3.7% of the median, against 5.8% and
    6.2%.
    """
    ordered = sorted(blocks)
    return statistics.fmean(ordered[: max(1, len(ordered) - len(ordered) // 4)])


def pin_to_one_cpu() -> int:
    """Keep this process, and the interpreters it starts, on one CPU, so the
    reference samples and the work they scale share a core."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Sampler:
    """Samples the reference block every PERIOD_S while active."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.blocks: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        start = perf_counter()
        self.blocks.append(reference_block())
        self.starts.append(start)
        self.ends.append(perf_counter())

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def busy(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] not spent sampling."""
        i = bisect_left(self.starts, t0)
        j = bisect_left(self.starts, t1)
        return (t1 - t0) - sum(self.ends[k] - self.starts[k] for k in range(i, j))

    def factor(self) -> float:
        """NOMINAL_S over the typical block time of the run."""
        return NOMINAL_S / typical(self.blocks)


def scaled_child_time(run):
    """(result, raw seconds, scaled seconds) of ``run()``, which starts a
    child process on this core; scaled by reference blocks timed just
    before and after."""
    before = [reference_block() for _ in range(3)]
    t0 = perf_counter()
    result = run()
    raw = perf_counter() - t0
    after = [reference_block() for _ in range(3)]
    return result, raw, raw * NOMINAL_S / typical(before + after)
