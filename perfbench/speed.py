"""Core-speed probe: rescales a child's timings to a reference core speed.

On a shared host the same work on the same core can take up to 70% longer
for tens of seconds at a time, while the process's CPU time grows with its
wall time (another tenant on the core, not time taken away from it). A
probe on another core does not see this; one on the same core does. So
`run.py` pins itself, and with it every child, to one CPU, and a thread of
its own runs a fixed kernel on that CPU every PERIOD_S while a child runs
and the benchmark only waits for it (so the kernel never waits for the
benchmark's own Python). A child's wall and CPU times are multiplied by
REF_KERNEL_S / (median kernel time while the child ran), so they read as
on a core at the reference speed. The kernel uses no seqcf code: a change
to the program moves the rescaled timings as much as the raw ones.
"""

from __future__ import annotations

import os
import statistics
import threading
from time import thread_time

import numpy as np

PERIOD_S = 0.1
REF_KERNEL_S = 1.2e-3  # kernel time on a 2.0 GHz Xeon core in its fast state, Python 3.11, numpy 2.4
MIN_SAMPLES = 5

_RNG = np.random.default_rng(0)
_ROWS = _RNG.random((1024, 100))
_SEQS = [tuple(_RNG.integers(0, 1000, 30).tolist()) for _ in range(300)]


def kernel() -> None:
    """The two halves of a search generation in miniature: single-edit tuples
    hashed into a dict, then a row softmax and argmax over a 1024 x 100 batch."""
    seen: dict[tuple[int, ...], int] = {}
    for seq in _SEQS:
        i = len(seq) // 2
        seen[seq[:i] + (7,) + seq[i + 1 :]] = i
        seen[seq[:i] + seq[i + 1 :]] = i
    e = np.exp(_ROWS - _ROWS.max(axis=1, keepdims=True))
    e /= e.sum(axis=1, keepdims=True)
    e.argmax(axis=1)


def pin_to_one_cpu() -> int:
    """Pin the calling thread, and so every thread and child it starts later, to one CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedProbe:
    """Times `kernel` every PERIOD_S on a thread of its own until the `with` block ends."""

    def __init__(self) -> None:
        self.samples: list[float] = []  # kernel seconds, taken while a child ran
        self._open = threading.Event()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-probe", daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        while not self._stop.wait(PERIOD_S):
            if self._open.is_set():
                t0 = thread_time()  # CPU time of this thread: the child preempting it does not count
                kernel()
                self.samples.append(thread_time() - t0)

    def open(self) -> int:
        """Start sampling; call right before waiting for a child."""
        self._open.set()
        return len(self.samples)

    def close(self, first: int) -> float:
        """Stop sampling and return REF_KERNEL_S over the median kernel time since
        `open` returned `first`; a child too short to give MIN_SAMPLES takes the
        latest MIN_SAMPLES, all from earlier children."""
        self._open.clear()
        times = self.samples[first:]
        if len(times) < MIN_SAMPLES:
            times = self.samples[-MIN_SAMPLES:]
        return REF_KERNEL_S / statistics.median(times) if times else 1.0
