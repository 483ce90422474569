"""How fast this host runs Python right now, to put timings on one scale.

On a shared host the CPU time of a fixed piece of work drifts by tens of
percent within minutes, as other tenants load the machine, and the drift
moves every Python program the same way, if not by the same amount. So
while a run unit works, a helper
process pinned to the unit's CPU times a fixed reference kernel every
``EVERY_S`` of wall time, and the unit scales its CPU times by
``NOMINAL_S`` over the kernel's median time. A timing so scaled reads as
the CPU seconds the program takes on a host where the kernel takes
``NOMINAL_S``.

The kernel is half pointer-chasing through a heap too big for the CPU's
caches and half compute on small objects. Compute alone swings about
twice as far as the program when the host's speed drifts, and the heap
reads alone about half as far; the even mix moves as the program does.
Regressing the log CPU time of back-to-back serve-soak and tree-1k units
(3 minutes each, while the host's speed drifted by up to 1.5x) on the
log median kernel time taken during each unit gave slopes of 0.95 and
0.93, with correlations of 0.98 and 0.90.

The unit waits, blocked, while the helper runs the kernel, so a sample
adds nothing to the unit's CPU time or memory, and samples can fall
inside a timed step. The kernel uses only Python, ``math``, ``json`` and
numpy, never ``repro``, so no change to the program can move it. Beside
the heap reads it mixes what the simulator spends its time on: attribute
access and method calls on small objects, dict and list updates, float
math, short numpy array operations and JSON encoding.

Run as a script, this module is the helper: it reads one line per sample
on standard input, answers each with the kernel's CPU time, and exits at
end of input.
"""

from __future__ import annotations

import gc
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

#: CPU seconds of one kernel call at the reference speed: about its median
#: on the 2-vCPU Intel Xeon host (Python 3.11, numpy 2.4) where the
#: benchmark was set.
NOMINAL_S = 0.045
#: Wall time between two samples' starts.
EVERY_S = 0.3
#: Samples right after set-up, and again after the steps.
AROUND = 10
#: Entries of the heap the kernel reads (~36 MB, in the helper only).
HEAP_SIZE = 300_003


class _Cell:
    __slots__ = ("level", "gain", "history")

    def __init__(self, level: float, gain: float) -> None:
        self.level = level
        self.gain = gain
        self.history: list[float] = []

    def tick(self, x: float) -> float:
        self.level = 0.9 * self.level + 0.1 * x
        self.history.append(self.level)
        if len(self.history) > 32:
            del self.history[:16]
        return self.level * self.gain


def kernel(heap: list[list[float]]) -> float:
    """A fixed, deterministic piece of mixed work (about ``NOMINAL_S``)."""
    total = 0.0
    index = 0
    for _ in range(20_000):
        index = (index + 7919) % HEAP_SIZE
        cell = heap[index]
        total += cell[0] * cell[1]
    cells = [_Cell(float(i), 1.0 + i % 7) for i in range(100)]
    table: dict[int, float] = {}
    for r in range(30):
        for i, cell in enumerate(cells):
            value = cell.tick(math.sin(r + i))
            table[(i * 31 + r) % 997] = value
            total += value
    arr = np.arange(32, dtype=float)
    for _ in range(500):
        arr = np.minimum(arr * 1.0001, 90.0) + float(np.sqrt(arr + 1.0).sum()) * 1e-6
    doc = {
        "cells": [[c.level, c.gain, c.history[:8]] for c in cells],
        "table": {str(k): v for k, v in table.items()},
    }
    for _ in range(4):
        total += len(json.loads(json.dumps(doc))["table"])
    return total + float(arr.sum())


def serve() -> None:
    """The helper: one kernel per input line, its CPU time per output line."""
    heap = [[float(i), float(i % 13)] for i in range(HEAP_SIZE)]
    gc.disable()
    kernel(heap)
    print("ready", flush=True)
    for _ in sys.stdin:
        start = time.process_time()
        kernel(heap)
        print(repr(time.process_time() - start), flush=True)


class SpeedProbe:
    """Samples of the kernel's CPU time from a helper on the caller's CPU.

    ``start()`` pins the caller to one CPU and starts the helper there;
    ``interleave()`` samples on a wall-clock timer until ``stop()``;
    ``close()`` ends the helper, waits for it and unpins the caller.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._helper: subprocess.Popen | None = None
        self._busy = False
        self._affinity: set[int] | None = None

    def start(self) -> None:
        self._affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(self._affinity)})
        self._helper = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )
        if self._helper.stdout.readline().strip() != "ready":
            raise RuntimeError("the speed probe helper did not start")

    def sample(self, count: int = 1) -> None:
        self._busy = True
        try:
            for _ in range(count):
                self._helper.stdin.write("\n")
                self.samples.append(float(self._helper.stdout.readline()))
        finally:
            self._busy = False

    def _on_timer(self, signum, frame) -> None:
        if not self._busy:  # the timer fired inside a sample: skip this one
            self.sample()

    def interleave(self) -> None:
        """Sample every ``EVERY_S`` of wall time.

        A wall-clock timer, because a process CPU-time timer would make
        the kernel account this process's CPU time only once per tick.
        """
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def close(self) -> None:
        self.stop()
        if self._helper is not None:
            self._helper.stdin.close()
            try:
                self._helper.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._helper.kill()
                self._helper.wait()
            self._helper = None
        if self._affinity is not None:
            os.sched_setaffinity(0, self._affinity)
            self._affinity = None

    def scale(self) -> float:
        """The factor that puts a CPU time of this unit on the reference scale."""
        return NOMINAL_S / statistics.median(self.samples)


if __name__ == "__main__":
    serve()
