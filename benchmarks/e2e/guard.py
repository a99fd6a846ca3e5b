"""Machine-state guard: a calibration kernel read before and after every block.

The sandbox this benchmark was written on has two speed states about 1.4x
apart (README.md, "Machine state").  A state holds for tens of seconds while
the process keeps running on one CPU and is drawn afresh when the process
sleeps or moves to the other CPU.  A fixed numpy+Python kernel that touches no
repository code tells the states apart.

A block counts only if the readings on both sides of it are within
:data:`TOLERANCE` of the fastest reading of the invocation.  The guard pins the
process to one CPU so that a state lasts through a block, and before a block it
*seeks* the fast state: while the kernel reads slow it moves to the next CPU,
sleeps a moment and reads again.  Time that is not inside an accepted block is
*lost*; once the loss budget of the invocation is spent, blocks are kept as
they come and the workload is marked ``unsettled``.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

#: A reading this far above the fastest one still counts as the fast state.  Readings inside the
#: fast state scatter up to 1.17x their minimum and the slow state starts at 1.33x (README.md).
TOLERANCE = 0.15
KERNEL_REPS = 5
SEEK_SLEEP_S = 0.02
#: Readings a guard without a reference takes, each after a fresh draw of the state.
FIRST_READINGS = 8

_A = np.random.default_rng(0).standard_normal((64, 64))


def kernel_ms() -> float:
    """One pass of the calibration kernel (about 3.5 ms in the fast state here)."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(400):
        acc += float((_A @ _A)[0, 0])
        _ = {j: j for j in range(50)}
    return (time.perf_counter() - t0) * 1e3


class Guard:
    """Read the machine's speed, seek its fast state, and say which readings were fast."""

    def __init__(self, ref_ms: float | None, loss_budget_s: float, cpus: list[int] | None = None) -> None:
        #: The CPUs to move between; a child is told, because it inherits its parent's one-CPU pin.
        self.cpus = cpus or sorted(os.sched_getaffinity(0))
        self._cpu = 0
        os.sched_setaffinity(0, {self.cpus[0]})
        #: Fastest reading of the invocation, other processes' readings included.
        self.ref_ms = ref_ms if ref_ms is not None else float("inf")
        self.loss_budget_s = loss_budget_s
        self.lost_s = 0.0
        self.blocks_rerun = 0
        self.unsettled = False
        if ref_ms is None:
            for _ in range(FIRST_READINGS):
                self.reading()
                self._redraw()

    @property
    def left_s(self) -> float:
        """What of the loss budget is not spent."""
        return self.loss_budget_s - self.lost_s

    def reading(self) -> float:
        """Median of a few kernel passes (robust to sub-second blips); learns a faster reference."""
        ms = statistics.median(kernel_ms() for _ in range(KERNEL_REPS))
        self.ref_ms = min(self.ref_ms, ms)
        return ms

    def fast(self, ms: float) -> bool:
        """Whether a reading is within tolerance of the fastest one known now."""
        return ms <= self.ref_ms * (1.0 + TOLERANCE)

    def _redraw(self) -> None:
        """Move to the next CPU and sleep a moment: either draws the machine's state afresh."""
        self._cpu = (self._cpu + 1) % len(self.cpus)
        os.sched_setaffinity(0, {self.cpus[self._cpu]})
        time.sleep(SEEK_SLEEP_S)

    def seek(self, give_up_s: float) -> float:
        """Read until the machine reads fast or ``give_up_s`` seconds have passed; the last reading.

        The time this takes is lost time.
        """
        start = time.perf_counter()
        while True:
            ms = self.reading()
            if self.fast(ms) or time.perf_counter() - start >= give_up_s:
                self.lost_s += time.perf_counter() - start
                return ms
            self._redraw()
