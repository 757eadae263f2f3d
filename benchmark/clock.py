"""A wall clock corrected for the machine's speed modes.

Identical pure-Python work on a shared VM can run at speeds up to about
1.8x apart, and the speed changes every few seconds.  Raw wall time then
says more about the neighbours than about the program.  ``SpeedClock``
samples a tiny fixed probe kernel every few milliseconds (from a SIGALRM
handler, so no extra thread runs) and integrates elapsed wall time scaled
by ``reference time / probe time``.  Its readings are seconds "at reference
speed": the speed at which the probe kernel takes its reference time.  Time
spent inside the probe itself is excluded from both clocks.

While the process waits for a child, the handler keeps sampling, so a
child's run time is corrected by the speed measured during that run.
"""

from __future__ import annotations

import gc
import signal
import time

_pc = time.perf_counter


def probe_kernel() -> int:
    """Fixed pure-Python work shaped like the path algebra: tuple keys
    concatenated and counted in a dict."""
    out: dict = {}
    keys = [(i, i + 1, i + 2) for i in range(12)]
    for a in keys:
        for b in keys:
            k = a + b
            out[k] = out.get(k, 0) + 1
    return len(out)


def matrix_probe_kernel():
    """Return a probe kernel: ``probe_kernel`` plus small matrix products in
    a Python loop, shaped like eval_polynomial.  Matrix work slows down less
    than pure Python in the slow mode, so numpy-heavy work needs a probe
    made mostly of it."""
    import numpy as np

    rng = np.random.default_rng(0)
    mats = [rng.uniform(-0.5, 0.5, (8, 8)) for _ in range(4)]

    def kernel():
        probe_kernel()
        total = np.zeros((8, 8))
        for _ in range(9):
            product = np.eye(8)
            for m in mats:
                product = product @ m
            total += product
        return total

    return kernel


# Each kernel's time in the fast speed mode of the reference machine (2 vCPU
# Xeon VM, Python 3.11).  This only sets the unit: readings equal raw wall
# seconds when the machine runs at that speed.
PROBES = {
    "python": (lambda: probe_kernel, 28e-6),
    "matrix": (matrix_probe_kernel, 190e-6),
}


def probe_seconds(kernel, reps: int = 1) -> float:
    """Fastest of ``reps`` probe runs, with the cyclic GC held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(reps):
            t = _pc()
            kernel()
            best = min(best, _pc() - t)
    finally:
        if enabled:
            gc.enable()
    return best


class SpeedClock:
    """Speed-corrected clock; ``now()`` is monotonic within one process."""

    def __init__(self, probe: str = "python", interval: float = 0.005):
        make_kernel, self._ref = PROBES[probe]
        self._kernel = make_kernel()
        self.interval = interval
        self._norm = 0.0
        self._raw = 0.0
        self._scale = self._ref / probe_seconds(self._kernel, 3)
        self._seg_start = _pc()
        self._running = False
        # The handler can run between any two bytecodes of the main code:
        # ``_busy`` keeps it out of a resample in progress, and ``_gen``
        # lets readers retry when it ran in the middle of a read.
        self._busy = False
        self._gen = 0

    def _advance(self, reps: int) -> None:
        seg = _pc() - self._seg_start
        self._norm += seg * self._scale
        self._raw += seg
        self._scale = self._ref / probe_seconds(self._kernel, reps)
        self._seg_start = _pc()
        self._gen += 1

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self._advance(1)

    def start(self) -> "SpeedClock":
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self._running = True
        return self

    def stop(self) -> None:
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._running = False

    def resample(self) -> None:
        """Take a fresh speed sample now, the same way the timer does."""
        self._busy = True
        try:
            self._advance(1)
        finally:
            self._busy = False

    def now(self) -> float:
        """Seconds at reference speed since the clock was made."""
        while True:
            gen = self._gen
            value = self._norm + (_pc() - self._seg_start) * self._scale
            if gen == self._gen:
                return value

    def raw(self) -> float:
        """Wall seconds since the clock was made, probe time excluded."""
        while True:
            gen = self._gen
            value = self._raw + (_pc() - self._seg_start)
            if gen == self._gen:
                return value
