"""A probe of machine speed, so that times taken on a shared machine compare.

On a shared virtual machine the speed of one vCPU drifts with the load of
its neighbours: a fixed pure-Python loop has been seen to take up to twice
as long from one minute to the next.  That drift is larger than the changes
the benchmark has to detect, and a run of 25 s cannot average it away.

So every benchmark process runs a fixed reference loop (Fraction and dict
arithmetic, like weilinv's own hot paths) from a timer signal every
``INTERVAL_S`` seconds, and records when each run of it started and ended,
in wall and CPU time.  An interval of wall time ``t`` during which the loop
took ``r`` seconds is reported as ``t * NOMINAL_S / r``: the time the same
work takes with the machine at the speed at which the loop takes
``NOMINAL_S``.  CPU times are scaled by the loop's CPU time the same way.
The time spent in the loop itself is taken out of every interval first.
The loop calls nothing in weilinv and runs with the garbage collector off,
so the program's heap cannot slow it down.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

#: about the loop's time on a busy 2-vCPU Xeon where the benchmark was
#: defined, so that scaled times are close to the raw times seen there
NOMINAL_S = 0.008
INTERVAL_S = 0.25


def reference_loop() -> Fraction:
    total = Fraction(0)
    table: dict[int, int] = {}
    for i in range(1, 1500):
        f = Fraction(i, i % 7 + 1)
        total += f * f
        table[i % 64] = table.get(i % 64, 0) + i
    return total


class SpeedProbe:
    """Samples of the reference loop: (wall start, wall end, CPU start, CPU end)."""

    def __init__(self, on_sample=None):
        self.samples: list[tuple[float, float, float, float]] = []
        self.on_sample = on_sample  # called with the wall time of each sample

    def sample(self) -> None:
        collecting = gc.isenabled()
        gc.disable()
        try:
            w0, c0 = time.perf_counter(), time.process_time()
            reference_loop()
            w1, c1 = time.perf_counter(), time.process_time()
        finally:
            if collecting:
                gc.enable()
        self.samples.append((w0, w1, c0, c1))
        if self.on_sample is not None:
            self.on_sample(w1 - w0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, w0: float, w1: float, c0: float, c1: float) -> tuple[float, float]:
        """Scaled (wall, CPU) time of the interval from (w0, c0) to (w1, c1).

        The samples taken inside the interval set its speed; an interval
        too short to hold one takes the sample nearest to its middle.  A
        timer signal runs its handler between two bytecodes of the main
        thread, so a sample lies either wholly inside an interval whose
        ends the main thread timed, or wholly outside it.
        """
        inside = [s for s in self.samples if w0 <= s[0] and s[1] <= w1]
        wall = w1 - w0 - sum(s[1] - s[0] for s in inside)
        cpu = c1 - c0 - sum(s[3] - s[2] for s in inside)
        if not inside:
            middle = (w0 + w1) / 2
            inside = [min(self.samples, key=lambda s: abs((s[0] + s[1]) / 2 - middle))]
        wall_ref = statistics.fmean(s[1] - s[0] for s in inside)
        cpu_ref = statistics.fmean(s[3] - s[2] for s in inside)
        return wall * NOMINAL_S / wall_ref, cpu * NOMINAL_S / cpu_ref
