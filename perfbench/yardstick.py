"""A fixed pure-Python kernel, interleaved with the run, that gauges host speed.

The shared host's speed drifts: within one run the same cell's CPU time
per access can move by a third, and between runs minutes apart by more.
That drift is the host's, not the program's, yet it reaches every timing.
So while an untraced run measures, a profiling timer (``ITIMER_PROF``,
which counts the process's CPU time) interrupts the process every
:data:`PERIOD` CPU seconds and runs one :class:`Yardstick` kernel, a
set-associative LRU table fed by a fixed address stream, timed on its own.
The kernel is the benchmark's own code and never changes with the
program, so the mean time of the kernel runs that landed in an interval
measures how fast the host ran Python during that interval.
:func:`at_reference_speed` scales a timing to a host on which one kernel
run takes :data:`REFERENCE_S`.

Kernel runs cost about 3 % of CPU time.  Each run's time is recorded:
the kernel time that lands inside ``simulate()`` is taken out of the CPU
time ``accesses_per_s`` counts; wall and set-up times keep their share.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Any

#: CPU seconds between two kernel runs.
PERIOD = 0.04

#: The kernel's table: sets of LRU ways, fed with this many distinct lines.
SETS, WAYS, LINES = 1024, 8, 1 << 14

#: Table accesses per kernel run: about 0.85 ms of host time alone and
#: 1.2-1.4 ms inside a simulation, which leaves the caches cold.
ACCESSES = 800

#: Untimed kernel runs that fill the table before the first timed one;
#: until it is full, a run does less work.
WARM_RUNS = 16

#: Host seconds of one kernel run at the reference speed: about the
#: median inside cell-long's simulations on the 2-vCPU KVM guest the
#: benchmark was tuned on.
REFERENCE_S = 1.4e-3


class Yardstick:
    """The kernel; ``spent`` and ``runs`` total its runs in this process."""

    def __init__(self) -> None:
        self.rows = [[] for _ in range(SETS)]
        self.counts: dict = {}
        self.state = 12345
        self.spent = 0.0
        self.runs = 0
        self._busy = False
        self._pid = 0
        self._saved: Any = None
        for _ in range(WARM_RUNS):
            self.run()
        self.spent, self.runs = 0.0, 0

    def _access(self, line: int) -> bool:
        row = self.rows[line % SETS]
        if line in row:
            row.remove(line)
            row.append(line)
            return True
        if len(row) >= WAYS:
            row.pop(0)
        row.append(line)
        return False

    def run(self, *_: Any) -> None:
        """One kernel run; also the ``SIGPROF`` handler.

        A signal that arrives during a run is dropped, not nested, so no
        run's time holds another's.
        """
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        state, counts = self.state, self.counts
        for _ in range(ACCESSES):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            line = (state >> 8) % LINES
            if not self._access(line):
                counts[line] = counts.get(line, 0) + 1
        self.state = state
        self.spent += time.perf_counter() - start
        self.runs += 1
        self._busy = False

    def start(self) -> None:
        """Run the kernel every :data:`PERIOD` CPU seconds of this process.

        A forked child inherits the handler but not the timer, so a pool
        worker calls this again; the call is a no-op where it is running.
        """
        if self._pid == os.getpid():
            return
        self._pid = os.getpid()
        if self._saved is None:
            self._saved = signal.signal(signal.SIGPROF, self.run)
        signal.setitimer(signal.ITIMER_PROF, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        if self._saved is not None:
            signal.signal(signal.SIGPROF, self._saved)
        self._saved, self._pid = None, 0

    def __enter__(self) -> "Yardstick":
        self.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()


def at_reference_speed(seconds: float, kernel_s: float, kernel_runs: int) -> float:
    """``seconds`` of host time scaled to the reference host speed.

    ``kernel_s`` and ``kernel_runs`` are the kernel's time and runs during
    the interval ``seconds`` was measured in.  Without a kernel run there
    is nothing to scale by, and ``seconds`` is returned as measured.
    """
    if kernel_runs == 0:
        return seconds
    return seconds * REFERENCE_S / (kernel_s / kernel_runs)
