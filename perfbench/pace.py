"""The machine's speed, sampled while a region is timed, to scale its time.

The benchmark runs on a few cores of a shared host, and their speed moves
with the host's other load: a fixed loop runs anywhere from about 0.5x to
1.5x its median speed, in stretches of seconds to minutes, so a whole run
can sit in a slow or a fast stretch.  Plain wall-clock times of identical
batches then spread by 20-30% from run to run.

A `Pace` runs a small fixed reference loop (list and dict work on plain
ints, no orbitdiag code) from an interval timer every `INTERVAL` seconds
while a region runs.  The timer's signal handler runs in the main thread
between bytecodes, so no thread or process is started.  The region's work
time is its wall time less the time spent in the samples, and `scaled`
turns it into the seconds the region would take at the nominal speed, the
speed at which one reference loop takes `NOMINAL_S`:

    scaled = (wall - sampling) * NOMINAL_S / median(sample times)

Only the benchmark's own loop sets the scale, so a change to the program
moves the scaled time exactly as it moves the work time.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL = 0.05
# One reference loop's median time on the machine the README's numbers come
# from; any fixed value would do, this one keeps scaled times near wall times.
NOMINAL_S = 0.00075


# About 2 MB of int objects in short lists: the reference loop chases
# pointers through them and fills a dict, as the program's exact arithmetic
# does, so its speed follows the host's cache and memory contention too.
TABLE = [list(range(start, start + 64)) for start in range(0, 60000, 64)]


def reference() -> int:
    """The fixed loop whose time stands for the machine's speed (about 0.7 ms)."""
    total = 0
    for row in TABLE[::2]:
        total += row[3] * row[9]
    table = {}
    for i in range(0, 9000, 3):
        table[i * 2654435761 % 100003] = i
    return total + len(table)


def sample() -> float:
    began = time.perf_counter()
    reference()
    return time.perf_counter() - began


def scale(seconds: float, samples: list[float]) -> float:
    return seconds * NOMINAL_S / statistics.median(samples)


class Pace:
    """Samples the reference loop on a timer while the `with` block runs."""

    def __init__(self, interval: float = INTERVAL):
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0

    def tick(self, signum, frame) -> None:
        took = sample()
        self.samples.append(took)
        self.spent += took

    def __enter__(self) -> "Pace":
        self.samples.append(sample())  # before the region: even a short one has a sample
        self.previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def scaled(self, elapsed: float) -> float:
        """`elapsed` (the region's wall time) less sampling, at the nominal speed."""
        return scale(elapsed - self.spent, self.samples)
