"""Host-speed calibration of the end-to-end timings.

On a shared host the CPU speed one process gets drifts by 1.5x or more within
a minute, in steps that last from seconds to minutes, and counted steal time
stays near zero.  Raw wall times of one program then differ between runs by
more than any useful regression bound.  So the end-to-end times are reported
at a nominal host speed:

- a fixed probe that runs no arithsite code takes a slice of time between
  operations, every `every_s` of operation time.  In-process workloads use
  PYTHON: about 10 ms of Fraction arithmetic, tuples and dicts, what
  arithsite's exact code is made of.  cli-cold uses SPAWN: a fresh
  interpreter that imports numpy and the standard modules the CLI needs;
- each operation's wall time is multiplied by `nominal_s / s`, where s is
  the mean of the two probe slices around it.

A change to arithsite moves the scaled times as it moves wall times; a change
of host speed moves the probe too and cancels.  On a 2-core shared host, the
raw time of a fixed batch of fibers ranged over 1.55x within 100 s while its
ratio to the probe stayed within +-5%.  The raw wall figures stay in the run
record.  Work a program left running between operations (a thread, a child
process) would slow the probe and hide part of its own cost; arithsite
starts none that outlive a call.
"""

from __future__ import annotations

import subprocess
import sys
from fractions import Fraction
from time import perf_counter
from typing import Callable, NamedTuple


def _probe() -> int:
    a, seen = Fraction(1, 3), {}
    for i in range(1, 300):
        a = a * Fraction(i + 1, i) + Fraction(1, i * i)
        a = Fraction(a.numerator % 1000003, a.denominator % 1000003 or 1)
        seen[(i, a)] = a
    return len(seen)


def python_s() -> float:
    """Wall time of four in-process probe calls, about 10 ms."""
    t0 = perf_counter()
    for _ in range(4):
        _probe()
    return perf_counter() - t0


def spawn_s() -> float:
    """Wall time of a fresh interpreter that imports numpy and the standard
    modules the CLI needs, about 0.2 s: what a CLI call does before arithsite."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import argparse, fractions, json, numpy"],
                   stdin=subprocess.DEVNULL, capture_output=True, check=True, timeout=60)
    return perf_counter() - t0


class Probe(NamedTuple):
    slice_s: Callable[[], float]  # runs one slice, returns its wall time
    nominal_s: float  # a slice's time at the nominal host speed
    every_s: float  # operation time between two slices


PYTHON = Probe(python_s, 0.010, 0.25)
# a CLI call starts a process and imports numpy, which track host speed
# differently from in-process Python work
SPAWN = Probe(spawn_s, 0.150, 1.0)


class Scaler:
    """Collects raw operation times and the probe slices between them."""

    def __init__(self, probe: Probe):
        self.probe = probe
        self.raw: list[float] = []
        self.window: list[int] = []  # index of the slice before each time
        self.slices = [probe.slice_s()]
        self._since = 0.0

    def add(self, dt: float) -> None:
        self.raw.append(dt)
        self.window.append(len(self.slices) - 1)
        self._since += dt
        if self._since >= self.probe.every_s:
            self.slices.append(self.probe.slice_s())
            self._since = 0.0

    def factors(self) -> list[float]:
        """Nominal over measured speed, one per window between two slices."""
        return [2 * self.probe.nominal_s / (a + b) for a, b in zip(self.slices, self.slices[1:])]

    def scaled(self) -> list[float]:
        """Each time at the nominal host speed; closes the last window."""
        if self.window and self.window[-1] == len(self.slices) - 1:
            self.slices.append(self.probe.slice_s())
        factor = self.factors()
        return [dt * factor[i] for dt, i in zip(self.raw, self.window)]
