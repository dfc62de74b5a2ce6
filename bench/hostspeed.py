"""How fast the host runs Python right now, to take host drift out of timings.

The hosts this benchmark runs on share their CPUs with other machines, and the
speed they give one process drifts by a third over tens of seconds: the same
round of product-docs took from 2.7 to 4.2 s within one minute, and from 3.4
to 5.2 s within another.  A fixed
probe, which touches nothing of topzeta, is timed between operations, and
the ratio of operation time to probe time holds far steadier than either:

* ``kernel``, for work done inside the benchmark's process: pure Python on
  exact fractions, dicts, tuples and small integer polynomials, the mix
  topzeta's own arithmetic is made of.  Over that second minute of
  product-docs rounds the ratio stayed within 8 % of its median.
* ``COLD_START``, for work done in fresh processes: a child interpreter that
  imports a fixed set of standard-library modules, as ``python -m topzeta``
  does with its own imports.  Over one minute of cli-cold rounds the ratio
  moved by 5 %, where the kernel's moved by 13 % and the raw time by 25 %.

An operation's time is reported as ``measured * nominal / local``: ``local``
is the median probe time of the samples nearest the operation, so a value is
the time the operation would take on a host that runs the probe in
``nominal`` seconds, the probe's usual time on the host the README's figures
come from.  No change to topzeta can move a probe.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

# samples whose median gives the host speed at one moment
WINDOW = 5
KERNEL_NOMINAL_S = 0.003
COLD_START_NOMINAL_S = 0.15
COLD_START = [sys.executable, "-c",
              "import argparse, ast, asyncio, dataclasses, decimal, email.mime.multipart, "
              "fractions, http.client, inspect, json, logging.handlers, pydoc, typing, "
              "unittest, xml.dom.minidom"]


def kernel():
    acc = Fraction(0)
    poly = {}
    for i in range(1, 900):
        acc += Fraction(i % 7 + 1, i * (i % 5 + 1))
        key = (i % 13, i % 11)
        poly[key] = poly.get(key, 0) + i * i
    prod = [0] * 81
    coeffs = sorted(poly.values())[:41]
    for i, a in enumerate(coeffs):
        for j, b in enumerate(coeffs[:40]):
            prod[i + j] += a * b
    return acc, prod


def cold_start(env, cwd):
    subprocess.run(COLD_START, env=env, cwd=cwd, check=True, timeout=60)


class HostSpeed:
    """Probe timings through a run, and the host's slowdown at any moment."""

    def __init__(self, probe, nominal):
        self.probe = probe        # callable timed as one sample
        self.nominal = nominal    # its usual seconds on the reference host
        self.times = []           # sample midpoints, increasing
        self.seconds = []         # sample durations

    @classmethod
    def in_process(cls):
        return cls(kernel, KERNEL_NOMINAL_S)

    @classmethod
    def fresh_processes(cls, env, cwd):
        return cls(lambda: cold_start(env, cwd), COLD_START_NOMINAL_S)

    def sample(self, n=1):
        for _ in range(n):
            t0 = perf_counter()
            self.probe()
            t1 = perf_counter()
            self.times.append((t0 + t1) / 2)
            self.seconds.append(t1 - t0)

    def slowdown(self, t):
        """Median probe time of the WINDOW samples nearest ``t``, over nominal."""
        n = len(self.times)
        i = bisect.bisect(self.times, t)
        lo = max(0, min(i - WINDOW // 2, n - WINDOW))
        return statistics.median(self.seconds[lo:lo + WINDOW]) / self.nominal

    def adjust(self, start, end):
        """Wall seconds from start to end, at the reference host's speed."""
        return (end - start) / self.slowdown((start + end) / 2)

    def median_slowdown(self):
        return statistics.median(self.seconds) / self.nominal
