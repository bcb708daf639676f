"""Speed probes: how fast the machine runs this kind of work right now.

On a shared host the speed of the machine drifts by up to half over tens of
seconds, for minutes at a time, so raw times of the same code taken a few
minutes apart differ by more than any change worth measuring.  The
benchmark times a fixed piece of work that does not depend on bmx just
before and after each thing it measures, and scales the measured time by
``reference / mean probe time``: the result reads as seconds on a machine
where the probe takes its reference time.

``probe`` does numpy work in both of bmx's regimes: many calls on arrays
of a few hundred points (the per-sweep calls of the Monte Carlo kernels) and
a few calls on arrays larger than the cache (the graph scans).  It returns
the geometric mean of the two parts' times, so either regime slowing by a
factor moves it by the square root of that factor.  It scales the
scenarios' wall times.

``import_probe`` times ``import numpy`` in a fresh interpreter.  It scales
the set-up time, which is mostly imports and which ``probe`` does not
track: a fresh process need not run on the processor the benchmark runs on.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np

# About the probe's fastest time on a 2-vCPU Intel Xeon VM, so that
# normalised times read roughly as that machine's seconds when it is quiet.
REFERENCE_S = 0.016
# The same for ``import_probe``.
IMPORT_REFERENCE_S = 0.08


def probe() -> float:
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    for _ in range(800):
        a = rng.standard_normal(512)
        inside = np.abs(a) < 1.0
        a[inside].sum()
        np.nonzero(inside)
    t1 = time.perf_counter()
    z = rng.standard_normal(200_000) + 1j * rng.standard_normal(200_000)
    r = np.abs(z)
    shuffled = r[rng.permutation(r.size)]
    np.sort(shuffled)
    np.cumsum(shuffled)
    np.angle(z[shuffled < 1.0])
    t2 = time.perf_counter()
    return math.sqrt((t1 - t0) * (t2 - t1))


def import_probe() -> float:
    code = ("import time; t0 = time.perf_counter(); import numpy; "
            "print(time.perf_counter() - t0)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout)
