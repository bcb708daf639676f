"""Benchmark workloads: scenarios of ``scenarios/battery.cfg``, copied here so
that an edit to the battery does not silently change the benchmark.

Parameters and seeds are the battery's except where a comment says
otherwise.  Sizes are chosen so that one pass over a workload takes a few
seconds on a shared 2-core machine, which lets a run repeat the workload
several times and report medians.  The Euler-Maruyama and walk-on-spheres
scenarios share one workload: the speed of such a machine drifts by up to
50% over tens of seconds, and two workloads leave each run about twice as
long as three would, so twice as many passes go into each median.

``--seed s`` adds ``s`` to every scenario seed; the default seed 0
reproduces the battery's streams.
"""

from __future__ import annotations

import configparser
import io

WORKLOADS = {
    "mc_exits": {
        "why": ("Monte Carlo exits: Euler-Maruyama with many small per-sweep "
                "geometry calls, walk-on-spheres with the exact disk-time "
                "clock and comb polylines, exact half-plane draws; no graph"),
        "config": """
# n = 10000 (battery: 100000) in the two moment scenarios.  The battery's
# other EM scenarios are left out because their gates need about 1e5 paths
# to hold at every seed: at 1e4 paths the tail index of
# wedge_right_angle_tail (tolerance 0.15 around 1.0) has a standard
# deviation of 0.05, and the ratio of karafyllia_strip (tolerance 0.25) one
# of 0.14.
[scenario.koebe_tail]
experiment = moment
domain = koebeslit()
start = 1
p = 0.125
n = 10000
kernel = em
seed = 1010
expect_verdict = finite
expect_tail_index = 0.25
expect_tail_tol = 0.15

[scenario.halfplane_wedge_tail]
experiment = moment
domain = wedge(3.141592653589793)
start = 1
p = 0.25
n = 10000
kernel = em
seed = 1009
expect_verdict = finite
expect_tail_index = 0.5
expect_tail_tol = 0.15

[scenario.pushforward_rectangle]
experiment = pushforward_check
domain = rectangle(2, 1)
start = 0
map = linear(3)
image = rectangle(6, 3)
n = 20000
seed = 1017
# n = 300000 (battery: 100000).
[scenario.annulus_log_law_half]
experiment = harmonic_measure
domain = annulus(1, 7.389056098930650)
start = 2.718281828459045
region = annulus_inner
n = 300000
kernel = wos
seed = 1001
expect_prob = 0.5
expect_sigmas = 3

[scenario.comb_growth]
experiment = comb_sequence
a = 1 40 41 100 101 900
b = -50 5 -51 6 -52
iterations = 1 3 5
start = 1
p = 0.25
n = 10000
kernel = wos
growth = 1.6 1.9 2.2
seed = 1015

# n = 2000000 (battery: 1000000).
[scenario.cauchy_identities]
experiment = cauchy
gamma = 2j
alpha_mobius = 1j
alpha_power = 0.5
lambda = 1.0
n = 2000000
seed = 1016
expect_sigmas = 4
""",
    },
    "hardy_graph": {
        "why": ("quasi-hyperbolic graph build and Dijkstra, with geometry "
                "called on tens of thousands of points per call instead of "
                "about a thousand; draws no random numbers"),
        "config": """
[scenario.wedge_hardy]
experiment = hardy
domain = wedge(1.5707963267948966)
a = 1
r_schedule = 10 31.6 100 316 1000
seed = 1012
expect_contains = 2.0

[scenario.koebe_hardy]
experiment = hardy
domain = koebeslit()
a = 1
r_schedule = 10 31.6 100 316 1000
seed = 1013
expect_contains = 0.5

# min_cell = 0.5 (battery: 0.15) cuts the graph from 25 s to 2 s here and
# still classifies the spiral as infinite.
[scenario.spiral_hardy]
experiment = hardy
domain = spiralpair(U)
a = -0.8415+0.5403j
r_schedule = 6 12 24 48
cell_factor = 0.25
rel_floor = 0
prune_clearance = 0.45
min_cell = 0.5
max_rounds = 1
max_nodes = 500000
seed = 1014
expect_classification = infinite
""",
    },
}


def scenario_names(workload: str) -> list[str]:
    cp = _parse(workload)
    return [s[len("scenario."):] for s in cp.sections()]


def config_text(workload: str, seed: int, scale: float = 1.0,
                only: str | None = None) -> str:
    """The workload's scenario config with every seed offset by ``seed`` and
    every path count ``n`` multiplied by ``scale`` (at least 100 paths);
    with ``only``, just that scenario."""
    cp = _parse(workload)
    for section in cp.sections():
        if only is not None and section != f"scenario.{only}":
            cp.remove_section(section)
            continue
        cp[section]["seed"] = str(int(cp[section]["seed"]) + seed)
        if "n" in cp[section]:
            cp[section]["n"] = str(max(100, round(int(cp[section]["n"]) * scale)))
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def _parse(workload: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(strict=True, interpolation=None)
    cp.optionxform = str
    cp.read_string(WORKLOADS[workload]["config"])
    return cp
