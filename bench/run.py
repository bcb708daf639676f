#!/usr/bin/env python3
"""Benchmark of bmx: battery scenarios run through ``bmx.cli``, measured end
to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload mc_exits --seed 0 --seconds 50 --trace 0
    python3 bench/run.py --workload all

A run imports bmx from ``src/``, writes the workload's scenarios (see
``workloads.py``) one per config file and runs each with ``bmx.cli.run`` at
``workers=1``, timing each scenario: one pass.  Passes repeat while the
next one is expected to end within ``--seconds`` (and until at least
``MIN_PASSES`` ran).  The first pass is the reference the others are
checked against.

* ``--trace 0``: every pass is untraced.  Reports the end-to-end metrics
  ``setup_s``, ``wall_ref_s`` and ``peak_rss_mb``.  Both times are in
  seconds of a reference machine: each measured time is scaled by a speed
  probe run just before and after it (see ``speed.py``).  ``setup_s`` is
  the median over fresh processes; ``wall_ref_s`` is the time to run every
  scenario once, the medians over passes summed over scenarios.  The raw
  wall time of a pass is printed too, but drifts with the load on a shared
  host.
* ``--trace 1``: after the reference pass, traced and untraced passes
  alternate.  Reports the per-layer metrics of the traced passes (medians;
  see ``tracing.py``), ``trace.overhead_ratio`` (median traced over median
  untraced pass, raw wall times) and ``paths_per_s`` (exit paths of a pass
  over ``wall_ref_s``).
* ``--workload all`` runs every workload in both modes, each in a fresh
  process, and prints their metrics together.

Correctness: every expectation passes, every pass's reports equal the
reference reports byte for byte apart from ``wall_time_s`` (so tracing
must not change a result either), and every traced pass repeats the counts
of the first traced pass exactly.  The last line of standard output is a
JSON object with keys ``correct``, ``attempted`` and ``failed``
(expectations over all passes, so ``failed / attempted`` is the fail ratio;
a scenario that raises counts as one failed expectation) and ``metrics``.
Exit status is 0 when every check passes and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import speed
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
SETUP_PROBES = 5
MIN_PASSES = 3          # untraced passes, and traced ones with --trace 1

END_TO_END = {"setup_s": "s", "wall_ref_s": "s", "peak_rss_mb": "MB"}
SCENARIOS = [name for w in workloads.WORKLOADS
             for name in workloads.scenario_names(w)]

# (method, domain class) pairs reported per layer: every pair a workload
# calls, except project and label_codes on Wedge and KoebeSlit, which
# take under 1% of the EM scenarios (they run once per exit, not once per
# sweep).
# Their time still counts in geometry.self_s.
GEOMETRY_PAIRS = [
    (method, cls)
    for cls, methods in (
        ("Wedge", ("contains", "boundary_distance", "first_boundary_crossing")),
        ("KoebeSlit", ("contains", "boundary_distance",
                       "first_boundary_crossing")),
        ("Rectangle", ("contains", "boundary_distance",
                       "first_boundary_crossing", "project", "label_codes")),
        ("Annulus", ("contains", "boundary_distance", "project",
                     "label_codes")),
        ("CombDomain", ("contains", "boundary_distance", "project",
                        "label_codes")),
        ("HalfPlane", ("label_codes",)),
        ("SpiralPair", ("contains", "boundary_distance")),
    )
    for method in methods
]


def layer_units() -> dict:
    """Name -> unit of every per-layer metric, the same for every workload."""
    units = {f"cli.scenario_s.{name}": "s" for name in SCENARIOS}
    units.update({
        "cli.self_s": "s",
        "stats.run_exits_s": "s", "stats.self_s": "s", "stats.chunks": "count",
        "sim.em.self_s": "s", "sim.em.path_steps": "count",
        "sim.em.path_steps_per_s": "1/s", "sim.em.steps_p50": "count",
        "sim.em.steps_p99": "count", "sim.em.excluded_ratio": "ratio",
        "sim.wos.self_s": "s", "sim.wos.path_steps": "count",
        "sim.wos.path_steps_per_s": "1/s", "sim.wos.excluded_ratio": "ratio",
        "sim.exact.draws_per_s": "1/s",
        "disk_time.calls": "count", "disk_time.draws": "count",
        "disk_time.draws_per_s": "1/s",
    })
    for method, cls in GEOMETRY_PAIRS:
        units[f"geometry.{method}.{cls}.calls"] = "count"
        units[f"geometry.{method}.{cls}.pts"] = "count"
        units[f"geometry.{method}.{cls}.pts_per_s"] = "1/s"
    units.update({
        "geometry.self_s": "s",
        "hyperbolic.profile_s": "s", "hyperbolic.self_s": "s",
        "hyperbolic.dijkstra_s": "s", "hyperbolic.graph_nodes": "count",
        "hyperbolic.graph_edges": "count", "hyperbolic.rounds": "count",
        "trace.overhead_ratio": "ratio", "paths_per_s": "1/s",
    })
    return units


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def layer_values(tr: Tracer) -> dict:
    """Per-layer values of one traced pass (all but the two that need the
    untraced passes)."""
    s, span, c = tr.self_s, tr.span_s, tr.counts
    steps = np.concatenate(tr.em_steps) if tr.em_steps else np.zeros(0)
    m = {f"cli.scenario_s.{name}": span[f"cli.scenario.{name}"]
         for name in SCENARIOS}
    m.update({
        "cli.self_s": s["cli"],
        "stats.run_exits_s": span["stats.run_exits"],
        "stats.self_s": s["stats"],
        "stats.chunks": c["stats.chunks"],
        "sim.em.self_s": s["sim.em"],
        "sim.em.path_steps": c["sim.em.path_steps"],
        "sim.em.path_steps_per_s": _rate(c["sim.em.path_steps"],
                                         span["sim.em_exit_batch"]),
        "sim.em.steps_p50": float(np.percentile(steps, 50)) if steps.size else 0.0,
        "sim.em.steps_p99": float(np.percentile(steps, 99)) if steps.size else 0.0,
        "sim.em.excluded_ratio": _rate(c["sim.em.excluded"], c["sim.em.paths"]),
        "sim.wos.self_s": s["sim.wos"],
        "sim.wos.path_steps": c["sim.wos.path_steps"],
        "sim.wos.path_steps_per_s": _rate(c["sim.wos.path_steps"],
                                          span["sim.wos_exit_batch"]),
        "sim.wos.excluded_ratio": _rate(c["sim.wos.excluded"],
                                        c["sim.wos.paths"]),
        "sim.exact.draws_per_s": _rate(
            c["sim.exact.paths"], span["sim.sample_halfplane_exit_batch"]
            + span["sim.sample_disk_exit_batch"]),
        "disk_time.calls": c["disk_time.calls"],
        "disk_time.draws": c["disk_time.draws"],
        "disk_time.draws_per_s": _rate(c["disk_time.draws"],
                                       span["disk_time.sample_unit_disk_time"]),
    })
    for method, cls in GEOMETRY_PAIRS:
        key = f"geometry.{method}.{cls}"
        m[key + ".calls"] = c[key + ".calls"]
        m[key + ".pts"] = c[key + ".pts"]
        m[key + ".pts_per_s"] = _rate(c[key + ".pts"], span[key])
    m.update({
        "geometry.self_s": s["geometry"],
        "hyperbolic.profile_s": span["hyperbolic.quasi_hyperbolic_profile"],
        "hyperbolic.self_s": s["hyperbolic"],
        "hyperbolic.dijkstra_s": span["hyperbolic.dijkstra"],
        "hyperbolic.graph_nodes": c["hyperbolic.graph_nodes"],
        "hyperbolic.graph_edges": c["hyperbolic.graph_edges"],
        "hyperbolic.rounds": c["hyperbolic.rounds"],
    })
    return m


def deterministic_counts(tr: Tracer) -> dict:
    """Every count of a traced pass; equal inputs must give equal counts."""
    out = dict(tr.counts)
    out["sim.em.steps"] = (np.concatenate(tr.em_steps).tolist()
                           if tr.em_steps else [])
    return out


def paths_of(counts: dict) -> int:
    """Exit paths completed by every kernel, exact samplers included."""
    return sum(counts.get(k, 0) for k in
               ("sim.em.paths", "sim.wos.paths", "sim.exact.paths"))


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

def import_bmx():
    """bmx from this checkout's ``src``, never an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import bmx
        import bmx.cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import bmx from {SRC}: {exc}")
    if Path(bmx.__file__).resolve().parent != SRC / "bmx":
        raise SystemExit(f"error: imported bmx from {bmx.__file__}, "
                         f"not from {SRC}")
    return bmx


def canonical(reports) -> list[str]:
    """Reports as JSON text without the only nondeterministic field."""
    return [json.dumps({k: v for k, v in r.items() if k != "wall_time_s"},
                       sort_keys=True) for r in reports]


def tally(reports) -> tuple[int, int]:
    """(attempted, failed) expectations; a scenario that raised counts as
    one failed expectation."""
    attempted = failed = 0
    for r in reports:
        if "error" in r:
            attempted += 1
            failed += 1
        else:
            attempted += len(r["expectations"])
            failed += sum(not e["passed"] for e in r["expectations"])
    return attempted, failed


def setup_seconds(cfg_path: Path) -> float:
    """Median set-up time of fresh processes, each scaled to the reference
    machine by the import probes just before and after it."""
    script = Path(__file__).resolve().parent / "setup_probe.py"
    times = []
    probe = speed.import_probe()
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, str(script), str(SRC),
                              str(cfg_path)], capture_output=True, text=True,
                             check=True, timeout=120)
        before, probe = probe, speed.import_probe()
        times.append(float(out.stdout.strip().splitlines()[-1])
                     * speed.IMPORT_REFERENCE_S / ((before + probe) / 2))
    return statistics.median(times)


class Run:
    """One workload at one seed: the passes and their checks."""

    def __init__(self, bmx, cfg_paths: list[Path]):
        self.bmx = bmx
        self.cfg_paths = [str(p) for p in cfg_paths]
        self.tracer = Tracer(bmx)
        self.attempted = self.failed = 0
        self.failures = []       # failed expectations of the reference pass
        self.problems = []       # reports or counts that did not repeat
        self.ref = None
        self.ref_counts = None

    def _pass(self, traced: bool) -> tuple[list[float], list[float]]:
        """Every scenario once; returns the wall time of each and the same
        scaled to the reference machine by the probes around it."""
        self.tracer.reset()
        reports, walls, scaled = [], [], []
        probe = speed.probe()
        with self.tracer.installed() if traced else nullcontext():
            for cfg_path in self.cfg_paths:
                t0 = time.perf_counter()
                reports += self.bmx.cli.run(cfg_path, workers=1)
                walls.append(time.perf_counter() - t0)
                before, probe = probe, speed.probe()
                scaled.append(walls[-1] * speed.REFERENCE_S
                              / ((before + probe) / 2))
        a, f = tally(reports)
        self.attempted += a
        self.failed += f
        text = canonical(reports)
        if self.ref is None:
            self.ref = text
            self.failures = [
                f"{r['scenario']['name']}: "
                + r.get("error", json.dumps(r["expectations"]))
                for r in reports if not r["passed"]]
        elif text != self.ref:
            kind = "traced" if traced else "untraced"
            self.problems.append(f"{kind} pass reports differ from the "
                                 "reference pass")
        if traced:
            counts = deterministic_counts(self.tracer)
            if self.ref_counts is None:
                self.ref_counts = counts
            elif counts != self.ref_counts:
                self.problems.append("traced pass counts differ from the "
                                     "reference pass")
        return walls, scaled

    def untraced(self) -> tuple[list[float], list[float]]:
        return self._pass(traced=False)

    def traced(self) -> tuple[float, dict]:
        walls, _ = self._pass(traced=True)
        return sum(walls), layer_values(self.tracer)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: float = 1.0, min_passes: int = MIN_PASSES) -> dict:
    """One benchmark run; returns the result object plus a ``summary`` for
    people.  ``scale`` multiplies every path count."""
    bmx = import_bmx()
    WORK_DIR.mkdir(exist_ok=True)
    stem = f"{workload}-{seed}-{os.getpid()}"
    cfg_path = WORK_DIR / f"{stem}.cfg"     # the whole workload, for set-up
    cfg_path.write_text(workloads.config_text(workload, seed, scale))
    scenario_paths = []
    for name in workloads.scenario_names(workload):
        path = WORK_DIR / f"{stem}-{name}.cfg"
        path.write_text(workloads.config_text(workload, seed, scale, name))
        scenario_paths.append(path)
    try:
        setup = None if trace else setup_seconds(cfg_path)
        run = Run(bmx, scenario_paths)
        start = time.perf_counter()
        passes = [run.untraced()]       # the reference pass
        traced_walls, layers = [], []
        while (len(passes) < min_passes
               or (trace and len(traced_walls) < min_passes)
               or (time.perf_counter() - start) * (1 + 1 / len(passes))
               <= seconds):
            if trace:
                wall, values = run.traced()
                traced_walls.append(wall)
                layers.append(values)
            passes.append(run.untraced())
    finally:
        for path in [cfg_path, *scenario_paths]:
            path.unlink(missing_ok=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    walls = [sum(p[0]) for p in passes]
    wall_ref_s = sum(statistics.median(times)
                     for times in zip(*(p[1] for p in passes)))
    if trace:
        metrics = {k: statistics.median(v[k] for v in layers)
                   for k in layers[0]}
        metrics["trace.overhead_ratio"] = (statistics.median(traced_walls)
                                           / statistics.median(walls))
        metrics["paths_per_s"] = paths_of(run.ref_counts) / wall_ref_s
        units = layer_units()
    else:
        metrics = {
            "setup_s": setup,
            "wall_ref_s": wall_ref_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    return {
        "correct": not run.problems and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
        "summary": {
            "workload": workload, "seed": seed, "trace": int(trace),
            "why": workloads.WORKLOADS[workload]["why"],
            "passes": len(walls), "traced_passes": len(traced_walls),
            "wall_s_min": min(walls), "wall_s_median": statistics.median(walls),
            "wall_s_max": max(walls),
            "fail_ratio": run.failed / run.attempted,
            "failures": run.failures,
            "problems": run.problems,
            "provenance": provenance(bmx, seed),
        },
    }


def provenance(bmx, seed: int) -> dict:
    import scipy
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "chunk_size": bmx.rng.CHUNK_SIZE,
        "disk_time_table_checksum": bmx.get_sampler().table_checksum(),
        "seed": seed,
        "git_commit": commit,
    }


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def print_result(result: dict) -> None:
    summary = result.pop("summary")
    print(f"== {summary['workload']} seed={summary['seed']} "
          f"trace={summary['trace']}: {summary['why']}")
    print("provenance " + json.dumps(summary["provenance"], sort_keys=True))
    print(f"  passes: {summary['passes']} untraced, "
          f"{summary['traced_passes']} traced; untraced pass min "
          f"{summary['wall_s_min']:.4f} median {summary['wall_s_median']:.4f}"
          f" max {summary['wall_s_max']:.4f} s")
    for name, m in result["metrics"].items():
        if m["value"]:
            print(f"  {name:<48} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'fail_ratio':<48} {summary['fail_ratio']:>16.6g} ratio "
          f"({result['failed']} of {result['attempted']} expectations)")
    for failure in summary["failures"]:
        print(f"  EXPECTATION FAILED: {failure}")
    for problem in summary["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps(result))


def run_all(args) -> int:
    """Every workload untraced and traced, each in a fresh process; the last
    line merges their results, metric names prefixed by the workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", trace],
                capture_output=True, text=True, timeout=900)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(proc.stderr)
            if not lines:
                return proc.returncode or 1
            result = json.loads(lines[-1])
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for metric, m in result["metrics"].items():
                merged["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload == "all":
        return run_all(args)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
