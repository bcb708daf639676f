"""Stochastic kernels: exact exit samplers, walk-on-spheres and adaptive
Euler-Maruyama.

Every kernel is a vectorized ``*_batch`` function that advances ``n``
paths from one start, ``(start, gen, n)``, per numpy sweep and returns one
:class:`ExitBatch`.  The walk-on-spheres and Euler-Maruyama kernels read
every option from their config, and take one generator, or one per chunk
of :func:`~bmx.rng.chunk_ranges`: the chunks then advance in lockstep,
sharing every geometry call of a sweep, while each draws from its own
generator exactly what a call on that chunk alone would draw.  A sweep
draws into buffers allocated once per call and moves its paths in place,
with no complex temporary, by the arithmetic of the plain formulas
z + r e^{i theta} and z + sqrt(dt) (g0 + i g1), so every bit is theirs.
A path that exits records where it left (the shell point, or the crossing
point of its last step), and after the loop one :meth:`Domain.exit_points`
query per call turns every record into its nearest boundary point and
label; a piece-table domain reads both from one nearest-piece search.  The
query is pointwise, so its result does not depend on which sweep an exit
came from.
Walk-on-spheres draws the exit law exactly, so it also serves the CLI's
pushforward check, which maps exit points only.  Walk-on-spheres can also
mark each path's arrival at the vertical line ``WosConfig.mark_line_re``
without stopping it, which the doubling-inequality check reads.
Randomness always comes from a generator derived from an
:class:`~bmx.rng.RngStream`, so identical ``(seed, stream_id, config)``
reproduce identical exits bit for bit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .disk_time import sample_unit_disk_time
from .errors import BadParameters, PointOutsideDomain
from .geometry import BoundaryLabel, Domain, HalfPlane
from .rng import chunk_ranges

_LABEL_NONE = -1
_MAX_STEPS = 1_000_000   # both kernels' default step cap


def _check_start(domain, start, kernel):
    if not cmath.isfinite(start):
        raise PointOutsideDomain(f"{kernel} start {start!r} is not finite")
    if not domain.contains(start):
        raise PointOutsideDomain(f"{kernel} start outside the domain")


def _check_max_steps(cfg):
    if not cfg.max_steps >= 1:
        raise BadParameters(f"{type(cfg).__name__}.max_steps must be at "
                            f"least 1, got {cfg.max_steps!r}")


@dataclass(frozen=True)
class WosConfig:
    """Walk-on-spheres controls.

    The shell width is 1e-6*(1+|start|), and each jump takes the whole
    inscribed disk, with no cap on its radius.  Planar Brownian motion
    exits almost surely, but a path may still meet the step cap; that is
    reported, never dropped.  ``mark_line_re`` = r, when set, marks each
    path's arrival at the vertical line {Re z = r}, which must lie right
    of the start (see :func:`wos_exit_batch`).
    """

    max_steps: int = _MAX_STEPS
    with_time: bool = False
    mark_line_re: float | None = None

    def __post_init__(self):
        _check_max_steps(self)
        if not (self.mark_line_re is None or math.isfinite(self.mark_line_re)):
            raise BadParameters(f"WosConfig.mark_line_re must be finite or "
                                f"None, got {self.mark_line_re!r}")


@dataclass(frozen=True)
class EmConfig:
    """Adaptive Euler-Maruyama controls: dt = c * dist^2, so the step count
    is logarithmic in the exit scale.  A step shorter than its start's
    clearance cannot cross and is not checked; every other step's exit is
    located by :meth:`Domain.first_boundary_crossing` on the straight step,
    so a step from clearance d0 to clearance d1 hides a crossing with
    probability about exp(-2 d0 d1 / dt).  That is the e^{-2/c} level only
    when d1 is about d0; a step that ends close to the boundary hides more.
    Hidden crossings lengthen paths, and exit-time moments come out high:
    against the exact wedge values, E[tau^p] at p = alpha/4 was 0.07% to
    0.11% above (z-scores 2.3 to 3.8) on the pi/2 wedge, the half-plane and
    the Koebe slit, at c = 0.1 with 4 seeds of 4e5 paths.
    """

    c: float = 0.1
    max_steps: int = _MAX_STEPS

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c > 0):
            raise BadParameters(f"EmConfig.c must be finite and positive, "
                                f"got {self.c!r}")
        _check_max_steps(self)


@dataclass
class ExitBatch:
    """Exits of a block of paths, one array entry per path.

    ``ok`` is False where the path hit the step cap; such paths carry NaN
    exit data and must be excluded (and counted) by consumers.
    ``line_hit`` is set where the path came within the eps shell of the
    vertical line ``WosConfig.mark_line_re`` before its exit, and is None
    when the config marks no line.
    """

    exit_point: np.ndarray
    exit_time: np.ndarray | None
    label: np.ndarray
    steps: np.ndarray
    ok: np.ndarray
    line_hit: np.ndarray | None = None

    def __len__(self):
        return len(self.exit_point)

    @property
    def n_excluded(self) -> int:
        return int(np.sum(~self.ok))


# ---------------------------------------------------------------------------
# Exact kernels
# ---------------------------------------------------------------------------

def _halfplane_exit_reals(start, gen, n):
    """Real exit points of the upper half-plane from ``start``."""
    if not start.imag > 0:
        raise PointOutsideDomain(f"half-plane sampler needs Im(start) > 0, "
                                 f"got start {start!r}")
    return start.real + start.imag * gen.standard_cauchy(n)


def sample_halfplane_exit_batch(start: complex, gen: np.random.Generator,
                                n: int) -> ExitBatch:
    """Exits of the upper half-plane from ``start``: Cauchy(Re, Im) on R."""
    pts = _halfplane_exit_reals(start, gen, n).astype(complex)
    return ExitBatch(
        exit_point=pts, exit_time=None,
        label=HalfPlane("north").label_codes(pts),
        steps=np.ones(n, dtype=np.int64), ok=np.ones(n, dtype=bool))


def sample_disk_exit_batch(center: complex, radius: float,
                           gen: np.random.Generator, n: int,
                           with_time: bool = False) -> ExitBatch:
    """Uniform exits of a disk; optional exact exit times radius^2 * T1."""
    theta = gen.uniform(0.0, 2 * math.pi, n)
    pts = center + radius * np.exp(1j * theta)
    times = radius ** 2 * sample_unit_disk_time(gen, n) if with_time else None
    return ExitBatch(
        exit_point=pts, exit_time=times,
        label=np.full(n, int(BoundaryLabel.GENERIC), dtype=np.int64),
        steps=np.ones(n, dtype=np.int64), ok=np.ones(n, dtype=bool))


# ---------------------------------------------------------------------------
# Per-chunk draws for a lockstep sweep
# ---------------------------------------------------------------------------

class _ChunkDraws:
    """Generator-like source of one sweep's draws for the live paths.

    ``gen`` is one generator for all ``n`` paths, or a sequence with one
    generator per chunk of ``chunk_ranges(n)``.  :meth:`split` takes the
    sorted indices of the paths still live and cuts them into each chunk's
    share ``(generator, lo, hi)``: the live paths ``lo:hi`` of the sweep,
    empty chunks left out.  Each draw method fills every share's slice of a
    buffer allocated once for ``n`` paths from that share's generator, in
    path order, and returns the buffer's live part, so each generator draws
    exactly what a call on its chunk alone would.  The next draw of the same
    kind overwrites it.  The size argument of a draw method is the live
    count and is implied by the split.
    """

    def __init__(self, gen, n):
        self._u = np.empty(n)
        self._g = np.empty((2, n))
        if isinstance(gen, np.random.Generator):
            self._gens = [gen]
            self._bounds = np.empty(0, dtype=np.int64)
            return
        self._gens = list(gen)
        ranges = chunk_ranges(n)
        if len(self._gens) != len(ranges):
            raise BadParameters(f"{n} paths make {len(ranges)} chunks, but "
                                f"{len(self._gens)} generators were given")
        self._bounds = np.array([lo for lo, _ in ranges[1:]], dtype=np.int64)

    def split(self, idx):
        cuts = [0, *np.searchsorted(idx, self._bounds).tolist(), idx.size]
        self._live = idx.size
        self._shares = [(g, lo, hi) for g, lo, hi
                        in zip(self._gens, cuts, cuts[1:]) if hi > lo]

    def random(self, size):
        """Each share's ``random(m)``."""
        u = self._u[:self._live]
        for g, lo, hi in self._shares:
            g.random(out=u[lo:hi])
        return u

    def standard_normal(self, size):
        """Each share's ``standard_normal((2, m))``, row 0 drawn first."""
        g2 = self._g[:, :self._live]
        for g, lo, hi in self._shares:
            g.standard_normal(out=g2[0, lo:hi])
            g.standard_normal(out=g2[1, lo:hi])
        return g2


# ---------------------------------------------------------------------------
# Walk on spheres
# ---------------------------------------------------------------------------

def wos_exit_batch(domain: Domain, start: complex,
                   gen: np.random.Generator | list[np.random.Generator],
                   n: int, cfg: WosConfig = WosConfig()) -> ExitBatch:
    """Walk-on-spheres exits of ``n`` paths from ``start``.

    Jumps to a uniform point of the largest inscribed disk, exact in law
    however long the jump, until the path enters the eps shell, then
    projects onto the boundary.  With ``with_time`` each jump adds radius^2
    times an exact unit-disk exit time, so the accumulated exit time is
    exact in law up to the final shell.  With ``cfg.mark_line_re`` = r
    (right of the start) an unmarked path jumps at most to the line
    {Re z = r} and is marked within eps of it; the line never stops a path,
    and every exit right of it is marked.  Paths still inside after
    ``max_steps`` jumps have ``ok`` False, NaN exit point and time, and
    label -1.  ``gen`` is one generator, or one per chunk of the n paths
    (see :class:`_ChunkDraws`).
    """
    start = complex(start)
    draws = _ChunkDraws(gen, n)
    _check_start(domain, start, "walk-on-spheres")
    line = cfg.mark_line_re
    if line is not None and not start.real < line:
        raise BadParameters(f"marked line mark_line_re = {line!r} must lie "
                            f"right of the start {start!r}")

    eps = 1e-6 * (1.0 + abs(start))

    steps = np.zeros(n, dtype=np.int64)
    exit_t = np.full(n, np.nan) if cfg.with_time else None
    exit_pt = np.full(n, np.nan, dtype=complex)
    labels = np.full(n, _LABEL_NONE, dtype=np.int64)
    ok = np.zeros(n, dtype=bool)
    line_hit = None if line is None else np.zeros(n, dtype=bool)

    # State of the paths still walking, compacted in path order so that
    # every sweep draws exactly as the full-width loop would.
    idx = np.arange(n)
    z = np.full(n, start)
    t = np.zeros(n) if cfg.with_time else None
    jumps = np.empty(n, dtype=complex)
    step = 0
    while idx.size:
        d = r = domain.boundary_distance(z)
        if line is not None:
            # Marked before the shell test: projection moves a point by
            # less than eps, so an exit right of the line is always marked.
            gap = np.abs(z.real - line)
            line_hit[idx[gap < eps]] = True
            r = np.where(line_hit[idx], d, np.minimum(d, gap))
        shell = d < eps
        if np.any(shell):
            done = idx[shell]
            exit_pt[done] = z[shell]
            ok[done] = True
            steps[done] = step
            if t is not None:
                exit_t[done] = t[shell]
            keep = ~shell
            idx, z, r = idx[keep], z[keep], r[keep]
            if t is not None:
                t = t[keep]
            if idx.size == 0:
                break
        # The cap applies after the shell test, so a walk whose last allowed
        # jump lands in the shell still exits.
        if step >= cfg.max_steps:
            steps[idx] = step
            break
        # z + r e^{i theta}, theta = 2 pi u, the bits of uniform(0, 2 pi):
        # exp of (0, theta), both parts scaled by r, added to z in place.
        draws.split(idx)
        jump = jumps[:idx.size]
        jump.real = 0.0
        np.multiply(draws.random(idx.size), 2 * math.pi, out=jump.imag)
        np.exp(jump, out=jump)
        jump.real *= r
        jump.imag *= r
        z += jump
        if t is not None:
            tau = sample_unit_disk_time(draws, idx.size)
            tau *= r ** 2
            t += tau
        step += 1

    exit_pt[ok], labels[ok] = domain.exit_points(exit_pt[ok])
    return ExitBatch(exit_point=exit_pt, exit_time=exit_t, label=labels,
                     steps=steps, ok=ok, line_hit=line_hit)


# ---------------------------------------------------------------------------
# Euler-Maruyama
# ---------------------------------------------------------------------------

def em_exit_batch(domain: Domain, start: complex,
                  gen: np.random.Generator | list[np.random.Generator],
                  n: int, cfg: EmConfig = EmConfig()) -> ExitBatch:
    """Adaptive Euler-Maruyama exits of ``n`` paths from ``start``.

    Gaussian increments with dt = c * dist^2.  A step shorter than its
    start's clearance dist cannot cross the boundary; every other step
    segment is handed to :meth:`Domain.first_boundary_crossing`, which
    locates the first boundary point on it exactly for line, ray, segment
    and circle boundaries (bisection only for curved ones), so excursions
    that leave and re-enter within one step still end the path; the exit
    time is interpolated linearly along the step.  Paths still inside after
    ``max_steps`` steps have ``ok`` False, NaN exit point and time, and
    label -1.  ``gen`` is one generator, or one per chunk of the n paths
    (see :class:`_ChunkDraws`).
    """
    start = complex(start)
    draws = _ChunkDraws(gen, n)
    _check_start(domain, start, "Euler-Maruyama")

    steps = np.zeros(n, dtype=np.int64)
    exit_pt = np.full(n, np.nan, dtype=complex)
    exit_t = np.full(n, np.nan)
    labels = np.full(n, _LABEL_NONE, dtype=np.int64)
    ok = np.zeros(n, dtype=bool)

    # State of the paths still inside, compacted in path order so that
    # every sweep draws exactly as the full-width loop would.
    idx = np.arange(n)
    z = np.full(n, start)
    t = np.zeros(n)
    step = 0
    while idx.size:
        step += 1
        d = domain.boundary_distance(z)
        # Relative floor keeps the clock strictly increasing during
        # near-boundary crawls at float resolution.
        dt = cfg.c * d
        dt *= d
        np.maximum(dt, 1e-18, out=dt)
        np.maximum(dt, 4e-16 * t, out=dt)
        # z + sqrt(dt) (g0 + i g1), one real add per part.
        draws.split(idx)
        g = draws.standard_normal((2, idx.size))
        g *= np.sqrt(dt)
        z1 = np.empty_like(z)
        np.add(z.real, g[0], out=z1.real)
        np.add(z.imag, g[1], out=z1.imag)

        # A step shorter than the clearance d stays in the open disk of
        # radius d about z; a NaN step still reaches the crossing rule.
        near = np.flatnonzero(~(np.abs(z1 - z) < d))
        s = (domain.first_boundary_crossing(z[near], z1[near]) if near.size
             else np.empty(0))
        crossed = np.isfinite(s)
        if np.any(crossed):
            fin, sf = near[crossed], s[crossed]
            done = idx[fin]
            z0 = z[fin]
            exit_pt[done] = z0 + (z1[fin] - z0) * sf
            exit_t[done] = t[fin] + sf * dt[fin]
            ok[done] = True
            steps[done] = step
            keep = np.ones(idx.size, dtype=bool)
            keep[fin] = False
            idx, z1, t, dt = idx[keep], z1[keep], t[keep], dt[keep]
        z = z1
        t += dt
        if step >= cfg.max_steps:
            steps[idx] = step
            break

    exit_pt[ok], labels[ok] = domain.exit_points(exit_pt[ok])
    return ExitBatch(exit_point=exit_pt, exit_time=exit_t, label=labels,
                     steps=steps, ok=ok)
