"""Plane domains and their geometric predicates.

Every domain is an immutable dataclass exposing vectorized primitives:

* ``contains(z)``           membership in the open set,
* ``boundary_distance(z)``  unsigned Euclidean distance to the boundary set
                            (defined everywhere, not just inside),
* ``exit_points(z)``        (nearest boundary point, integer code of its
                            boundary region), the kernels' one query per
                            exit; ``project(z)`` and ``label_codes(z)`` are
                            the base class's views of its two halves,
* ``first_boundary_crossing(z0, z1)``
                            fraction of the first boundary point along each
                            segment z0 -> z1, the exit rule of the
                            Euler-Maruyama kernel.

``z`` may be a python complex or any complex ndarray; results have matching
shape.  Domains are open: points exactly on the boundary are not contained.

A boundary made of horizontal and vertical segments, rays and lines
(rectangle, half-plane, strip, Koebe slit, half-strip complement, comb) is
stated once, as a table of pieces with infinite ends allowed; the
``_Rectilinear`` base class reads all but ``contains`` from it, and answers
``exit_points`` with one nearest-piece search, which on a table of many
pieces a grid of cells over their finite ends narrows to the few pieces
that can be nearest.  Crossings follow one rule per kind of boundary (the
table, the wedge's rays, circles, bisection for curved ones), exact for any
segment; the Euler-Maruyama kernel decides which steps can cross.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property

import numpy as np

from .errors import BadParameters

# Cells per axis of the nearest-piece index of a piece table.  On the comb
# scenarios 64 leaves about 7 candidates per point on V_5 and 128 about 6,
# while 256 costs more to build than it saves.
_CELLS = 128

# Fewest pieces a table needs for an index.  A cell lookup costs about as
# much as measuring a rectangle's four sides, and on a table of one or two
# pieces it triples the cost of a small call.
_INDEXED_PIECES = 5

# Length along the segment to which the containment bisection of
# Domain.first_boundary_crossing resolves a curved boundary.
CROSSING_TOL = 1e-9


class BoundaryLabel(IntEnum):
    """Boundary-region tags.  Enumeration order breaks classification ties."""

    S1 = 0              # rectangle right side
    S2 = 1              # rectangle bottom side (clockwise from S1)
    S3 = 2              # rectangle left side
    S4 = 3              # rectangle top side
    ANNULUS_INNER = 4
    ANNULUS_OUTER = 5
    HALFLINE_LEFT = 6   # boundary half-line with negative line coordinate
    HALFLINE_RIGHT = 7
    GAMMA1 = 8          # spiral arm t -> t e^{it}
    GAMMA2 = 9          # spiral arm t -> t e^{i(t-pi)}
    GENERIC = 10


def _asarr(z):
    return np.asarray(z, dtype=complex)


def _ray_distance(z, phi):
    """Distance from z to the ray {t e^{i phi} : t >= 0}."""
    w = _asarr(z) * np.exp(-1j * phi)
    return np.where(w.real >= 0.0, np.abs(w.imag), np.abs(w))


def _generic_codes(z):
    """The GENERIC label code for every point of z."""
    return np.full(np.shape(z), int(BoundaryLabel.GENERIC), dtype=np.int64)


def _ray_project(z, phi):
    w = _asarr(z) * np.exp(-1j * phi)
    t = np.maximum(w.real, 0.0)
    return t * np.exp(1j * phi)


class Domain:
    """Base class; concrete domains implement the vectorized primitives."""

    def contains(self, z):
        raise NotImplementedError

    def boundary_distance(self, z):
        raise NotImplementedError

    def exit_points(self, z):
        """(nearest boundary point, label code of its boundary region):
        where a path that ends near z leaves the domain, and the region it
        leaves by; labelling that point again gives the same code."""
        raise NotImplementedError

    def project(self, z):
        """Nearest boundary point: ``exit_points(z)[0]``."""
        return self.exit_points(z)[0]

    def label_codes(self, z):
        """Label code of the nearest boundary region: ``exit_points(z)[1]``."""
        return self.exit_points(z)[1]

    def first_boundary_crossing(self, z0, z1):
        """Fraction s in [0, 1] of the first boundary point on each segment
        z0 -> z1 (z0 inside), inf where the segment stays inside.

        Valid for any segment; the Euler-Maruyama kernel asks only for the
        steps that can cross.  Domains with line, ray, segment or circle
        boundaries override this with the exact crossing.  This default
        serves curved boundaries: where the far endpoint has left the domain
        it bisects on containment to within CROSSING_TOL along the segment,
        returning the fraction just past the flip; a segment that leaves and
        re-enters between its endpoints goes unseen.
        """
        z0, z1 = _asarr(z0), _asarr(z1)
        s = np.full(z0.shape, np.inf)
        out = ~self.contains(z1)
        if np.any(out):
            s[out] = _bisect_first_violation(
                z0[out], z1[out], lambda p: ~self.contains(p), CROSSING_TOL)
        return s

    def probe_box(self):
        """(xmin, xmax, ymin, ymax) window overlapping the domain interior."""
        raise NotImplementedError


def _bisect_first_violation(z0, z1, violates, tol):
    """Vectorized bisection for the first point of [z0, z1] where
    ``violates`` holds; z0 must not violate, z1 must.  Returns the fraction
    s on the violating side, within ``tol`` (in length) of the flip.  Each
    segment takes its own halving count from its length, so its fraction
    does not depend on the other segments of the batch."""
    step = np.abs(z1 - z0)
    iters = np.clip(np.ceil(np.log2(np.maximum(step / tol, 2.0))), 8, 64)
    s_lo = np.zeros(z0.shape)
    s_hi = np.ones(z0.shape)
    for k in range(int(iters.max())):
        live = iters > k
        mid = 0.5 * (s_lo + s_hi)
        bad = violates(z0 + (z1 - z0) * mid)
        s_hi = np.where(live & bad, mid, s_hi)
        s_lo = np.where(live & ~bad, mid, s_lo)
    return s_hi


def _line_crossing_fraction(y0, y1):
    """s where the segment of ordinates y0 -> y1 (y0 != 0) first reaches 0:
    a sign change or a far end exactly on 0; inf otherwise."""
    cross = ((y0 > 0) & (y1 <= 0)) | ((y0 < 0) & (y1 >= 0))
    denom = np.where(cross, y0 - y1, 1.0)
    return np.where(cross, y0 / denom, np.inf)


def _end_guard(domain, z1, s):
    """``s`` with every segment whose far end lies outside ``domain`` capped
    at 1.  Exact rules that locate a crossing in interpolated coordinates
    can round past a far end that sits on the boundary; the cap keeps every
    simulated position inside the open domain."""
    return np.where(domain.contains(z1), s, np.minimum(s, 1.0))


def _circle_crossing_fraction(w0, w1, radius, leaving_disk):
    """First s in [0, 1] where the segment w0 -> w1 meets the circle
    |w| = radius, from inside (``leaving_disk``) or from outside; inf where
    it does not.  The endpoint test matches ``np.abs(w1)`` against the
    radius exactly as containment does."""
    d = w1 - w0
    a = d.real ** 2 + d.imag ** 2
    b = w0.real * d.real + w0.imag * d.imag
    c = w0.real ** 2 + w0.imag ** 2 - radius ** 2
    disc = b * b - a * c
    root = np.sqrt(np.maximum(disc, 0.0))
    # Stable roots of a s^2 + 2 b s + c = 0: c / q and q / a, q = -b -+ root.
    if leaving_disk:                       # c < 0: the positive root
        q = np.where(b >= 0, -b - root, root - b)
        s = np.where(b >= 0, c / np.where(q == 0, -1.0, q),
                     q / np.where(a == 0, 1.0, a))
        end_out = np.abs(w1) >= radius
        hit = end_out
    else:                                  # c > 0: the smaller root, if b < 0
        q = root - b
        s = np.where(b < 0, c / np.where(q == 0, 1.0, q), np.inf)
        end_out = np.abs(w1) <= radius
        hit = end_out | ((b < 0) & (disc >= 0) & (s <= 1.0))
    return np.where(hit, np.clip(s, 0.0, 1.0), np.inf)


class _Rectilinear(Domain):
    """A domain whose boundary is a table of horizontal and vertical pieces.

    A subclass's ``pieces()`` lists each piece as (p, q, label): its end
    points, either of which may be infinite (``complex(-inf, y)`` ends a
    ray), and the BoundaryLabel code of the points nearest it.  Nearest
    points, labels and exit crossings are read from the table; a tie goes to
    the earlier piece.  Subclasses keep closed forms only for ``contains``
    and ``boundary_distance``, which the kernels call on every sweep.
    """

    @cached_property
    def _table(self):
        """(horizontal, level, lo, hi, label), one entry per piece: a piece
        is {across == level, lo <= along <= hi}, where along is Re z on a
        horizontal piece and Im z on a vertical one."""
        p, q, label = (np.array(c) for c in zip(*self.pieces()))
        p, q = p.astype(complex), q.astype(complex)
        horiz = p.imag == q.imag
        ends = np.where(horiz, [p.real, q.real], [p.imag, q.imag])
        return (horiz, np.where(horiz, p.imag, p.real), ends.min(axis=0),
                ends.max(axis=0), label.astype(np.int64))

    def _coords(self, z, k=slice(None)):
        """(across - level, along) of z against pieces k, every piece by
        default, broadcast together."""
        horiz, level = (c[k] for c in self._table[:2])
        return (np.where(horiz, z.imag, z.real) - level,
                np.where(horiz, z.real, z.imag))

    @cached_property
    def _cells(self):
        """Nearest-piece index: (x0, x scale, y0, y scale, count, cand), or
        None for a table of fewer than _INDEXED_PIECES pieces or without
        finite end coordinates on both axes.

        A grid of _CELLS x _CELLS cells spans the finite end coordinates,
        each axis widened by half its extent on both sides (an axis without
        extent takes the other's, or 1).  Cell c keeps in cand[c] the
        count[c] pieces that may hold the nearest point of one of its
        points, in piece order, padded with its last.  A piece is left out
        only if its distance from the cell exceeds the smallest
        farthest-corner distance of any piece (distance to a segment is
        convex, so its largest value on a cell is at a corner), by a margin
        far above rounding; so each point's first nearest piece is kept.
        """
        horiz, level, lo, hi = self._table[:4]
        box = (np.where(horiz, lo, level), np.where(horiz, hi, level),
               np.where(horiz, level, lo), np.where(horiz, level, hi))
        ends = [c[np.isfinite(c)] for c in (np.concatenate(box[:2]),
                                            np.concatenate(box[2:]))]
        if not (len(horiz) >= _INDEXED_PIECES and ends[0].size
                and ends[1].size):
            return None
        spans = [np.ptp(c) for c in ends]
        near, far, grid = [], [], []
        for c, span, b0, b1 in zip(ends, spans, box[::2], box[1::2]):
            span = span or max(spans) or 1.0
            a, b = c.min() - span / 2, c.max() + span / 2
            grid += [a, _CELLS / (b - a)]
            # A point's cell, found with rounding, may miss the point by a
            # few ulps: the bounds are taken over cells widened by more.
            edges = np.linspace(a, b, _CELLS + 1)
            slack = 1e-9 * (abs(a) + abs(b))
            c0, c1 = edges[:-1] - slack, edges[1:] + slack
            b0, b1 = b0[:, None], b1[:, None]
            # Per piece and cell, on this axis: the squared gap to the
            # piece, and the larger squared distance to it from the cell's
            # two edges.
            near.append(np.maximum(np.maximum(b0 - c1, c0 - b1), 0.0) ** 2)
            far.append(np.maximum(np.abs(c0 - np.clip(c0, b0, b1)),
                                  np.abs(c1 - np.clip(c1, b0, b1))) ** 2)
        lower = near[0][:, :, None] + near[1][:, None, :]
        upper = (far[0][:, :, None] + far[1][:, None, :]).min(axis=0)
        keep = (lower <= upper * (1 + 1e-9)).reshape(len(horiz), -1)
        count = keep.sum(axis=0)
        cell, piece = np.nonzero(keep.T)
        end = np.cumsum(count)
        cand = np.empty((count.size, count.max()), dtype=np.intp)
        cand[:] = piece[end - 1, None]
        cand[cell, np.arange(piece.size) - (end - count)[cell]] = piece
        return (*grid, count, cand)

    def _feet(self, z, k=None):
        """(distance, foot's along coordinate) of z against pieces k, every
        piece when k is None.  Only that search meets points that are not
        finite; at a ray's infinite end such a point has no gap along the
        ray (not inf - inf), so its distance is the limit along its line."""
        masked = k is None and not np.isfinite(z).all()
        k = slice(None) if k is None else k
        across, along = self._coords(z, k)
        lo, hi = (c[k] for c in self._table[2:4])
        foot = np.minimum(np.maximum(along, lo), hi)
        gap = (np.subtract(along, foot, out=np.zeros(foot.shape),
                           where=along != foot) if masked else along - foot)
        return np.hypot(gap, across), foot

    def _measure(self, z, k, first):
        """(distance,) from each point of z to the nearest of the pieces k,
        a row per point, or of every piece when k is None; with ``first``
        also the first nearest of them and its foot's along coordinate."""
        d, foot = self._feet(z[:, None], k)
        if not first:
            return (d.min(axis=-1),)
        j = np.argmin(d, axis=-1)
        # Gathered flat: cheaper per call than 2-D indexing.
        at = np.arange(j.size) * d.shape[1] + j
        return (d.reshape(-1)[at], j if k is None else k.reshape(-1)[at],
                foot.reshape(-1)[at])

    def _nearest(self, z, first=True):
        """``_measure`` over the whole table for each point of z, flattened.
        A point of the index's grid is measured against its cell's pieces
        only; any other point, or a point that is not finite, against every
        piece."""
        z = _asarr(z).reshape(-1)
        if self._cells is None:
            return self._measure(z, None, first)
        x0, sx, y0, sy, count, cand = self._cells
        fx, fy = (z.real - x0) * sx, (z.imag - y0) * sy
        grid = (fx >= 0) & (fx < _CELLS) & (fy >= 0) & (fy < _CELLS)
        inside = grid.all()
        if not inside:
            fx, fy = fx[grid], fy[grid]
        cell = fx.astype(np.intp) * _CELLS + fy.astype(np.intp)
        # Each cell's row is padded with its last piece, so the call's widest
        # cell sets the width.
        rows = cand[cell, :count[cell].max(initial=1)]
        if inside:
            return self._measure(z, rows, first)
        out = [np.empty(z.size, dtype=t) for t in (float, np.intp, float)]
        for part, k in ((grid, rows), (~grid, None)):
            for o, v in zip(out, self._measure(z[part], k, first)):
                o[part] = v
        return out

    def boundary_distance(self, z):
        return self._nearest(z, first=False)[0].reshape(np.shape(z))[()]

    def exit_points(self, z):
        # The point's own nearest piece is z's: an earlier piece through it
        # would be at least as near z, and win the tie.  So one search
        # gives both the point and its label.
        _, k, foot = self._nearest(z)
        horiz, level, label = (self._table[i][k] for i in (0, 1, 4))
        y = np.where(horiz, level, foot)
        end = np.isinf(y)       # 1j * inf would make inf * 0: set directly
        p = np.where(horiz, foot, level) + 1j * np.where(end, 0.0, y)
        p.imag[end] = y[end]
        shape = np.shape(z)
        return p.reshape(shape)[()], label.reshape(shape)[()]

    def first_boundary_crossing(self, z0, z1):
        """The first s at which the across coordinate of z0 -> z1 reaches a
        piece's level with the along coordinate in [lo, hi]."""
        a0, b0 = self._coords(_asarr(z0)[..., None])
        a1, b1 = self._coords(_asarr(z1)[..., None])
        s = _line_crossing_fraction(a0, a1)
        along = b0 + np.where(np.isfinite(s), s, 0.0) * (b1 - b0)
        lo, hi = self._table[2:4]
        s = np.where((along >= lo) & (along <= hi), s, np.inf)
        return _end_guard(self, z1, np.min(s, axis=-1))


@dataclass(frozen=True)
class Rectangle(_Rectilinear):
    """Open rectangle (-a, a) x (-b, b)."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise BadParameters("rectangle half-sides must be positive")

    def pieces(self):
        a, b = self.a, self.b
        return [(complex(a, -b), complex(a, b), BoundaryLabel.S1),
                (complex(-a, -b), complex(a, -b), BoundaryLabel.S2),
                (complex(-a, -b), complex(-a, b), BoundaryLabel.S3),
                (complex(-a, b), complex(a, b), BoundaryLabel.S4)]

    def contains(self, z):
        z = _asarr(z)
        return (np.abs(z.real) < self.a) & (np.abs(z.imag) < self.b)

    def boundary_distance(self, z):
        z = _asarr(z)
        qx = np.abs(z.real) - self.a
        qy = np.abs(z.imag) - self.b
        outside = np.hypot(np.maximum(qx, 0.0), np.maximum(qy, 0.0))
        inside = np.minimum(np.maximum(qx, qy), 0.0)
        return np.abs(outside + inside)

    def probe_box(self):
        return (-self.a, self.a, -self.b, self.b)


@dataclass(frozen=True)
class Annulus(Domain):
    """Open annulus r < |z| < R."""

    r: float
    R: float

    def __post_init__(self):
        if not (0 < self.r < self.R):
            raise BadParameters("annulus needs 0 < r < R")

    def contains(self, z):
        rho = np.abs(_asarr(z))
        return (rho > self.r) & (rho < self.R)

    def boundary_distance(self, z):
        rho = np.abs(_asarr(z))
        return np.minimum(np.abs(rho - self.r), np.abs(rho - self.R))

    def exit_points(self, z):
        z = _asarr(z)
        rho = np.abs(z)
        inner = np.abs(rho - self.r) <= np.abs(rho - self.R)
        direction = np.where(rho > 0, z / np.where(rho == 0, 1.0, rho), 1.0)
        label = np.where(inner, int(BoundaryLabel.ANNULUS_INNER),
                         int(BoundaryLabel.ANNULUS_OUTER)).astype(np.int64)
        return direction * np.where(inner, self.r, self.R), label

    def first_boundary_crossing(self, z0, z1):
        z0, z1 = _asarr(z0), _asarr(z1)
        return np.minimum(_circle_crossing_fraction(z0, z1, self.R, True),
                          _circle_crossing_fraction(z0, z1, self.r, False))

    def probe_box(self):
        return (-self.R, self.R, -self.R, self.R)


@dataclass(frozen=True)
class Wedge(Domain):
    """Open wedge {-theta/2 < Arg z < theta/2}, bisected by the positive real
    axis.  theta = 2*pi gives the plane slit along the negative real axis."""

    theta: float

    def __post_init__(self):
        if not (0 < self.theta <= 2 * math.pi):
            raise BadParameters("wedge aperture must lie in (0, 2*pi]")

    def contains(self, z):
        z = _asarr(z)
        return (z != 0) & (np.abs(np.angle(z)) < self.theta / 2)

    def boundary_distance(self, z):
        half = self.theta / 2
        d = _ray_distance(z, half)
        if self.theta < 2 * math.pi:
            d = np.minimum(d, _ray_distance(z, -half))
        return d

    def exit_points(self, z):
        half = self.theta / 2
        p = _ray_project(z, half)
        if self.theta < 2 * math.pi:
            p = np.where(_ray_distance(z, half) <= _ray_distance(z, -half),
                         p, _ray_project(z, -half))
        return p, _generic_codes(p)

    def first_boundary_crossing(self, z0, z1):
        z0, z1 = _asarr(z0), _asarr(z1)
        half = self.theta / 2
        s = np.full(z0.shape, np.inf)
        for phi in [half] if self.theta == 2 * math.pi else [half, -half]:
            w0 = z0 * np.exp(-1j * phi)
            w1 = z1 * np.exp(-1j * phi)
            f = _line_crossing_fraction(w0.imag, w1.imag)
            dx = w1.real - w0.real
            xc = w0.real + np.where(np.isfinite(f), f, 0.0) * dx
            s = np.minimum(s, np.where(xc >= 0.0, f, np.inf))
        return _end_guard(self, z1, s)

    def probe_box(self):
        return (-4.0, 8.0, -8.0, 8.0)


@dataclass(frozen=True)
class HalfPlane(_Rectilinear):
    """Open half-plane whose boundary passes through the origin.

    ``direction`` is the inward normal: "north" is {Im z > 0}, "east" is
    {Re z > 0}, and so on.  The boundary line splits at the origin into
    HALFLINE_LEFT / HALFLINE_RIGHT (positive line coordinate is "right";
    the line coordinate is Re z for horizontal boundaries, Im z for
    vertical ones; the origin itself is "left").
    """

    direction: str = "north"

    _NORMALS = {"north": 1j, "south": -1j, "east": 1 + 0j, "west": -1 + 0j}

    def __post_init__(self):
        if self.direction not in self._NORMALS:
            raise BadParameters(f"unknown half-plane direction {self.direction!r}")

    @property
    def normal(self):
        return self._NORMALS[self.direction]

    def _inward(self, z):
        z, n = _asarr(z), self.normal
        return z.imag * n.imag if n.real == 0 else z.real * n.real

    def pieces(self):
        if self.normal.real == 0:
            left, right = complex(-math.inf, 0), complex(math.inf, 0)
        else:
            left, right = complex(0, -math.inf), complex(0, math.inf)
        return [(left, 0j, BoundaryLabel.HALFLINE_LEFT),
                (0j, right, BoundaryLabel.HALFLINE_RIGHT)]

    def contains(self, z):
        return self._inward(z) > 0

    def boundary_distance(self, z):
        return np.abs(self._inward(z))

    def probe_box(self):
        n = self.normal
        cx, cy = 5 * n.real, 5 * n.imag
        return (cx - 5, cx + 5, cy - 5, cy + 5)


@dataclass(frozen=True)
class Strip(_Rectilinear):
    """Open horizontal strip lo < Im z < hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo < self.hi):
            raise BadParameters("strip needs lo < hi")

    def pieces(self):
        return [(complex(-math.inf, y), complex(math.inf, y),
                 BoundaryLabel.GENERIC) for y in (self.lo, self.hi)]

    def contains(self, z):
        y = _asarr(z).imag
        return (y > self.lo) & (y < self.hi)

    def boundary_distance(self, z):
        y = _asarr(z).imag
        return np.minimum(np.abs(y - self.lo), np.abs(y - self.hi))

    def probe_box(self):
        return (-10.0, 10.0, self.lo, self.hi)


@dataclass(frozen=True)
class HalfStripComplement(_Rectilinear):
    """Complement of the closed half-strip {Re z <= x0, |Im z| <= a}."""

    a: float
    x0: float = 0.0

    def __post_init__(self):
        if not self.a > 0:
            raise BadParameters("half-strip half-height must be positive")

    def pieces(self):
        a, x0, g = self.a, self.x0, BoundaryLabel.GENERIC
        return [(complex(-math.inf, a), complex(x0, a), g),
                (complex(-math.inf, -a), complex(x0, -a), g),
                (complex(x0, a), complex(x0, -a), g)]

    def contains(self, z):
        z = _asarr(z)
        return (z.real > self.x0) | (np.abs(z.imag) > self.a)

    def probe_box(self):
        return (self.x0 - 4, self.x0 + 8, -self.a - 5, self.a + 5)


def _depressed_cubic_real_roots(p, q):
    """Real roots of s^3 + p s + q = 0, vectorized; returns (3, n) with NaN
    padding where fewer than three real roots exist."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    disc = -4.0 * p**3 - 27.0 * q**2
    roots = np.full((3,) + p.shape, np.nan)

    three = disc > 0
    if np.any(three):
        pt, qt = p[three], q[three]
        m = np.sqrt(-pt / 3.0)
        arg = np.clip(3.0 * qt / (pt * m) / 2.0, -1.0, 1.0)
        phi = np.arccos(arg) / 3.0
        for k in range(3):
            roots[k][three] = 2.0 * m * np.cos(phi - 2.0 * math.pi * k / 3.0)

    one = ~three
    if np.any(one):
        po, qo = p[one], q[one]
        half_q = qo / 2.0
        rad = np.sqrt(np.maximum(half_q**2 + (po / 3.0) ** 3, 0.0))
        u = np.cbrt(-half_q + rad)
        v = np.cbrt(-half_q - rad)
        roots[0][one] = u + v

    return roots


@dataclass(frozen=True)
class ParabolaComplement(Domain):
    """Region {x > 1 - y^2/4} to the right of the parabola x = 1 - y^2/4."""

    def contains(self, z):
        z = _asarr(z)
        return z.real > 1.0 - z.imag**2 / 4.0

    def _nearest_parameter(self, z):
        # Critical points of |z - (1 - s^2/4 + i s)|^2 solve
        # s^3 + 4(x+1)s - 8y = 0.
        z = np.atleast_1d(_asarr(z))
        s = _depressed_cubic_real_roots(4.0 * (z.real + 1.0), -8.0 * z.imag)
        px = 1.0 - s**2 / 4.0
        d2 = (z.real - px) ** 2 + (z.imag - s) ** 2
        d2 = np.where(np.isnan(s), np.inf, d2)
        k = np.argmin(d2, axis=0)
        return np.take_along_axis(s, k[None], axis=0)[0]

    def boundary_distance(self, z):
        z = _asarr(z)
        s = self._nearest_parameter(z).reshape(z.shape)
        return np.hypot(z.real - (1.0 - s**2 / 4.0), z.imag - s)

    def exit_points(self, z):
        z = _asarr(z)
        s = self._nearest_parameter(z).reshape(z.shape)
        return (1.0 - s**2 / 4.0) + 1j * s, _generic_codes(z)

    def probe_box(self):
        return (-4.0, 8.0, -8.0, 8.0)


@dataclass(frozen=True)
class KoebeSlit(_Rectilinear):
    """The slit plane C \\ (-inf, -1/4]."""

    def pieces(self):
        return [(complex(-math.inf, 0), complex(-0.25, 0),
                 BoundaryLabel.GENERIC)]

    def contains(self, z):
        z = _asarr(z)
        on_slit = (z.imag == 0.0) & (z.real <= -0.25)
        return ~on_slit

    def boundary_distance(self, z):
        z = _asarr(z)
        return np.where(z.real <= -0.25, np.abs(z.imag),
                        np.hypot(z.real + 0.25, z.imag))

    def probe_box(self):
        return (-10.0, 10.0, -10.0, 10.0)


@dataclass(frozen=True)
class Disk(Domain):
    """Open disk of given center and radius."""

    center: complex = 0j
    radius: float = 1.0

    def __post_init__(self):
        if not self.radius > 0:
            raise BadParameters("disk radius must be positive")

    def contains(self, z):
        return np.abs(_asarr(z) - self.center) < self.radius

    def boundary_distance(self, z):
        return np.abs(np.abs(_asarr(z) - self.center) - self.radius)

    def exit_points(self, z):
        z = _asarr(z)
        w = z - self.center
        rho = np.abs(w)
        direction = np.where(rho > 0, w / np.where(rho == 0, 1.0, rho), 1.0)
        return self.center + self.radius * direction, _generic_codes(z)

    def first_boundary_crossing(self, z0, z1):
        return _circle_crossing_fraction(_asarr(z0) - self.center,
                                         _asarr(z1) - self.center,
                                         self.radius, True)

    def probe_box(self):
        c, r = self.center, self.radius
        return (c.real - r, c.real + r, c.imag - r, c.imag + r)


@dataclass(frozen=True)
class SpiralPair(Domain):
    """One of the two components of the plane split by the interleaved
    Archimedean arms gamma1 = {t e^{it}} and gamma2 = {t e^{i(t-pi)}}.

    A point r e^{i theta} lies in U iff (theta - r) mod 2pi is in (0, pi);
    the other component is the complement side.  Both arms pass through 0.

    Nearest points are exact.  Along gamma1 the squared distance to z is
    g(t) = r^2 + t^2 - 2rt cos(t - theta), with half-derivative
    h(t) = t - r cos u + rt sin u, u = t - theta.  Write t_k = theta + 2pi k
    for the arm's crossings of the ray through z.  For u in [pi/2, pi]
    every term of h is nonnegative, and at a zero of h with u in
    (-pi, -pi/2) the derivative h' = 1 + 2r sin u + rt cos u is below -1,
    so every interior local minimum of g lies in a bracket
    [t_k - pi/2, t_k + pi/2].  On a bracket h' > 0 where u > 0 and h' is
    nondecreasing where u <= 0, so h falls then rises and the bracket holds
    at most one minimum.  The test "h >= 0 and h' > 0" holds exactly to its
    right, so bisection on it keeps the minimum bracketed, and 10 halvings
    leave width pi/1024.  At the minimum h' = r cos u (t + 2/t) - 1 grows
    like rt far out, while |h''| = r|3 cos u - t sin u| grows only like r;
    so the narrowed bracket lies where h' > 0 (over 6e5 points of the probe
    box, radii up to 60 and within 1e-3 of 0, the least h' on a nearest
    point's bracket was 0.06), and the 3 Newton steps that follow converge
    quadratically from an error below pi/2048 to double resolution.  A step
    is skipped where h' <= 0 and clipped to the bracket; the bracket holds
    the minimum, so the clip only moves t towards it.  Newton on the width-pi
    brackets, where h' can vanish or change sign, left a third of the
    points off by more than 1e-9.  The nearest point is within
    min(r, pi) of z, hence at t in [r - pi, r + pi], so the brackets of the
    first two crossings t_k >= r - 3pi/2 and the origin are the only
    candidates.
    """

    side: str = "U"

    def __post_init__(self):
        if self.side not in ("U", "complement"):
            raise BadParameters("spiral side must be 'U' or 'complement'")

    def contains(self, z):
        z = _asarr(z)
        phase = np.mod(np.angle(z) - np.abs(z), 2 * math.pi)
        if self.side == "U":
            inside = (phase > 0) & (phase < math.pi)
        else:
            inside = phase > math.pi
        return (z != 0) & inside

    def _nearest(self, z):
        """(distance, nearest boundary point, GAMMA1/GAMMA2 code) for each z.

        gamma2 = -gamma1, so gamma2 is measured as gamma1 from -z.
        """
        z = _asarr(z)
        w = np.stack([z, -z], axis=-1)[..., None]
        r = np.abs(w)
        theta = np.mod(np.angle(w), 2 * math.pi)
        k = np.ceil((r - 1.5 * math.pi - theta) / (2 * math.pi)) + [0, 1]
        t_k = theta + 2 * math.pi * k
        lo = np.maximum(t_k - math.pi / 2, 0.0)
        hi = np.maximum(t_k + math.pi / 2, 0.0)

        def h_and_slope(t):
            cos_u, sin_u = np.cos(t - theta), np.sin(t - theta)
            return (t - r * cos_u + r * t * sin_u,
                    1 + 2 * r * sin_u + r * t * cos_u)

        # 10 halvings leave a width-pi/1024 bracket about each minimum,
        for _ in range(10):
            t = (lo + hi) / 2
            h, dh = h_and_slope(t)
            rising = (h >= 0) & (dh > 0)
            hi = np.where(rising, t, hi)
            lo = np.where(rising, lo, t)
        t = (lo + hi) / 2
        # and 3 Newton steps, clipped to it, take t to double resolution.
        for _ in range(3):
            h, dh = h_and_slope(t)
            up = dh > 0
            t = np.clip(t - np.where(up, h, 0.0) / np.where(up, dh, 1.0),
                        lo, hi)
        g = r**2 + t**2 - 2 * r * t * np.cos(t - theta)
        # The origin, where both arms start, is the last candidate.
        t = np.where(g < r**2, t, 0.0).reshape(*z.shape, 4)
        g = np.minimum(g, r**2).reshape(*z.shape, 4)
        # Candidates 0-1 lie on gamma1 and 2-3 on gamma2; ties go to gamma1.
        j = np.argmin(g, axis=-1)
        t = np.take_along_axis(t, j[..., None], axis=-1)[..., 0]
        on_gamma1 = j < 2
        point = np.where(on_gamma1, 1.0, -1.0) * t * np.exp(1j * t)
        code = np.where(on_gamma1, int(BoundaryLabel.GAMMA1),
                        int(BoundaryLabel.GAMMA2)).astype(np.int64)
        return np.abs(z - point), point, code

    def boundary_distance(self, z):
        return self._nearest(z)[0]

    def exit_points(self, z):
        return self._nearest(z)[1:]

    def probe_box(self):
        return (-20.0, 20.0, -20.0, 20.0)


def sample_interior(domain: Domain, gen: np.random.Generator,
                    n: int = 1) -> np.ndarray:
    """Uniform rejection samples from domain intersected with its probe box,
    in at most 10 000 rounds of candidates."""
    xmin, xmax, ymin, ymax = domain.probe_box()
    out = np.empty(n, dtype=complex)
    got = 0
    for _ in range(10_000):
        m = max(2 * (n - got), 16)
        cand = (gen.uniform(xmin, xmax, m) + 1j * gen.uniform(ymin, ymax, m))
        cand = cand[domain.contains(cand)]
        take = min(len(cand), n - got)
        out[got:got + take] = cand[:take]
        got += take
        if got == n:
            return out
    raise BadParameters(f"found {got} of {n} interior points of {domain} "
                        f"in its probe box {(xmin, xmax, ymin, ymax)}")


@dataclass(frozen=True)
class StarlikeVerdict:
    """Outcome of the deterministic leftward-ray check.  On a failure,
    ``witness`` is a point of the domain whose leftward ray meets
    ``exit_point``, a point outside it."""

    passed: bool
    witness: complex | None = None
    exit_point: complex | None = None


def check_delta_starlike(domain: Domain, boundary) -> StarlikeVerdict:
    """Check that the complement stays outside under rightward shifts at the
    given boundary points: p + t not in the domain for each p and each
    t = 1e-3 * 2**k, k = 0..30 (up to about 1e6).

    The domain has the leftward-ray property (z in D implies z - t in D for
    every t > 0) exactly when its complement is closed under rightward
    shifts, so a point p + t inside is a counterexample.  Nothing is drawn;
    pass means none was found at these points and shifts.
    """
    p = _asarr(boundary).ravel()
    for t in 1e-3 * 2.0 ** np.arange(31):
        inside = domain.contains(p + t)
        if inside.any():
            k = int(np.argmax(inside))
            return StarlikeVerdict(False, witness=complex(p[k] + t),
                                   exit_point=complex(p[k]))
    return StarlikeVerdict(True)
