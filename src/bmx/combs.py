"""Iterated half-strip restriction domains and their complements.

The construction starts from the half-strip W0 = {Re z < 0, |Im z| < a[0]}
and its open complement V0.  Each iteration k >= 1 carves a new pair out of
three restricting lines Re z = b[k], Im z = +-a[k]:

* odd k  (b[k] pushed left):   V_k = {Re z > b[k], |Im z| < a[k]} \\ cl(W_{k-1})
* even k (b[k] pushed right):  W_k = {Re z < b[k], |Im z| < a[k]} \\ cl(V_{k-1})

and the partner domain is the open complement of the closure.  V_k and W_k
share their boundary, a single rectilinear curve through infinity, which is
stored explicitly as a polyline whose two open ends are rays, so distances,
nearest points and exit crossings are exact.  The sequences satisfy
V_1 c V_3 c V_5 ... and W_2 c W_4 ... by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import BadParameters
from .geometry import (BoundaryLabel, _asarr, _cell_index, _nearest_piece,
                       _piece_table, _Rectilinear)


def _validate(n: int, a, b) -> None:
    a = list(a)
    b = list(b)
    if len(a) != n + 1 or len(b) != n:
        raise BadParameters(f"need n+1 heights and n offsets for n={n}")
    # NaN fails every ordering test below, so finiteness is checked first.
    for k, v in enumerate(a):
        if not math.isfinite(v):
            raise BadParameters(f"height a[{k}]={v} must be finite")
    for k, v in enumerate(b, 1):
        if not math.isfinite(v):
            raise BadParameters(f"offset b[{k}]={v} must be finite")
    if a[0] != 1.0:
        raise BadParameters("base half-height a[0] must be 1")
    for k in range(n):
        if a[k + 1] < a[k] + 1.0:
            raise BadParameters("heights must increase by at least 1")
    min_x, max_x = 0.0, 0.0
    for k in range(1, n + 1):
        bk = b[k - 1]
        if k % 2 == 1:
            if bk >= min_x:
                raise BadParameters(
                    f"odd offset b[{k}]={bk} must lie left of {min_x}")
            min_x = bk
        else:
            if bk <= max_x:
                raise BadParameters(
                    f"even offset b[{k}]={bk} must lie right of {max_x}")
            max_x = bk


def _membership(z, n, a, b, want_v):
    """Open membership in V_n or W_n, vectorized over z."""
    z = _asarr(z)
    x, y = z.real, np.abs(z.imag)
    in_w = (x < 0) & (y < a[0])
    in_clw = (x <= 0) & (y <= a[0])
    in_v = ~in_clw
    in_clv = ~in_w
    for k in range(1, n + 1):
        bk = b[k - 1]
        if k % 2 == 1:
            in_v = (x > bk) & (y < a[k]) & ~in_clw
            in_clv = (x >= bk) & (y <= a[k]) & ~in_w
            in_w, in_clw = ~in_clv, ~in_v
        else:
            in_w = (x < bk) & (y < a[k]) & ~in_clv
            in_clw = (x <= bk) & (y <= a[k]) & ~in_v
            in_v, in_clv = ~in_clw, ~in_w
    return in_v if want_v else in_w


@lru_cache(maxsize=None)
def boundary_polyline(n: int, a: tuple, b: tuple) -> np.ndarray:
    """Vertices of the shared boundary of (V_n, W_n); the first and last
    are at infinity, so the two end pieces are rays."""
    pts = [(-np.inf, a[0]), (0.0, a[0]), (0.0, -a[0]), (-np.inf, -a[0])]
    for k in range(1, n + 1):
        bk = b[k - 1]
        end = np.inf if k % 2 == 1 else -np.inf
        inner = [(bk, pts[0][1])] + pts[1:-1] + [(bk, pts[-1][1])]
        pts = [(end, a[k]), (bk, a[k])] + inner + [(bk, -a[k]), (end, -a[k])]
    return np.array([complex(px, py) for px, py in pts])


@dataclass(frozen=True)
class CombDomain(_Rectilinear):
    """One side of the iterated construction; ``side`` is "V" or "W".

    The polyline is symmetric about the real axis, so ``boundary_distance``
    measures x + i|y| against its upper half only: the pieces above the
    axis and the one through it, cut at 0 (12 of V_5's 23).  The result is
    the whole table's bit for bit.  Rounding is symmetric, so the gap and
    the across coordinate of z to a piece below the axis are those of
    conj z to its mirror image, negated; and where Im z >= 0 both are no
    larger in size for z than for conj z against a piece above the axis,
    so, rounding and hypot being monotone, no piece below is nearer.
    ``exit_points`` keeps the whole table, where a tie between a piece and
    its mirror image must still go to the earlier piece.
    """

    n: int
    a: tuple
    b: tuple
    side: str = "V"

    def __post_init__(self):
        if self.side not in ("V", "W"):
            raise BadParameters(f"comb side must be V or W, got {self.side!r}")
        _validate(self.n, self.a, self.b)

    @property
    def polyline(self) -> np.ndarray:
        return boundary_polyline(self.n, self.a, self.b)

    def pieces(self):
        p = self.polyline
        return [(u, v, BoundaryLabel.GENERIC) for u, v in zip(p[:-1], p[1:])]

    @cached_property
    def _upper(self):
        """(table, index) of the polyline's upper half: the pieces above the
        real axis and the one through it, cut at 0."""
        table = _piece_table([(u, complex(v.real, max(v.imag, 0.0)), label)
                              for u, v, label in self.pieces()
                              if u.imag >= 0])
        return table, _cell_index(table)

    def boundary_distance(self, z):
        z = _asarr(z)
        x, y = z.real.reshape(-1), np.abs(z.imag).reshape(-1)
        return _nearest_piece(*self._upper, x, y, first=False)[0].reshape(
            z.shape)[()]

    def contains(self, z):
        return _membership(z, self.n, self.a, self.b, self.side == "V")


def build_comb(n: int, a, b) -> tuple[CombDomain, CombDomain]:
    """The complementary pair (V_n, W_n) after n restriction iterations.

    ``a`` holds n+1 increasing half-heights (a[0] must be 1, steps >= 1);
    ``b`` holds the n cut abscissae, alternating left (negative, odd k) and
    right (positive, even k) strictly beyond all previous cuts.
    """
    a = tuple(float(v) for v in a)
    b = tuple(float(v) for v in b)
    return (CombDomain(n, a, b, "V"), CombDomain(n, a, b, "W"))
