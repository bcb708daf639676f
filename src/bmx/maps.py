"""Closed-form analytic maps and Hardy-norm profiles.

Two maps, both evaluated vectorized over complex ndarrays: ``Linear``
(z -> c z, the map ``pushforward_check`` applies to exit points) and
``KoebeParabola`` (4/(1+z)^2, whose Hardy-norm profile is criterion 5's).
Any :class:`AnalyticMap` with an ``evaluate`` has a profile; evaluating a
map at its pole raises :class:`~bmx.errors.AtPole`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AtPole, BadParameters, QuadratureFailure


def _asarr(z):
    return np.asarray(z, dtype=complex)


class AnalyticMap:
    """Base class: ``evaluate`` over complex arrays."""

    def evaluate(self, z):
        raise NotImplementedError


@dataclass(frozen=True)
class Linear(AnalyticMap):
    """z -> c z for a finite nonzero c."""

    c: complex

    def __post_init__(self):
        if not (cmath.isfinite(self.c) and self.c != 0):
            raise BadParameters(f"linear coefficient must be finite and "
                                f"nonzero, got {self.c!r}")

    def evaluate(self, z):
        return self.c * _asarr(z)


@dataclass(frozen=True)
class KoebeParabola(AnalyticMap):
    """z -> 4/(1+z)^2, mapping the unit disk onto the region right of the
    parabola x = 1 - y^2/4.  Pole at -1."""

    def evaluate(self, z):
        z = _asarr(z)
        if np.any(z == -1):
            raise AtPole("4/(1+z)^2 evaluated at -1")
        return 4.0 / (1.0 + z) ** 2


# ---------------------------------------------------------------------------
# Circular L^p means and Hardy norms
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _gauss_legendre():
    """The 15 Gauss-Legendre nodes and weights, computed on first use so
    that ``import bmx`` does not load numpy.polynomial."""
    return np.polynomial.legendre.leggauss(15)


def _panel_value(f, lo, hi):
    nodes, weights = _gauss_legendre()
    mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    return half * float(np.sum(weights * f(mid + half * nodes)))


def adaptive_quadrature(f, lo: float, hi: float, abs_tol: float = 1e-10,
                        rel_tol: float = 1e-13, max_depth: int = 48) -> float:
    """Adaptive bisection with a 15-point Gauss-Legendre panel rule.

    A panel is accepted when the two-half refinement changes it by less than
    max(abs_tol, rel_tol * |integral estimate|); the relative floor keeps the
    criterion meaningful for very large integrands, where a pure 1e-10
    absolute target is below float64 resolution.
    """
    root = _panel_value(f, lo, hi)
    total_scale = abs(root) if math.isfinite(root) else 0.0
    stack = [(lo, hi, root, 0)]
    total = 0.0
    while stack:
        a, b, coarse, depth = stack.pop()
        m = (a + b) / 2.0
        left = _panel_value(f, a, m)
        right = _panel_value(f, m, b)
        err = abs(coarse - left - right)
        accept = (math.isfinite(err)
                  and err <= max(abs_tol, rel_tol * total_scale))
        if accept or (b - a) < 1e-14:
            total += left + right
            continue
        if depth >= max_depth:
            raise QuadratureFailure(
                f"panel [{a}, {b}] did not converge at depth {depth}")
        if math.isfinite(left) and math.isfinite(right):
            total_scale = max(total_scale, abs(left) + abs(right))
        stack.append((a, m, left, depth + 1))
        stack.append((m, b, right, depth + 1))
    return total


def circular_mean_norm(m: AnalyticMap, p: float, r: float) -> float:
    """N_{p,r}: the p-th circular mean ((1/2pi) int |f(r e^{i t})|^p dt)^{1/p}."""
    if not 0 <= r < 1:
        raise BadParameters("radius must lie in [0, 1)")

    def integrand(theta):
        return np.abs(m.evaluate(r * np.exp(1j * theta))) ** p

    value = adaptive_quadrature(integrand, 0.0, 2 * math.pi)
    return (value / (2 * math.pi)) ** (1.0 / p)


DIVERGENCE_CUTOFF = 1e8
# Geometric growth of profile increments that flags a divergent sup; a
# convergent profile has increment ratios bounded away from 1 from below.
GROWTH_RATIO = 1.02


def default_r_grid(k_max: int = 20) -> np.ndarray:
    """Radii 1 - 2^-k, k = 1..k_max, resolving the r -> 1 blow-up."""
    return 1.0 - 0.5 ** np.arange(1, k_max + 1)


@dataclass(frozen=True)
class HardyNormProfile:
    """Circular means along a radius grid with a finiteness verdict."""

    p: float
    r_grid: tuple
    values: tuple
    verdict: str          # "finite" or "divergent"
    sup: float            # last profile value; inf when divergent

    def __post_init__(self):
        v = np.asarray(self.values)
        drops = np.diff(v) < -1e-9 * np.maximum(np.abs(v[1:]), 1.0)
        if np.any(drops):
            raise QuadratureFailure("profile not nondecreasing beyond tolerance")


def hardy_norm_profile(m: AnalyticMap, p: float, r_grid=None) -> HardyNormProfile:
    """Profile of N_{p,r} over ``r_grid`` and a sup-finiteness verdict.

    Convention: N_{p,r} places the plain exponent p inside the circular mean
    and takes the 1/p root, with the sup taken over r < 1.  (An alternative
    convention squares the exponent inside the integral; every finiteness
    threshold halves under it.)

    The sup is declared divergent when the profile either exceeds 1e8 or its
    tail increments keep growing geometrically as r -> 1 (each halving of
    1 - r scaling the increment up); otherwise the sup is reported as the
    last, largest value.
    """
    if p <= 0:
        raise BadParameters("Hardy exponent must be positive")
    if r_grid is None:
        r_grid = default_r_grid()
    r_grid = np.asarray(r_grid, dtype=float)
    values = np.array([circular_mean_norm(m, p, r) for r in r_grid])

    divergent = values[-1] > DIVERGENCE_CUTOFF
    if not divergent and len(values) >= 6:
        inc = np.diff(values[-6:])
        if np.all(inc > 0):
            ratios = inc[1:] / inc[:-1]
            if np.exp(np.mean(np.log(ratios))) >= GROWTH_RATIO:
                divergent = True

    return HardyNormProfile(
        p=p,
        r_grid=tuple(float(r) for r in r_grid),
        values=tuple(float(v) for v in values),
        verdict="divergent" if divergent else "finite",
        sup=math.inf if divergent else float(values[-1]),
    )
