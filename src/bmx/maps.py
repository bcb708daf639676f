"""Closed-form analytic maps and Hardy-norm profiles.

All maps evaluate vectorized over complex ndarrays.  Branch conventions:
powers and logarithms use the principal branch with Arg in (-pi, pi].
Evaluation requests on a branch cut raise :class:`~bmx.errors.OnBranchCut`
rather than silently choosing a side, and poles raise
:class:`~bmx.errors.AtPole`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AtPole, BadParameters, OnBranchCut, QuadratureFailure


def _asarr(z):
    return np.asarray(z, dtype=complex)


class AnalyticMap:
    """Base class: ``evaluate`` over complex arrays."""

    def evaluate(self, z):
        raise NotImplementedError


@dataclass(frozen=True)
class Linear(AnalyticMap):
    """z -> c z for a nonzero c."""

    c: complex

    def __post_init__(self):
        if self.c == 0:
            raise BadParameters("linear coefficient must be nonzero")

    def evaluate(self, z):
        return self.c * _asarr(z)


@dataclass(frozen=True)
class PowerInt(AnalyticMap):
    """z -> xi * z**n for a nonzero integer n and nonzero xi (negative n
    has a pole at 0)."""

    n: int
    xi: complex = 1.0 + 0j

    def __post_init__(self):
        if self.n == 0:
            raise BadParameters("power exponent must be nonzero")
        if self.xi == 0:
            raise BadParameters("power coefficient must be nonzero")

    def evaluate(self, z):
        z = _asarr(z)
        if self.n < 0 and np.any(z == 0):
            raise AtPole("negative power evaluated at 0")
        return self.xi * z ** self.n


def _principal_power(z, alpha):
    """e^{alpha Log z} with Arg in (-pi, pi]; caller guards cut and pole."""
    return np.exp(alpha * np.log(_asarr(z)))


def _check_principal_cut(z, what="principal power"):
    z = _asarr(z)
    if np.any(z == 0):
        raise AtPole(f"{what} evaluated at 0")
    on_cut = (z.imag == 0.0) & (z.real < 0.0)
    if np.any(on_cut):
        raise OnBranchCut(f"{what} evaluated on the negative real axis")


@dataclass(frozen=True)
class PowerBranch(AnalyticMap):
    """z -> z**alpha via the principal logarithm, alpha in (0, 1)."""

    alpha: float

    def __post_init__(self):
        if not (0 < self.alpha < 1):
            raise BadParameters("branch power exponent must lie in (0, 1)")

    def evaluate(self, z):
        _check_principal_cut(z, "z**alpha")
        return _principal_power(z, self.alpha)


@dataclass(frozen=True)
class Mobius(AnalyticMap):
    """z -> (z - alpha)/(z - conj(alpha)); maps the upper half-plane onto the
    unit disk, with alpha going to 0.  Pole at conj(alpha)."""

    alpha: complex

    def __post_init__(self):
        if not self.alpha.imag > 0:
            raise BadParameters("Mobius parameter needs positive imaginary part")

    def evaluate(self, z):
        z = _asarr(z)
        pole = np.conj(self.alpha)
        if np.any(z == pole):
            raise AtPole("Mobius map evaluated at its pole")
        return (z - self.alpha) / (z - pole)


@dataclass(frozen=True)
class KoebeParabola(AnalyticMap):
    """z -> 4/(1+z)^2, mapping the unit disk onto the region right of the
    parabola x = 1 - y^2/4.  Pole at -1."""

    def evaluate(self, z):
        z = _asarr(z)
        if np.any(z == -1):
            raise AtPole("4/(1+z)^2 evaluated at -1")
        return 4.0 / (1.0 + z) ** 2


@dataclass(frozen=True)
class WedgePower(AnalyticMap):
    """z -> ((1-z)/(1+z))^(theta/pi), the disk onto the wedge of aperture
    theta bisected by the positive real axis."""

    theta: float

    def __post_init__(self):
        if not (0 < self.theta <= 2 * math.pi):
            raise BadParameters("wedge aperture must lie in (0, 2*pi]")

    def evaluate(self, z):
        z = _asarr(z)
        if np.any(z == -1):
            raise AtPole("((1-z)/(1+z))^a evaluated at -1")
        w = (1.0 - z) / (1.0 + z)
        if np.any(w == 0):
            raise AtPole("((1-z)/(1+z))^a evaluated at 1 (Log 0)")
        on_cut = (w.imag == 0.0) & (w.real < 0.0)
        if np.any(on_cut):
            raise OnBranchCut("wedge power hit its inherited cut |z|>=1 on R")
        return _principal_power(w, self.theta / math.pi)


@dataclass(frozen=True)
class Exp(AnalyticMap):
    """z -> e^z."""

    def evaluate(self, z):
        return np.exp(_asarr(z))


@dataclass(frozen=True)
class Compose(AnalyticMap):
    """Left-to-right composition: Compose([f, g]) evaluates g(f(z))."""

    stages: tuple

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        if len(self.stages) == 0:
            raise BadParameters("composition needs at least one stage")

    def evaluate(self, z):
        w = _asarr(z)
        for stage in self.stages:
            w = stage.evaluate(w)
        return w


# ---------------------------------------------------------------------------
# Circular L^p means and Hardy norms
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)


def _panel_value(f, lo, hi):
    mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    return half * float(np.sum(_GL_WEIGHTS * f(mid + half * _GL_NODES)))


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
