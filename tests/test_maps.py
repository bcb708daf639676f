import math

import numpy as np
import pytest

from bmx.errors import AtPole, BadParameters, QuadratureFailure
from bmx.maps import (AnalyticMap, KoebeParabola, Linear, adaptive_quadrature,
                      circular_mean_norm, default_r_grid, hardy_norm_profile)


def test_eval_examples():
    assert Linear(-2j).evaluate(1 + 1j) == 2 - 2j
    assert KoebeParabola().evaluate(0j) == 4
    # A central difference pins the slope of 4/(1+z)^2 at 0 to -8.
    h = 1e-6
    fd = (KoebeParabola().evaluate(h + 0j)
          - KoebeParabola().evaluate(-h + 0j)) / (2 * h)
    assert abs(fd - (-8.0)) < 1e-4


def test_cut_and_pole_errors():
    with pytest.raises(AtPole):
        KoebeParabola().evaluate(-1 + 0j)
    for c in (0, 0j, math.inf, complex(1, math.nan)):
        with pytest.raises(BadParameters, match="finite and nonzero"):
            Linear(c)


def test_adaptive_quadrature_known_integral():
    val = adaptive_quadrature(lambda t: np.sin(t) ** 2, 0.0, 2 * math.pi)
    assert math.isclose(val, math.pi, rel_tol=1e-12)
    # Integrable endpoint singularity: exact value 2(1 - sqrt(lo)).
    lo = 1e-12
    val = adaptive_quadrature(lambda t: np.abs(t) ** -0.5, lo, 1.0)
    assert math.isclose(val, 2.0 * (1.0 - math.sqrt(lo)), rel_tol=1e-9)


def test_adaptive_quadrature_depth_cap():
    with np.errstate(divide="ignore"), pytest.raises(QuadratureFailure):
        adaptive_quadrature(lambda t: 1.0 / np.abs(t - 0.5), 0.0, 1.0,
                            max_depth=20)


def test_linear_profile_values():
    prof = hardy_norm_profile(Linear(3), 1.0)
    # N_{p,r} of cz is |c| r for every p.
    for r, v in zip(prof.r_grid, prof.values):
        assert math.isclose(v, 3 * r, rel_tol=1e-9)
    assert prof.verdict == "finite"
    assert math.isclose(prof.sup, 3 * prof.r_grid[-1], rel_tol=1e-9)


def test_koebe_parabola_profile_thresholds():
    kp = KoebeParabola()
    fine = hardy_norm_profile(kp, 0.4)
    coarse = hardy_norm_profile(kp, 0.6)
    assert fine.verdict == "finite"
    assert math.isfinite(fine.sup)
    assert coarse.verdict == "divergent"
    assert coarse.sup == math.inf


class _Numpy(AnalyticMap):
    """A map that only a test profiles: any vectorized numpy function."""

    def __init__(self, f):
        self.f = f

    def evaluate(self, z):
        return self.f(z)


# The disk onto the quarter-plane wedge ((1-z)/(1+z))^(1/2), singular at
# both ends of the real diameter, and the entire map e^z.
@pytest.mark.parametrize("m,p", [(KoebeParabola(), 0.4),
                                 (KoebeParabola(), 0.6),
                                 (Linear(2), 1.0),
                                 (_Numpy(lambda z: np.sqrt((1 - z) / (1 + z))),
                                  0.7),
                                 (_Numpy(np.exp), 2.0)])
def test_profile_monotone_in_radius(m, p):
    prof = hardy_norm_profile(m, p)
    v = np.asarray(prof.values)
    assert np.all(np.diff(v) >= -1e-9 * np.maximum(np.abs(v[1:]), 1.0))


def test_default_r_grid_geometry():
    r = default_r_grid()
    assert len(r) == 20
    assert math.isclose(r[0], 0.5)
    assert math.isclose(1 - r[-1], 2.0 ** -20)
    assert np.all(np.diff(r) > 0)


def test_circular_mean_norm_radius_validation():
    with pytest.raises(BadParameters):
        circular_mean_norm(Linear(1), 1.0, 1.0)
