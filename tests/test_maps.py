import math

import numpy as np
import pytest

from bmx.errors import AtPole, BadParameters, OnBranchCut, QuadratureFailure
from bmx.maps import (Exp, KoebeParabola, Linear, Mobius, PowerBranch,
                      PowerInt, WedgePower, adaptive_quadrature,
                      circular_mean_norm, default_r_grid, hardy_norm_profile)


def _sample_points(rng, n=100):
    # Off every cut and pole: moduli in (0.1, 0.8), angles away from the
    # negative real axis.
    return rng.uniform(0.1, 0.8, n) * np.exp(1j * rng.uniform(-2.4, 2.4, n))


def test_eval_examples():
    assert Mobius(1j).evaluate(1j) == 0
    assert KoebeParabola().evaluate(0j) == 4
    assert np.isclose(PowerBranch(0.5).evaluate(1j),
                      np.exp(1j * math.pi / 4))
    # A central difference pins the slope of 4/(1+z)^2 at 0 to -8.
    h = 1e-6
    fd = (KoebeParabola().evaluate(h + 0j)
          - KoebeParabola().evaluate(-h + 0j)) / (2 * h)
    assert abs(fd - (-8.0)) < 1e-4


def test_branch_coherence():
    rng = np.random.default_rng(9)
    z = _sample_points(rng, 50)
    a, b = 0.3, 0.45
    lhs = PowerBranch(a).evaluate(z) * PowerBranch(b).evaluate(z)
    rhs = PowerBranch(a + b).evaluate(z)
    assert np.allclose(lhs, rhs, rtol=1e-12)


def test_mobius_maps_upper_half_plane_into_disk():
    rng = np.random.default_rng(10)
    z = rng.uniform(-5, 5, 200) + 1j * rng.uniform(0.01, 5, 200)
    w = Mobius(0.5 + 2j).evaluate(z)
    assert np.all(np.abs(w) < 1)


def test_cut_and_pole_errors():
    with pytest.raises(OnBranchCut):
        PowerBranch(0.5).evaluate(-1 + 0j)
    with pytest.raises(AtPole):
        PowerBranch(0.5).evaluate(0j)
    with pytest.raises(AtPole):
        PowerInt(-1).evaluate(0j)
    with pytest.raises(AtPole):
        Mobius(1j).evaluate(-1j)
    with pytest.raises(AtPole):
        KoebeParabola().evaluate(-1 + 0j)
    with pytest.raises(OnBranchCut):
        WedgePower(math.pi / 2).evaluate(2.0 + 0j)
    with pytest.raises(AtPole):
        WedgePower(math.pi / 2).evaluate(-1 + 0j)
    with pytest.raises(BadParameters):
        PowerBranch(1.5)
    with pytest.raises(BadParameters):
        Mobius(1 - 1j)


def test_exp_log_transfer():
    z = 0.3 + 2.9j
    assert np.isclose(np.log(Exp().evaluate(z)), z)
    assert Exp().evaluate(0j) == 1
    # Left half-plane lands in the punctured unit disk.
    rng = np.random.default_rng(11)
    z = rng.uniform(-5, -0.01, 100) + 1j * rng.uniform(-10, 10, 100)
    w = Exp().evaluate(z)
    assert np.all((np.abs(w) < 1) & (w != 0))
    # A height-2*pi strip transfers onto the slit plane: images avoid the
    # negative real axis (the cut), which is the slit of the starlike image.
    z = rng.uniform(-2, 2, 200) + 1j * rng.uniform(-math.pi, math.pi, 200)
    w = Exp().evaluate(z)
    assert not np.any((w.real < 0) & (w.imag == 0))


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


@pytest.mark.parametrize("m,p", [(KoebeParabola(), 0.4),
                                 (KoebeParabola(), 0.6),
                                 (Linear(2), 1.0),
                                 (WedgePower(math.pi / 2), 0.7),
                                 (Exp(), 2.0)])
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


def test_wedge_power_maps_disk_to_wedge():
    rng = np.random.default_rng(12)
    z = _sample_points(rng, 200) * 0.9
    theta = math.pi / 2
    w = WedgePower(theta).evaluate(z)
    assert np.all(np.abs(np.angle(w)) < theta / 2)


def test_circular_mean_norm_radius_validation():
    with pytest.raises(BadParameters):
        circular_mean_norm(Linear(1), 1.0, 1.0)
