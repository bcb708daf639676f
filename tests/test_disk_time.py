import math

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.special import j1, jn_zeros

from bmx.disk_time import (J0_ZEROS, J1_AT_ZEROS, N_TERMS, _MonotoneCubic,
                           get_sampler, sample_unit_disk_time)
from bmx.rng import RngStream

# Pins the table build from the pinned Bessel constants bit for bit; a
# change in the constants, the series or the knot layout must be noticed,
# not absorbed.
TABLE_SHA256 = "0f61af0f1d0467646a190c9fdec9abbcf6cfd0b1d43bf52409c011b2c2d1dcc6"


def test_series_mean_is_half():
    # E[T] = sum c_k / rate_k telescopes to 1/2 (50-term truncation).
    assert abs(get_sampler().mean_from_series() - 0.5) < 1e-4


def test_sample_mean_matches_classical_value():
    gen = RngStream(31).substream()
    t = sample_unit_disk_time(gen, 100_000)
    assert abs(t.mean() - 0.5) < 0.01


def test_ppf_cdf_roundtrip():
    s = get_sampler()
    u = np.array([1e-3, 0.01, 0.1, 0.5, 0.9, 0.99, 0.9999])
    t = s.ppf(u)
    assert np.all(np.diff(t) > 0)
    assert np.max(np.abs(s.cdf(t) - u)) < 1e-9


def test_tails_are_positive_and_ordered():
    s = get_sampler()
    t_left = s.ppf(np.array([1e-8]))[0]
    t_right = s.ppf(np.array([1.0 - 1e-9]))[0]
    assert 0 < t_left < 0.05
    assert t_right > 3.0
    # Analytic right tail inverts the single-term survival exactly.
    u = 1.0 - 1e-9
    expected = math.log(s._coeffs[0] / (1 - u)) / s._rates[0]
    assert math.isclose(t_right, expected, rel_tol=1e-12)


def test_survival_is_monotone():
    s = get_sampler()
    t = np.linspace(0.05, 8.0, 500)
    surv = s.survival(t)
    assert np.all(np.diff(surv) <= 1e-15)
    assert surv[0] > 0.999
    assert surv[-1] < 1e-9


def test_table_checksum_pinned():
    assert get_sampler().table_checksum() == TABLE_SHA256


def _ulps(a, b):
    """Distance of a from b in units in the last place of b."""
    return np.abs(np.asarray(a) - b) / np.spacing(np.abs(b))


def test_bessel_constants_match_scipy_special():
    j = jn_zeros(0, N_TERMS)
    assert len(J0_ZEROS) == len(J1_AT_ZEROS) == N_TERMS
    assert np.max(_ulps(J0_ZEROS, j)) <= 2
    assert np.max(_ulps(J1_AT_ZEROS, j1(j))) <= 2


def test_monotone_cubic_is_scipy_pchip_bit_for_bit():
    s = get_sampler()
    x, y = s._u_knots, s._t_knots
    ref = PchipInterpolator(x, y, extrapolate=False)
    assert np.array_equal(s._interp.c, ref.c)
    gen = RngStream(41).substream()
    u = np.concatenate([gen.uniform(x[0], x[-1], 1_000_000), x,
                        np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])
    u = u[(u >= x[0]) & (u <= x[-1])]     # the range ppf interpolates
    assert np.array_equal(s.ppf(u), ref(u))


def test_monotone_cubic_shape_guards_match_scipy():
    # Flat runs, sign changes and overshooting end slopes take the guarded
    # branches the exit-time table never reaches.
    x = np.array([0.0, 0.5, 1.5, 2.0, 3.5, 4.0, 4.25, 6.0])
    for y in ([0.0, 1.0, 1.0, 3.0, 2.0, 2.0, 5.0, 4.0],
              [0.0, 3.0, 0.5, 0.2, 0.0, -1.0, -0.5, 2.0],
              [1.0, 0.0, 5.0, 5.5, 6.0, 0.0, -3.0, -3.1]):
        y = np.array(y)
        ref = PchipInterpolator(x, y)
        ours = _MonotoneCubic(x, y)
        assert np.array_equal(ours.c, ref.c)
        u = np.concatenate([np.linspace(x[0], x[-1], 10_001), x])
        assert np.array_equal(ours(u), ref(u))
