import math

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.special import j1, jn_zeros

from bmx.disk_time import (J0_ZEROS, J1_AT_ZEROS, N_TERMS, T_SWITCH,
                           _MonotoneCubic, get_sampler, sample_unit_disk_time)
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


def _knots_and_neighbours(x):
    """Every knot, both float neighbours of each, and the table ends."""
    return np.concatenate([x, np.nextafter(x, -np.inf),
                           np.nextafter(x, np.inf), [x[0], x[-1]]])


def test_bucketed_interval_is_searchsorted():
    # The logit-bucket lookup gives searchsorted's interval on the knots,
    # next to them, at the table ends, on uniforms and at u = 0.
    s = get_sampler()
    x = s._u_knots
    gen = RngStream(42).substream()
    u = np.concatenate([_knots_and_neighbours(x), gen.random(1_000_000),
                        [0.0, 5e-324, 0.5, np.nextafter(1.0, 0.0)]])
    assert np.array_equal(s._interval(u), np.searchsorted(x, u, "right") - 1)


def _left_tail_80_steps(s, u):
    """The left-tail bisection with all 80 halvings."""
    lo = np.full(u.shape, 1e-6)
    hi = np.full(u.shape, T_SWITCH)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        f = s._tail_amp / np.sqrt(mid) * np.exp(-1.0 / (2.0 * mid))
        small = f < u
        lo = np.where(small, mid, lo)
        hi = np.where(small, hi, mid)
    return 0.5 * (lo + hi)


def _ppf_searchsorted(s, u):
    """The quantile function with a binary search for the interval, the
    coefficients read column by column, and 80 left-tail halvings."""
    out = np.empty(u.shape)
    left = u < s._u_lo
    right = u > s._u_hi
    mid = ~(left | right)
    x, c = s._interp.x, s._interp.c
    i = np.minimum(np.searchsorted(x, u[mid], "right") - 1, x.size - 2)
    d = u[mid] - x[i]
    d2 = d * d
    c0, c1, c2, c3 = c[:, i]
    out[mid] = c3 + c2 * d + c1 * d2 + c0 * (d2 * d)
    out[left] = _left_tail_80_steps(s, u[left])
    out[right] = s._invert_right_tail(u[right])
    return out


def test_left_tail_stops_where_80_halvings_end():
    s = get_sampler()
    gen = RngStream(43).substream()
    u = np.concatenate([gen.uniform(0.0, s._u_lo, 10_000),
                        np.geomspace(1e-300, s._u_lo, 50)])
    u = u[(u > 0) & (u < s._u_lo)]
    assert u.size > 10_000
    assert s._invert_left_tail(u).tobytes() == _left_tail_80_steps(
        s, u).tobytes()


def test_ppf_is_the_searchsorted_ppf_bit_for_bit():
    s = get_sampler()
    gen = RngStream(44).substream()
    u = np.concatenate([gen.random(1_000_000),
                        _knots_and_neighbours(s._u_knots),
                        gen.uniform(0.0, s._u_lo, 200),
                        1.0 - gen.uniform(0.0, 1.0 - s._u_hi, 200),
                        [0.0, 0.5, np.nextafter(1.0, 0.0)]])
    want = _ppf_searchsorted(s, u)
    assert s.ppf(u).tobytes() == want.tobytes()
    # Any shape, one draw at a time too.
    assert s.ppf(u[:12].reshape(3, 4)).tobytes() == want[:12].tobytes()
    assert s.ppf(u[:12].reshape(3, 4)).shape == (3, 4)
    assert s.ppf(u[5]).shape == () and s.ppf(u[5]) == want[5]
