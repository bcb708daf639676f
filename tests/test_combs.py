import math
import re

import numpy as np
import pytest

from bmx.combs import build_comb
from bmx.errors import BadParameters
from bmx.rng import RngStream

A6 = [1, 40, 41, 100, 101, 900]
B5 = [-50, 5, -51, 6, -52]


def _interior(comb, gen, n):
    """n uniform samples of the comb domain, by rejection from a window
    that holds every cut and reaches past the top height."""
    xs, ys = [0.0, *comb.b], comb.a[-1]
    pad = 2.0 + ys
    out = np.empty(0, dtype=complex)
    while len(out) < n:
        m = max(2 * (n - len(out)), 16)
        cand = (gen.uniform(min(xs) - pad, max(xs) + pad, m)
                + 1j * gen.uniform(-ys - pad, ys + pad, m))
        out = np.concatenate([out, cand[comb.contains(cand)]])
    return out[:n]


def test_base_pair_is_half_strip_and_complement():
    v0, w0 = build_comb(0, [1], [])
    assert w0.contains(-3 + 0j)
    assert w0.contains(-3 + 0.9j)
    assert not w0.contains(-3 + 1.5j)
    assert not w0.contains(1 + 0j)
    assert v0.contains(1 + 0j)
    assert v0.contains(-3 + 1.5j)
    assert not v0.contains(-3 + 0j)


def test_first_iteration_example():
    v1, w1 = build_comb(1, [1, 2], [-5])
    v0, w0 = build_comb(0, [1], [])
    gen = RngStream(5).substream()
    pts_v1 = _interior(v1, gen, 400)
    assert np.all(v0.contains(pts_v1))           # V1 subset of V0
    pts_w0 = _interior(w0, gen, 400)
    assert np.all(w1.contains(pts_w0))           # W0 subset of W1
    # the upper band between the old and new heights belongs to V1
    assert v1.contains(-1 + 1.5j)
    assert not v1.contains(-1 + 0j)


def test_complementarity_and_shared_boundary():
    v, w = build_comb(3, A6[:4], B5[:3])
    gen = RngStream(6).substream()
    z = gen.uniform(-120, 120, 4000) + 1j * gen.uniform(-120, 120, 4000)
    in_v = v.contains(z)
    in_w = w.contains(z)
    assert not np.any(in_v & in_w)
    assert np.all(in_v | in_w)                   # boundary has measure zero
    assert np.array_equal(v.polyline, w.polyline)


@pytest.mark.parametrize("side", ["V", "W"])
def test_nesting_along_the_sequence(side):
    gen = RngStream(7).substream()
    if side == "V":
        small = build_comb(1, A6[:2], B5[:1])[0]
        big = build_comb(3, A6[:4], B5[:3])[0]
        bigger = build_comb(5, A6, B5)[0]
    else:
        small = build_comb(2, A6[:3], B5[:2])[1]
        big = build_comb(4, A6[:5], B5[:4])[1]
        bigger = None
    pts = _interior(small, gen, 600)
    assert np.all(big.contains(pts))
    if bigger is not None:
        pts2 = _interior(big, gen, 600)
        assert np.all(bigger.contains(pts2))


def test_distance_and_projection():
    v1, _ = build_comb(1, [1, 2], [-5])
    assert v1.boundary_distance(0.5 + 0j) == 0.5
    assert v1.boundary_distance(-1 + 1.5j) == 0.5
    gen = RngStream(8).substream()
    pts = _interior(v1, gen, 100)
    proj = v1.project(pts)
    assert np.all(v1.boundary_distance(proj) < 1e-9)


def test_open_ends_are_rays():
    # Far past |Re z| = 1e6 the upper end of V_1 is still the line Im z = 40.
    v1 = build_comb(1, [1, 40], [-50])[0]
    z = 2e6 + 39.5j
    assert v1.boundary_distance(z) == 0.5
    assert v1.project(z) == 2e6 + 40j
    s = v1.first_boundary_crossing(np.array([z]), np.array([2e6 + 40.5j]))
    assert s[0] == 0.5


def test_parameter_validation():
    with pytest.raises(BadParameters):
        build_comb(1, [2, 3], [-5])              # a[0] must be 1
    with pytest.raises(BadParameters):
        build_comb(1, [1, 1.5], [-5])            # height step below 1
    with pytest.raises(BadParameters):
        build_comb(1, [1, 2], [5])               # odd cut must push left
    with pytest.raises(BadParameters):
        build_comb(2, [1, 2, 3], [-5, -1])       # even cut must push right
    with pytest.raises(BadParameters):
        build_comb(3, [1, 2, 3, 4], [-5, 4, -3])  # must pass the previous cut


@pytest.mark.parametrize("a, b, message", [
    ([1, math.nan], [-50], "height a[1]=nan must be finite"),
    ([1, math.inf], [-50], "height a[1]=inf must be finite"),
    ([1, 2, 3], [-5, math.nan], "offset b[2]=nan must be finite"),
    ([1, 2, 3], [-math.inf, 5], "offset b[1]=-inf must be finite"),
])
def test_non_finite_heights_and_offsets_rejected(a, b, message):
    # NaN fails every ordering check, so it must be caught by name.
    with pytest.raises(BadParameters, match=re.escape(message)):
        build_comb(len(b), a, b)
