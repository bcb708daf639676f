import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from bmx.combs import CombDomain, build_comb
from bmx.errors import BadParameters
from bmx.geometry import (Annulus, BoundaryLabel, Disk, Domain, HalfPlane,
                          HalfStripComplement, KoebeSlit, ParabolaComplement,
                          Rectangle, SpiralPair, Strip, Wedge, _CELLS,
                          _INDEXED_PIECES, _Rectilinear, _end_guard,
                          _line_crossing_fraction, check_delta_starlike)
from bmx.rng import RngStream
from bmx.sim import WosConfig
from bmx.stats import run_exits

ALL_DOMAINS = [
    Rectangle(1, 1),
    Rectangle(2, 1),
    Annulus(1, math.e),
    Wedge(math.pi / 2),
    Wedge(2 * math.pi),
    HalfPlane("north"),
    HalfPlane("west"),
    Strip(-1, 1),
    HalfStripComplement(1.0),
    ParabolaComplement(),
    KoebeSlit(),
    Disk(0.5 + 0.5j, 2.0),
    SpiralPair("U"),
    SpiralPair("complement"),
]


def _window(domain):
    """(xmin, xmax, ymin, ymax), a window that overlaps the domain."""
    if isinstance(domain, Rectangle):
        return (-domain.a, domain.a, -domain.b, domain.b)
    if isinstance(domain, Annulus):
        return (-domain.R, domain.R, -domain.R, domain.R)
    if isinstance(domain, Disk):
        c, r = domain.center, domain.radius
        return (c.real - r, c.real + r, c.imag - r, c.imag + r)
    if isinstance(domain, HalfPlane):
        c = 5 * domain.normal
        return (c.real - 5, c.real + 5, c.imag - 5, c.imag + 5)
    if isinstance(domain, Strip):
        return (-10.0, 10.0, domain.lo, domain.hi)
    if isinstance(domain, HalfStripComplement):
        x0, a = domain.x0, domain.a
        return (x0 - 4, x0 + 8, -a - 5, a + 5)
    if isinstance(domain, (Wedge, ParabolaComplement)):
        return (-4.0, 8.0, -8.0, 8.0)
    if isinstance(domain, KoebeSlit):
        return (-10.0, 10.0, -10.0, 10.0)
    if isinstance(domain, SpiralPair):
        return (-20.0, 20.0, -20.0, 20.0)
    if isinstance(domain, CombDomain):
        xs, ys = [0.0, *domain.b], domain.a[-1]
        pad = 2.0 + ys
        return (min(xs) - pad, max(xs) + pad, -ys - pad, ys + pad)
    raise TypeError(f"no window for {domain}")


def _interior(domain, gen, n):
    """n uniform samples of the domain inside its window, by rejection."""
    xmin, xmax, ymin, ymax = _window(domain)
    out = np.empty(0, dtype=complex)
    while len(out) < n:
        m = max(2 * (n - len(out)), 16)
        cand = gen.uniform(xmin, xmax, m) + 1j * gen.uniform(ymin, ymax, m)
        out = np.concatenate([out, cand[domain.contains(cand)]])
    return out[:n]


def test_containment_examples():
    assert Rectangle(1, 1).contains(0j)
    assert Annulus(1, math.e).contains(2 + 0j)
    assert not KoebeSlit().contains(-1 + 0j)      # on the slit
    assert KoebeSlit().contains(-1 + 0.5j)
    assert not Wedge(math.pi / 2).contains(-1 + 0j)
    assert Wedge(2 * math.pi).contains(1j)
    assert not Wedge(2 * math.pi).contains(-2 + 0j)


def test_boundary_points_not_contained():
    assert not Rectangle(1, 1).contains(1 + 0.5j)
    assert not Annulus(1, 2).contains(1 + 0j)
    assert not Disk(0j, 1).contains(1 + 0j)
    assert not Strip(-1, 1).contains(2 + 1j)


def test_distance_examples():
    assert Disk(0j, 1).boundary_distance(0j) == 1.0
    assert Rectangle(2, 1).boundary_distance(0j) == 1.0
    assert Annulus(1, 4).boundary_distance(2 + 0j) == 1.0
    assert HalfPlane("north").boundary_distance(3 + 2j) == 2.0
    assert math.isclose(Wedge(math.pi / 2).boundary_distance(1 + 0j),
                        math.sin(math.pi / 4))
    assert math.isclose(KoebeSlit().boundary_distance(1 + 0j), 1.25)


def test_interior_disk_fits():
    # The inscribed disk of radius dist(z) about any interior point stays in
    # the domain; probe its rim just inside.
    gen = RngStream(42).substream()
    angles = np.linspace(0, 2 * math.pi, 64, endpoint=False)
    for d in ALL_DOMAINS:
        pts = _interior(d, gen, 40)
        r = d.boundary_distance(pts)
        assert np.all(r > 0)
        rim = pts[:, None] + 0.999 * r[:, None] * np.exp(1j * angles)[None, :]
        assert np.all(d.contains(rim)), f"inscribed disk escapes {d}"


def test_projection_lands_on_boundary():
    gen = RngStream(7).substream()
    for d in ALL_DOMAINS:
        pts = _interior(d, gen, 25)
        proj = d.project(pts)
        assert np.all(d.boundary_distance(proj) < 1e-7), f"bad projection {d}"


def test_classify_rectangle_sides():
    r = Rectangle(1, 1)
    assert r.label_codes(1 + 0.3j) == BoundaryLabel.S1
    assert r.label_codes(0.3 - 1j) == BoundaryLabel.S2
    assert r.label_codes(-1 + 0.3j) == BoundaryLabel.S3
    assert r.label_codes(0.3 + 1j) == BoundaryLabel.S4
    # Corner ties break by enumeration order.
    assert r.label_codes(1 + 1j) == BoundaryLabel.S1


def test_classify_annulus_and_spiral():
    a = Annulus(1, 2)
    z = 1.0000003 * np.exp(0.7j)
    assert a.label_codes(complex(z)) == BoundaryLabel.ANNULUS_INNER
    assert a.label_codes(2.0 * np.exp(0.7j)) == BoundaryLabel.ANNULUS_OUTER

    sp = SpiralPair("U")
    t = 5.0
    on_gamma1 = t * np.exp(1j * t)
    assert sp.label_codes(complex(on_gamma1)) == BoundaryLabel.GAMMA1
    assert sp.label_codes(complex(-on_gamma1)) == BoundaryLabel.GAMMA2


def test_classify_halfplane_halflines():
    hp = HalfPlane("north")
    assert hp.label_codes(2.0 + 0j) == BoundaryLabel.HALFLINE_RIGHT
    assert hp.label_codes(-2.0 + 0j) == BoundaryLabel.HALFLINE_LEFT


@pytest.mark.parametrize("direction", ["north", "south", "east", "west"])
def test_classify_halfplane_halflines_every_direction(direction):
    # +1 along the line is the right half-line, -1 the left one, and the
    # origin, where they meet, goes to the left one.
    hp = HalfPlane(direction)
    along = 1j if direction in ("east", "west") else 1 + 0j
    assert hp.label_codes(along) == BoundaryLabel.HALFLINE_RIGHT
    assert hp.label_codes(-along) == BoundaryLabel.HALFLINE_LEFT
    assert hp.label_codes(0j) == BoundaryLabel.HALFLINE_LEFT


def _random_and_on_axis_points(gen, scale, n=20_000):
    """Uniform points in a square and points on its grid lines of step
    1/4, which hold every boundary line of the closed-form domains."""
    z = gen.uniform(-scale, scale, n) + 1j * gen.uniform(-scale, scale, n)
    grid = np.round(gen.uniform(-scale, scale, n) * 4) / 4
    other = gen.uniform(-scale, scale, n)
    return np.concatenate([z, grid + 1j * other, other + 1j * grid,
                           grid + 0j, 1j * grid])


@pytest.mark.parametrize("domain", [
    Rectangle(2, 1), Rectangle(1, 1), HalfPlane("north"), HalfPlane("south"),
    HalfPlane("east"), HalfPlane("west"), Strip(-1, 1), KoebeSlit()],
    ids=repr)
def test_closed_forms_equal_the_piece_table(domain):
    gen = RngStream(21).substream()
    z = _random_and_on_axis_points(gen, 4.0)
    assert np.array_equal(domain.boundary_distance(z),
                          _Rectilinear.boundary_distance(domain, z))


def _koebe_distance_where(slit, z):
    """KoebeSlit's distance as np.where of both branches, hypot everywhere."""
    z = np.asarray(z, dtype=complex)
    return np.where(z.real <= -0.25, np.abs(z.imag),
                    np.hypot(z.real + 0.25, z.imag))


def _rectangle_distance_sdf(rect, z):
    """Rectangle's distance as the signed-distance formula, hypot
    everywhere."""
    z = np.asarray(z, dtype=complex)
    qx = np.abs(z.real) - rect.a
    qy = np.abs(z.imag) - rect.b
    outside = np.hypot(np.maximum(qx, 0.0), np.maximum(qy, 0.0))
    inside = np.minimum(np.maximum(qx, qy), 0.0)
    return np.abs(outside + inside)


@pytest.mark.parametrize("domain, reference", [
    (KoebeSlit(), _koebe_distance_where),
    (Rectangle(2, 1), _rectangle_distance_sdf),
    (Rectangle(0.75, 3), _rectangle_distance_sdf),
], ids=["koebe", "rectangle(2, 1)", "rectangle(0.75, 3)"])
def test_closed_forms_call_hypot_only_where_it_is_the_answer(domain,
                                                             reference):
    # The closed forms skip hypot where its argument is ±0 or where the
    # other branch is taken; every distance must stay that of the formula
    # that calls it everywhere, bit for bit, with its type and shape.
    gen = RngStream(24).substream()
    nan, inf = math.nan, math.inf
    edges = [-0.25, 0.0]
    if isinstance(domain, Rectangle):
        edges = [-domain.a, domain.a, -domain.b, domain.b, 0.0]
    edges = np.array(edges)
    beside = np.concatenate([edges, np.nextafter(edges, -inf),
                             np.nextafter(edges, inf)])
    other = np.concatenate([beside, gen.uniform(-5, 5, 200), [0.0, -0.0]])
    z = np.concatenate([
        _random_and_on_axis_points(gen, 4.0),
        # Both sides of x = -1/4, of the rectangle's sides and of its
        # corners, and the slit with both signs of zero.
        (beside[:, None] + 1j * other).ravel(),
        (other[:, None] + 1j * beside).ravel(),
        gen.uniform(-9, -0.25, 500) + 0j, np.conj(gen.uniform(-9, -0.25, 500)
                                                 + 0j),
        [complex(x, y) for x in (nan, inf, -inf, 1.0, -0.25, -3.0)
         for y in (nan, inf, -inf, 0.0, -0.0, 0.5)]])
    want = reference(domain, z)
    got = domain.boundary_distance(z)
    assert type(got) is type(want) and got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    grid = z[:600].reshape(20, 30)
    got, want = domain.boundary_distance(grid), reference(domain, grid)
    assert got.shape == (20, 30) and got.tobytes() == want.tobytes()
    for point in (complex(z[7]), complex(-0.25, 0.5), complex(nan, 1.0),
                  np.complex128(3 + 4j), np.asarray(complex(1.5, -2.0))):
        got, want = domain.boundary_distance(point), reference(domain, point)
        assert type(got) is type(want) and got.dtype == want.dtype
        assert np.shape(got) == () and got.tobytes() == want.tobytes()


V5, W5 = build_comb(5, [1, 40, 41, 100, 101, 900], [-50, 5, -51, 6, -52])
V2, W2 = build_comb(2, [1, 2, 4], [-4, 16])
PIECE_TABLES = [
    Rectangle(2, 1), Rectangle(1, 1), HalfPlane("north"), HalfPlane("south"),
    HalfPlane("east"), HalfPlane("west"), Strip(-1, 1),
    HalfStripComplement(1.0), HalfStripComplement(0.5, -2.0), KoebeSlit(),
    V5, W5, V2, W2]


def _points_near_piece_ends(domain, gen):
    """Uniform points over the domain's window, wider than the window, and
    points near and on every finite end of a boundary piece: at distances
    1e-3, 1e-7 and 1e-12 in 16 directions, and on exact diagonals (offsets
    2^-10, 2^-23 and 2^-40, exact at these corners), where the distances
    to two pieces tie."""
    xmin, xmax, ymin, ymax = _window(domain)
    w, h = xmax - xmin, ymax - ymin
    z = [gen.uniform(xmin - w, xmax + w, 20_000)
         + 1j * gen.uniform(ymin - h, ymax + h, 20_000)]
    if isinstance(domain, _Rectilinear):
        ends = np.array([e for p, q, _ in domain.pieces() for e in (p, q)],
                        dtype=complex)
        ends = np.unique(ends[np.isfinite(ends)])
    else:
        ends = np.array([0j, 1, 1j, -1, -1j, math.e, -math.e * 1j])
    ring = np.exp(2j * math.pi * np.arange(16) / 16)
    diagonal = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])
    for end in ends:
        z.append([end])
        for eps in (1e-3, 1e-7, 1e-12):
            z.append(end + eps * ring)
            z.append(end + eps * np.exp(2j * math.pi * gen.random(16)))
        for eps in (2.0 ** -10, 2.0 ** -23, 2.0 ** -40):
            z.append(end + eps * diagonal)
    return np.concatenate(z)


@pytest.mark.parametrize("domain", PIECE_TABLES + [
    Annulus(1, math.e), Wedge(math.pi / 2), Wedge(2 * math.pi),
    Annulus(1, math.e ** 2), Disk(), ParabolaComplement(), SpiralPair("U"),
    SpiralPair("complement")], ids=repr)
def test_exit_points_equal_project_then_label_codes(domain):
    z = _points_near_piece_ends(domain, RngStream(22).substream())
    points, labels = domain.exit_points(z)
    projected = domain.project(z)
    assert points.tobytes() == projected.tobytes()
    assert np.array_equal(labels, domain.label_codes(projected))
    assert labels.dtype == np.int64
    point, label = domain.exit_points(z[0])
    assert np.shape(point) == np.shape(label) == ()
    assert point == projected[0] and label == labels[0]


V1, W1 = build_comb(1, [1, 40], [-50])
V3, W3 = build_comb(3, [1, 40, 41, 100], [-50, 5, -51])


def _full_table_exits(domain, z):
    """Distance, nearest point and label of each point of z, measured
    against every piece of the table.  A point at a ray's infinite end is
    at no distance along the ray, and its foot is that end."""
    horiz, level, lo, hi, _ = domain._table
    z = z[:, None]
    along = np.where(horiz, z.real, z.imag)
    foot = np.minimum(np.maximum(along, lo), hi)
    gap = np.zeros(foot.shape)
    apart = along != foot
    gap[apart] = along[apart] - foot[apart]
    dist = np.hypot(gap, np.where(horiz, z.imag, z.real) - level)
    k = np.argmin(dist, axis=-1)
    foot = np.take_along_axis(foot, k[:, None], axis=-1)[:, 0]
    horiz, level, label = (domain._table[i][k] for i in (0, 1, 4))
    y = np.where(horiz, level, foot)
    end = np.isinf(y)
    point = np.where(horiz, foot, level) + 1j * np.where(end, 0.0, y)
    point.imag[end] = y[end]
    return dist.min(axis=-1), point, label


def _cell_edge_points(domain, gen, n=5000):
    """Points on the cell edges of the domain's index, one float step either
    side of them, and on the grid's outer edges; none without an index."""
    if domain._cells is None:
        return np.zeros(0, dtype=complex)
    x0, sx, y0, sy = domain._cells[:4]
    xs, ys = (np.concatenate([e, np.nextafter(e, -np.inf),
                              np.nextafter(e, np.inf)])
              for e in (x0 + np.arange(_CELLS + 1) / sx,
                        y0 + np.arange(_CELLS + 1) / sy))
    x = gen.uniform(xs.min(), xs.max(), n)
    y = gen.uniform(ys.min(), ys.max(), n)
    return np.concatenate([gen.choice(xs, n) + 1j * gen.choice(ys, n),
                           gen.choice(xs, n) + 1j * y,
                           x + 1j * gen.choice(ys, n)])


@pytest.mark.parametrize("domain", PIECE_TABLES + [V1, W1, V3, W3], ids=repr)
def test_cell_index_equals_the_full_table(domain):
    # The index measures a point against its cell's pieces only; distance,
    # nearest point and label must still be those of the whole table, bit
    # for bit, ties to the earlier piece included.  The domain's own
    # distance (a closed form, or the comb's upper half at |Im z|) must
    # equal it too: the points come in conjugate pairs, and the real axis
    # with both signs of zero.
    gen = RngStream(23).substream()
    far = 10.0 ** gen.uniform(0, 6, 5000) * np.exp(2j * math.pi
                                                   * gen.random(5000))
    nan, inf = math.nan, math.inf
    z = np.concatenate([
        _points_near_piece_ends(domain, gen), _cell_edge_points(domain, gen),
        far, [1e6, -1e6j, complex(nan, 0), complex(0, nan), complex(inf, 1),
              complex(-inf, -1), complex(1, inf), complex(inf, -inf),
              complex(-inf, 0.5)]])
    axis = np.concatenate([z.real, gen.uniform(-1e3, 1e3, 2000)])
    z = np.concatenate([z, np.conj(z), axis + 0j, np.conj(axis + 0j)])
    assert np.signbit(z.imag[-axis.size:]).all()
    want = _full_table_exits(domain, z)
    got = (_Rectilinear.boundary_distance(domain, z),
           *_Rectilinear.exit_points(domain, z))
    finite = np.isfinite(z)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert a[finite].tobytes() == b[finite].tobytes()
        assert np.array_equal(a, b, equal_nan=True)     # NaN signs may vary
    own = domain.boundary_distance(z)
    assert own.dtype == want[0].dtype
    assert own[finite].tobytes() == want[0][finite].tobytes()
    # Only the combs have enough pieces for an index.
    assert (domain._cells is None) == (len(domain.pieces()) < _INDEXED_PIECES)
    if domain._cells is None:
        return
    assert np.array_equal(own, want[0], equal_nan=True)
    # Each cell lists its candidates in piece order, so argmin keeps the
    # earlier piece on a tie, and most cells list one or two.
    lists, count, columns = domain._cells[4:]
    cand = columns[0].T
    assert np.all(np.diff(cand, axis=1) >= 0)
    assert np.all(np.diff(cand, axis=1)[np.arange(cand.shape[1] - 1)
                                        < count[:, None] - 1] > 0)
    assert len(np.unique(cand, axis=0)) == len(cand)
    assert lists.shape == (_CELLS ** 2,) and count[lists].mean() < 2


@pytest.mark.parametrize("domain, z, want", [
    (V5, complex(math.inf, 1), 899.0),      # to the ray Im z = 900, Re > 0
    (HalfStripComplement(1.0), complex(-math.inf, 0.5), 0.5),
    (KoebeSlit(), complex(-math.inf, 0.5), 0.5),
], ids=repr)
def test_table_distance_at_an_infinite_point_is_the_limit(domain, z, want):
    # A point at a ray's infinite end is measured along its line, not by
    # inf - inf; on the slit the closed form gives the same.
    assert _Rectilinear.boundary_distance(domain, z) == want
    assert domain.boundary_distance(z) == want


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("direction, z, inside", [
    ("north", complex(math.inf, 1), True),
    ("south", complex(-math.inf, -1), True),
    ("east", complex(1, math.inf), True),
    ("west", complex(1, math.inf), False),
], ids=repr)
def test_halfplane_closed_forms_at_an_infinite_point(direction, z, inside):
    # The closed forms read the one coordinate across the boundary, so the
    # infinite one never meets the normal's zero component as inf * 0.
    h = HalfPlane(direction)
    assert h.boundary_distance(z) == _Rectilinear.boundary_distance(h, z) == 1
    assert h.contains(z) == inside


def _subclasses(cls):
    return [c for sub in cls.__subclasses__() for c in [sub, *_subclasses(sub)]]


def test_domains_answer_nearest_point_only_in_exit_points():
    # project and label_codes are Domain's views of exit_points; a domain
    # that defined its own could drift from the kernels' one query.
    classes = _subclasses(Domain)
    assert CombDomain in classes and SpiralPair in classes
    for cls in classes:
        assert not {"project", "label_codes"} & set(vars(cls)), cls


def test_piece_tables_have_one_crossing_rule():
    # Every piece table crosses by the table; a closed form beside it would
    # be a second rule to keep equal.
    tables = _subclasses(_Rectilinear)
    assert {Rectangle, KoebeSlit, HalfPlane, Strip, CombDomain} <= set(tables)
    assert [c.__name__ for c in tables
            if "first_boundary_crossing" in vars(c)] == []


def test_classify_deterministic_near_boundary():
    gen = RngStream(3).substream()
    r = Rectangle(2, 1)
    pts = _interior(r, gen, 50)
    proj = r.project(pts)
    lab1 = r.label_codes(proj)
    lab2 = r.label_codes(proj)
    assert np.array_equal(lab1, lab2)


def test_spiral_distance_bound_far_out():
    # Any point at radius >= 2*pi sits within pi of one of the arms.
    sp = SpiralPair("U")
    gen = RngStream(11).substream()
    r = gen.uniform(2 * math.pi, 40, 200)
    th = gen.uniform(-math.pi, math.pi, 200)
    z = r * np.exp(1j * th)
    assert np.all(sp.boundary_distance(z) < math.pi)


def _spiral_oracle(z, step=1e-3):
    """Nearest point on the two spiral arms by a dense scan of t over
    |z| +- 2pi; every grid-local minimum (not just the grid argmin) is
    refined by a root of the derivative of the squared distance."""
    nearest = []
    for zi in z:
        r = abs(zi)
        t = np.arange(max(r - 2 * math.pi, 0.0), r + 2 * math.pi, step)
        cands = [0j]
        for sign in (1.0, -1.0):
            def arm(s):
                return sign * s * np.exp(1j * s)

            def slope(s):
                tangent = sign * np.exp(1j * s) * (1 + 1j * s)
                return (np.conj(arm(s) - zi) * tangent).real

            d2 = np.abs(zi - arm(t)) ** 2
            dips = np.flatnonzero((d2[1:-1] <= d2[:-2])
                                  & (d2[1:-1] <= d2[2:])) + 1
            cands.extend(arm(t[[0, -1, *dips]]))
            for j in dips:
                if slope(t[j - 1]) < 0 < slope(t[j + 1]):
                    cands.append(arm(brentq(slope, t[j - 1], t[j + 1],
                                            xtol=1e-15)))
        cands = np.array(cands)
        nearest.append(cands[np.argmin(np.abs(zi - cands))])
    p = np.array(nearest)
    return np.abs(z - p), p


def test_spiral_nearest_matches_dense_oracle():
    sp = SpiralPair("U")
    gen = RngStream(13).substream()
    for radius in (100.0, 2.0):
        r = radius * np.sqrt(gen.uniform(0, 1, 1000))
        z = r * np.exp(1j * gen.uniform(-math.pi, math.pi, 1000))
        dist, point = _spiral_oracle(z)
        assert np.max(np.abs(sp.boundary_distance(z) - dist)) <= 1e-9
        assert np.max(np.abs(sp.project(z) - point)) <= 1e-9


def _spiral_brackets(z):
    """(r, theta, k, t_k, lo, hi) of SpiralPair's four brackets of each
    point: two on gamma1 measured from z, two on gamma2 from -z."""
    w = np.stack([z, -z], axis=-1)[..., None]
    r = np.abs(w)
    theta = np.mod(np.angle(w), 2 * math.pi)
    k = np.ceil((r - 1.5 * math.pi - theta) / (2 * math.pi)) + [0, 1]
    t_k = theta + 2 * math.pi * k
    lo = np.maximum(t_k - math.pi / 2, 0.0)
    hi = np.maximum(t_k + math.pi / 2, 0.0)
    return r, theta, k, t_k, lo, hi


def _spiral_bisection_reference(z):
    """(nearest point, label code) by 52 halvings of each width-pi bracket,
    with no Newton steps."""
    r, theta, _, _, lo, hi = _spiral_brackets(z)
    for _ in range(52):
        t = (lo + hi) / 2
        cos_u, sin_u = np.cos(t - theta), np.sin(t - theta)
        h = t - r * cos_u + r * t * sin_u
        rising = (h >= 0) & (1 + 2 * r * sin_u + r * t * cos_u > 0)
        hi = np.where(rising, t, hi)
        lo = np.where(rising, lo, t)
    t = (lo + hi) / 2
    g = r**2 + t**2 - 2 * r * t * np.cos(t - theta)
    t = np.where(g < r**2, t, 0.0).reshape(*z.shape, 4)
    g = np.minimum(g, r**2).reshape(*z.shape, 4)
    j = np.argmin(g, axis=-1)
    t = np.take_along_axis(t, j[..., None], axis=-1)[..., 0]
    on_gamma1 = j < 2
    point = np.where(on_gamma1, 1.0, -1.0) * t * np.exp(1j * t)
    code = np.where(on_gamma1, int(BoundaryLabel.GAMMA1),
                    int(BoundaryLabel.GAMMA2))
    return point, code


def test_spiral_nearest_matches_bisection_reference():
    # Bracketing then Newton lands on the 52-halving answer: in the square
    # |Re z|, |Im z| < 20, out to radius 60 and within 1e-3 of the origin
    # where both arms start.
    gen = RngStream(17).substream()
    n = 10_000
    z = np.concatenate([
        gen.uniform(-20, 20, n) + 1j * gen.uniform(-20, 20, n),
        gen.uniform(0, 60, n) * np.exp(1j * gen.uniform(-math.pi, math.pi, n)),
        gen.uniform(0, 1e-3, n) * np.exp(1j * gen.uniform(-math.pi, math.pi,
                                                          n))])
    point, code = _spiral_bisection_reference(z)
    for side in ("U", "complement"):
        sp = SpiralPair(side)
        assert np.max(np.abs(sp.project(z) - point)) <= 1e-12
        assert np.array_equal(sp.label_codes(z), code)


def _spiral_full_search(z):
    """SpiralPair's (distance, nearest point, label code) with every one of
    the four brackets of each point solved: the search before pruning."""
    z = np.asarray(z, dtype=complex)
    r, theta, _, _, lo, hi = _spiral_brackets(z)

    def h_and_slope(t):
        cos_u, sin_u = np.cos(t - theta), np.sin(t - theta)
        return (t - r * cos_u + r * t * sin_u,
                1 + 2 * r * sin_u + r * t * cos_u)

    for _ in range(10):
        t = (lo + hi) / 2
        h, dh = h_and_slope(t)
        rising = (h >= 0) & (dh > 0)
        hi = np.where(rising, t, hi)
        lo = np.where(rising, lo, t)
    t = (lo + hi) / 2
    for _ in range(3):
        h, dh = h_and_slope(t)
        up = dh > 0
        t = np.clip(t - np.where(up, h, 0.0) / np.where(up, dh, 1.0),
                    lo, hi)
    g = r**2 + t**2 - 2 * r * t * np.cos(t - theta)
    t = np.where(g < r**2, t, 0.0).reshape(*z.shape, 4)
    g = np.minimum(g, r**2).reshape(*z.shape, 4)
    j = np.argmin(g, axis=-1)
    t = np.take_along_axis(t, j[..., None], axis=-1)[..., 0]
    on_gamma1 = j < 2
    point = np.where(on_gamma1, 1.0, -1.0) * t * np.exp(1j * t)
    code = np.where(on_gamma1, int(BoundaryLabel.GAMMA1),
                    int(BoundaryLabel.GAMMA2)).astype(np.int64)
    return np.abs(z - point), point, code


def _spiral_prune_margins(z):
    """(gap - reach - 1e-6 (1 + r), crossing index k) for the four brackets
    of each point, as in SpiralPair's docstring: a bracket is pruned where
    the first is positive."""
    r, _, k, t_k, lo, hi = _spiral_brackets(z)
    reach = np.minimum(r, np.abs(r - t_k)).min(axis=(-2, -1), keepdims=True)
    gap = np.maximum(np.maximum(lo - r, r - hi), 0.0)
    return ((gap - reach - 1e-6 * (1 + r)).reshape(*z.shape, 4),
            k.reshape(*z.shape, 4))


def _spiral_prune_thresholds(phi, radii):
    """The points on the rays at angles phi where a bracket's pruning margin
    changes sign: each sign change between neighbouring radii of the same
    crossing indices (there the margin is continuous), by 60 halvings."""
    u = np.exp(1j * phi)[:, None]
    m, k = _spiral_prune_margins(radii * u)
    cross = ((m[:, 1:] > 0) != (m[:, :-1] > 0)) & np.all(
        k[:, 1:] == k[:, :-1], axis=-1, keepdims=True)
    i, j, b = np.nonzero(cross)
    u, lo, hi, pruned = u[i, 0], radii[j], radii[j + 1], m[i, j, b] > 0
    for _ in range(60):
        mid = (lo + hi) / 2
        same = (_spiral_prune_margins(mid * u)[0][np.arange(b.size), b]
                > 0) == pruned
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    return lo * u


def test_spiral_pruned_nearest_matches_full_search_bit_for_bit():
    gen = RngStream(29).substream()
    radii = np.unique(np.concatenate([np.logspace(-9, 0, 200),
                                      np.linspace(0, 60, 600)]))
    edge = _spiral_prune_thresholds(gen.uniform(-math.pi, math.pi, 200),
                                    radii)
    assert edge.size > 5000
    # 1e-15 to 1e-3 off each threshold, along the ray, on both sides.
    off = np.logspace(-15, -3, 13)
    off = np.concatenate([off, -off])
    n = 20_000
    z = np.concatenate([
        (edge[:, None] * (1 + off / np.abs(edge[:, None]))).ravel(),
        np.logspace(-9, 3, n) * np.exp(1j * gen.uniform(-math.pi, math.pi,
                                                        n)),
        gen.uniform(0, 60, n) * np.exp(1j * gen.uniform(-math.pi, math.pi,
                                                        n)),
        [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]])
    assert z.size >= 100_000
    # Finite points under the warnings filter of the caller: pruning warns
    # on none of them.
    want = _spiral_full_search(z)
    with np.errstate(invalid="ignore", over="ignore"):
        bad = np.array([complex(math.inf, 0), complex(-math.inf, 1),
                        complex(math.nan, 0), complex(0, math.nan),
                        complex(math.inf, math.nan), complex(1, -math.inf)])
        want_bad = _spiral_full_search(bad)
    for side in ("U", "complement"):
        sp = SpiralPair(side)
        for got, ref in zip(sp._nearest(z), want):
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref)
        with np.errstate(invalid="ignore", over="ignore"):
            got_bad = sp._nearest(bad)
        for got, ref in zip(got_bad, want_bad):
            assert np.array_equal(got, ref, equal_nan=True)
        for shaped in (np.zeros(0, dtype=complex), 3 - 4j,
                       np.full((2, 3), 0.5 + 2j)):
            for got, ref in zip(sp._nearest(shaped),
                                _spiral_full_search(shaped)):
                assert type(got) is type(ref) and got.shape == ref.shape
                assert np.array_equal(got, ref)


@pytest.mark.parametrize("side, start", [
    ("U", np.exp(2.5708j)), ("complement", np.exp(1j * (1 + 1.5 * math.pi)))])
def test_spiral_walk_on_spheres_exits_on_the_arms(side, start):
    sp = SpiralPair(side)
    assert sp.contains(start)
    batch = run_exits(sp, start, 10_000, WosConfig(), RngStream(29))
    assert batch.ok.all()
    assert np.isin(batch.label, [BoundaryLabel.GAMMA1,
                                 BoundaryLabel.GAMMA2]).all()
    # An exit point is its own nearest boundary point.
    point, code = sp.exit_points(batch.exit_point)
    assert np.all(np.abs(point - batch.exit_point)
                  <= 1e-12 * (1 + np.abs(batch.exit_point)))
    assert np.array_equal(code, batch.label)


def test_spiral_membership_phase():
    sp_u = SpiralPair("U")
    sp_c = SpiralPair("complement")
    gen = RngStream(12).substream()
    z = gen.uniform(-20, 20, 500) + 1j * gen.uniform(-20, 20, 500)
    in_u = sp_u.contains(z)
    in_c = sp_c.contains(z)
    assert not np.any(in_u & in_c)
    assert np.all(in_u | in_c)          # the arms have measure zero


def test_parabola_distance_matches_brute_force():
    pc = ParabolaComplement()
    ss = np.linspace(-60, 60, 1_200_001)
    curve = (1 - ss ** 2 / 4) + 1j * ss
    for z in [2 + 0j, 3 + 2.5j, 1.5 - 4j, 10 + 1j]:
        brute = float(np.min(np.abs(z - curve)))
        assert math.isclose(pc.boundary_distance(z), brute, rel_tol=1e-6)


def test_halfstrip_complement_distances():
    hs = HalfStripComplement(1.0)
    assert hs.boundary_distance(1 + 0j) == 1.0          # to the end segment
    assert hs.boundary_distance(-3 + 2j) == 1.0         # to the top ray
    # diagonal to the corner (0, 1)
    assert math.isclose(hs.boundary_distance(1 + 2j), math.sqrt(2),
                        rel_tol=1e-12)


def test_wedge_crossing_fractions():
    w = Wedge(math.pi / 2)
    # Segment crossing the upper edge ray y = x (x > 0).
    s = w.first_boundary_crossing(np.array([2 + 0j]), np.array([2 + 4j]))[0]
    assert math.isclose(s, 0.5, rel_tol=1e-12)
    # Segment staying inside has no crossing.
    s = w.first_boundary_crossing(np.array([2 + 0j]), np.array([3 + 0.5j]))[0]
    assert s == math.inf


def _wedge_crossing_per_ray(w, z0, z1):
    """The wedge's crossing as a loop over its rays, one pass per ray."""
    half = w.theta / 2
    s = np.full(z0.shape, np.inf)
    for phi in [half] if w.theta == 2 * math.pi else [half, -half]:
        w0 = z0 * np.exp(-1j * phi)
        w1 = z1 * np.exp(-1j * phi)
        f = _line_crossing_fraction(w0.imag, w1.imag)
        dx = w1.real - w0.real
        xc = w0.real + np.where(np.isfinite(f), f, 0.0) * dx
        s = np.minimum(s, np.where(xc >= 0.0, f, np.inf))
    return _end_guard(w, z1, s)


@pytest.mark.parametrize("theta", [math.pi / 3, math.pi / 2, math.pi,
                                   3 * math.pi / 2, 2 * math.pi])
def test_wedge_crossing_in_one_pass_equals_the_per_ray_loop(theta):
    # Both rays in one broadcast pass give the per-ray loop's fractions bit
    # for bit: on random segments, on segments that end on a ray (or at the
    # apex, on both) and on segments with a non-finite end.
    w = Wedge(theta)
    gen = RngStream(71).substream()
    n = 4000
    z0 = (np.exp(gen.uniform(-3, 3, n))
          * np.exp(1j * gen.uniform(-0.499, 0.499, n) * theta))
    z1 = z0 + np.exp(gen.uniform(-4, 2, n)) * np.exp(
        1j * gen.uniform(0, 2 * math.pi, n))
    half = theta / 2
    on_ray = np.exp(gen.uniform(-3, 3, 200)) * np.exp(
        1j * half * gen.choice([-1.0, 1.0], 200))
    inf, nan = math.inf, math.nan
    odd = np.array([0j, complex(inf, 0), complex(-inf, 1), complex(1, inf),
                    complex(nan, 0), complex(0, nan), complex(nan, nan),
                    complex(inf, inf)])
    z1 = np.concatenate([z1, on_ray, odd])
    z0 = np.concatenate([z0, z0[:on_ray.size + odd.size]])
    assert np.all(w.contains(z0))
    with np.errstate(invalid="ignore"):
        got = w.first_boundary_crossing(z0, z1)
        want = _wedge_crossing_per_ray(w, z0, z1)
    assert got.shape == want.shape == z0.shape
    assert got.tobytes() == want.tobytes()
    assert np.isfinite(got).any() and not np.isfinite(got).all()
    for k in range(3):          # one segment at a time, as 0-d arrays too
        a = w.first_boundary_crossing(z0[k], z1[k])
        b = _wedge_crossing_per_ray(w, np.asarray(z0[k]), np.asarray(z1[k]))
        assert np.shape(a) == np.shape(b) == ()
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_koebe_crossing_only_on_slit():
    k = KoebeSlit()
    s = k.first_boundary_crossing(np.array([-1 + 1j]), np.array([-1 - 1j]))[0]
    assert math.isclose(s, 0.5, rel_tol=1e-12)
    # Crossing Im = 0 right of the slit tip is not a boundary crossing.
    s = k.first_boundary_crossing(np.array([1 + 1j]), np.array([1 - 1j]))[0]
    assert s == math.inf


@pytest.mark.parametrize("domain, z0, direction", [
    pytest.param(ParabolaComplement(), 1.0003 + 0j, -1.0, id="parabola"),
    pytest.param(SpiralPair("U"), 3.0 * np.exp(3.0003j), np.exp(3.0003j),
                 id="spiral"),
])
def test_bisected_crossing_does_not_depend_on_its_batch(domain, z0, direction):
    # A curved boundary's crossing is bisected with a halving count taken
    # from each segment's own length, so a short segment gets the same
    # fraction alone as beside a segment 1000 times longer.
    short = z0 + 1e-3 * direction
    assert domain.contains(z0) and not domain.contains(short)
    alone = domain.first_boundary_crossing(np.array([z0]), np.array([short]))
    batched = domain.first_boundary_crossing(
        np.array([z0, z0]), np.array([short, z0 + 1.0 * direction]))
    assert alone[0] == batched[0]
    assert batched[1] < 1.0


# Every domain with an exact crossing rule, with the tip of its slit for
# slit domains (the slit runs from the tip toward -inf along the real axis)
# and the window z0 is drawn from where _window's lies mostly outside.
_V2, _W2 = build_comb(2, [1, 2, 3], [-2, 1])
EXACT_CROSSING = [
    pytest.param(Rectangle(2, 1), None, None, id="rectangle"),
    pytest.param(Annulus(1, 8), None, None, id="annulus"),
    pytest.param(Disk(0.5 + 0.5j, 2.0), None, None, id="disk"),
    pytest.param(Wedge(math.pi / 2), None, None, id="wedge_half_pi"),
    pytest.param(Wedge(math.pi), None, None, id="wedge_pi"),
    pytest.param(Wedge(3 * math.pi / 2), None, None, id="wedge_3half_pi"),
    pytest.param(Wedge(2 * math.pi), 0.0, None, id="wedge_2pi"),
    pytest.param(HalfPlane("north"), None, None, id="halfplane_north"),
    pytest.param(HalfPlane("west"), None, None, id="halfplane_west"),
    pytest.param(Strip(-1, 1), None, None, id="strip"),
    pytest.param(HalfStripComplement(1.0), None, None, id="halfstrip_compl"),
    pytest.param(KoebeSlit(), -0.25, None, id="koebe"),
    pytest.param(_V2, None, None, id="comb_V2"),
    pytest.param(_W2, None, (-6.0, 1.0, -3.0, 3.0), id="comb_W2"),
]
DENSE = 4001


def _dense_reference(domain, slit_tip, z0, z1):
    """(leaves, first) from containment at DENSE points of z0 -> z1: whether
    the segment certainly leaves the domain, and the grid fraction by which
    it has left; None when the grid cannot tell (it passes within one grid
    spacing of the boundary without a point clearly outside).

    Containment cannot see a slit, so for slit domains a crossing is a jump
    of the argument about the tip, whose branch cut is the slit."""
    frac = np.linspace(0.0, 1.0, DENSE)
    pts = z0 + (z1 - z0) * frac
    h = abs(z1 - z0) / (DENSE - 1)
    inside = domain.contains(pts)
    dist = domain.boundary_distance(pts)
    out = ~inside & (dist > 1e-9)
    out[-1] |= not inside[-1]
    if slit_tip is not None:
        if np.min(np.abs(pts - slit_tip)) <= 2 * h:
            return None
        out[1:] |= np.abs(np.diff(np.angle(pts - slit_tip))) > math.pi
    if np.any(out):
        return True, frac[np.argmax(out)]
    if np.all(inside) and np.min(dist) > h:
        return False, None
    return None


@pytest.mark.parametrize("domain,slit_tip,box", EXACT_CROSSING)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(u=st.floats(0, 1), v=st.floats(0, 1), rho=st.floats(0, 4),
       phi=st.floats(0, 2 * math.pi))
def test_exact_crossing_matches_dense_containment(domain, slit_tip, box,
                                                  u, v, rho, phi):
    xmin, xmax, ymin, ymax = box or _window(domain)
    z0 = complex(xmin + u * (xmax - xmin), ymin + v * (ymax - ymin))
    assume(domain.contains(z0) and domain.boundary_distance(z0) > 1e-6)
    z1 = z0 + rho * complex(math.cos(phi), math.sin(phi))
    ref = _dense_reference(domain, slit_tip, z0, z1)
    assume(ref is not None)
    leaves, first = ref

    s = domain.first_boundary_crossing(np.array([z0]), np.array([z1]))[0]
    assert np.isfinite(s) == leaves
    if leaves:
        assert 0.0 <= s <= first + 1e-12
        assert domain.boundary_distance(z0 + (z1 - z0) * s) < 1e-9


@pytest.mark.parametrize("domain,z0,z1", [
    # Both far ends are back inside: the step cuts through the half-strip
    # and through the annulus hole.
    (HalfStripComplement(1.0), -5 + 2j, -5 - 2j),
    (Annulus(1, 8), -2 + 0.1j, 2 + 0.1j),
])
def test_crossing_seen_when_far_end_is_back_inside(domain, z0, z1):
    assert domain.contains(z0) and domain.contains(z1)
    s = domain.first_boundary_crossing(np.array([z0]), np.array([z1]))[0]
    assert np.isfinite(s)
    assert domain.boundary_distance(z0 + (z1 - z0) * s) < 1e-12
    if isinstance(domain, HalfStripComplement):
        assert math.isclose(s, 0.25, rel_tol=1e-12)
    else:
        assert math.isclose(s, (2 - math.sqrt(0.99)) / 4, rel_tol=1e-12)


def test_delta_starlike_verdicts():
    # The probe gets what verify_karafyllia gives it: the ok exits of a
    # walk-on-spheres run.
    def verdict(domain, start, seed):
        batch = run_exits(domain, start, 40, WosConfig(), RngStream(seed))
        return check_delta_starlike(domain, batch.exit_point[batch.ok])

    assert verdict(Strip(-1, 1), 0j, 1).passed
    assert verdict(HalfPlane("north"), 1j, 2).passed
    # exp-preimages of starlike domains: the fundamental strip of the slit
    # plane and the left half-plane (preimage of the punctured disk).
    assert verdict(Strip(-math.pi, math.pi), 0j, 3).passed
    assert verdict(HalfPlane("west"), -1 + 0j, 4).passed

    # The slit fails only on a null set of interior points (the real axis
    # right of -1/4), but every point of the slit shifts into the domain.
    for domain, start, seed in ((Wedge(math.pi / 2), 1 + 0j, 5),
                                (KoebeSlit(), -1 + 1j, 6)):
        v = verdict(domain, start, seed)
        assert not v.passed
        assert v.witness is not None and v.exit_point is not None
        # The witness's leftward ray really does meet the boundary (an
        # exit on the wedge's rotated ray may read as inside by an ulp).
        assert domain.contains(v.witness)
        assert domain.boundary_distance(v.exit_point) < 1e-12
        assert v.exit_point.imag == v.witness.imag
        assert v.exit_point.real < v.witness.real


def test_constructor_validation():
    with pytest.raises(BadParameters):
        Rectangle(-1, 1)
    with pytest.raises(BadParameters):
        Annulus(2, 1)
    with pytest.raises(BadParameters):
        Wedge(0)
    with pytest.raises(BadParameters):
        Wedge(2 * math.pi + 0.1)
    with pytest.raises(BadParameters):
        Strip(1, -1)
    with pytest.raises(BadParameters):
        HalfPlane("up")
    with pytest.raises(BadParameters):
        Disk(0j, 0.0)
    with pytest.raises(BadParameters):
        SpiralPair("left")


@pytest.mark.parametrize("center, radius, message", [
    (0j, math.inf, "Disk.radius must be finite and positive, got inf"),
    (0j, math.nan, "Disk.radius must be finite and positive, got nan"),
    (complex(math.nan, 0), 1.0, "Disk.center must be finite, got (nan+0j)"),
    (complex(0, -math.inf), 1.0, "Disk.center must be finite, got -infj"),
])
def test_disk_rejects_non_finite_parameters(center, radius, message):
    # Such a disk would walk NaN positions until the step cap.
    with pytest.raises(BadParameters, match=re.escape(message)):
        Disk(center, radius)


@pytest.mark.parametrize("make, message", [
    (lambda: Rectangle(math.inf, math.inf),
     "Rectangle.a must be finite, got inf"),
    (lambda: Rectangle(1.0, math.nan), "Rectangle.b must be finite, got nan"),
    (lambda: Strip(-math.inf, math.inf), "Strip.lo must be finite, got -inf"),
    (lambda: Strip(-1.0, math.inf), "Strip.hi must be finite, got inf"),
    (lambda: Strip(math.nan, 1.0), "Strip.lo must be finite, got nan"),
    (lambda: HalfStripComplement(math.inf), "HalfStripComplement.a must be "
                                            "finite, got inf"),
    (lambda: HalfStripComplement(1.0, math.nan), "HalfStripComplement.x0 must "
                                                 "be finite, got nan"),
    (lambda: HalfStripComplement(1.0, -math.inf), "HalfStripComplement.x0 "
                                                  "must be finite, got -inf"),
], ids=["rectangle_a", "rectangle_b", "strip_both", "strip_hi", "strip_nan",
        "halfstrip_a", "halfstrip_x0_nan", "halfstrip_x0_inf"])
def test_rectilinear_domains_reject_non_finite_parameters(make, message):
    # On an infinite rectangle or strip Euler-Maruyama marks every path ok
    # at a NaN exit with an infinite time and walk-on-spheres walks every
    # path to the step cap; a NaN x0 would blame the start.
    with pytest.raises(BadParameters, match=re.escape(message)):
        make()
