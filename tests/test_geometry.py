import math

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
                          _INDEXED_PIECES, _Rectilinear, check_delta_starlike,
                          sample_interior)
from bmx.rng import RngStream

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
    gen = RngStream(42).generator()
    angles = np.linspace(0, 2 * math.pi, 64, endpoint=False)
    for d in ALL_DOMAINS:
        pts = sample_interior(d, gen, 40)
        r = d.boundary_distance(pts)
        assert np.all(r > 0)
        rim = pts[:, None] + 0.999 * r[:, None] * np.exp(1j * angles)[None, :]
        assert np.all(d.contains(rim)), f"inscribed disk escapes {d}"


def test_projection_lands_on_boundary():
    gen = RngStream(7).generator()
    for d in ALL_DOMAINS:
        pts = sample_interior(d, gen, 25)
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
    gen = RngStream(21).generator()
    z = _random_and_on_axis_points(gen, 4.0)
    assert np.array_equal(domain.boundary_distance(z),
                          _Rectilinear.boundary_distance(domain, z))


V5, W5 = build_comb(5, [1, 40, 41, 100, 101, 900], [-50, 5, -51, 6, -52])
V2, W2 = build_comb(2, [1, 2, 4])
PIECE_TABLES = [
    Rectangle(2, 1), Rectangle(1, 1), HalfPlane("north"), HalfPlane("south"),
    HalfPlane("east"), HalfPlane("west"), Strip(-1, 1),
    HalfStripComplement(1.0), HalfStripComplement(0.5, -2.0), KoebeSlit(),
    V5, W5, V2, W2]


def _points_near_piece_ends(domain, gen):
    """Uniform points over the domain's probe box, wider than the box, and
    points near and on every finite end of a boundary piece: at distances
    1e-3, 1e-7 and 1e-12 in 16 directions, and on exact diagonals (offsets
    2^-10, 2^-23 and 2^-40, exact at these corners), where the distances
    to two pieces tie."""
    xmin, xmax, ymin, ymax = domain.probe_box()
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
    z = _points_near_piece_ends(domain, RngStream(22).generator())
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
    # for bit, ties to the earlier piece included.
    gen = RngStream(23).generator()
    far = 10.0 ** gen.uniform(0, 6, 5000) * np.exp(2j * math.pi
                                                   * gen.random(5000))
    nan, inf = math.nan, math.inf
    z = np.concatenate([
        _points_near_piece_ends(domain, gen), _cell_edge_points(domain, gen),
        far, [1e6, -1e6j, complex(nan, 0), complex(0, nan), complex(inf, 1),
              complex(-inf, -1), complex(1, inf), complex(inf, -inf),
              complex(-inf, 0.5)]])
    want = _full_table_exits(domain, z)
    got = (_Rectilinear.boundary_distance(domain, z),
           *_Rectilinear.exit_points(domain, z))
    finite = np.isfinite(z)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert a[finite].tobytes() == b[finite].tobytes()
        assert np.array_equal(a, b, equal_nan=True)     # NaN signs may vary
    # Only the combs have enough pieces for an index.
    assert (domain._cells is None) == (len(domain.pieces()) < _INDEXED_PIECES)
    if domain._cells is None:
        return
    # Each cell lists its candidates in piece order, so argmin keeps the
    # earlier piece on a tie, and most cells list one or two.
    count, cand = domain._cells[4:]
    assert np.all(np.diff(cand, axis=1) >= 0)
    assert np.all(np.diff(cand, axis=1)[np.arange(cand.shape[1] - 1)
                                        < count[:, None] - 1] > 0)
    assert count.mean() < 2


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
    gen = RngStream(3).generator()
    r = Rectangle(2, 1)
    pts = sample_interior(r, gen, 50)
    proj = r.project(pts)
    lab1 = r.label_codes(proj)
    lab2 = r.label_codes(proj)
    assert np.array_equal(lab1, lab2)


def test_spiral_distance_bound_far_out():
    # Any point at radius >= 2*pi sits within pi of one of the arms.
    sp = SpiralPair("U")
    gen = RngStream(11).generator()
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
    gen = RngStream(13).generator()
    for radius in (100.0, 2.0):
        r = radius * np.sqrt(gen.uniform(0, 1, 1000))
        z = r * np.exp(1j * gen.uniform(-math.pi, math.pi, 1000))
        dist, point = _spiral_oracle(z)
        assert np.max(np.abs(sp.boundary_distance(z) - dist)) <= 1e-9
        assert np.max(np.abs(sp.project(z) - point)) <= 1e-9


def _spiral_bisection_reference(z):
    """(nearest point, label code) by 52 halvings of each width-pi bracket,
    with no Newton steps."""
    w = np.stack([z, -z], axis=-1)[..., None]
    r = np.abs(w)
    theta = np.mod(np.angle(w), 2 * math.pi)
    k = np.ceil((r - 1.5 * math.pi - theta) / (2 * math.pi)) + [0, 1]
    t_k = theta + 2 * math.pi * k
    lo = np.maximum(t_k - math.pi / 2, 0.0)
    hi = np.maximum(t_k + math.pi / 2, 0.0)
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
    # Bracketing then Newton lands on the 52-halving answer: in the probe
    # box, out to radius 60 and within 1e-3 of the origin where both arms
    # start.
    gen = RngStream(17).generator()
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


def test_spiral_membership_phase():
    sp_u = SpiralPair("U")
    sp_c = SpiralPair("complement")
    gen = RngStream(12).generator()
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
# and the window z0 is drawn from when the probe box is mostly outside.
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
    xmin, xmax, ymin, ymax = box or domain.probe_box()
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
    def verdict(domain, seed):
        inside = sample_interior(domain, RngStream(seed).generator(), 40)
        return check_delta_starlike(domain, domain.exit_points(inside)[0])

    assert verdict(Strip(-1, 1), 1).passed
    assert verdict(HalfPlane("north"), 2).passed
    # exp-preimages of starlike domains: the fundamental strip of the slit
    # plane and the left half-plane (preimage of the punctured disk).
    assert verdict(Strip(-math.pi, math.pi), 3).passed
    assert verdict(HalfPlane("west"), 4).passed

    # The slit fails only on a null set of interior points (the real axis
    # right of -1/4), but every point of the slit shifts into the domain.
    for domain, seed in ((Wedge(math.pi / 2), 5), (KoebeSlit(), 6)):
        v = verdict(domain, seed)
        assert not v.passed
        assert v.witness is not None and v.exit_point is not None
        # The witness's leftward ray really does leave the domain.
        assert domain.contains(v.witness)
        assert not domain.contains(v.exit_point)
        assert v.exit_point.imag == v.witness.imag
        assert v.exit_point.real < v.witness.real


def test_sample_interior_reports_a_domain_it_cannot_fill():
    # No candidate in the probe box lands in so thin a wedge.
    with pytest.raises(BadParameters, match=(
            r"^found 0 of 64 interior points of Wedge\(theta=1e-09\) "
            r"in its probe box \(")):
        sample_interior(Wedge(1e-9), RngStream(0).generator(), 64)


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
