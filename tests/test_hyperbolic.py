import cmath
import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bmx import hyperbolic
from bmx.disk_time import get_sampler
from bmx.errors import (BadParameters, NodeBudgetExceeded, PointOutsideDomain,
                        TargetUnreachable)
from bmx.geometry import (Annulus, Disk, HalfPlane, KoebeSlit, Rectangle,
                          SpiralPair, Strip, Wedge)
from bmx.hyperbolic import (CircleTarget, QhConfig, quasi_hyperbolic_distance,
                            quasi_hyperbolic_profile)
from bmx.stats import estimate_hardy_number

BATTERY = Path(__file__).resolve().parents[1] / "scenarios" / "battery.cfg"


def test_disk_radial_integral():
    # From the center to the circle |z| = 1/2: integral of dr/(1-r) = ln 2.
    v = quasi_hyperbolic_distance(Disk(0j, 1.0), 0j, CircleTarget(0.5))
    assert abs(v / math.log(2) - 1) < 0.03


def test_halfplane_vertical_geodesic():
    v = quasi_hyperbolic_distance(HalfPlane("north"), 1j, 2j,
                                  QhConfig(max_rounds=3))
    assert abs(v / math.log(2) - 1) < 0.03


def test_wedge_radial_integral():
    # Along the bisector the clearance is r sin(theta/2); the radial path
    # from 1 to the circle of radius R about 1 integrates to
    # sqrt(2) ln(R + 1) for theta = pi/2.
    R = 100.0
    v = quasi_hyperbolic_distance(
        Wedge(math.pi / 2), 1 + 0j, CircleTarget(R),
        QhConfig(cell_factor=0.1, rel_floor=0.01, max_rounds=3))
    oracle = math.sqrt(2) * math.log(R + 1)
    assert abs(v / oracle - 1) < 0.05


def test_point_and_circle_targets_are_consistent():
    d = Disk(0j, 1.0)
    v_pt = quasi_hyperbolic_distance(d, 0j, 0.5 + 0j)
    v_circ = quasi_hyperbolic_distance(d, 0j, CircleTarget(0.5))
    # The circle is the union over directions, so it can only be closer.
    assert v_circ <= v_pt + 1e-9
    assert abs(v_pt - v_circ) < 0.05


def test_refinement_is_monotone_decreasing():
    _, history, _ = quasi_hyperbolic_profile(
        Disk(0j, 1.0), 0j, [CircleTarget(0.5)], QhConfig(max_rounds=4))
    vals = [h[0] for h in history]
    assert len(vals) >= 2
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_koebe_slit_growth_is_logarithmic():
    Rs = [10.0, 100.0, 1000.0]
    vals, _, _ = quasi_hyperbolic_profile(
        KoebeSlit(), 1 + 0j, [CircleTarget(r) for r in Rs],
        QhConfig(rel_floor=0.02))
    oracles = [math.log((r + 1.25) / 1.25) for r in Rs]
    for v, o in zip(vals, oracles):
        assert abs(v / o - 1) < 0.05
    assert vals[0] < vals[1] < vals[2]


def test_source_must_be_interior():
    with pytest.raises(PointOutsideDomain):
        quasi_hyperbolic_distance(Disk(0j, 1.0), 2 + 0j, 0.5 + 0j)
    with pytest.raises(PointOutsideDomain):
        quasi_hyperbolic_distance(Disk(0j, 1.0), 0j, 3 + 0j)


@pytest.mark.parametrize("source, target", [
    (complex(math.nan, 0), 0.5j), (complex(math.inf, 0), 0.5j),
    (0j, complex(math.nan, 0)), (0j, complex(-math.inf, 0.5))])
def test_non_finite_source_or_point_target_is_rejected(source, target):
    # Strip.contains reads only Im z: from a NaN source the graph asked for
    # more than max_nodes leaves, and from an infinite one it met inf - inf.
    bad = target if cmath.isfinite(source) else source
    with pytest.raises(PointOutsideDomain,
                       match=re.escape(f"{bad!r} is not finite")):
        quasi_hyperbolic_profile(Strip(-1, 1), source, [target],
                                 QhConfig(max_rounds=1))


@pytest.mark.parametrize("domain, a, radii, cfg", [
    pytest.param(SpiralPair("U"), cmath.exp(2.5708j), (6.0, 12.0),
                 QhConfig(cell_factor=0.25, rel_floor=0.0,
                          prune_clearance=0.45, min_cell=0.5, max_rounds=1,
                          max_nodes=500_000), id="spiral"),
    pytest.param(KoebeSlit(), 1 + 0j, (10.0, 100.0),
                 QhConfig(rel_floor=0.02, max_rounds=3), id="koebe"),
])
def test_circle_target_value_does_not_depend_on_other_targets(domain, a,
                                                               radii, cfg):
    # When a circle target was one graph node, a path could enter the inner
    # circle on one arc and leave it from another for free: the spiral's
    # F_12 read 22.03 beside F_6 and 37.56 alone, Koebe's F_100 4.43228
    # beside F_10 and 4.43250 alone.
    both, _, _ = quasi_hyperbolic_profile(
        domain, a, [CircleTarget(r) for r in radii], cfg)
    alone, _, _ = quasi_hyperbolic_profile(
        domain, a, [CircleTarget(radii[1])], cfg)
    assert both[1] == alone[0]


@pytest.mark.filterwarnings("error")
def test_unreachable_circle_target():
    # A circle that never meets the domain has no candidate leaves.  From
    # the second round on, the stop test compared inf with inf and warned
    # of an invalid value in subtract.
    for cfg in (QhConfig(max_rounds=1), QhConfig()):
        with pytest.raises(TargetUnreachable):
            quasi_hyperbolic_distance(Rectangle(1, 1), 0j,
                                      CircleTarget(10.0), cfg)


@pytest.mark.parametrize("radius", [-1.0, 0.0, math.nan, math.inf])
def test_circle_radius_must_be_positive(radius):
    # An infinite radius made the graph's box infinite: the leaves met
    # inf * 0, and the error blamed "no interior cells found".
    with pytest.raises(BadParameters, match=f"got {radius!r}"):
        CircleTarget(radius)


@pytest.mark.parametrize("domain, a, radii, error", [
    # The fit met one abscissa twice: a RankWarning and a slope of 0.736.
    (Wedge(math.pi / 2), 1, [10, 10],
     "radius schedule [10.0, 10.0] repeats a radius"),
    # delta / ln 1 divided by zero and read as infinite growth.
    (Disk(0j, 2.0), 0, [0.5, 1],
     "radius schedule [0.5, 1.0] needs a largest radius above 1, "
     "where ln R > 0"),
], ids=["repeated", "largest_at_most_1"])
def test_degenerate_hardy_schedule_is_rejected(domain, a, radii, error):
    with pytest.raises(BadParameters, match=f"^{re.escape(error)}$"):
        estimate_hardy_number(domain, a, radii)


@pytest.mark.parametrize("field, value", [
    ("cell_factor", 0.0), ("cell_factor", -0.2), ("cell_factor", math.nan),
    ("cell_factor", math.inf), ("max_rounds", 0), ("max_rounds", -1),
    ("min_cell", 0.0), ("min_cell", -1.0), ("min_cell", math.nan),
    ("min_cell", math.inf), ("rel_floor", -0.02), ("rel_floor", math.nan),
    ("rel_floor", math.inf), ("prune_clearance", -0.1),
    ("prune_clearance", math.nan), ("prune_clearance", math.inf),
    ("max_nodes", 2**31 - 1), ("max_nodes", 2**31)])
def test_degenerate_qh_config_is_rejected(field, value):
    # cell_factor = 0 would split cells forever, since the node budget
    # counts only leaves, and a zero or NaN floor splits boundary cells
    # forever; either was reported as a max_nodes overrun.  No round at all
    # would blame an unreachable target, and a graph of 2**31 nodes would
    # wrap its int32 indices.
    with pytest.raises(BadParameters,
                       match=rf"^QhConfig\.{field} must .*, got {value!r}$"):
        QhConfig(**{field: value})


def test_two_radius_hardy_fit_is_the_two_point_slope():
    # Fitting the last half of a two-radius schedule would fit one point.
    he = estimate_hardy_number(Wedge(math.pi / 2), 1 + 0j, [10, 100])
    d10, d100 = he.delta_values
    assert he.slope == pytest.approx((d100 - d10) / math.log(10), rel=1e-12)


def test_scipy_loads_with_the_first_graph():
    # import bmx needs numpy only; scipy.sparse comes with the first solve,
    # and the module attribute is then scipy's dijkstra itself.
    code = textwrap.dedent(f"""
        import sys
        import bmx, bmx.cli
        bmx.get_sampler()
        bmx.cli.parse_config({str(BATTERY)!r})
        loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
        assert not loaded, loaded
        bmx.quasi_hyperbolic_distance(bmx.Disk(0j, 1.0), 0j, 0.5 + 0j)
        import scipy.sparse.csgraph
        assert bmx.hyperbolic.dijkstra is scipy.sparse.csgraph.dijkstra
    """)
    src = str(Path(hyperbolic.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_import_loads_no_pool_openssl_or_polynomial():
    # A one-worker run needs no process pool, and the table checksum and
    # the Gauss-Legendre nodes load hashlib (OpenSSL's libcrypto) and
    # numpy.polynomial only when first used.  The checksum, imported late,
    # is still the one test_disk_time pins.
    pinned = get_sampler().table_checksum()
    code = textwrap.dedent(f"""
        import sys
        import bmx, bmx.cli
        bmx.get_sampler()
        bmx.cli.parse_config({str(BATTERY)!r})
        banned = ("hashlib", "_hashlib", "concurrent.futures.process",
                  "multiprocessing", "numpy.polynomial")
        loaded = [m for m in banned if m in sys.modules]
        assert not loaded, loaded
        assert bmx.get_sampler().table_checksum() == {pinned!r}
    """)
    src = str(Path(hyperbolic.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_node_budget_in_first_round_names_max_nodes():
    # A budget the first graph cannot fit is a budget error, not a claim
    # that no grid path reaches the target.
    with pytest.raises(NodeBudgetExceeded, match="max_nodes=50"):
        quasi_hyperbolic_distance(Disk(0j, 1.0), 0j, CircleTarget(0.5),
                                  QhConfig(max_nodes=50))
    assert issubclass(NodeBudgetExceeded, TargetUnreachable)


def _oracle_neighbor_pairs(centers, halves, root_center, root_half):
    """Reference 8-neighbor pairs: each probe goes to the leaf with its cell
    index at that leaf's depth, searched deepest first in one sorted key
    table per depth (keys hold 32 levels)."""
    depths = np.round(np.log2(root_half / halves)).astype(np.int64)
    x0, y0 = root_center.real - root_half, root_center.imag - root_half

    def cell_keys(points, depth):
        cell = 2 * root_half / (1 << int(depth))
        ix = np.floor((points.real - x0) / cell).astype(np.int64)
        iy = np.floor((points.imag - y0) / cell).astype(np.int64)
        return (ix << 32) | iy

    tables = []
    for depth in np.unique(depths)[::-1]:
        sel = np.where(depths == depth)[0]
        keys = cell_keys(centers[sel], depth)
        tables.append((depth, np.sort(keys), sel[np.argsort(keys)]))
    rows, cols = [], []
    for d in (1 + 0j, -1 + 0j, 1j, -1j, 1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j):
        probes = centers + d * (halves + 1e-9 * root_half)
        px, py = probes.real - x0, probes.imag - y0
        found = np.full(centers.size, -1)
        in_box = ((px >= 0) & (px < 2 * root_half)
                    & (py >= 0) & (py < 2 * root_half))
        for depth, keys, idx in tables:
            key = cell_keys(probes, depth)
            pos = np.clip(np.searchsorted(keys, key), 0, keys.size - 1)
            hit = in_box & (found < 0) & (keys[pos] == key)
            found[hit] = idx[pos[hit]]
        valid = (found >= 0) & (found != np.arange(centers.size))
        rows.append(np.where(valid)[0])
        cols.append(found[valid])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    n = centers.size
    uniq = np.unique(np.minimum(rows, cols) * n + np.maximum(rows, cols))
    return uniq // n, uniq % n


def _pair_keys(order, rows, cols):
    """The pairs of ``_neighbor_pairs`` as sorted keys min * n + max over
    the leaf numbering that ``order`` maps positions to; no leaf is paired
    with itself and no pair appears twice."""
    n = order.size
    assert np.array_equal(np.sort(order), np.arange(n))
    a, b = order[rows], order[cols]
    key = np.sort(np.minimum(a, b) * n + np.maximum(a, b))
    assert np.all(a != b)
    assert np.all(np.diff(key) > 0)
    return key


def _checked_pairs(neighbor_pairs, *leaves):
    out = neighbor_pairs(*leaves)
    want_rows, want_cols = _oracle_neighbor_pairs(*leaves)
    assert np.array_equal(_pair_keys(*out),
                          want_rows * leaves[0].size + want_cols)
    return out


LEAF_CASES = pytest.mark.parametrize(
    "domain, a, half, factor, min_cell, prune", [
        pytest.param(Wedge(math.pi / 2), 1 + 0j, 12.0, 0.2, None, 0.0,
                     id="wedge"),
        pytest.param(KoebeSlit(), 1 + 0j, 12.0, 0.2, None, 0.0, id="koebe"),
        pytest.param(Annulus(0.5, 2.0), 1.2 + 0.1j, 1.0, 0.3, 0.02, 0.0,
                     id="annulus"),
        pytest.param(SpiralPair("U"), -0.8415 + 0.5403j, 4.0, 0.25, 0.05,
                     0.0, id="spiral"),
    ])


@LEAF_CASES
def test_neighbor_pairs_match_per_depth_search(domain, a, half, factor,
                                               min_cell, prune):
    # Leaves of two refinement factors; the root box is small enough that
    # some leaves touch its edge, where probes fall outside the tree.
    clear = float(domain.boundary_distance(np.complex128(a)))
    for f in (factor, factor / 2):
        floor = min_cell if min_cell is not None else f * clear / 8
        centers, halves, _ = hyperbolic._build_leaves(
            domain, a, half, f, floor, 0.02, prune, 200_000)
        gap = np.maximum(np.abs(centers.real - a.real),
                         np.abs(centers.imag - a.imag)) + halves
        assert np.any(gap >= half * (1 - 1e-12))
        _, rows, _ = _checked_pairs(hyperbolic._neighbor_pairs, centers,
                                    halves, a, half)
        assert rows.size > centers.size


def _small_blocks(monkeypatch):
    """Probe in blocks of 97 leaves, and check that every call spans
    several blocks and ends in a partial one."""
    monkeypatch.setattr(hyperbolic, "_BLOCK", 97)
    neighbor_pairs = hyperbolic._neighbor_pairs

    def blocked(centers, *rest):
        assert centers.size > 97 and centers.size % 97
        return neighbor_pairs(centers, *rest)

    monkeypatch.setattr(hyperbolic, "_neighbor_pairs", blocked)


@LEAF_CASES
def test_neighbor_pairs_in_small_blocks_match_per_depth_search(
        monkeypatch, domain, a, half, factor, min_cell, prune):
    # A forward probe that meets a leaf of its own size in a later block
    # still spares that leaf its backward probe.
    _small_blocks(monkeypatch)
    test_neighbor_pairs_match_per_depth_search(domain, a, half, factor,
                                               min_cell, prune)


def test_edge_weights_in_small_blocks_are_the_one_pass_weights(monkeypatch):
    # The graph handed to Dijkstra holds, for every leaf pair, the weight
    # of one _segment_weight call over all pairs, bit for bit, though the
    # round computes them 97 edges at a time; the pairs whose midpoint
    # falls on the slit (weight inf) are left out.
    domain, a, half = KoebeSlit(), 1 + 0j, 12.0
    floor = 0.2 * float(domain.boundary_distance(np.complex128(a))) / 8
    centers, halves, _ = hyperbolic._build_leaves(domain, a, half, 0.2,
                                                  floor, 0.02, 0.0, 200_000)
    order, rows, cols = hyperbolic._neighbor_pairs(centers, halves, a, half)
    centers = centers[order]
    want = hyperbolic._segment_weight(domain, centers[rows], centers[cols])
    finite = np.isfinite(want)
    assert rows.size % 97 and not np.all(finite)

    dijkstra, graphs = hyperbolic.dijkstra, []

    def solver(graph, **kwargs):
        graphs.append(graph.tocoo())
        return dijkstra(graph, **kwargs)

    monkeypatch.setattr(hyperbolic, "_BLOCK", 97)
    monkeypatch.setattr(hyperbolic, "dijkstra", solver)
    hyperbolic._round_values(domain, a, [CircleTarget(5.0)], 0.2, floor,
                             0.02, 0.0, half, 200_000)
    got, n = graphs[0], centers.size
    pair = got.row > 0
    got_keys = (got.row[pair] - 1) * n + (got.col[pair] - 1)
    want_keys = rows[finite] * n + cols[finite]
    got_order, want_order = np.argsort(got_keys), np.argsort(want_keys)
    assert np.array_equal(got_keys[got_order], want_keys[want_order])
    assert np.array_equal(got.data[pair][got_order],
                          want[finite][want_order])


def test_neighbor_pairs_match_on_hardy_benchmark_rounds(monkeypatch):
    # Every refinement round of the hardy_graph benchmark scenarios builds
    # the same adjacency as the per-depth search.
    rounds = []
    neighbor_pairs = hyperbolic._neighbor_pairs

    def checked(*leaves):
        rounds.append(leaves[0].size)
        return _checked_pairs(neighbor_pairs, *leaves)

    monkeypatch.setattr(hyperbolic, "_neighbor_pairs", checked)
    r = [10, 31.6, 100, 316, 1000]
    estimate_hardy_number(Wedge(math.pi / 2), 1, r, QhConfig(rel_floor=0.02,
                                                             max_rounds=3))
    estimate_hardy_number(KoebeSlit(), 1, r, QhConfig(rel_floor=0.02,
                                                      max_rounds=3))
    estimate_hardy_number(
        SpiralPair("U"), -0.8415 + 0.5403j, [6, 12, 24, 48],
        QhConfig(cell_factor=0.25, rel_floor=0.0, prune_clearance=0.45,
                 min_cell=0.5, max_rounds=1, max_nodes=500_000))
    assert len(rounds) == 6


def test_neighbor_pairs_do_not_depend_on_leaf_order():
    # The second round of the wedge_hardy benchmark scenario, its leaves
    # shuffled: mapped back through the shuffle, the Morton order and the
    # pairs are the unshuffled call's.
    domain, a = Wedge(math.pi / 2), 1 + 0j
    clear = float(domain.boundary_distance(np.complex128(a)))
    half = 1.2 * 1000 + 4 * clear
    centers, halves, _ = hyperbolic._build_leaves(
        domain, a, half, 0.1, 0.1 * clear / 8, 0.01, 0.0, 600_000)
    order, rows, cols = hyperbolic._neighbor_pairs(centers, halves, a, half)
    perm = np.random.default_rng(16).permutation(centers.size)
    p_order, p_rows, p_cols = hyperbolic._neighbor_pairs(
        centers[perm], halves[perm], a, half)
    assert rows.size > centers.size
    assert np.array_equal(perm[p_order], order)
    assert np.array_equal(_pair_keys(perm[p_order], p_rows, p_cols),
                          _pair_keys(order, rows, cols))


def test_neighbor_pairs_are_the_touching_leaves_at_depth_31():
    # 4188 leaves down to depth 31, where a finest cell (1.1e-8) is
    # narrower than a float probe offset of 1e-9 * root_half, so probes
    # must be exact: checked against all leaf pairs, the pairs are exactly
    # the leaves whose closed cells meet.
    a, half = 0.3 + 1e-7j, 12.0
    centers, halves, _ = hyperbolic._build_leaves(
        HalfPlane("north"), a, half, 0.8, 1e-8, 0.02, 0.0, 600_000)
    assert np.round(np.log2(half / halves.min())) == hyperbolic._MAX_DEPTH
    got = _pair_keys(*hyperbolic._neighbor_pairs(centers, halves, a, half))
    n, tol = centers.size, 0.5 * halves.min()
    want = []
    for i in range(n - 1):
        reach = halves[i] + halves[i + 1:]
        meet = ((np.abs(centers.real[i] - centers.real[i + 1:]) - reach
                 <= tol)
                & (np.abs(centers.imag[i] - centers.imag[i + 1:]) - reach
                   <= tol))
        want.append(i * n + i + 1 + np.flatnonzero(meet))
    want = np.concatenate(want)
    assert want.size == 14077
    assert np.array_equal(got, want)


def test_neighbor_pairs_in_small_blocks_are_the_touching_leaves_at_depth_31(
        monkeypatch):
    _small_blocks(monkeypatch)
    test_neighbor_pairs_are_the_touching_leaves_at_depth_31()


def test_hardy_benchmark_profiles_are_pinned():
    # The quasi_hyperbolic_profile values of the three hardy_graph benchmark
    # scenarios (the spiral at its min_cell 0.5), pinned so that a change to
    # the graph's construction cannot move them.
    r = [10, 31.6, 100, 316, 1000]
    cases = [
        (Wedge(math.pi / 2), 1, r, QhConfig(),
         [3.447796141741175, 5.004874178636822, 6.629150807178748,
          8.270412133284658, 9.918607293515313]),
        (KoebeSlit(), 1, r, QhConfig(),
         [2.218570251146427, 3.296688016605356, 4.428712824895048,
          5.574114982773328, 6.729895359368491]),
        (SpiralPair("U"), -0.8415 + 0.5403j, [6, 12, 24, 48],
         QhConfig(cell_factor=0.25, rel_floor=0.0, prune_clearance=0.45,
                  min_cell=0.5, max_rounds=1, max_nodes=500_000),
         [8.004454312475975, 39.05507756049346, 182.40245616849052,
          803.4945422684447]),
    ]
    for domain, a, radii, cfg, want in cases:
        values, _, _ = quasi_hyperbolic_profile(
            domain, a, [CircleTarget(R) for R in radii], cfg)
        assert values.tolist() == want


def _build_leaves_from_root(domain, source, half, factor, min_cell,
                            rel_floor, prune, node_budget):
    """Quadtree leaves (centers, halves) as one round built them alone: a
    walk from the root, a depth at a time, that measures every cell."""
    cx = np.array([source.real])
    cy = np.array([source.imag])
    hs = np.array([half])
    out_c, out_h = [], []
    total = 0
    while cx.size:
        centers = cx + 1j * cy
        clear = domain.boundary_distance(centers)
        inside = domain.contains(centers)
        diag = hs * math.sqrt(2.0)
        fully_out = ~inside & (clear > diag)
        pruned = clear + diag < prune
        drop = fully_out | pruned
        floor = np.maximum(min_cell, rel_floor * np.abs(centers - source))
        is_leaf = inside & (2 * hs <= factor * clear) & ~drop
        at_floor = (hs <= floor) & ~is_leaf & ~drop
        leaf = is_leaf | (at_floor & inside)
        if np.any(leaf):
            depth = round(math.log2(half / hs[0]))
            if depth > hyperbolic._MAX_DEPTH:
                raise BadParameters(f"quadtree depth {depth}")
            out_c.append(centers[leaf])
            out_h.append(hs[leaf])
            total += int(np.sum(leaf))
            if total > node_budget:
                raise NodeBudgetExceeded(
                    f"graph needs more than max_nodes={node_budget} leaves "
                    f"(cell factor {factor:g})")
        split = ~leaf & ~drop & ~at_floor
        cx, cy, hs = cx[split], cy[split], hs[split]
        if cx.size:
            q = hs / 2
            cx = np.concatenate([cx - q, cx + q, cx - q, cx + q])
            cy = np.concatenate([cy - q, cy - q, cy + q, cy + q])
            hs = np.concatenate([q, q, q, q])
    if not out_c:
        raise TargetUnreachable("no interior cells found")
    return np.concatenate(out_c), np.concatenate(out_h)


def _sorted_leaves(centers, halves):
    """Leaves as bytes in one order that does not depend on the build's:
    by center, x then y (leaves are disjoint, so no two share a center)."""
    order = np.lexsort((centers.imag, centers.real))
    return centers[order].tobytes(), halves[order].tobytes()


SPIRAL_CFG = QhConfig(cell_factor=0.25, rel_floor=0.0, prune_clearance=0.45,
                      min_cell=0.5, max_rounds=1, max_nodes=500_000)
R_SCHEDULE = [10, 31.6, 100, 316, 1000]


@pytest.mark.parametrize("domain, a, radii, cfg, rounds", [
    pytest.param(Wedge(math.pi / 2), 1, R_SCHEDULE, QhConfig(), 3,
                 id="wedge_hardy"),
    pytest.param(KoebeSlit(), 1, R_SCHEDULE, QhConfig(), 2,
                 id="koebe_hardy"),
    pytest.param(SpiralPair("U"), -0.8415 + 0.5403j, [6, 12, 24, 48],
                 SPIRAL_CFG, 1, id="spiral_hardy"),
    pytest.param(Wedge(math.pi / 2), 1, R_SCHEDULE,
                 QhConfig(prune_clearance=0.3), 3, id="wedge_pruned"),
    pytest.param(Wedge(math.pi / 2), 1, R_SCHEDULE,
                 QhConfig(max_nodes=20_000), 2, id="wedge_budget"),
])
def test_grown_rounds_equal_rounds_built_from_the_root(monkeypatch, domain,
                                                       a, radii, cfg, rounds):
    # Each round grows the last round's tree and measures a cell only where
    # its clearance bounds leave a test open, yet finds the leaves that a
    # walk from the root measuring every cell finds, bit for bit; a round
    # over max_nodes is over it both ways, with the same message.
    build, seen = hyperbolic._build_leaves, []

    def checked(*args):
        try:
            want = _build_leaves_from_root(*args[:8])
        except NodeBudgetExceeded as exc:
            with pytest.raises(NodeBudgetExceeded) as info:
                build(*args)
            assert str(info.value) == str(exc)
            seen.append(None)
            raise
        out = build(*args)
        assert _sorted_leaves(*out[:2]) == _sorted_leaves(*want)
        seen.append(out[0].size)
        return out

    monkeypatch.setattr(hyperbolic, "_build_leaves", checked)
    _, history, budget_hit = quasi_hyperbolic_profile(
        domain, a, [CircleTarget(R) for R in radii], cfg)
    assert len(seen) == rounds
    assert budget_hit == (seen[-1] is None)
    assert len(history) == rounds - budget_hit


def test_grown_wedge_round_measures_fewer_cells(monkeypatch):
    # The third round of the wedge_hardy profile measured every one of its
    # 202,125 cells when each round was built from the root.
    measure, build = Wedge.boundary_distance, hyperbolic._build_leaves
    counts, building = [], [False]

    def counted(self, z):
        if building[0]:   # the graph's own calls are not counted
            counts[-1] += np.size(z)
        return measure(self, z)

    def each_round(*args):
        counts.append(0)
        building[0] = True
        try:
            return build(*args)
        finally:
            building[0] = False

    monkeypatch.setattr(Wedge, "boundary_distance", counted)
    monkeypatch.setattr(hyperbolic, "_build_leaves", each_round)
    domain = Wedge(math.pi / 2)
    quasi_hyperbolic_profile(domain, 1, [CircleTarget(R) for R in R_SCHEDULE],
                             QhConfig())
    assert len(counts) == 3 and counts[2] < 202_125
    clear = float(measure(domain, np.complex128(1)))
    counts.append(0)
    building[0] = True
    _build_leaves_from_root(domain, 1 + 0j, 1.2 * 1000 + 4 * clear, 0.2 / 4,
                            0.2 * clear / 8 / 4, 0.02 / 4, 0.0, 600_000)
    assert counts[3] == 202_125


def test_wedge_profile_working_set():
    # The wedge_hardy benchmark profile, whose last round has 145,344 leaves
    # and 575,407 edges.  Its traced peak was 79 MB when each edge pass ran
    # over whole-graph arrays and the edge arrays outlived the graph, and
    # 37.5 MB in blocks; with int32 edge indices, and each whole-leaf or
    # whole-edge array replaced rather than copied beside its source, it
    # was 21.4 MB, and 20.2 MB once the leaf order is freed after sorting.
    targets = [CircleTarget(R) for R in (10, 31.6, 100, 316, 1000)]
    # Import scipy.sparse first: its modules (16 MB traced) are not the
    # graph's working set.
    hyperbolic.dijkstra
    tracemalloc.start()
    try:
        quasi_hyperbolic_profile(Wedge(math.pi / 2), 1, targets, QhConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 26e6


def test_tree_deeper_than_morton_keys_is_rejected():
    # At clearance ~7e-10 the tree would need 40 levels, past the 31 a
    # Morton key holds.  Aliased keys give 7.22 here, far below the lower
    # bound log(1 + 10 / 7e-10) ~ 23 on the distance.
    cfg = QhConfig(rel_floor=0.02, max_rounds=1)
    with pytest.raises(BadParameters, match=r"depth 32 exceeds the 31-level"
                       r".*clearance 7.07e-10, min_cell 1.77e-11"):
        quasi_hyperbolic_profile(Wedge(math.pi / 2), 1 + (1 - 1e-9) * 1j,
                                 [CircleTarget(10.0)], cfg)
    # 30 levels deep: within the limit, and the value is pinned.
    vals, _, _ = quasi_hyperbolic_profile(
        Wedge(math.pi / 2), 1 + (1 - 1e-6) * 1j, [CircleTarget(10.0)], cfg)
    assert vals[0] == pytest.approx(16.90346167823782, rel=1e-12)
