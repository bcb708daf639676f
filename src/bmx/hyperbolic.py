"""Quasi-hyperbolic distance by shortest paths on an adaptive quadtree graph.

The quasi-hyperbolic length of a path is arclength weighted by reciprocal
distance to the boundary.  We overestimate the infimum by a shortest path in
a graph whose nodes are quadtree cell centers, refined so that a cell's size
is at most ``cell_factor`` times its center clearance, with 8-neighbor edges
weighted |edge| / clearance(midpoint).  Each refinement round halves the
factor and solves its own graph, the source plus that round's leaves; a
target's value after round r is the least over rounds 0..r, so the estimate
decreases monotonically and converges from above; rounds stop once
successive values agree within 1% (``_REFINE_TARGET``), or after
``max_rounds`` rounds.
Edges join every two leaves whose cells touch.  The leaves are sorted
once in Morton (Z-curve) order, which also numbers the graph's nodes; each
leaf probes the finest cells past its edge midpoints and corners, computed
exactly on its integer Morton code, with one ``searchsorted`` per probe
direction, and each touching pair is kept by exactly one probe; a backward
probe whose answer an earlier leaf's forward probe already found is not
run.  Probes and edge weights run over blocks of ``_BLOCK`` leaves or
edges, so their temporaries stay in cache, and the edge arrays are dropped
once the sparse graph holds them; neither changes a value.  The int64 codes
hold 31 levels, and a deeper tree (a source very near the boundary) raises
BadParameters.

Targets are not graph nodes.  A point target is wired to the leaves near
it, and a circle target |z - source| = R to every leaf whose cell meets the
circle, by the radial segment to the circle; its value is the least leaf
distance plus wire.  One Dijkstra run per round thus prices a whole radius
schedule, and every value is the length of a real path in the domain.

scipy.sparse, which holds the Dijkstra solver, is imported when the first
graph is solved, not with this module.  The module attribute ``dijkstra``
resolves to scipy's function on first access, and ``_round_values`` calls
whatever that attribute holds, so a profiler may rebind it.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (BadParameters, NodeBudgetExceeded, PointOutsideDomain,
                     TargetUnreachable)
from .geometry import Domain


def __getattr__(name):
    """Bind scipy's ``dijkstra`` into the module on first access."""
    if name != "dijkstra":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    global dijkstra
    from scipy.sparse.csgraph import dijkstra
    return dijkstra


@dataclass(frozen=True)
class CircleTarget:
    """The set {|z - a| = radius} intersected with the domain, where a is
    the source point."""

    radius: float

    def __post_init__(self):
        # An infinite radius would make the graph's box infinite.
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise BadParameters(f"circle target radius must be finite and "
                                f"positive, got {self.radius!r}")


@dataclass(frozen=True)
class QhConfig:
    """A cell is a leaf once its side is at most ``cell_factor`` times its
    clearance; a boundary cell stops at half-width max(``min_cell``,
    ``rel_floor`` * |z - source|), ``min_cell`` None meaning ``cell_factor``
    * clearance(source) / 8; cells entirely below ``prune_clearance`` are
    dropped.  Round r halves the first three r times, for at most
    ``max_rounds`` rounds.  ``max_nodes`` bounds the leaves of each round's
    own graph: over it, the first round raises NodeBudgetExceeded and a
    later one ends the refinement, reported as ``node_budget_hit``."""

    cell_factor: float = 0.2
    min_cell: float | None = None
    rel_floor: float = 0.02
    prune_clearance: float = 0.0
    max_nodes: int = 600_000
    max_rounds: int = 3

    def __post_init__(self):
        # With cell_factor 0 no cell is a leaf, and only leaves count
        # against max_nodes.
        if not (math.isfinite(self.cell_factor) and self.cell_factor > 0):
            raise BadParameters(f"QhConfig.cell_factor must be finite and "
                                f"positive, got {self.cell_factor!r}")
        # A zero or NaN floor splits boundary cells until the budget runs
        # out, and the error would then blame max_nodes.
        if not (self.min_cell is None or (math.isfinite(self.min_cell)
                                          and self.min_cell > 0)):
            raise BadParameters(f"QhConfig.min_cell must be None or finite "
                                f"and positive, got {self.min_cell!r}")
        for name in ("rel_floor", "prune_clearance"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise BadParameters(f"QhConfig.{name} must be finite and "
                                    f"non-negative, got {value!r}")
        if not self.max_rounds >= 1:
            raise BadParameters(f"QhConfig.max_rounds must be at least 1, "
                                f"got {self.max_rounds!r}")


_REFINE_TARGET = 0.01   # relative change between rounds that ends refinement
_MAX_DEPTH = 31   # two 31-bit cell indices interleave into 62 bits of int64
_SPREAD = ((16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF),
           (4, 0x0F0F0F0F0F0F0F0F), (2, 0x3333333333333333),
           (1, 0x5555555555555555))   # moves bit b < 32 to bit 2b
_X_BITS = 0x1555555555555555   # the x bits of a 62-bit Morton code
_Y_BITS = _X_BITS << 1         # its y bits
# Leaves per block of neighbor probes and edges per block of weights: a
# block's arrays stay in a core's L2 cache.  Never changes a result.
_BLOCK = 16_384


def _build_leaves(domain: Domain, source: complex, half: float,
                  factor: float, min_cell: float, rel_floor: float,
                  prune: float, node_budget: int):
    """Quadtree leaves (centers, halves) of the box ``source`` +- ``half``.

    A cell becomes a leaf when its size is at most factor * clearance; cells
    straddling the boundary refine down to a floor and survive only if their
    center is interior.  The floor grows with distance from the source
    (``rel_floor``), so far-field boundary detail costs O(log) cells per
    radius octave.  Fully exterior cells and cells entirely below the
    ``prune`` clearance are dropped.  Leaves deeper than ``_MAX_DEPTH``
    raise BadParameters, more than ``node_budget`` NodeBudgetExceeded.
    """
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
            if depth > _MAX_DEPTH:
                d_a = float(domain.boundary_distance(np.complex128(source)))
                raise BadParameters(
                    f"quadtree depth {depth} exceeds the {_MAX_DEPTH}-level "
                    f"limit of its Morton keys (source clearance {d_a:.3g}, "
                    f"min_cell {min_cell:.3g} this round, box half {half:g})")
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


def _neighbor_pairs(centers, halves, root_center, root_half):
    """(order, rows, cols): the Morton order of one round's leaves, and
    their 8-neighbor adjacency as positions in that order, each touching
    pair once.

    With D the deepest leaf depth, a leaf k levels above it is s = 2**k
    finest cells wide; its lower-left finest cell (ix, iy) has both indices
    multiples of s, so it covers the Morton codes [start, start + 4**k),
    start being the interleave of ix and iy.  Leaves are disjoint, so after
    one sort by start the only leaf that can hold a finest cell is the last
    start at or below its code: one ``searchsorted`` per probe direction,
    over the leaves of one block of ``_BLOCK`` at a time.  A leaf probes the
    cell just past the middle of each edge and the cell diagonally past
    each corner, computed exactly on its integer code by dilated arithmetic
    (Schrack 1992): add s or s/2, or subtract 1, within the x bits and
    within the y bits.

    The probes find every pair of touching leaves: across a shared edge the
    smaller leaf's edge probe lands in the larger, and two leaves that meet
    at a corner land in each other by corner probes.  An edge probe keeps a
    neighbor at least as large as the prober, a corner probe one at most as
    large, and of two leaves of one size the earlier in Morton order keeps
    the pair, so each pair is found once.  A leaf of one size to the W, S
    or SW is earlier, so the W, S and SW probes keep no pair of equal
    leaves; they run only for leaves that no earlier leaf of their size has
    hit with its E, N or NE probe, which leaves the pairs unchanged.  Codes
    fit an int64 while D <= 31.
    """
    depths = np.round(np.log2(root_half / halves)).astype(np.int64)
    deepest = int(depths.max())
    side = 1 << deepest
    finest = 2 * root_half / side
    size = np.int64(1) << (deepest - depths)      # s, in finest cells
    ix = np.floor((centers.real - (root_center.real - root_half))
                  / finest).astype(np.int64) & ~(size - 1)
    iy = np.floor((centers.imag - (root_center.imag - root_half))
                  / finest).astype(np.int64) & ~(size - 1)
    xs, ys = ix, iy
    for step, mask in _SPREAD:
        xs = (xs | (xs << step)) & mask
        ys = (ys | (ys << step)) & mask
    code = xs | (ys << 1)
    order = np.argsort(code)
    code, ix, iy, size = (v[order] for v in (code, ix, iy, size))
    ends = code + size * size
    # met[i, j]: the leaves that an earlier leaf of their own size has hit
    # with its forward probe (i, j), NE, E or N, and whose backward probe
    # (2 - i, 2 - j), SW, W or S, would land back in that leaf.
    met = {ij: np.zeros(code.size, dtype=bool)
           for ij in ((0, 0), (0, 1), (1, 0))}
    rows, cols = [], []
    for lo in range(0, code.size, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        s, bx, by = size[block], ix[block], iy[block]
        xs, ys = code[block] & _X_BITS, code[block] & _Y_BITS
        span = s * s              # s in the x bits, and the 4**k codes
        half_span = span >> 2     # s/2 in the x bits (0 when s = 1)
        # x + s, x + s/2 and x - 1 in the x bits, each with where it stays
        # in the root box; then the same moves of y in the y bits.
        x_moves = ((((xs | _Y_BITS) + span) & _X_BITS, bx + s < side),
                   (((xs | _Y_BITS) + half_span) & _X_BITS, True),
                   ((xs - 1) & _X_BITS, bx > 0))
        y_moves = ((((ys | _X_BITS) + (span << 1)) & _Y_BITS, by + s < side),
                   (((ys | _X_BITS) + (half_span << 1)) & _Y_BITS, True),
                   ((ys - 2) & _Y_BITS, by > 0))
        own = np.arange(lo, lo + s.size)
        # i + j < 2 is a forward probe, i + j > 2 a backward one, and the
        # forward one of each pair runs first.
        for i, j in ((0, 0), (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1),
                     (2, 2)):
            (x, x_in), (y, y_in) = x_moves[i], y_moves[j]
            probe, inside, run = x | y, x_in & y_in, slice(None)
            if i + j > 2:
                run = ~met[2 - i, 2 - j][block]
                probe, inside = probe[run], inside[run]
            pos = np.searchsorted(code, probe, side="right") - 1
            hit = inside & (pos >= 0) & (probe < ends[pos])
            # An edge probe (one move of s/2) keeps larger neighbors, a
            # corner probe smaller ones, and both keep later leaves of
            # their own size.
            other, mine, prober = size[pos], s[run], own[run]
            same = other == mine
            hit &= ((other > mine) if 1 in (i, j) else (other < mine)) | (
                same & (pos > prober))
            if i + j < 2:
                met[i, j][pos[hit & same]] = True
            rows.append(prober[hit])
            cols.append(pos[hit])
    return order, np.concatenate(rows), np.concatenate(cols)


def _segment_weight(domain, p, q):
    """Quasi-hyperbolic length of a straight segment by the midpoint rule;
    inf where the midpoint has left the domain."""
    mid = (p + q) / 2.0
    clear = domain.boundary_distance(mid)
    good = domain.contains(mid) & (clear > 0)
    return np.where(good, np.abs(p - q) / np.where(good, clear, 1.0), np.inf)


def _connect_point(domain, point, centers, halves):
    """(leaf indices, wire weights) joining ``point`` to the leaves near it."""
    d = np.abs(centers - point)
    near = d <= 3.0 * halves
    if not np.any(near):
        near = d <= np.min(d) * 1.5 + 1e-12
    idx = np.where(near)[0]
    return idx, _segment_weight(domain, np.full(idx.size, point), centers[idx])


def _round_values(domain, a, targets, factor, min_cell, rel_floor, prune,
                  box_half, budget):
    """One refinement round: shortest paths from ``a`` (node 0) over this
    round's leaves (nodes 1..n) alone, and each target's value read off as
    the least leaf distance plus the wire from that leaf to the target.
    Targets are not graph nodes, so no path passes through one."""
    from scipy.sparse import coo_matrix
    centers, halves = _build_leaves(domain, a, box_half, factor, min_cell,
                                    rel_floor, prune, budget)
    order, rows, cols = _neighbor_pairs(centers, halves, a, box_half)
    centers, halves = centers[order], halves[order]
    weights = np.empty(rows.size)
    for lo in range(0, rows.size, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        weights[block] = _segment_weight(domain, centers[rows[block]],
                                         centers[cols[block]])
    src, src_w = _connect_point(domain, a, centers, halves)
    rows = np.concatenate([1 + rows, np.zeros(src.size, dtype=np.int64)])
    cols = np.concatenate([1 + cols, 1 + src])
    weights = np.concatenate([weights, src_w])
    ok = np.isfinite(weights)
    n = 1 + centers.size
    graph = coo_matrix((weights[ok], (rows[ok], cols[ok])), shape=(n, n))
    del rows, cols, weights, ok   # the graph holds the edges from here on
    graph = graph.tocsr()
    solver = sys.modules[__name__].dijkstra   # through __getattr__ at first
    dist = solver(graph, directed=False, indices=0)[1:]

    rad = np.abs(centers - a)
    values = np.empty(len(targets))
    for k, target in enumerate(targets):
        if isinstance(target, CircleTarget):
            idx = np.where((np.abs(rad - target.radius)
                            <= 2.0 * halves * math.sqrt(2.0)) & (rad > 0))[0]
            on_circle = a + (centers[idx] - a) / rad[idx] * target.radius
            w = _segment_weight(domain, centers[idx], on_circle)
        else:
            idx, w = _connect_point(domain, complex(target), centers, halves)
        values[k] = np.min(dist[idx] + w, initial=np.inf)
    return values


def quasi_hyperbolic_profile(domain: Domain, a: complex, targets,
                             cfg: QhConfig = QhConfig()):
    """Graph upper bounds of the quasi-hyperbolic distance from ``a`` to each
    target, with the refinement history.

    Returns (values, history, budget_hit); history[r] holds the per-target
    values after refinement round r, the running minimum over rounds 0..r
    (so nonincreasing in r), and budget_hit is True when ``max_nodes``
    stopped the refinement before ``max_rounds`` rounds or convergence.
    Every value is the quasi-hyperbolic length (by the midpoint rule) of a
    real path in the domain from ``a`` to its target.
    """
    a = complex(a)
    if not cmath.isfinite(a):
        raise PointOutsideDomain(f"source {a!r} is not finite")
    if not domain.contains(np.complex128(a)):
        raise PointOutsideDomain("source must lie inside the domain")
    targets = list(targets)
    if not targets:
        raise BadParameters("need at least one target")
    d_a = float(domain.boundary_distance(np.complex128(a)))
    reach = [d_a]
    for t in targets:
        if isinstance(t, CircleTarget):
            reach.append(t.radius)
            continue
        t = complex(t)
        if not cmath.isfinite(t):
            raise PointOutsideDomain(f"point target {t!r} is not finite")
        if not domain.contains(np.complex128(t)):
            raise PointOutsideDomain("point target outside the domain")
        reach.append(abs(t - a))
    min_cell = cfg.min_cell
    if min_cell is None:
        min_cell = cfg.cell_factor * d_a / 8.0
    box_half = 1.2 * max(reach) + 4.0 * d_a

    values = np.full(len(targets), np.inf)
    history = []
    budget_hit = False
    for round_idx in range(cfg.max_rounds):
        scale = 2 ** round_idx
        try:
            round_values = _round_values(
                domain, a, targets, cfg.cell_factor / scale, min_cell / scale,
                cfg.rel_floor / scale, cfg.prune_clearance, box_half,
                cfg.max_nodes)
        except NodeBudgetExceeded:
            if not history:
                raise
            budget_hit = True
            break
        prev, values = values, np.minimum(values, round_values)
        history.append(values)
        # A target no round has reached yet is not converged; comparing only
        # finite values keeps inf - inf out of the stop test.
        if round_idx and np.all(np.isfinite(values)) and np.max(
                np.abs(values - prev) / np.maximum(np.abs(values), 1e-30)
        ) <= _REFINE_TARGET:
            break
    if not np.all(np.isfinite(values)):
        raise TargetUnreachable("no grid path reached every target")
    return values, history, budget_hit


def quasi_hyperbolic_distance(domain: Domain, a: complex, target,
                              cfg: QhConfig = QhConfig()) -> float:
    """Shortest-path upper bound on the quasi-hyperbolic distance from ``a``
    to a point or circle target, refined to the configured tolerance."""
    values, _, _ = quasi_hyperbolic_profile(domain, a, [target], cfg)
    return float(values[0])
