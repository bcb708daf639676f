"""Quasi-hyperbolic distance by shortest paths on an adaptive quadtree graph.

The quasi-hyperbolic length of a path is arclength weighted by reciprocal
distance to the boundary.  We overestimate the infimum by a shortest path in
a graph whose nodes are quadtree cell centers, refined so that a cell's size
is at most ``cell_factor`` times its center clearance, with 8-neighbor edges
weighted |edge| / clearance(midpoint).  Refinement halves the factor and
unions the new graph with the previous ones (node sets are disjoint, source
and targets shared), so the estimate decreases monotonically and converges
from above; rounds stop once successive values agree to ``refine_target``.

Circle targets |z - source| = R enter as virtual nodes wired to every leaf
whose cell meets the circle, so one Dijkstra run prices a whole radius
schedule at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

from .errors import (BadParameters, NodeBudgetExceeded, PointOutsideDomain,
                     TargetUnreachable)
from .geometry import Domain


@dataclass(frozen=True)
class CircleTarget:
    """The set {|z - a| = radius} intersected with the domain, where a is
    the source point."""

    radius: float


@dataclass(frozen=True)
class QhConfig:
    cell_factor: float = 0.2
    min_cell: float | None = None      # default: cell_factor * clearance(a) / 8
    rel_floor: float = 0.0             # extra floor rel_floor * |z - source|
    prune_clearance: float = 0.0       # drop cells entirely below this clearance
    max_nodes: int = 600_000
    refine_target: float = 0.01
    max_rounds: int = 4


@dataclass
class _Graph:
    """Accumulated union graph: node 0 the source, 1..T virtual targets,
    leaves appended after.  Edges are kept as one array per batch, in the
    order the batches were added."""

    n_targets: int
    n_leaves: int = 0
    rows: list = field(default_factory=list)
    cols: list = field(default_factory=list)
    weights: list = field(default_factory=list)

    def leaf_offset(self):
        return 1 + self.n_targets + self.n_leaves

    def add_edges(self, rows, cols, weights):
        ok = np.isfinite(weights)
        self.rows.append(np.asarray(rows, dtype=np.int64)[ok])
        self.cols.append(np.asarray(cols, dtype=np.int64)[ok])
        self.weights.append(np.asarray(weights)[ok])


def _build_leaves(domain: Domain, source: complex, center: complex,
                  half: float, factor: float, min_cell: float,
                  rel_floor: float, prune: float, node_budget: int):
    """Quadtree leaves (centers, halves), level-synchronous subdivision.

    A cell becomes a leaf when its size is at most factor * clearance; cells
    straddling the boundary refine down to a floor and survive only if their
    center is interior.  The floor grows with distance from the source
    (``rel_floor``), so far-field boundary detail costs O(log) cells per
    radius octave.  Fully exterior cells and cells entirely below the
    ``prune`` clearance are dropped.
    """
    cx = np.array([center.real])
    cy = np.array([center.imag])
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


def _locate(keys_by_depth, probes, root_center, root_half, max_depth):
    """Leaf index containing each probe point (-1 if none), deepest first."""
    found = np.full(probes.shape, -1, dtype=np.int64)
    px = probes.real - (root_center.real - root_half)
    py = probes.imag - (root_center.imag - root_half)
    inside = (px >= 0) & (px < 2 * root_half) & (py >= 0) & (py < 2 * root_half)
    for depth in range(max_depth, -1, -1):
        if depth not in keys_by_depth:
            continue
        keys, idx = keys_by_depth[depth]
        cell = 2 * root_half / (1 << depth)
        ix = np.floor(px / cell).astype(np.int64)
        iy = np.floor(py / cell).astype(np.int64)
        key = (np.abs(ix) << 32) | np.abs(iy)
        key = np.where(inside, key, -1)
        pos = np.clip(np.searchsorted(keys, key), 0, len(keys) - 1)
        hit = (keys[pos] == key) & inside & (found < 0)
        found[hit] = idx[pos[hit]]
    return found


def _neighbor_pairs(centers, halves, root_center, root_half):
    """Index pairs of 8-neighbor adjacency among one round's leaves."""
    depths = np.round(np.log2(root_half / halves)).astype(np.int64)
    max_depth = int(depths.max())
    keys_by_depth = {}
    for depth in np.unique(depths):
        sel = np.where(depths == depth)[0]
        cell = 2 * root_half / (1 << int(depth))
        ix = np.floor((centers[sel].real - (root_center.real - root_half)) / cell)
        iy = np.floor((centers[sel].imag - (root_center.imag - root_half)) / cell)
        key = (np.abs(ix.astype(np.int64)) << 32) | np.abs(iy.astype(np.int64))
        order = np.argsort(key)
        keys_by_depth[int(depth)] = (key[order], sel[order])

    dirs = np.array([1 + 0j, -1 + 0j, 1j, -1j,
                     1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])
    eps = 1e-9 * root_half
    rows, cols = [], []
    for d in dirs:
        probes = centers + d * (halves + eps)
        nb = _locate(keys_by_depth, probes, root_center, root_half, max_depth)
        valid = (nb >= 0) & (nb != np.arange(centers.size))
        rows.append(np.where(valid)[0])
        cols.append(nb[valid])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    lo = np.minimum(rows, cols)
    hi = np.maximum(rows, cols)
    uniq = np.unique(lo * centers.size + hi)
    return uniq // centers.size, uniq % centers.size


def _segment_weight(domain, p, q):
    """Quasi-hyperbolic length of a straight segment by the midpoint rule;
    inf where the midpoint has left the domain."""
    mid = (p + q) / 2.0
    clear = domain.boundary_distance(mid)
    good = domain.contains(mid) & (clear > 0)
    return np.where(good, np.abs(p - q) / np.where(good, clear, 1.0), np.inf)


def _connect_point(domain, graph, node, point, centers, halves, offset):
    d = np.abs(centers - point)
    near = d <= 3.0 * halves
    if not np.any(near):
        near = d <= np.min(d) * 1.5 + 1e-12
    idx = np.where(near)[0]
    w = _segment_weight(domain, np.full(idx.size, point), centers[idx])
    graph.add_edges(np.full(idx.size, node), offset + idx, w)


def _add_round(domain, graph: _Graph, a, targets, factor, min_cell,
               rel_floor, prune, box_center, box_half, budget):
    centers, halves = _build_leaves(domain, a, box_center, box_half, factor,
                                    min_cell, rel_floor, prune, budget)
    offset = graph.leaf_offset()
    rows, cols = _neighbor_pairs(centers, halves, box_center, box_half)
    graph.add_edges(offset + rows, offset + cols,
                    _segment_weight(domain, centers[rows], centers[cols]))

    _connect_point(domain, graph, 0, a, centers, halves, offset)
    for t_idx, target in enumerate(targets):
        node = 1 + t_idx
        if isinstance(target, CircleTarget):
            rad = np.abs(centers - a)
            gap = np.abs(rad - target.radius)
            idx = np.where((gap <= 2.0 * halves * math.sqrt(2.0))
                           & (rad > 0))[0]
            if idx.size:
                on_circle = a + (centers[idx] - a) / rad[idx] * target.radius
                graph.add_edges(np.full(idx.size, node), offset + idx,
                                _segment_weight(domain, centers[idx],
                                                on_circle))
        else:
            _connect_point(domain, graph, node, complex(target),
                           centers, halves, offset)
    graph.n_leaves += centers.size
    return centers.size


def _solve(graph: _Graph):
    n = 1 + graph.n_targets + graph.n_leaves
    weights = np.concatenate(graph.weights)
    if not weights.size:
        raise TargetUnreachable("empty metric graph")
    m = coo_matrix((weights, (np.concatenate(graph.rows),
                              np.concatenate(graph.cols))), shape=(n, n))
    dist = dijkstra(m.tocsr(), directed=False, indices=0)
    return dist[1:1 + graph.n_targets]


def quasi_hyperbolic_profile(domain: Domain, a: complex, targets,
                             cfg: QhConfig = QhConfig()):
    """Graph upper bounds of the quasi-hyperbolic distance from ``a`` to each
    target, with the refinement history.

    Returns (values, history, budget_hit); history[r] holds the per-target
    values after refinement round r, nonincreasing in r by the union
    construction, and budget_hit is True when ``max_nodes`` stopped the
    refinement before ``max_rounds`` rounds or convergence.
    """
    a = complex(a)
    if not domain.contains(np.complex128(a)):
        raise PointOutsideDomain("source must lie inside the domain")
    targets = list(targets)
    if not targets:
        raise BadParameters("need at least one target")
    for t in targets:
        if not isinstance(t, CircleTarget):
            if not domain.contains(np.complex128(complex(t))):
                raise PointOutsideDomain("point target outside the domain")

    d_a = float(domain.boundary_distance(np.complex128(a)))
    min_cell = cfg.min_cell
    if min_cell is None:
        min_cell = cfg.cell_factor * d_a / 8.0

    reach = [d_a]
    for t in targets:
        if isinstance(t, CircleTarget):
            reach.append(t.radius)
        else:
            reach.append(abs(complex(t) - a))
    box_half = 1.2 * max(reach) + 4.0 * d_a
    box_center = a

    graph = _Graph(n_targets=len(targets))
    history = []
    values = None
    budget_hit = False
    for round_idx in range(cfg.max_rounds):
        factor = cfg.cell_factor / (2 ** round_idx)
        cell_floor = min_cell / (2 ** round_idx)
        try:
            _add_round(domain, graph, a, targets, factor, cell_floor,
                       cfg.rel_floor / (2 ** round_idx), cfg.prune_clearance,
                       box_center, box_half, cfg.max_nodes)
        except NodeBudgetExceeded:
            if values is None:
                raise
            budget_hit = True
            break
        vals = _solve(graph)
        history.append(vals.copy())
        if values is not None:
            rel = np.abs(vals - values) / np.maximum(np.abs(vals), 1e-30)
            values = vals
            if np.max(rel) <= cfg.refine_target:
                break
        else:
            values = vals
        # The next round would have about four times as many leaves.
        if (graph.n_leaves * 4 > cfg.max_nodes and round_idx >= 1
                and round_idx + 1 < cfg.max_rounds):
            budget_hit = True
            break
    if values is None or np.any(~np.isfinite(values)):
        raise TargetUnreachable("no grid path reached every target")
    return values, history, budget_hit


def quasi_hyperbolic_distance(domain: Domain, a: complex, target,
                              cfg: QhConfig = QhConfig()) -> float:
    """Shortest-path upper bound on the quasi-hyperbolic distance from ``a``
    to a point or circle target, refined to the configured tolerance."""
    values, _, _ = quasi_hyperbolic_profile(domain, a, [target], cfg)
    return float(values[0])
