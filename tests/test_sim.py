import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chisquare, ks_2samp

from bmx.combs import build_comb
from bmx.disk_time import sample_unit_disk_time
from bmx.errors import BadParameters, PointOutsideDomain
from bmx.geometry import (Annulus, BoundaryLabel, Disk, HalfPlane, KoebeSlit,
                          ParabolaComplement, Rectangle, Strip, Wedge)
from bmx.rng import CHUNK_SIZE, RngStream, chunk_ranges
from bmx.sim import (EmConfig, ExitBatch, WosConfig, _ChunkDraws,
                     em_exit_batch, sample_disk_exit_batch,
                     sample_halfplane_exit_batch, wos_exit_batch)


def cauchy_cdf(x, a, b):
    return 0.5 + math.atan((x - a) / b) / math.pi


# ---------------------------------------------------------------------------
# Exact kernels
# ---------------------------------------------------------------------------

def test_halfplane_exit_symmetry():
    gen = RngStream(101).substream()
    b = sample_halfplane_exit_batch(1j, gen, 100_000)
    x = b.exit_point.real
    assert abs(np.median(x)) < 0.02
    p = np.mean(x > 0)
    assert abs(p - 0.5) < 3 * math.sqrt(0.25 / len(x))


def test_halfplane_exit_cauchy_tail():
    # Oracle: P(Re > 0 | start -1+i) from the Cauchy(-1, 1) CDF.
    target = 1.0 - cauchy_cdf(0.0, -1.0, 1.0)
    assert math.isclose(target, 0.25)
    gen = RngStream(102).substream()
    b = sample_halfplane_exit_batch(-1 + 1j, gen, 100_000)
    p = np.mean(b.exit_point.real > 0)
    assert abs(p - target) < 3 * math.sqrt(target * (1 - target) / len(b))


def test_halfplane_labels_and_badstart():
    b = sample_halfplane_exit_batch(2 + 1j, RngStream(4).substream(), 1)
    assert b.label[0] in (BoundaryLabel.HALFLINE_LEFT,
                          BoundaryLabel.HALFLINE_RIGHT)
    assert b.exit_time is None
    with pytest.raises(PointOutsideDomain):
        sample_halfplane_exit_batch(1 - 1j, RngStream(4).substream(), 1)


def test_disk_exit_angle_uniform():
    gen = RngStream(103).substream()
    b = sample_disk_exit_batch(0j, 1.0, gen, 100_000)
    theta = np.mod(np.angle(b.exit_point), 2 * math.pi)
    counts, _ = np.histogram(theta, bins=36, range=(0, 2 * math.pi))
    assert chisquare(counts).pvalue > 0.001


def test_disk_exit_times_mean_and_scaling():
    gen = RngStream(104).substream()
    b1 = sample_disk_exit_batch(0j, 1.0, gen, 100_000, with_time=True)
    assert abs(b1.exit_time.mean() - 0.5) < 0.01
    b2 = sample_disk_exit_batch(0j, 2.0, gen, 100_000, with_time=True)
    assert abs(b2.exit_time.mean() - 2.0) < 0.04


def test_brownian_scaling_in_distribution():
    gen = RngStream(105).substream()
    t1 = sample_disk_exit_batch(0j, 1.0, gen, 50_000, with_time=True).exit_time
    t2 = sample_disk_exit_batch(0j, 2.0, gen, 50_000, with_time=True).exit_time
    assert ks_2samp(t1, t2 / 4.0).pvalue > 0.01


def test_scalar_record_shape():
    b = sample_disk_exit_batch(1 + 1j, 0.5, RngStream(9).substream(), 1,
                               with_time=True)
    assert len(b) == 1 and b.ok[0] and b.steps[0] == 1
    assert math.isclose(abs(b.exit_point[0] - (1 + 1j)), 0.5)
    assert b.exit_time[0] > 0


# ---------------------------------------------------------------------------
# Walk on spheres
# ---------------------------------------------------------------------------

def test_wos_annulus_log_hitting_law():
    # P(inner) = ln(R/|z|)/ln(R/r); the two circles of the annulus.
    ann = Annulus(1.0, math.e ** 2)
    gen = RngStream(106).substream()
    for start, target in [(math.e, 0.5), (math.e ** 1.5, 0.25)]:
        b = wos_exit_batch(ann, start, gen, 100_000)
        p = np.mean(b.label == int(BoundaryLabel.ANNULUS_INNER))
        se = math.sqrt(target * (1 - target) / len(b))
        assert abs(p - target) < 3 * se


def test_wos_square_symmetry():
    gen = RngStream(107).substream()
    b = wos_exit_batch(Rectangle(1, 1), 0j, gen, 100_000)
    for side in range(4):
        p = np.mean(b.label == side)
        assert abs(p - 0.25) < 3 * math.sqrt(0.25 * 0.75 / len(b))


def test_wos_exit_time_matches_disk_formula():
    # E[tau] from z in a disk of radius R is (R^2 - |z|^2)/2.
    gen = RngStream(108).substream()
    d = Disk(0j, 1.0)
    b = wos_exit_batch(d, 0j, gen, 50_000, WosConfig(with_time=True))
    assert abs(np.mean(b.exit_time) - 0.5) < 0.01
    b = wos_exit_batch(d, 0.5 + 0j, gen, 50_000, WosConfig(with_time=True))
    assert abs(np.mean(b.exit_time) - (1 - 0.25) / 2) < 0.01


def test_wos_exit_point_on_boundary():
    gen = RngStream(109).substream()
    d = Rectangle(2, 1)
    b = wos_exit_batch(d, 0j, gen, 2000)
    assert np.all(d.boundary_distance(b.exit_point) < 1e-9)


@pytest.mark.parametrize("kernel, name", [
    pytest.param(wos_exit_batch, "walk-on-spheres", id="wos"),
    pytest.param(em_exit_batch, "Euler-Maruyama", id="em")])
def test_wos_start_outside_domain(kernel, name):
    with pytest.raises(PointOutsideDomain,
                       match=f"^{name} start outside the domain$"):
        kernel(Disk(0j, 1.0), 2 + 0j, RngStream(10).substream(), 1)


@pytest.mark.parametrize("kernel, cfg", [
    pytest.param(wos_exit_batch, WosConfig(max_steps=10), id="wos"),
    pytest.param(em_exit_batch, EmConfig(), id="em")])
@pytest.mark.parametrize("start", [complex(math.nan, 0), complex(math.inf, 0),
                                   complex(-math.inf, 0.5)])
def test_non_finite_start_is_rejected(kernel, cfg, start):
    # Strip.contains reads only Im z, so these starts pass the domain test:
    # walk-on-spheres walked a NaN start to its step cap, and Euler-Maruyama
    # returned ok exits at NaN from an infinite one.
    with pytest.raises(PointOutsideDomain,
                       match=re.escape(f"start {start!r} is not finite")):
        kernel(Strip(-1, 1), start, RngStream(10).substream(), 10, cfg)


def test_wos_reproducible():
    a = wos_exit_batch(Annulus(1, 4), 2 + 0j, RngStream(55, 3).substream(),
                       500, WosConfig(with_time=True))
    b = wos_exit_batch(Annulus(1, 4), 2 + 0j, RngStream(55, 3).substream(),
                       500, WosConfig(with_time=True))
    assert np.array_equal(a.exit_point, b.exit_point)
    assert np.array_equal(a.exit_time, b.exit_time)
    assert np.array_equal(a.steps, b.steps)


# ---------------------------------------------------------------------------
# Euler-Maruyama
# ---------------------------------------------------------------------------

def test_em_disk_mean_exit_time():
    gen = RngStream(110).substream()
    b = em_exit_batch(Disk(0j, 1.0), 0j, gen, 50_000)
    assert b.n_excluded == 0
    assert abs(np.mean(b.exit_time) - 0.5) < 0.01


def test_em_halfplane_exits_match_exact_sampler():
    # Two-sample KS against the exact Cauchy sampler at the 1e-3 level.
    n = 10_000
    gen = RngStream(111).substream()
    em = em_exit_batch(HalfPlane("north"), 1j, gen, n)
    exact = sample_halfplane_exit_batch(1j, gen, n)
    d = ks_2samp(em.exit_point.real, exact.exit_point.real).statistic
    crit = 1.9495 * math.sqrt(2.0 / n)
    assert d < crit


def test_em_rectangle_sides_match_wos():
    n = 50_000
    gen = RngStream(112).substream()
    r = Rectangle(2, 1)
    em = em_exit_batch(r, 0j, gen, n)
    wos = wos_exit_batch(r, 0j, gen, n)
    for side in range(4):
        pe = np.mean(em.label == side)
        pw = np.mean(wos.label == side)
        joint = math.sqrt(pe * (1 - pe) / n + pw * (1 - pw) / n)
        assert abs(pe - pw) <= 3 * joint


def test_em_crossing_detection_on_slits():
    # The slit boundaries have measure zero; exits must still register.
    gen = RngStream(113).substream()
    k = KoebeSlit()
    b = em_exit_batch(k, 1 + 0j, gen, 3000, EmConfig(max_steps=200_000))
    assert b.n_excluded == 0
    exits = b.exit_point
    assert np.all(exits.real <= -0.25 + 1e-9)
    assert np.all(np.abs(exits.imag) < 1e-9)


@pytest.mark.parametrize("make", [
    lambda: EmConfig(c=math.nan), lambda: EmConfig(c=math.inf),
    lambda: EmConfig(c=0.0), lambda: EmConfig(c=-0.1),
    lambda: EmConfig(max_steps=0), lambda: WosConfig(max_steps=0),
    lambda: WosConfig(max_steps=-1, with_time=True),
    lambda: WosConfig(mark_line_re=math.nan),
    lambda: WosConfig(mark_line_re=math.inf),
    lambda: WosConfig(mark_line_re=-math.inf)])
def test_degenerate_kernel_config_rejected(make):
    # A NaN clock gave ok paths with NaN exits, a step cap below 1 gave
    # walks with no jump at all, and a non-finite marked line either
    # refused every start (NaN) or marked nothing.
    with pytest.raises(BadParameters):
        make()


def test_em_reproducible():
    cfg = EmConfig()
    a = em_exit_batch(Rectangle(1, 1), 0j, RngStream(66, 1).substream(), 400,
                      cfg)
    b = em_exit_batch(Rectangle(1, 1), 0j, RngStream(66, 1).substream(), 400,
                      cfg)
    assert np.array_equal(a.exit_point, b.exit_point)
    assert np.array_equal(a.exit_time, b.exit_time)


@pytest.mark.parametrize("kernel", [em_exit_batch, wos_exit_batch])
def test_one_generator_per_chunk(kernel):
    # A list of generators must hold one per chunk of the n paths.
    n = CHUNK_SIZE + 1
    gens = [RngStream(67).substream(ci) for ci in range(2)]
    assert len(kernel(Rectangle(1, 1), 0j, gens, n)) == n
    with pytest.raises(BadParameters, match="2 chunks, but 1 generators"):
        kernel(Rectangle(1, 1), 0j, gens[:1], n)


def _split_idx_cases(n):
    c = CHUNK_SIZE
    every = np.arange(n)
    return [
        every[:0],                                  # no live path
        every,
        every[c:2 * c],                             # one whole chunk
        every[2 * c:],                              # chunks 0 and 1 skipped
        every[c - 1:c + 1],                         # across a chunk edge
        every[c:c + 5], every[c - 5:c],             # start, end on an edge
        np.array([0, c, 2 * c, 3 * c]),             # one per chunk
        np.array([c - 1, 3 * c]),                   # chunks 1 and 2 skipped
        np.array([n - 1]),
        np.sort(RngStream(68).substream().choice(n, 500, replace=False)),
    ]


def test_chunk_draw_shares_are_the_chunk_counts():
    # Each share is the slice lo:hi of the live paths in its chunk, its
    # length the count np.diff takes between the chunk edges; the shares
    # tile the live paths in chunk order, and empty chunks get no share.
    n = 3 * CHUNK_SIZE + 5
    gens = [RngStream(68).substream(ci) for ci in range(4)]
    draws = _ChunkDraws(gens, n)
    for idx in _split_idx_cases(n):
        cuts = np.searchsorted(idx, [CHUNK_SIZE * k for k in (1, 2, 3)])
        counts = np.diff(cuts, prepend=0, append=idx.size)
        draws.split(idx)
        assert [(g, hi - lo) for g, lo, hi in draws._shares] == [
            (g, int(m)) for g, m in zip(gens, counts) if m]
        ends = [0, *(hi for _, _, hi in draws._shares)]
        assert [lo for _, lo, _ in draws._shares] == ends[:-1]
        assert ends[-1] == idx.size
        assert all(type(lo) is int and type(hi) is int
                   for _, lo, hi in draws._shares)
    gen = RngStream(68).substream()
    one = _ChunkDraws(gen, n)
    for idx in _split_idx_cases(n):
        one.split(idx)
        assert one._shares == ([(gen, 0, idx.size)] if idx.size else [])
    listed = _ChunkDraws([gen], 10)
    listed.split(np.array([3, 4]))
    assert listed._shares == [(gen, 0, 2)]


@pytest.mark.parametrize("per_chunk", [False, True])
def test_chunk_draws_in_place_are_each_generators_own(per_chunk):
    # Drawn in place, each share is what a fresh generator of its chunk
    # draws for random(m) and standard_normal((2, m)), bit for bit, sweep
    # after sweep on one pair of buffers.
    n = 3 * CHUNK_SIZE + 5
    chunks = 4 if per_chunk else 1

    def gens():
        stream = RngStream(69)
        if per_chunk:
            return [stream.substream(ci) for ci in range(chunks)]
        return stream.substream()

    draws, fresh = _ChunkDraws(gens(), n), gens()
    fresh = fresh if per_chunk else [fresh]
    for idx in _split_idx_cases(n):
        draws.split(idx)
        chunk = np.searchsorted(np.arange(1, chunks) * CHUNK_SIZE, idx,
                                side="right") if per_chunk else 0 * idx
        u = draws.random(idx.size).copy()
        g = draws.standard_normal((2, idx.size)).copy()
        assert u.shape == (idx.size,) and g.shape == (2, idx.size)
        want_u, want_g = np.empty(idx.size), np.empty((2, idx.size))
        for ci, gen in enumerate(fresh):
            mine = chunk == ci
            want_u[mine] = gen.random(np.sum(mine))
        for ci, gen in enumerate(fresh):
            mine = chunk == ci
            want_g[:, mine] = gen.standard_normal((2, np.sum(mine)))
        assert u.tobytes() == want_u.tobytes()
        assert g.tobytes() == want_g.tobytes()


def test_wos_marked_line():
    # The marked line {Re = 0} never stops a path: every exit is a domain
    # exit, and every path that exits right of the line has hit it.
    batch = wos_exit_batch(Strip(-1, 1), -2.0 + 0j, RngStream(114).substream(),
                           5000, WosConfig(mark_line_re=0.0))
    assert isinstance(batch, ExitBatch)
    assert batch.line_hit.dtype == bool and len(batch.line_hit) == 5000
    assert batch.ok.all()
    assert np.all(np.abs(np.abs(batch.exit_point.imag) - 1) < 1e-6)
    right = batch.exit_point.real > 0
    assert right.any() and not right.all()
    assert np.all(batch.line_hit[right])
    hit_left = batch.line_hit & ~right
    assert hit_left.any() and not batch.line_hit.all()
    assert np.array_equal(batch.label,
                          Strip(-1, 1).label_codes(batch.exit_point))
    plain = wos_exit_batch(Strip(-1, 1), -2.0 + 0j, RngStream(114).substream(),
                           100)
    assert plain.line_hit is None
    with pytest.raises(BadParameters,
                       match=r"mark_line_re = -3\.0 .* start \(-2\+0j\)"):
        wos_exit_batch(Strip(-1, 1), -2.0 + 0j, RngStream(114).substream(),
                       10, WosConfig(mark_line_re=-3.0))


def test_wos_marked_line_halfplane_laws():
    # From -1+i in the upper half-plane, Brownian motion reaches {Re = 0}
    # before its exit with probability 1/2 and exits right of it with
    # probability 1/4 (the Cauchy(-1, 1) exit law).
    n = 50_000
    batch = wos_exit_batch(HalfPlane("north"), -1 + 1j,
                           RngStream(117).substream(), n,
                           WosConfig(mark_line_re=0.0))
    assert batch.ok.all()
    right = batch.exit_point.real > 0
    for hits, p in ((batch.line_hit, 0.5), (right, 0.25)):
        assert abs(np.mean(hits) - p) <= 3 * math.sqrt(p * (1 - p) / n)
    assert np.all(batch.line_hit[right])


def test_wos_jumps_are_uncapped():
    # On the Koebe slit domain paths wander far out; a jump takes the whole
    # inscribed disk, so 2000 jumps end every path.
    b = wos_exit_batch(KoebeSlit(), 1 + 0j, RngStream(117).substream(), 4096,
                       WosConfig(max_steps=2000))
    assert b.n_excluded == 0
    assert np.all(b.exit_point.real <= -0.25 + 1e-6)


@pytest.mark.parametrize("kernel", ["em", "wos"])
def test_batch_step_cap_records(kernel):
    # A capped run must leave every capped path as a NaN record and every
    # path that exits before the cap exactly as in an uncapped run.
    def run(max_steps):
        gen = RngStream(116).substream()
        if kernel == "em":
            return em_exit_batch(Rectangle(2, 1), 0j, gen, 3000,
                                 EmConfig(max_steps=max_steps))
        return wos_exit_batch(Rectangle(2, 1), 0j, gen, 3000,
                              WosConfig(max_steps=max_steps, with_time=True))

    k = 12
    capped, full = run(k), run(1_000_000)
    assert full.n_excluded == 0
    cap = ~capped.ok
    assert cap.any() and not cap.all()
    assert np.all(capped.steps[cap] == k)
    assert np.all(np.isnan(capped.exit_point[cap]))
    assert np.all(np.isnan(capped.exit_time[cap]))
    assert np.all(capped.label[cap] == -1)
    # Both kernels count an exit found within the k-th step: walk-on-spheres
    # tests the shell after its k-th jump before applying the cap.
    within = full.steps <= k
    assert np.array_equal(capped.ok, within)
    for name in ("exit_point", "exit_time", "label", "steps"):
        assert np.array_equal(getattr(capped, name)[within],
                              getattr(full, name)[within])


class _ConcatDraws:
    """The kernels' draws as each chunk's fresh array, concatenated: the
    reference for the buffers the kernels draw into in place."""

    def __init__(self, gen, n):
        single = isinstance(gen, np.random.Generator)
        self._gens = [gen] if single else list(gen)
        ranges = [] if single else chunk_ranges(n)[1:]
        self._bounds = np.array([lo for lo, _ in ranges], dtype=np.int64)

    def split(self, idx):
        cuts = [0, *np.searchsorted(idx, self._bounds).tolist(), idx.size]
        self._shares = [(g, hi - lo) for g, lo, hi
                        in zip(self._gens, cuts, cuts[1:]) if hi > lo]

    def _each(self, draw):
        parts = [draw(g, m) for g, m in self._shares]
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)

    def uniform(self, low, high, size):
        return self._each(lambda g, m: g.uniform(low, high, m))

    def random(self, size):
        return self._each(lambda g, m: g.random(m))

    def standard_normal(self, size):
        return self._each(lambda g, m: g.standard_normal((*size[:-1], m)))


def _wos_per_sweep(domain, starts, gen, cfg, mark_line_re=None):
    """Walk on spheres asking for exit points on every sweep with exits,
    drawing and moving by the plain formulas."""
    n = starts.size
    draws = _ConcatDraws(gen, n)
    line = mark_line_re
    eps = 1e-6 * (1.0 + np.abs(starts))
    steps = np.zeros(n, dtype=np.int64)
    exit_t = np.full(n, np.nan) if cfg.with_time else None
    exit_pt = np.full(n, np.nan, dtype=complex)
    labels = np.full(n, -1, dtype=np.int64)
    ok = np.zeros(n, dtype=bool)
    line_hit = None if line is None else np.zeros(n, dtype=bool)
    idx, z, step = np.arange(n), starts.astype(complex), 0
    t = np.zeros(n) if cfg.with_time else None
    while idx.size:
        d = r = domain.boundary_distance(z)
        if line is not None:
            gap = np.abs(z.real - line)
            line_hit[idx[gap < eps]] = True
            r = np.where(line_hit[idx], d, np.minimum(d, gap))
        shell = d < eps
        if np.any(shell):
            done = idx[shell]
            exit_pt[done], labels[done] = domain.exit_points(z[shell])
            ok[done], steps[done] = True, step
            if t is not None:
                exit_t[done] = t[shell]
            keep = ~shell
            idx, z, r, eps = idx[keep], z[keep], r[keep], eps[keep]
            if t is not None:
                t = t[keep]
            if idx.size == 0:
                break
        if step >= cfg.max_steps:
            steps[idx] = step
            break
        draws.split(idx)
        theta = draws.uniform(0.0, 2 * math.pi, idx.size)
        z = z + r * np.exp(1j * theta)
        if t is not None:
            t = t + r ** 2 * sample_unit_disk_time(draws, idx.size)
        step += 1
    return ExitBatch(exit_point=exit_pt, exit_time=exit_t, label=labels,
                     steps=steps, ok=ok, line_hit=line_hit)


def _em_per_sweep(domain, starts, gen, cfg):
    """Euler-Maruyama asking for exit points on every sweep with exits,
    drawing and moving by the plain formulas."""
    n = starts.size
    draws = _ConcatDraws(gen, n)
    steps = np.zeros(n, dtype=np.int64)
    exit_pt = np.full(n, np.nan, dtype=complex)
    exit_t = np.full(n, np.nan)
    labels = np.full(n, -1, dtype=np.int64)
    ok = np.zeros(n, dtype=bool)
    idx, z, t, step = np.arange(n), starts.astype(complex), np.zeros(n), 0
    while idx.size:
        step += 1
        d = domain.boundary_distance(z)
        dt = np.maximum(np.maximum(cfg.c * d * d, 1e-18), 4e-16 * t)
        draws.split(idx)
        g = draws.standard_normal((2, idx.size))
        z1 = z + np.sqrt(dt) * (g[0] + 1j * g[1])
        s = domain.first_boundary_crossing(z, z1)
        finished = np.isfinite(s)
        if np.any(finished):
            done = idx[finished]
            z0, sf = z[finished], s[finished]
            exit_pt[done], labels[done] = domain.exit_points(
                z0 + (z1[finished] - z0) * sf)
            exit_t[done] = t[finished] + sf * dt[finished]
            ok[done], steps[done] = True, step
            keep = ~finished
            idx, z1, t, dt = idx[keep], z1[keep], t[keep], dt[keep]
        z, t = z1, t + dt
        if step >= cfg.max_steps:
            steps[idx] = step
            break
    return ExitBatch(exit_point=exit_pt, exit_time=exit_t, label=labels,
                     steps=steps, ok=ok)


V3 = build_comb(3, [1, 40, 41, 100], [-50, 5, -51])[0]


@pytest.mark.parametrize("kernel, domain, start, cfg, line, capped", [
    ("wos", Rectangle(2, 1), 0.3j, WosConfig(), None, "none"),
    ("wos", V3, 1.0, WosConfig(with_time=True), 3.0, "none"),
    ("wos", Annulus(1, 4), 2.0, WosConfig(max_steps=8), None, "some"),
    ("wos", KoebeSlit(), 1.0, WosConfig(max_steps=1, with_time=True), 30.0,
     "all"),
    ("em", KoebeSlit(), 1.0, EmConfig(), None, "none"),
    ("em", Rectangle(2, 1), 0.3j, EmConfig(max_steps=40), None, "some"),
    ("em", Rectangle(2, 1), 0j, EmConfig(c=1e-3, max_steps=1), None, "all"),
    # Every crossing rule, each run on the steps the clearance screen lets
    # through, against the unscreened loop.
    ("em", Wedge(math.pi / 2), 1.0, EmConfig(), None, "none"),
    ("em", Wedge(3 * math.pi / 2), 1.0, EmConfig(), None, "none"),
    ("em", Annulus(1, 4), 2.0, EmConfig(), None, "none"),
    ("em", Strip(-1, 1), 0.3j, EmConfig(), None, "none"),
    ("em", V3, 1.0, EmConfig(), None, "none"),
    ("em", ParabolaComplement(), 2.0, EmConfig(), None, "none"),
], ids=lambda v: v if isinstance(v, str) else None)
@pytest.mark.parametrize("per_chunk", [False, True])
def test_one_exit_query_per_call_equals_per_sweep_queries(
        kernel, domain, start, cfg, line, capped, per_chunk):
    # A kernel projects its exits once, after the loop, and draws and moves
    # in place; that must give the exits of a loop that projects them on
    # every sweep and draws and moves by the plain formulas, bit for bit.
    # An all-capped run makes the one query on an empty array.  Per chunk,
    # in the runs without a capped path, the short third chunk empties
    # first and sweeps without an exit follow, so the kernel also draws
    # from a split with a chunk left out, on sweeps that compact nothing.
    n = 2 * CHUNK_SIZE + 300 if per_chunk else 1500
    starts = np.full(n, complex(start))

    def gen():
        stream = RngStream(118)
        if per_chunk:
            return [stream.substream(ci) for ci in range(3)]
        return stream.substream()

    if kernel == "wos":
        got = wos_exit_batch(domain, start, gen(), n,
                             replace(cfg, mark_line_re=line))
        want = _wos_per_sweep(domain, starts, gen(), cfg, mark_line_re=line)
    else:
        got = em_exit_batch(domain, start, gen(), n, cfg)
        want = _em_per_sweep(domain, starts, gen(), cfg)
    assert {"none": got.ok.all(), "some": got.ok.any() and not got.ok.all(),
            "all": not got.ok.any()}[capped]
    if per_chunk and capped == "none":
        first, second, third = (got.steps[lo:lo + CHUNK_SIZE].max()
                                for lo in range(0, n, CHUNK_SIZE))
        assert third < min(first, second)
        assert np.setdiff1d(np.arange(third + 1, max(first, second)),
                            got.steps).size
    for name in ("exit_point", "exit_time", "label", "steps", "ok",
                 "line_hit"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


# ---------------------------------------------------------------------------
# Exit points under an analytic map
# ---------------------------------------------------------------------------

def test_square_map_sends_disk_exits_to_poisson_kernel():
    # z -> z^2 sends exits of the unit disk from 0.5 to exits from 0.25;
    # the mapped angle law must match the Poisson kernel at 0.25.
    n = 50_000
    gen = RngStream(115).substream()
    b = wos_exit_batch(Disk(0j, 1.0), 0.5 + 0j, gen, n)
    mapped = b.exit_point ** 2
    theta = np.angle(mapped)
    bins = np.linspace(-math.pi, math.pi, 25)
    counts, _ = np.histogram(theta, bins=bins)
    rho = 0.25
    centers = (bins[:-1] + bins[1:]) / 2
    dens = (1 - rho ** 2) / (2 * math.pi * (1 - 2 * rho * np.cos(centers)
                                            + rho ** 2))
    expected = dens * (bins[1] - bins[0]) * n
    expected *= counts.sum() / expected.sum()
    assert chisquare(counts, expected).pvalue > 0.001
