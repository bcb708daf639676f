import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.stats import ks_2samp

from bmx import stats
from bmx.errors import (BadParameters, MaxStepsExceeded, NestingViolation,
                        TooFewTailSamples)
from bmx.geometry import (Annulus, BoundaryLabel, Disk, HalfPlane, KoebeSlit,
                          Rectangle, Strip, Wedge)
from bmx.rng import CHUNK_SIZE, GROUP_CHUNKS, RngStream, chunk_ranges
from bmx.sim import (EmConfig, WosConfig, _halfplane_exit_reals,
                     em_exit_batch, wos_exit_batch)
from bmx.stats import (Estimate, _chunk_groups, classify_moment,
                       doubling_ratio, estimate_moment, exit_proportion,
                       hill_tail_index, proportion_estimate, run_exits,
                       verify_cauchy_identities, verify_increasing_domains,
                       verify_karafyllia, wilson_interval)


def test_estimate_ci_is_symmetric():
    e = Estimate(value=1.0, stderr=0.1, n=100)
    lo, hi = e.ci95
    assert math.isclose(hi - 1.0, 1.96 * 0.1)
    assert math.isclose(1.0 - lo, 1.96 * 0.1)


def test_wilson_interval_basics():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert wilson_interval(0, 100)[0] == 0.0
    assert wilson_interval(100, 100)[1] > 1.0 - 1e-12
    p = proportion_estimate(25, 100)
    assert p.value == 0.25
    assert p.wilson95[0] < 0.25 < p.wilson95[1]


# ---------------------------------------------------------------------------
# Tail index
# ---------------------------------------------------------------------------

def test_hill_on_synthetic_pareto():
    gen = RngStream(201).substream()
    x = gen.pareto(1.0, 200_000) + 1.0     # P(X > t) = t^-1
    est = hill_tail_index(x)
    assert abs(est.value - 1.0) < 0.1
    assert est.n == 10_000


def test_hill_alpha_two():
    gen = RngStream(202).substream()
    u = gen.random(200_000)
    x = u ** -0.5                           # P(X > t) = t^-2
    est = hill_tail_index(x)
    assert abs(est.value - 2.0) < 0.15


def test_hill_needs_tail_mass():
    with pytest.raises(TooFewTailSamples):
        hill_tail_index(np.ones(100) + np.arange(100))


def test_hill_tail_minimum_is_25():
    # 5% of 499 samples is 24 order statistics, of 500 exactly 25.
    x = 1.0 + np.arange(500)
    with pytest.raises(TooFewTailSamples, match="24 tail samples above the "
                                                "cutoff; need 25$"):
        hill_tail_index(x[:499])
    assert hill_tail_index(x).n == 25


def test_moment_verdict_rule():
    assert classify_moment(0.5, Estimate(1.0, 0.1, 100)) == "finite"
    assert classify_moment(1.5, Estimate(1.0, 0.1, 100)) == "infinite"
    assert classify_moment(1.0, Estimate(1.0, 0.1, 100)) == "inconclusive"
    assert classify_moment(0.85, Estimate(1.0, 0.1, 100)) == "inconclusive"


# ---------------------------------------------------------------------------
# Harmonic measure
# ---------------------------------------------------------------------------

def test_harmonic_measure_annulus():
    batch = run_exits(Annulus(1.0, math.e ** 2), math.e + 0j, 50_000,
                      WosConfig(), RngStream(203))
    est = exit_proportion(BoundaryLabel.ANNULUS_INNER, batch)
    assert est.within(0.5, 3)
    assert est.excluded == 0


def test_harmonic_measure_square_side():
    batch = run_exits(Rectangle(1, 1), 0j, 50_000, WosConfig(),
                      RngStream(204))
    est = exit_proportion(BoundaryLabel.S1, batch)
    assert est.within(0.25, 3)


def test_harmonic_measure_halfplane_predicate():
    batch = run_exits(HalfPlane("north"), -1 + 1j, 50_000, EmConfig(),
                      RngStream(205))
    est = exit_proportion(lambda z, lab: z.real > 0, batch)
    assert est.within(0.25, 3)


# ---------------------------------------------------------------------------
# Exit moments
# ---------------------------------------------------------------------------

def test_wedge_moment_verdicts():
    rng = RngStream(206)
    fine = estimate_moment(Wedge(math.pi / 2), 1 + 0j, 0.5, 30_000, rng,
                           cfg=EmConfig())
    coarse = estimate_moment(Wedge(math.pi / 2), 1 + 0j, 1.5, 30_000,
                             rng.child(1), cfg=EmConfig())
    assert fine.verdict == "finite"
    assert coarse.verdict == "infinite"
    assert abs(fine.tail_index.value - 1.0) < 0.15


def test_step_capped_paths_are_named_as_the_cause():
    # With a cap of 3 steps, 1991 of 2000 paths are capped and the 9 exits
    # left cannot give a tail index: the cap is the cause, not the sample.
    with pytest.raises(MaxStepsExceeded,
                       match=r"1991 of 2000 paths .* max_steps=3") as err:
        estimate_moment(Wedge(math.pi / 2), 1 + 0j, 1.0, 2000, RngStream(0),
                        cfg=EmConfig(max_steps=3))
    assert isinstance(err.value.__cause__, TooFewTailSamples)


def test_koebe_moment_verdicts():
    rng = RngStream(207)
    fine = estimate_moment(KoebeSlit(), 1 + 0j, 0.1, 30_000, rng,
                           cfg=EmConfig())
    coarse = estimate_moment(KoebeSlit(), 1 + 0j, 0.375, 30_000, rng.child(1),
                             cfg=EmConfig())
    assert fine.verdict == "finite"
    assert coarse.verdict == "infinite"
    assert abs(fine.tail_index.value - 0.25) < 0.15


def test_moment_scale_consistency():
    # Scaling the domain by s scales tau by s^2 in law and leaves the
    # verdict unchanged.
    rng = RngStream(208)
    m1 = estimate_moment(Disk(0j, 1.0), 0j, 1.0, 20_000, rng,
                         cfg=WosConfig(with_time=True))
    m2 = estimate_moment(Disk(0j, 2.0), 0j, 1.0, 20_000, rng.child(1),
                         cfg=WosConfig(with_time=True))
    assert m1.verdict == m2.verdict == "finite"
    assert abs(m2.estimate.value / m1.estimate.value - 4.0) < 0.15
    b1 = run_exits(Disk(0j, 1.0), 0j, 20_000, WosConfig(with_time=True),
                   rng.child(2))
    b2 = run_exits(Disk(0j, 2.0), 0j, 20_000, WosConfig(with_time=True),
                   rng.child(3))
    assert ks_2samp(b1.exit_time, b2.exit_time / 4.0).pvalue > 0.01


def test_wos_and_em_moments_agree():
    rng = RngStream(209)
    a = estimate_moment(Disk(0j, 1.0), 0j, 1.0, 20_000, rng,
                        cfg=WosConfig(with_time=True))
    b = estimate_moment(Disk(0j, 1.0), 0j, 1.0, 20_000, rng.child(1),
                        cfg=EmConfig())
    joint = 3 * math.hypot(a.estimate.stderr, b.estimate.stderr)
    assert abs(a.estimate.value - b.estimate.value) <= joint + 0.01


def test_merging_is_exact():
    # Same seed => bit-identical batches regardless of how many workers the
    # chunks were scheduled on; the reduction sees the same array.  9000
    # paths are 3 chunks, so the second call runs a real two-process pool.
    rng = RngStream(210)
    b1 = run_exits(Rectangle(1, 1), 0j, 9000, WosConfig(), rng, 1)
    b2 = run_exits(Rectangle(1, 1), 0j, 9000, WosConfig(), rng, 2)
    assert np.array_equal(b1.exit_point, b2.exit_point)
    assert float(np.mean(b1.exit_point.real)) == float(
        np.mean(b2.exit_point.real))


@pytest.fixture
def inline_pool(monkeypatch):
    """A stand-in process pool that records its size and runs the tasks in
    this process; yields the list of sizes."""
    sizes = []

    class InlineExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            return map(fn, payloads)

    # run_exits imports the pool from concurrent.futures when it needs one.
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                        InlineExecutor)
    return sizes


def test_pool_never_exceeds_chunk_count(inline_pool):
    # However many workers are asked for, the pool gets at most one per
    # chunk.
    rng = RngStream(212)
    n = 2 * CHUNK_SIZE + 1
    serial = run_exits(Rectangle(1, 1), 0j, n, WosConfig(), rng, 1)
    pooled = run_exits(Rectangle(1, 1), 0j, n, WosConfig(), rng, 5000)
    assert inline_pool == [3]
    assert np.array_equal(serial.exit_point, pooled.exit_point)


@pytest.mark.parametrize("n_chunks, workers", [
    (1, 1), (3, 2), (16, 1), (17, 1), (25, 2), (40, 2), (40, 3), (5, 8)])
def test_chunk_groups_cover_every_chunk_once(n_chunks, workers):
    groups = _chunk_groups(n_chunks, workers)
    assert [ci for g in groups for ci in g] == list(range(n_chunks))
    assert all(0 < len(g) <= GROUP_CHUNKS for g in groups)
    assert len(groups) >= min(workers, n_chunks)
    if n_chunks >= workers:
        assert len(groups) % workers == 0


_LOCKSTEP_CASES = [
    pytest.param(Rectangle(2, 1), -1 + 0j,
                 WosConfig(with_time=True, mark_line_re=0.0),
                 id="wos_time_marked"),
    pytest.param(Rectangle(1, 1), 0j, WosConfig(), id="wos"),
    pytest.param(Wedge(math.pi / 2), 1 + 0j, EmConfig(), id="em"),
]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("domain, start, cfg", _LOCKSTEP_CASES)
def test_lockstep_groups_match_one_call_per_chunk(inline_pool, domain, start,
                                                  cfg, workers):
    # Chunks advanced together in one kernel call draw exactly what each
    # draws alone on its own substream, so every per-path array matches
    # the concatenation of one-chunk calls bit for bit.
    rng = RngStream(216)
    n = 2 * CHUNK_SIZE + 17
    batch = run_exits(domain, start, n, cfg, rng, workers)
    kernel = wos_exit_batch if isinstance(cfg, WosConfig) else em_exit_batch
    parts = [kernel(domain, start, rng.substream(ci), hi - lo, cfg)
             for ci, (lo, hi) in enumerate(chunk_ranges(n))]
    for name in ("exit_point", "exit_time", "label", "steps", "ok",
                 "line_hit"):
        got = getattr(batch, name)
        if getattr(parts[0], name) is None:
            assert got is None, name
            continue
        want = np.concatenate([getattr(p, name) for p in parts])
        assert got.tobytes() == want.tobytes(), name
    assert inline_pool == ([] if workers == 1 else [workers])


def test_only_walk_on_spheres_marks_a_line():
    # The marked line is a walk-on-spheres option, so an EmConfig has no
    # field for it.
    with pytest.raises(TypeError):
        EmConfig(mark_line_re=0.0)
    marked = run_exits(Strip(-1, 1), -2 + 0j, 100,
                       WosConfig(mark_line_re=0.0), RngStream(214))
    assert marked.line_hit.shape == (100,)


@pytest.mark.parametrize("workers", [0, -3])
def test_run_exits_rejects_workers_below_one(workers):
    with pytest.raises(BadParameters, match="workers"):
        run_exits(Rectangle(1, 1), 0j, 100, WosConfig(), RngStream(215),
                  workers)


# ---------------------------------------------------------------------------
# Inequality and identity verifiers
# ---------------------------------------------------------------------------

def test_karafyllia_halfplane_targets():
    rep = verify_karafyllia(HalfPlane("north"), -1 + 1j, 0.0, 50_000,
                            RngStream(211))
    assert rep.starlike.passed
    assert rep.nu_hat.within(0.5, 3)
    assert rep.nu.within(0.25, 3)
    assert abs(rep.ratio.value - 2.0) <= 0.1


def test_doubling_ratio_stderr_from_counts():
    # 250 of 1000 paths exit right of the line, 500 hit it (a superset):
    # R = 2 and Var(ln R) = (1/nu - 1/nu_hat)/m = (4 - 2)/1000.
    r = doubling_ratio(proportion_estimate(250, 1000),
                       proportion_estimate(500, 1000))
    assert r.value == 2.0 and r.n == 1000
    assert math.isclose(r.stderr, 2.0 * math.sqrt(0.002), rel_tol=1e-12)
    # Nested multinomial cells (right, hit but left, no hit) with those
    # probabilities give a ratio spread that matches the formula.
    gen = np.random.default_rng(5)
    cells = gen.multinomial(1000, [0.25, 0.25, 0.5], size=20_000)
    ratios = (cells[:, 0] + cells[:, 1]) / cells[:, 0]
    assert abs(np.std(ratios) / r.stderr - 1) < 0.05
    # Equal counts leave no spread; no right exits give an infinite ratio.
    same = doubling_ratio(proportion_estimate(300, 1000),
                          proportion_estimate(300, 1000))
    assert same.value == 1.0 and same.stderr == 0.0
    none = doubling_ratio(proportion_estimate(0, 1000),
                          proportion_estimate(10, 1000))
    assert math.isinf(none.value) and math.isinf(none.stderr)


@pytest.mark.parametrize("split_re", [math.nan, math.inf, -math.inf])
def test_karafyllia_rejects_non_finite_split_line(monkeypatch, split_re):
    # A NaN line was reported as "basepoint must lie left of the split
    # line", and an infinite one ran every path for a ratio of inf.
    def no_paths(*args, **kwargs):
        raise AssertionError("a path ran before validation")

    monkeypatch.setattr(stats, "run_exits", no_paths)
    with pytest.raises(BadParameters, match="split_re must be finite"):
        verify_karafyllia(HalfPlane("north"), -1 + 1j, split_re, 1000,
                          RngStream(232))


@pytest.mark.parametrize("a", [complex(-math.inf, 1), complex(math.nan, 1)])
def test_karafyllia_rejects_non_finite_basepoint(monkeypatch, a):
    # -inf + 1j ran every path for a ratio of inf, and nan + 1j was
    # reported as "basepoint must lie left of the split line".
    def no_paths(*args, **kwargs):
        raise AssertionError("a path ran before validation")

    monkeypatch.setattr(stats, "run_exits", no_paths)
    with pytest.raises(BadParameters, match=re.escape(
            f"basepoint a must be finite, got {a!r}")):
        verify_karafyllia(HalfPlane("north"), a, 0.0, 1000, RngStream(232))


def test_karafyllia_strip_ratio_two():
    rep = verify_karafyllia(Strip(-1, 1), -2 + 0j, 0.0, 120_000,
                            RngStream(212))
    assert abs(rep.ratio.value - 2.0) <= 3 * rep.ratio.stderr + 0.05
    assert rep.ratio.value <= 2.0 + 3 * rep.ratio.stderr


def test_karafyllia_bound_on_battery():
    battery = [(HalfPlane("north"), -1 + 1j), (Strip(-1, 1), -2 + 0j),
               (Strip(-math.pi, math.pi), -2 + 0j),
               (HalfPlane("west"), -2 + 0j)]
    for i, (d, a) in enumerate(battery):
        rep = verify_karafyllia(d, a, a.real + 1.0, 30_000,
                                RngStream(213 + i))
        assert rep.ratio.value <= 2.0 + 3 * rep.ratio.stderr


def test_karafyllia_flags_non_starlike():
    rep = verify_karafyllia(Wedge(math.pi / 2), 1 + 0j, 2.0, 5_000,
                            RngStream(220))
    assert not rep.starlike.passed
    assert 0 <= rep.nu.value <= 1


def test_karafyllia_flags_the_koebe_slit():
    # The leftward ray of every real point right of -1/4 meets the slit.
    # Those points are a null set, so no interior sample finds them, but
    # each exit on the slit shifts right into the domain.
    rep = verify_karafyllia(KoebeSlit(), -2 + 1j, -1.0, 100_000,
                            RngStream(1005))
    assert not rep.starlike.passed
    w, p = rep.starlike.witness, rep.starlike.exit_point
    assert w.imag == p.imag == 0 and p.real <= -0.25 < w.real
    # Without the hypothesis the ratio is not bounded by 2; it is 3.3955.
    assert abs(rep.ratio.value - 3.3955) <= 3 * rep.ratio.stderr


def test_cauchy_identity_targets():
    checks = verify_cauchy_identities(2j, 1j, 0.5, 1.0, 400_000,
                                      RngStream(221))
    by_name = {c.name: c for c in checks}
    assert np.isclose(by_name["mobius"].target, 1 / 3)
    assert np.isclose(by_name["power"].target,
                      np.sqrt(2) * np.exp(1j * math.pi / 4))
    assert np.isclose(by_name["cosh"].target, 1 / math.cosh(1.0))
    for c in checks:
        assert c.sigmas_off <= 4


def test_cauchy_identity_lambda_zero_exact():
    checks = verify_cauchy_identities(1j, 1j, 0.5, 0.0, 10_000,
                                      RngStream(222))
    cosh = [c for c in checks if c.name == "cosh"][0]
    assert cosh.mean == 1.0 + 0j
    assert cosh.target == 1.0 + 0j


def test_cauchy_power_target_from_gamma_i():
    checks = verify_cauchy_identities(1j, 2j, 0.5, 0.5, 200_000,
                                      RngStream(223))
    power = [c for c in checks if c.name == "power"][0]
    assert np.isclose(power.target, np.exp(1j * math.pi / 4))
    assert power.sigmas_off <= 4


def test_cauchy_blocks_equal_one_shot_draws():
    # A partial last block: the blocked draws and whole-array reductions
    # give every field of the one-shot formulas exactly.
    gamma, am, ap, lam = 0.3 + 1.7j, -2 + 0.5j, 0.25, 2.5
    n = stats._CAUCHY_BLOCK + 3
    rng = RngStream(229)
    c0, c1, c2 = (_halfplane_exit_reals(start, rng.substream(k), n)
                  for k, start in enumerate((gamma, gamma, 1j)))
    expected = [
        ("mobius", (c0 - am) / (c0 - np.conj(am)),
         (gamma - am) / (gamma - np.conj(am))),
        ("power", np.exp(ap * (np.log(np.abs(c1)) + 1j * math.pi * (c1 < 0))),
         np.exp(ap * (math.log(abs(gamma)) + 1j * np.angle(gamma)))),
        ("cosh", np.exp(1j * lam * (2.0 / math.pi) * np.log(np.abs(c2))),
         1.0 / math.cosh(lam)),
    ]
    checks = verify_cauchy_identities(gamma, am, ap, lam, n, rng)
    assert [c.name for c in checks] == [name for name, _, _ in expected]
    for c, (name, values, target) in zip(checks, expected):
        assert c.target == complex(target)
        assert c.mean == complex(np.mean(values))
        assert c.stderr_re == float(np.std(values.real, ddof=1) / math.sqrt(n))
        assert c.stderr_im == float(np.std(values.imag, ddof=1) / math.sqrt(n))
        assert c.n == n


def test_cauchy_memory_is_bounded_per_draw():
    # Each further draw costs the shared complex buffer's 16 B and no more;
    # np.std's real temporary made it 24 B, and five full-length complex
    # temporaries per identity 80 B.  The blocks' own temporaries do not
    # grow with n, so the slope between two sizes leaves them out.
    peaks = []
    for n in (400_000, 2_000_000):
        tracemalloc.start()
        try:
            verify_cauchy_identities(2j, 1j, 0.5, 1.0, n, RngStream(230))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 17 * 1_600_000


@pytest.mark.parametrize("block", [stats._CAUCHY_BLOCK, 97, 1000])
def test_tree_sum_and_std_are_numpys_bit_for_bit(monkeypatch, block):
    # numpy's pairwise-summation tree depends on n alone, so the sum over
    # its subtrees is np.sum and _std is np.std(ddof=1) exactly: on
    # contiguous arrays and on the strided real and imaginary views, with
    # leaves shorter or longer than numpy's unsplit 128, around one block
    # and three, and at 2 block + 22, where (n // 2) % 8 is not 0 and
    # numpy's first split rounds down.
    monkeypatch.setattr(stats, "_CAUCHY_BLOCK", block)
    gen = np.random.default_rng(block)
    for n in (1, 2, 8, 9, 127, 128, 129, 1000, 4100, block - 1, block,
              block + 1, 3 * block + 5, 2 * block + 22):
        z = gen.standard_cauchy(n) + 1j * gen.standard_cauchy(n)
        for x in (z.real, z.imag, z.real.copy()):
            assert stats._tree_sum(x) == np.sum(x), n
            if n == 1:   # no spread: nan, as from np.std
                with np.errstate(all="ignore"):
                    assert math.isnan(stats._std(x))
                continue
            assert stats._std(x) == np.std(x, ddof=1), n


@pytest.mark.parametrize("gamma, am, lam, name", [
    (complex(math.inf, 1), 1j, 1.0, "gamma"),
    (complex(math.nan, 1), 1j, 1.0, "gamma"),
    (1j, complex(math.nan, 1), 1.0, "alpha_mobius"),
    (1j, complex(1, math.inf), 1.0, "alpha_mobius"),
    (1j, 1j, math.nan, "lam"),
    (1j, 1j, math.inf, "lam"),
])
def test_cauchy_non_finite_parameters_named(gamma, am, lam, name):
    with pytest.raises(BadParameters, match=f"{name} must be finite"):
        verify_cauchy_identities(gamma, am, 0.5, lam, 1000, RngStream(231))


def test_increasing_domains_disks():
    rep = verify_increasing_domains([Disk(0j, 1.0), Disk(0j, 2.0)], 0j, 1.0,
                                    20_000, RngStream(224))
    v = [m.estimate.value for m in rep.moments]
    assert abs(v[0] - 0.5) < 0.02
    assert abs(v[1] - 2.0) < 0.06
    assert rep.monotone_ok
    rep2 = verify_increasing_domains([Disk(0j, 1.0), Disk(0j, 1.0)], 0j, 1.0,
                                     20_000, RngStream(225))
    assert rep2.monotone_ok


def test_increasing_domains_rejects_bad_nesting():
    with pytest.raises(NestingViolation):
        verify_increasing_domains([Disk(0j, 2.0), Disk(0j, 1.0)], 0j, 1.0,
                                  1000, RngStream(226))


@pytest.mark.parametrize("p, cfg, match", [
    (1.0, WosConfig(), "needs a time-tracking kernel"),
    (0.0, WosConfig(with_time=True), "moment order must be positive"),
    (-1.0, EmConfig(), "moment order must be positive"),
])
def test_increasing_domains_validates_before_any_path(monkeypatch, p, cfg,
                                                      match):
    def no_paths(*args, **kwargs):
        raise AssertionError("a path ran before validation")

    monkeypatch.setattr(stats, "run_exits", no_paths)
    with pytest.raises(BadParameters, match=match):
        verify_increasing_domains([Disk(0j, 1.0), Disk(0j, 2.0)], 0j, p,
                                  1000, RngStream(228), cfg=cfg)


@pytest.mark.parametrize("growth", [[0.1], [0.1, 0.2, 0.3]])
def test_increasing_domains_growth_schedule_length(growth):
    # zip would gate only the first domains; a schedule of another length
    # is an error before any path runs.
    with pytest.raises(BadParameters,
                       match=f"{len(growth)} floors for 2 domains"):
        verify_increasing_domains([Disk(0j, 1.0), Disk(0j, 2.0)], 0j, 1.0,
                                  1000, RngStream(227),
                                  growth_schedule=growth)
