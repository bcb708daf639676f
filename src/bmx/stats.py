"""Estimators and verdicts built on the simulation kernels.

All Monte Carlo estimators draw paths in fixed-size chunks, each chunk on
its own child stream, and reduce over the concatenated per-path arrays in
path order.  The chunks advance in lockstep: one kernel call runs a
contiguous group of up to GROUP_CHUNKS chunks, sharing each sweep's geometry
calls, while every chunk draws from its own stream exactly what it would
draw alone.  Results therefore depend only on (seed, stream_id, n, config),
not on the worker count, the grouping or scheduling, and estimates merged
from partitions equal the single-stream estimate exactly.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (BadParameters, MaxStepsExceeded, NestingViolation,
                     TooFewTailSamples)
from .geometry import (BoundaryLabel, Domain, StarlikeVerdict,
                       check_delta_starlike, sample_interior)
from .hyperbolic import CircleTarget, QhConfig, quasi_hyperbolic_profile
from .rng import GROUP_CHUNKS, RngStream, chunk_ranges
from .sim import (EmConfig, ExitBatch, WosConfig, _halfplane_exit_reals,
                  em_exit_batch, wos_exit_batch)

N_BATCH_MEANS = 32
# Interior points sampled to check nesting before an increasing-domains run.
CONTAINMENT_SAMPLES = 512


# ---------------------------------------------------------------------------
# Estimate containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Estimate:
    """Point estimate with standard error; ci95 is value +- 1.96 stderr, or
    the whole line when the stderr is infinite."""

    value: float
    stderr: float
    n: int

    @property
    def ci95(self) -> tuple[float, float]:
        if math.isinf(self.stderr):
            return (-math.inf, math.inf)
        return (self.value - 1.96 * self.stderr, self.value + 1.96 * self.stderr)

    def within(self, target: float, sigmas: float = 3.0) -> bool:
        return abs(self.value - target) <= sigmas * max(self.stderr, 1e-300)


def wilson_interval(k: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n == 0:
        return (0.0, 1.0)
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class ProportionEstimate(Estimate):
    """Binomial proportion; carries the Wilson interval alongside the
    symmetric ci95 and the count of excluded (step-capped) paths."""

    wilson95: tuple[float, float] = (0.0, 1.0)
    excluded: int = 0


def proportion_estimate(k: int, n: int, excluded: int = 0) -> ProportionEstimate:
    p = k / n if n else 0.0
    se = math.sqrt(p * (1 - p) / n) if n else 0.0
    return ProportionEstimate(value=p, stderr=se, n=n,
                              wilson95=wilson_interval(k, n), excluded=excluded)


# ---------------------------------------------------------------------------
# Chunked, worker-independent path generation
# ---------------------------------------------------------------------------

def _group_task(payload):
    (domain, start, count, cfg, seed, stream_id, chunks, line) = payload
    stream = RngStream(seed, stream_id)
    gens = [stream.substream(ci) for ci in chunks]
    starts = np.full(count, complex(start))
    if isinstance(cfg, WosConfig):
        return wos_exit_batch(domain, starts, gens, cfg, mark_line_re=line)
    if isinstance(cfg, EmConfig):
        return em_exit_batch(domain, starts, gens, cfg)
    raise BadParameters(f"no kernel takes a {type(cfg).__name__} config")


def _chunk_groups(n_chunks: int, workers: int) -> list[range]:
    """Contiguous runs of chunk indices, each at most GROUP_CHUNKS long and
    as even as can be; their count is a multiple of ``workers`` where there
    are chunks enough, so every worker gets the same number of groups."""
    fewest = -(-n_chunks // GROUP_CHUNKS)
    count = min(n_chunks, -(-fewest // workers) * workers)
    cuts = [n_chunks * k // count for k in range(count + 1)]
    return [range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]


def _concat_batches(batches):
    def joined(name):
        if getattr(batches[0], name) is None:
            return None
        return np.concatenate([getattr(b, name) for b in batches])

    return ExitBatch(
        exit_point=np.concatenate([b.exit_point for b in batches]),
        exit_time=joined("exit_time"),
        label=np.concatenate([b.label for b in batches]),
        steps=np.concatenate([b.steps for b in batches]),
        ok=np.concatenate([b.ok for b in batches]),
        line_hit=joined("line_hit"),
    )


def run_exits(domain: Domain, start: complex, n: int,
              cfg: WosConfig | EmConfig, rng: RngStream, workers: int = 1,
              mark_line_re: float | None = None) -> ExitBatch:
    """n exit paths in deterministic chunks, advanced in lockstep groups
    (one kernel call per group) and merged in path order; identical output
    for any ``workers``.  The type of ``cfg`` picks the kernel:
    walk-on-spheres (which alone takes ``mark_line_re``) for a WosConfig,
    Euler-Maruyama for an EmConfig."""
    if n < 1:
        raise BadParameters(f"need at least one path, got n = {n}")
    if isinstance(cfg, EmConfig) and mark_line_re is not None:
        raise BadParameters("only walk-on-spheres marks a line")
    ranges = chunk_ranges(n)
    payloads = [(domain, start, ranges[g[-1]][1] - ranges[g[0]][0], cfg,
                 rng.seed, rng.stream_id, g, mark_line_re)
                for g in _chunk_groups(len(ranges), max(workers, 1))]
    if workers > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(
                max_workers=min(workers, len(payloads))) as pool:
            parts = list(pool.map(_group_task, payloads))
    else:
        parts = [_group_task(p) for p in payloads]
    return _concat_batches(parts)


# ---------------------------------------------------------------------------
# Harmonic measure
# ---------------------------------------------------------------------------

def exit_proportion(region, batch: ExitBatch) -> ProportionEstimate:
    """Share of the ok paths whose exit lies in ``region``: a BoundaryLabel
    or a callable (exit_points, labels) -> bool array, e.g.
    ``lambda z, lab: z.real > 0``.  Step-capped paths are left out of both
    counts and reported in ``excluded``."""
    if isinstance(region, BoundaryLabel):
        hits = batch.label == int(region)
    else:
        hits = np.asarray(region(batch.exit_point, batch.label), dtype=bool)
    ok = batch.ok
    return proportion_estimate(int(np.sum(hits & ok)), int(np.sum(ok)),
                               excluded=batch.n_excluded)


# ---------------------------------------------------------------------------
# Tail index and exit moments
# ---------------------------------------------------------------------------

def hill_tail_index(samples: np.ndarray, top_fraction: float,
                    min_tail: int = 500) -> Estimate:
    """Hill estimator of the tail exponent alpha in P(X > t) ~ t^-alpha,
    from the order statistics above the (1 - top_fraction) quantile."""
    if not 0 < top_fraction < 1:
        raise BadParameters("top_fraction must lie in (0, 1)")
    x = np.sort(np.asarray(samples, dtype=float))
    x = x[x > 0]
    k = int(math.floor(len(x) * top_fraction))
    if k < min_tail:
        raise TooFewTailSamples(
            f"{k} tail samples above the cutoff; need {min_tail}")
    tail = x[-k:]
    threshold = x[-k - 1] if len(x) > k else tail[0]
    alpha = k / float(np.sum(np.log(tail / threshold)))
    return Estimate(value=alpha, stderr=alpha / math.sqrt(k), n=k)


VERDICT_FINITE = "finite"
VERDICT_INFINITE = "infinite"
VERDICT_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class MomentEstimate:
    """Monte Carlo E[tau^p] with a tail-index finiteness verdict.

    The verdict separates the Hill index from p at two standard errors:
    finite needs alpha - 2 se > p, infinite needs alpha + 2 se < p.
    """

    p: float
    estimate: Estimate
    tail_index: Estimate
    verdict: str
    excluded: int = 0


def _batch_means_stderr(values: np.ndarray) -> float:
    m = len(values)
    if m < 2:
        return float("inf")
    k = min(N_BATCH_MEANS, m)
    groups = np.array_split(values, k)
    means = np.array([g.mean() for g in groups])
    return float(np.std(means, ddof=1) / math.sqrt(k))


def classify_moment(p: float, alpha: Estimate) -> str:
    if alpha.value - 2 * alpha.stderr > p:
        return VERDICT_FINITE
    if alpha.value + 2 * alpha.stderr < p:
        return VERDICT_INFINITE
    return VERDICT_INCONCLUSIVE


def estimate_moment(domain: Domain, start: complex, p: float, n: int,
                    rng: RngStream = RngStream(0),
                    cfg: WosConfig | EmConfig = EmConfig(), workers: int = 1,
                    top_fraction: float = 0.05) -> MomentEstimate:
    """Sample mean of tau^p (batch-means stderr) plus the Hill tail index of
    tau and the finiteness verdict.  Nothing is truncated or winsorized:
    heavy tails show up in the index, not in a doctored mean.  When
    step-capped paths leave too few exits for the index, that raises
    MaxStepsExceeded."""
    if p <= 0:
        raise BadParameters("moment order must be positive")
    if isinstance(cfg, WosConfig) and not cfg.with_time:
        raise BadParameters("moment estimation needs a time-tracking kernel")
    batch = run_exits(domain, start, n, cfg, rng, workers)
    tau = batch.exit_time[batch.ok]
    try:
        alpha = hill_tail_index(tau, top_fraction,
                                min_tail=min(500, max(25, len(tau) // 20)))
    except TooFewTailSamples as err:
        if not batch.n_excluded:
            raise
        raise MaxStepsExceeded(
            f"{batch.n_excluded} of {len(batch)} paths hit the step cap "
            f"max_steps={cfg.max_steps}; the {len(tau)} exits left give "
            f"{err}") from err
    powered = tau ** p
    est = Estimate(value=float(np.mean(powered)),
                   stderr=_batch_means_stderr(powered), n=len(powered))
    return MomentEstimate(p=p, estimate=est, tail_index=alpha,
                          verdict=classify_moment(p, alpha),
                          excluded=batch.n_excluded)


# ---------------------------------------------------------------------------
# Hardy number via quasi-hyperbolic growth
# ---------------------------------------------------------------------------

CLASS_FINITE = "finite"
CLASS_INFINITE = "infinite"
INFINITE_GROWTH_THRESHOLD = 100.0


@dataclass(frozen=True)
class HardyEstimate:
    """Growth rate of the quasi-hyperbolic distance to circles of radius R
    about the basepoint, fitted against ln R.

    ``slope_bounds`` is [slope/2, 2*slope], the interval guaranteed to
    contain the Hardy number by the metric comparison; the classification
    flips to infinite when delta / ln R blows past the threshold and is
    still growing at the largest radius.  ``rounds`` counts the graph
    refinement rounds behind the values, and ``node_budget_hit`` is True
    when ``max_nodes`` ended the refinement early.
    """

    a: complex
    r_schedule: tuple
    delta_values: tuple
    slope: float
    slope_bounds: tuple
    classification: str
    rounds: int
    node_budget_hit: bool

    def contains(self, h: float) -> bool:
        return self.slope_bounds[0] <= h <= self.slope_bounds[1]


def estimate_hardy_number(domain: Domain, a: complex, r_schedule,
                          qh_cfg: QhConfig | None = None) -> HardyEstimate:
    """Fit the growth of delta(a, F_R) in ln R over the last half of the
    schedule, and over at least its last two radii.

    One union graph sized to the largest radius serves the whole schedule in
    a single shortest-path solve.  Values along the refinement history are
    Richardson-extrapolated (the discretization error of the union graph
    halves per round) before fitting, and made nondecreasing in R, which the
    true distance is.
    """
    r = np.asarray(sorted(float(x) for x in r_schedule))
    if len(r) < 2:
        raise BadParameters("radius schedule needs at least two entries")
    if qh_cfg is None:
        qh_cfg = QhConfig(rel_floor=0.02)
    targets = [CircleTarget(float(R)) for R in r]
    values, history, budget_hit = quasi_hyperbolic_profile(
        domain, complex(a), targets, qh_cfg)
    if len(history) >= 2:
        extrap = 2.0 * history[-1] - history[-2]
        values = np.maximum(extrap, 0.5 * history[-1])
    deltas = np.maximum.accumulate(values)

    ratio = deltas[-1] / math.log(r[-1])
    growing = len(deltas) < 2 or deltas[-1] > deltas[-2] * 1.05
    if ratio > INFINITE_GROWTH_THRESHOLD and growing:
        slope, bounds, cls = math.inf, (math.inf, math.inf), CLASS_INFINITE
    else:
        half = min(len(r) // 2, len(r) - 2)   # at least two points
        slope = float(np.polyfit(np.log(r[half:]), deltas[half:], 1)[0])
        bounds, cls = (slope / 2.0, 2.0 * slope), CLASS_FINITE
    return HardyEstimate(a=complex(a), r_schedule=tuple(r),
                         delta_values=tuple(deltas), slope=slope,
                         slope_bounds=bounds, classification=cls,
                         rounds=len(history), node_budget_hit=budget_hit)


# ---------------------------------------------------------------------------
# Harmonic-measure doubling inequality on leftward-ray domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KarafylliaReport:
    """Estimates of nu (exit right of the line) and nu_hat (hit the line
    before the exit), both from the same paths, with their ratio."""

    nu: ProportionEstimate
    nu_hat: ProportionEstimate
    ratio: Estimate
    starlike: StarlikeVerdict


def doubling_ratio(nu: ProportionEstimate,
                   nu_hat: ProportionEstimate) -> Estimate:
    """R = nu_hat / nu from the same m paths, with its delta-method stderr.

    Every path that exits right of the line has hit it, so the counts are
    nested multinomial cells and Cov(nu, nu_hat) = nu (1 - nu_hat) / m,
    which gives Var(ln R) = (1/nu - 1/nu_hat) / m.
    """
    m = nu.n
    if nu.value <= 0:
        return Estimate(value=math.inf, stderr=math.inf, n=m)
    ratio = nu_hat.value / nu.value
    var = max(1.0 / nu.value - 1.0 / nu_hat.value, 0.0) / m
    return Estimate(value=ratio, stderr=ratio * math.sqrt(var), n=m)


def verify_karafyllia(domain: Domain, a: complex, split_re: float, n: int,
                      rng: RngStream = RngStream(0),
                      workers: int = 1) -> KarafylliaReport:
    """Estimate nu = P(Re(B_tau) > r) and nu_hat = P(B hits {Re = r} before
    tau), and their ratio with a delta-method CI.

    One walk-on-spheres run marks each path's arrival at the line and lets
    it go on to its exit, so both proportions are shares of the same ok
    paths (step-capped paths are excluded from both).

    The leftward-ray property is then checked, drawing nothing, at the ok
    paths' exit points (see check_delta_starlike); a failure is recorded on
    the report, not raised (the inequality then has no guarantee).
    """
    a = complex(a)
    if not a.real < split_re:
        raise BadParameters("basepoint must lie left of the split line")
    batch = run_exits(domain, a, n, WosConfig(), rng.child(902), workers,
                      mark_line_re=split_re)
    verdict = check_delta_starlike(domain, batch.exit_point[batch.ok])
    nu = exit_proportion(lambda z, lab: z.real > split_re, batch)
    nu_hat = proportion_estimate(int(np.sum(batch.line_hit & batch.ok)), nu.n,
                                 excluded=nu.excluded)
    return KarafylliaReport(nu=nu, nu_hat=nu_hat,
                            ratio=doubling_ratio(nu, nu_hat),
                            starlike=verdict)


# ---------------------------------------------------------------------------
# Cauchy identities by optional stopping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityCheck:
    """One sample-mean-vs-closed-form comparison."""

    name: str
    target: complex
    mean: complex
    stderr_re: float
    stderr_im: float
    n: int

    @property
    def sigmas_off(self) -> float:
        off_re = abs(self.mean.real - self.target.real) / max(self.stderr_re, 1e-300)
        off_im = abs(self.mean.imag - self.target.imag) / max(self.stderr_im, 1e-300)
        return max(off_re, off_im)


def _complex_mean_check(name, values, target, n) -> IdentityCheck:
    return IdentityCheck(
        name=name, target=complex(target), mean=complex(np.mean(values)),
        stderr_re=float(np.std(values.real, ddof=1) / math.sqrt(n)),
        stderr_im=float(np.std(values.imag, ddof=1) / math.sqrt(n)), n=n)


def verify_cauchy_identities(gamma: complex, alpha_mobius: complex,
                             alpha_power: float, lam: float, n: int,
                             rng: RngStream = RngStream(0)) -> list[IdentityCheck]:
    """Monte Carlo checks of three Cauchy-distribution identities.

    With C ~ Cauchy(Re gamma, Im gamma) (the exit law of the upper
    half-plane from gamma):
      * E[(C - alpha)/(C - conj(alpha))] = (gamma - alpha)/(gamma - conj(alpha)),
        a bounded (unit-circle-valued) integrand;
      * E[C^alpha] = gamma^alpha for alpha in (0, 1), powers by the principal
        branch with Arg in (-pi, pi] (so negative reals carry Arg = pi);
      * E[exp(i lambda (2/pi) ln |C1|)] = 1/cosh(lambda) for standard C1.
    """
    gamma = complex(gamma)
    if not gamma.imag > 0:
        raise BadParameters("gamma must lie in the upper half-plane")
    if not complex(alpha_mobius).imag > 0:
        raise BadParameters("Mobius parameter needs Im > 0")
    if not 0 < alpha_power < 1:
        raise BadParameters("power exponent must lie in (0, 1)")
    if n < 2:
        raise BadParameters(f"need at least two draws for a stderr, got n = {n}")

    checks = []
    c = _halfplane_exit_reals(gamma, rng.substream(0), n)
    am = complex(alpha_mobius)
    mobius_vals = (c - am) / (c - np.conj(am))
    checks.append(_complex_mean_check(
        "mobius", mobius_vals, (gamma - am) / (gamma - np.conj(am)), n))

    c = _halfplane_exit_reals(gamma, rng.substream(1), n)
    powers = np.exp(alpha_power * (np.log(np.abs(c))
                                   + 1j * math.pi * (c < 0)))
    target = np.exp(alpha_power * (math.log(abs(gamma))
                                   + 1j * np.angle(gamma)))
    checks.append(_complex_mean_check("power", powers, target, n))

    c1 = _halfplane_exit_reals(1j, rng.substream(2), n)
    cf_vals = np.exp(1j * lam * (2.0 / math.pi) * np.log(np.abs(c1)))
    checks.append(_complex_mean_check("cosh", cf_vals, 1.0 / math.cosh(lam), n))
    return checks


# ---------------------------------------------------------------------------
# Increasing domain sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IncreasingReport:
    """Per-domain moment estimates along a nested sequence."""

    moments: tuple
    monotone_ok: bool
    growth_ok: tuple | None = None


def verify_increasing_domains(domains, start: complex, p: float, n: int,
                              rng: RngStream = RngStream(0),
                              cfg: WosConfig | EmConfig = WosConfig(
                                  with_time=True),
                              workers: int = 1,
                              growth_schedule=None) -> IncreasingReport:
    """Moment estimates along a nested family, checked nondecreasing up to
    joint CIs; optional growth floors, one per domain.

    Pairwise nesting is verified by containment sampling at
    CONTAINMENT_SAMPLES points before any simulation; a violation raises
    NestingViolation.
    """
    domains = list(domains)
    if growth_schedule is not None and len(growth_schedule) != len(domains):
        raise BadParameters(f"growth schedule has {len(growth_schedule)} "
                            f"floors for {len(domains)} domains")
    for k in range(len(domains) - 1):
        pts = sample_interior(domains[k], rng.child(700 + k).generator(),
                              CONTAINMENT_SAMPLES)
        if not np.all(domains[k + 1].contains(pts)):
            raise NestingViolation(f"domain {k} not inside domain {k + 1}")

    moments = []
    for k, d in enumerate(domains):
        moments.append(estimate_moment(d, start, p, n, rng.child(710 + k),
                                       cfg=cfg, workers=workers))

    monotone = True
    for prev, nxt in zip(moments, moments[1:]):
        joint = 2.0 * math.hypot(prev.estimate.stderr, nxt.estimate.stderr)
        if nxt.estimate.value < prev.estimate.value - joint:
            monotone = False

    growth = None
    if growth_schedule is not None:
        growth = tuple(
            bool(m.estimate.value - 2 * m.estimate.stderr > float(thresh))
            for m, thresh in zip(moments, growth_schedule))
    return IncreasingReport(moments=tuple(moments), monotone_ok=monotone,
                            growth_ok=growth)
