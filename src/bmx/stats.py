"""Estimators and verdicts built on the simulation kernels.

All Monte Carlo estimators draw paths in fixed-size chunks, each chunk on
its own child stream, and reduce over the concatenated per-path arrays in
path order.  The chunks advance in lockstep: one kernel call runs a
contiguous group of up to GROUP_CHUNKS chunks, sharing each sweep's geometry
calls, while every chunk draws from its own stream exactly what it would
draw alone.  Results therefore depend only on (seed, stream_id, n, config),
not on the worker count, the grouping or scheduling, and estimates merged
from partitions equal the single-stream estimate exactly.

The verifiers check their hypotheses (Karafyllia's leftward rays, the
nesting of an increasing family) on the exits their estimates already
simulate, so a check draws nothing and changes no number.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (BadParameters, MaxStepsExceeded, NestingViolation,
                     TooFewTailSamples)
from .geometry import (BoundaryLabel, Domain, StarlikeVerdict,
                       check_delta_starlike)
from .hyperbolic import CircleTarget, QhConfig, quasi_hyperbolic_profile
from .rng import GROUP_CHUNKS, RngStream, chunk_ranges
from .sim import (EmConfig, ExitBatch, WosConfig, _halfplane_exit_reals,
                  em_exit_batch, wos_exit_batch)

N_BATCH_MEANS = 32
# Share of the largest exit times behind every moment's Hill tail index.
_TAIL_FRACTION = 0.05
_MIN_TAIL = 25   # the fewest of them it is fitted to
# Draws per block of the Cauchy identities, and the longest run their
# stderrs reduce at once; bounds their working memory, never changes a
# result.
_CAUCHY_BLOCK = 65_536
# numpy sums up to this many float64 values in one unrolled loop, unsplit.
_PAIRWISE_LEAF = 128


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
    domain, start, count, cfg, rng, chunks = payload
    gens = [rng.substream(ci) for ci in chunks]
    if isinstance(cfg, WosConfig):
        return wos_exit_batch(domain, start, gens, count, cfg)
    if isinstance(cfg, EmConfig):
        return em_exit_batch(domain, start, gens, count, cfg)
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
    return ExitBatch(**{
        f.name: None if getattr(batches[0], f.name) is None
        else np.concatenate([getattr(b, f.name) for b in batches])
        for f in fields(ExitBatch)})


def run_exits(domain: Domain, start: complex, n: int,
              cfg: WosConfig | EmConfig, rng: RngStream,
              workers: int = 1) -> ExitBatch:
    """n exit paths in deterministic chunks, advanced in lockstep groups
    (one kernel call per group) and merged in path order; identical output
    for any ``workers``.  The type of ``cfg`` picks the kernel:
    walk-on-spheres for a WosConfig, Euler-Maruyama for an EmConfig."""
    if n < 1:
        raise BadParameters(f"need at least one path, got n = {n}")
    if not workers >= 1:
        raise BadParameters(f"workers must be at least 1, got {workers!r}")
    ranges = chunk_ranges(n)
    payloads = [(domain, start, ranges[g[-1]][1] - ranges[g[0]][0], cfg,
                 rng, g) for g in _chunk_groups(len(ranges), workers)]
    if workers > 1 and len(payloads) > 1:
        # Imported here: the process pool loads multiprocessing, which a
        # one-worker run never needs.
        from concurrent.futures import ProcessPoolExecutor
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

def hill_tail_index(samples: np.ndarray) -> Estimate:
    """Hill estimator of the tail exponent alpha in P(X > t) ~ t^-alpha,
    from the largest ``_TAIL_FRACTION`` of the positive samples, at least
    ``_MIN_TAIL`` of them."""
    x = np.sort(np.asarray(samples, dtype=float))
    x = x[x > 0]
    k = int(math.floor(len(x) * _TAIL_FRACTION))
    if k < _MIN_TAIL:
        raise TooFewTailSamples(
            f"{k} tail samples above the cutoff; need {_MIN_TAIL}")
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


def _check_moment_args(p: float, cfg: WosConfig | EmConfig) -> None:
    if p <= 0:
        raise BadParameters("moment order must be positive")
    if isinstance(cfg, WosConfig) and not cfg.with_time:
        raise BadParameters("moment estimation needs a time-tracking kernel")


def _moment_of_batch(batch: ExitBatch, p: float,
                     cfg: WosConfig | EmConfig) -> MomentEstimate:
    tau = batch.exit_time[batch.ok]
    try:
        alpha = hill_tail_index(tau)
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


def estimate_moment(domain: Domain, start: complex, p: float, n: int,
                    rng: RngStream = RngStream(0),
                    cfg: WosConfig | EmConfig = EmConfig(),
                    workers: int = 1) -> MomentEstimate:
    """Sample mean of tau^p (batch-means stderr) plus the Hill tail index of
    tau, fitted to its largest 5%, and the finiteness verdict.  Nothing is
    truncated or winsorized: heavy tails show up in the index, not in a
    doctored mean.  When step-capped paths leave too few exits for the
    index, that raises MaxStepsExceeded."""
    _check_moment_args(p, cfg)
    batch = run_exits(domain, start, n, cfg, rng, workers)
    return _moment_of_batch(batch, p, cfg)


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
                          qh_cfg: QhConfig = QhConfig()) -> HardyEstimate:
    """Fit the growth of delta(a, F_R) in ln R over the last half of the
    schedule, and over at least its last two radii.

    One graph per refinement round, sized to the largest radius, serves the
    whole schedule in a single shortest-path solve.  Values along the
    refinement history are Richardson-extrapolated (the discretization error
    halves per round) before fitting, and made nondecreasing in R, which the
    true distance is.  A schedule that repeats a radius, or whose largest
    radius is at most 1, raises BadParameters.
    """
    r = np.asarray(sorted(float(x) for x in r_schedule))
    if len(r) < 2:
        raise BadParameters("radius schedule needs at least two entries")
    targets = [CircleTarget(float(R)) for R in r]
    # The fit needs distinct abscissae ln R, and delta / ln R a positive
    # denominator.
    if np.any(np.diff(r) == 0):
        raise BadParameters(f"radius schedule {r.tolist()} repeats a radius")
    if not r[-1] > 1:
        raise BadParameters(f"radius schedule {r.tolist()} needs a largest "
                            f"radius above 1, where ln R > 0")
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
    if not cmath.isfinite(a):
        raise BadParameters(f"basepoint a must be finite, got {a!r}")
    if not math.isfinite(split_re):
        raise BadParameters(f"split_re must be finite, got {split_re!r}")
    if not a.real < split_re:
        raise BadParameters("basepoint must lie left of the split line")
    batch = run_exits(domain, a, n, WosConfig(mark_line_re=split_re),
                      rng.child(902), workers)
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


def _tree_sum(x, leaf=np.sum):
    """np.sum(x) of a 1-D float64 array bit for bit, as ``leaf`` summed
    over subtrees of numpy's pairwise summation (Higham 1993) at most
    max(_CAUCHY_BLOCK, _PAIRWISE_LEAF) long.  numpy splits a run of n >
    _PAIRWISE_LEAF values at n//2 rounded down to a multiple of 8, a rule
    that depends on n alone, so the subtrees are known without the data."""
    n = x.size
    if n <= max(_CAUCHY_BLOCK, _PAIRWISE_LEAF):
        return leaf(x)
    half = n // 2 - (n // 2) % 8
    return _tree_sum(x[:half], leaf) + _tree_sum(x[half:], leaf)


def _std(x):
    """np.std(x, ddof=1) bit for bit, with no temporary longer than a
    subtree: the mean and the sum of squared deviations both reduce on
    numpy's own tree, then divide by n - 1 and take np.sqrt as np.var and
    np.std do."""
    n = x.size
    mean = _tree_sum(x) / n
    squares = _tree_sum(x, lambda run: np.sum(np.square(run - mean)))
    return np.sqrt(squares / (n - 1))


def _complex_mean_check(name, values, target, n) -> IdentityCheck:
    return IdentityCheck(
        name=name, target=complex(target), mean=complex(np.mean(values)),
        stderr_re=float(_std(values.real) / math.sqrt(n)),
        stderr_im=float(_std(values.imag) / math.sqrt(n)), n=n)


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

    Identity k draws from ``rng.substream(k)`` in blocks of _CAUCHY_BLOCK
    and writes each block's integrand into one n-long complex buffer that
    the three identities share; ``standard_cauchy`` fills its output one
    value at a time, so the blocks are the draws of a single call.  Working
    memory is about 16 bytes per draw, the buffer alone.  The stderrs
    reduce it one subtree of numpy's pairwise summation at a time (see
    _tree_sum): numpy's tree depends on n alone, so summing its subtrees
    in its own order gives ``np.std(ddof=1)`` bit for bit without the
    n-long temporary of the squared deviations.
    """
    gamma = complex(gamma)
    am = complex(alpha_mobius)
    for name, value in (("gamma", gamma), ("alpha_mobius", am), ("lam", lam)):
        if not cmath.isfinite(value):
            raise BadParameters(f"{name} must be finite, got {value}")
    if not gamma.imag > 0:
        raise BadParameters("gamma must lie in the upper half-plane")
    if not am.imag > 0:
        raise BadParameters("Mobius parameter needs Im > 0")
    if not 0 < alpha_power < 1:
        raise BadParameters("power exponent must lie in (0, 1)")
    if n < 2:
        raise BadParameters(f"need at least two draws for a stderr, got n = {n}")

    identities = (
        ("mobius", gamma, lambda c: (c - am) / (c - np.conj(am)),
         (gamma - am) / (gamma - np.conj(am))),
        ("power", gamma,
         lambda c: np.exp(alpha_power * (np.log(np.abs(c))
                                         + 1j * math.pi * (c < 0))),
         np.exp(alpha_power * (math.log(abs(gamma))
                               + 1j * np.angle(gamma)))),
        ("cosh", 1j,
         lambda c: np.exp(1j * lam * (2.0 / math.pi) * np.log(np.abs(c))),
         1.0 / math.cosh(lam)),
    )
    values = np.empty(n, dtype=complex)
    checks = []
    for k, (name, start, integrand, target) in enumerate(identities):
        gen = rng.substream(k)
        for lo in range(0, n, _CAUCHY_BLOCK):
            hi = min(lo + _CAUCHY_BLOCK, n)
            values[lo:hi] = integrand(_halfplane_exit_reals(start, gen, hi - lo))
        checks.append(_complex_mean_check(name, values, target, n))
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


def _meets(domain: Domain, boundary: np.ndarray) -> bool:
    """Whether the domain holds one of the boundary points beyond rounding."""
    q = boundary[domain.contains(boundary)]
    return bool(np.any(domain.boundary_distance(q) > 1e-9 * (1 + np.abs(q))))


def verify_increasing_domains(domains, start: complex, p: float, n: int,
                              rng: RngStream = RngStream(0),
                              cfg: WosConfig | EmConfig = WosConfig(
                                  with_time=True),
                              workers: int = 1,
                              growth_schedule=None) -> IncreasingReport:
    """Moment estimates along a nested family, checked nondecreasing up to
    joint CIs; optional growth floors, one per domain.

    Each pair is checked for nesting on the exits of its larger domain,
    drawing nothing.  Let D be a connected domain and E the next one, with
    the start in both.  D is the union of its points inside E, outside the
    closure of E, and on the boundary of E.  The first two parts are open
    and disjoint and the first holds the start, so if the third is empty,
    connectedness puts all of D in the first.  Hence D lies inside E
    exactly when D meets no boundary point of E.  An exit of E that D
    contains, farther than 1e-9 (1 + |q|) from the boundary of D, raises
    NestingViolation as soon as E has run; the margin absorbs rounding,
    which puts some exits of a domain equal to D inside D.  A pass means
    no exit of E showed a violation.
    """
    domains = list(domains)
    if growth_schedule is not None and len(growth_schedule) != len(domains):
        raise BadParameters(f"growth schedule has {len(growth_schedule)} "
                            f"floors for {len(domains)} domains")
    _check_moment_args(p, cfg)

    moments = []
    for k, d in enumerate(domains):
        batch = run_exits(d, start, n, cfg, rng.child(710 + k), workers)
        if k and _meets(domains[k - 1], batch.exit_point[batch.ok]):
            raise NestingViolation(f"domain {k - 1} not inside domain {k}")
        moments.append(_moment_of_batch(batch, p, cfg))

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
