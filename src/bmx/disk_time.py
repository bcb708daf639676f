"""Exact-in-law sampling of the exit time of planar Brownian motion from the
unit disk, started at the center.

The survival function is the classical Dirichlet heat kernel series

    S(t) = sum_k c_k exp(-j_k^2 t / 2),   c_k = 2 / (j_k J_1(j_k)),

with j_k the positive zeros of J_0.  Fifty terms resolve S to machine
precision for t >= 0.05; below that the series needs many more terms, so the
left tail switches to the saddlepoint-form asymptotic
F(t) ~ A t^{-1/2} exp(-1/(2t)), with A fixed by continuity at the switch
point.  Sampling is by inverse CDF: a monotone-cubic table over 4096 knots
covers the bulk, the left tail is inverted by bisection on the asymptotic
form, and the right tail (where only the leading series term survives)
analytically.  A draw u finds its table interval without a binary search:
the bit pattern of its odds u / (1 - u) indexes a bucket over logit(u),
fine enough that a bucket holds at most one knot, and one compare with
that knot gives ``searchsorted(u_knots, u, "right") - 1`` exactly.

The Bessel values j_k and J_1(j_k) are pinned module constants and the
monotone cubic is a port of scipy's (``_MonotoneCubic``), so this module
needs numpy only.  The table is built once per process and checksummed; the
checksum pins the build from those constants bit for bit, so a change in
the knot layout, the series or the float arithmetic behind them is caught
loudly.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

N_TERMS = 50
T_SWITCH = 0.05      # below: saddlepoint form; above: 50-term series
T_SINGLE = 3.0       # above: only the leading series term survives in float64
N_KNOTS = 4096
_ODDS_BITS = 9       # mantissa bits per logit bucket: one knot at most

# The first N_TERMS positive zeros j_k of J_0 and the values J_1(j_k), as
# scipy.special's jn_zeros(0, 50) and j1 give them; each repr round-trips
# to the same float64.
J0_ZEROS = (
    2.4048255576957724, 5.520078110286311, 8.653727912911013,
    11.791534439014281, 14.930917708487787, 18.071063967910924,
    21.21163662987926, 24.352471530749302, 27.493479132040253,
    30.634606468431976, 33.77582021357357, 36.917098353664045,
    40.05842576462824, 43.19979171317673, 46.341188371661815,
    49.482609897397815, 52.624051841115, 55.76551075501998, 58.90698392608094,
    62.048469190227166, 65.18996480020687, 68.3314693298568, 71.47298160359374,
    74.61450064370183, 77.75602563038805, 80.89755587113763, 84.0390907769382,
    87.18062984364116, 90.32217263721049, 93.46371878194478, 96.60526795099626,
    99.7468198586806, 102.88837425419479, 106.02993091645162,
    109.17148964980538, 112.3130502804949, 115.45461265366694,
    118.59617663087253, 121.73774208795096, 124.87930891323295,
    128.02087700600833, 131.1624462752139, 134.30401663830546,
    137.44558802028428, 140.58716035285428, 143.72873357368974,
    146.87030762579664, 150.01188245695477, 153.15345801922788,
    156.29503426853353
)
J1_AT_ZEROS = (
    0.5191474972894669, -0.34026480655836827, 0.271452299928382,
    -0.23245983136472478, 0.20654643307799597, -0.18772880304043946,
    0.17326589422922983, -0.16170155068925002, 0.15218121377059457,
    -0.14416597768637315, 0.13729694340850299, -0.13132462666866793,
    0.12606949712727342, -0.12139862477175016, 0.11721119889066538,
    -0.11342919261642984, 0.10999114304627802, -0.10684788825471286,
    0.1039595728693621, -0.1012934989339433, 0.09882255380119995,
    -0.09652404046467991, 0.09437879398467641, -0.09237050482355331,
    0.09048519416295768, -0.0887108024409698, 0.0870368633240976,
    -0.08545424291091486, 0.08395492928345757, -0.08253186130830983,
    0.08117878831953207, -0.07989015430874276, 0.07866100171930493,
    -0.07748689103965989, 0.07636383321829138, -0.07528823255205501,
    0.0742568381822715, -0.07326670270620797, 0.07231514670236977,
    -0.07139972819623201, 0.07051821627333571, -0.06966856819003345,
    0.06884890944684943, -0.06805751638168503, 0.06729280091473991,
    -0.06655329713771117, 0.0658376494894271, -0.065144602300793,
    0.06447299052550669, -0.06382173150081485
)


def _end_slope(h0, h1, m0, m1):
    """One-sided three-point slope at an end knot, with the shape guards:
    zero if its sign differs from the end secant's, and at most three
    times that secant where the secants change sign."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


class _MonotoneCubic:
    """Monotone piecewise-cubic Hermite interpolant (PCHIP) of Fritsch and
    Carlson (1980), on at least three strictly increasing knots x.

    Interior slopes are the weighted harmonic mean of the neighbouring
    secants, zero where they change sign or vanish.  The arithmetic, and
    so every bit, is that of scipy's ``PchipInterpolator``: the same slope
    and coefficient formulas, and evaluation in its power basis,
    ``c3 + c2*s + c1*s**2 + c0*s**3`` with ``s`` the offset from the
    interval's left knot.  Only points in [x[0], x[-1]] are valid.
    """

    def __init__(self, x, y):
        h = x[1:] - x[:-1]
        m = (y[1:] - y[:-1]) / h
        flat = ((np.sign(m[1:]) != np.sign(m[:-1]))
                | (m[1:] == 0) | (m[:-1] == 0))
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        d = np.zeros_like(y)
        with np.errstate(divide="ignore", invalid="ignore"):
            d[1:-1] = np.where(
                flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        d[0] = _end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _end_slope(h[-1], h[-2], m[-1], m[-2])
        t = (d[:-1] + d[1:] - 2 * m) / h
        self.x = x
        self.c = np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))

    def __call__(self, u):
        return self.on_intervals(u, np.minimum(
            np.searchsorted(self.x, u, "right") - 1, self.x.size - 2))

    def on_intervals(self, u, i):
        """The interpolant at the points of the 1-d array u, each on its
        interval i, in the power-basis order above.  The coefficients are
        gathered from the rows of ``c``, four contiguous arrays, into one
        reused buffer."""
        c0, c1, c2, c3 = self.c
        s = np.take(self.x, i)
        np.subtract(u, s, out=s)
        s2 = s * s
        out = np.take(c2, i)
        out *= s
        term = np.take(c3, i)
        out += term
        np.take(c1, i, out=term)
        term *= s2
        out += term
        s2 *= s
        np.take(c0, i, out=term)
        term *= s2
        out += term
        return out


class UnitDiskExitSampler:
    """Inverse-CDF sampler for the unit-disk center exit time."""

    def __init__(self):
        j = np.array(J0_ZEROS)
        self._rates = j ** 2 / 2.0
        self._coeffs = 2.0 / (j * np.array(J1_AT_ZEROS))

        t_knots = np.geomspace(T_SWITCH, T_SINGLE, N_KNOTS)
        u_knots = self.cdf(t_knots)
        if np.any(np.diff(u_knots) <= 0):
            raise RuntimeError("exit-time CDF table is not strictly increasing")
        self._t_knots = t_knots
        self._u_knots = u_knots
        self._interp = _MonotoneCubic(u_knots, t_knots)
        self._u_lo = u_knots[0]
        self._u_hi = u_knots[-1]
        # Buckets over logit(u): the bits of the odds u / (1 - u), a
        # positive double, order as u does, so its binary exponent and
        # leading _ODDS_BITS mantissa bits number buckets of logit(u), each
        # under 2**-_ODDS_BITS of a binade of the odds wide.  At most one
        # knot lies in a bucket: every knot of a lower bucket lies below u,
        # every knot of a higher one above, and one compare with the
        # bucket's own knot (_next, or the next knot up) settles the rest.
        keys = self._odds_bits(u_knots)
        self._key_lo = keys[0]
        counts = np.bincount(keys - self._key_lo)
        if counts.max() > 1:
            raise RuntimeError("a logit bucket holds more than one knot")
        below = np.cumsum(counts) - counts        # knots in lower buckets
        self._below = below - 1
        self._next = u_knots[below]
        # F(t) ~ tail_amp * t^{-1/2} exp(-1/(2t)) for small t, glued at the
        # switch point so the assembled CDF is continuous.
        self._tail_amp = self._u_lo * np.sqrt(T_SWITCH) * np.exp(1.0 / (2 * T_SWITCH))

    def survival(self, t):
        """P(exit time > t) by the truncated series (accurate for t >= 0.05)."""
        t = np.asarray(t, dtype=float)
        out = self._coeffs @ np.exp(-np.multiply.outer(self._rates, t))
        return np.clip(out, 0.0, 1.0)

    def cdf(self, t):
        return 1.0 - self.survival(t)

    def mean_from_series(self) -> float:
        """E[T] = integral of the survival function, term by term."""
        return float(np.sum(self._coeffs / self._rates))

    @staticmethod
    def _odds_bits(u):
        """The odds u / (1 - u) as int64 bit patterns, shifted down to the
        binary exponent and leading _ODDS_BITS mantissa bits."""
        odds = np.subtract(1.0, u)
        np.divide(u, odds, out=odds)
        key = odds.view(np.int64)
        key >>= 52 - _ODDS_BITS
        return key

    def _interval(self, u):
        """``searchsorted(u_knots, u, "right") - 1`` for u in [0, 1): the
        index of the last knot at or below u, -1 below the table."""
        b = self._odds_bits(u)
        b -= self._key_lo
        np.clip(b, 0, self._below.size - 1, out=b)
        i = self._below[b]
        i += self._next[b] <= u
        return i

    def _invert_left_tail(self, u):
        lo = np.full(u.shape, 1e-6)
        hi = np.full(u.shape, T_SWITCH)
        # At most 80 halvings.  Once a halving leaves lo and hi as they
        # were, every later one would too, so the loop stops there.  No
        # bracket settles before its width falls to the float spacing at
        # T_SWITCH, 52.7 halvings in, so the test starts there; a later
        # stop would change no bit either.
        settle = int(math.log2((T_SWITCH - 1e-6) / math.ulp(T_SWITCH)))
        for k in range(80):
            mid = 0.5 * (lo + hi)
            f = self._tail_amp / np.sqrt(mid) * np.exp(-1.0 / (2.0 * mid))
            small = f < u
            new_lo = np.where(small, mid, lo)
            new_hi = np.where(small, hi, mid)
            if (k >= settle and (new_lo == lo).all()
                    and (new_hi == hi).all()):
                break
            lo, hi = new_lo, new_hi
        return 0.5 * (lo + hi)

    def _invert_right_tail(self, u):
        # 1 - u = c_1 exp(-rate_1 t), exact here to machine precision.
        return np.log(self._coeffs[0] / (1.0 - u)) / self._rates[0]

    def ppf(self, u):
        """Quantile function, vectorized over u in (0, 1).  The table is
        evaluated at every u, and the tails then overwrite their own."""
        u = np.asarray(u, dtype=float)
        flat = u.ravel()
        i = self._interval(flat)
        np.clip(i, 0, N_KNOTS - 2, out=i)
        out = self._interp.on_intervals(flat, i)
        left = flat < self._u_lo
        if np.any(left):
            out[left] = self._invert_left_tail(flat[left])
        right = flat > self._u_hi
        if np.any(right):
            out[right] = self._invert_right_tail(flat[right])
        return out.reshape(u.shape)

    def sample(self, gen: np.random.Generator, n: int) -> np.ndarray:
        return self.ppf(gen.random(n))

    def table_checksum(self) -> str:
        """SHA-256 over the knot arrays; pins the table build bit-for-bit."""
        import hashlib   # here, not at import: it loads OpenSSL's libcrypto
        h = hashlib.sha256()
        h.update(self._u_knots.tobytes())
        h.update(self._t_knots.tobytes())
        return h.hexdigest()


@lru_cache(maxsize=1)
def get_sampler() -> UnitDiskExitSampler:
    return UnitDiskExitSampler()


def sample_unit_disk_time(gen: np.random.Generator, n: int) -> np.ndarray:
    """n independent unit-disk center exit times."""
    return get_sampler().sample(gen, n)
