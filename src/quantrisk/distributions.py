"""Closed algebra of one-dimensional distributions with exact evaluation.

Every distribution exposes its CDF (with left limits), both generalized
inverses, and exact integrals of the lower quantile function.  The algebra
is closed under positive scaling, shifts, positive/negative part, absolute
value and comonotone addition; discrete inputs are transformed eagerly, by
mapping their atoms and cumulative levels, parametric tails stay symbolic.
"""

from __future__ import annotations

import bisect
import math
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError

__all__ = [
    "Distribution",
    "Discrete",
    "ParetoNegative",
    "ParetoPositive",
    "Scale",
    "Shift",
    "PosPart",
    "NegPart",
    "Abs",
    "TailPower",
    "BOUNDED",
    "point_mass",
    "transform",
    "comonotone_sum",
]

_ATOM_TOL = 1e-12

# Tail descriptor at an endpoint of (0,1): BOUNDED means the quantile
# function stays bounded there; TailPower(theta, coef) means it blows up
# like coef * t**(-1/theta) in the distance t to the endpoint.
BOUNDED = "bounded"


@dataclass(frozen=True)
class TailPower:
    theta: float
    coef: float


# ---------------------------------------------------------------------------
# transform operations


@dataclass(frozen=True)
class Scale:
    factor: float


@dataclass(frozen=True)
class Shift:
    offset: float


@dataclass(frozen=True)
class PosPart:
    pass


@dataclass(frozen=True)
class NegPart:
    pass


@dataclass(frozen=True)
class Abs:
    pass


def _check_level(u: float) -> float:
    u = float(u)
    if not 0.0 < u < 1.0:
        raise ParameterError(f"quantile level must lie in (0,1), got {u!r}")
    return u


def _compensated_cumsum(xs) -> np.ndarray:
    """Running sum carrying each step's exact rounding error: exact for integer masses.

    ``numpy.cumsum`` plus the running sum of its TwoSum step errors.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite total is refused by the callers
        run = xs.cumsum()
        prev = np.concatenate(([0.0], run[:-1]))
        back = run - prev
        err = (prev - (run - back)) + (xs - back)
    err[np.isnan(err)] = 0.0  # past an overflow, where the sum stays inf
    return run + err.cumsum()


class Distribution:
    """Abstract one-dimensional distribution.

    Subclasses implement ``cdf``, ``cdf_left``, ``quantile_lower``,
    ``quantile_upper``, ``quantile_integral``, ``quantile_breakpoints``,
    ``support`` and the two tail descriptors.  All instances are immutable
    and all operations are pure.
    """

    def cdf(self, x: float) -> float:
        raise NotImplementedError

    def cdf_left(self, x: float) -> float:
        """Left limit of the CDF at ``x``."""
        raise NotImplementedError

    def quantile_lower(self, u: float) -> float:
        """inf{x : cdf(x) >= u} for u in (0,1)."""
        raise NotImplementedError

    def quantile_upper(self, u: float) -> float:
        """sup{x : cdf(x) <= u} for u in (0,1)."""
        raise NotImplementedError

    def quantile_integral(self, a: float, b: float) -> float:
        """Lebesgue integral of the lower quantile function over (a, b).

        May return ``+-inf`` when the improper integral diverges; the
        endpoints 0 and 1 are admissible.
        """
        raise NotImplementedError

    def quantile_breakpoints(self) -> tuple[float, ...]:
        """Levels in (0,1) where the quantile function jumps or kinks."""
        return ()

    def quantile_steps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Arrays of the breakpoint levels t, q(t) and q+(t): the CDF is t on [q(t), q+(t))."""
        ts = self.quantile_breakpoints()
        lower = [self.quantile_lower(t) for t in ts]
        upper = [self.quantile_upper(t) for t in ts]
        return np.array(ts, dtype=float), np.array(lower, dtype=float), np.array(upper, dtype=float)

    def support(self) -> tuple[float, float]:
        """Essential bounds of the distribution, possibly infinite."""
        raise NotImplementedError

    def lower_tail(self):
        """Behaviour of the quantile function at 0+: BOUNDED, TailPower or None."""
        return None

    def upper_tail(self):
        """Behaviour of the quantile function at 1-: BOUNDED, TailPower or None."""
        return None

    def mean(self) -> float:
        return self.quantile_integral(0.0, 1.0)

    @property
    def is_discrete(self) -> bool:
        return isinstance(self, Discrete)

    # fluent aliases for the transform algebra
    def scale(self, factor: float) -> Distribution:
        return transform(self, Scale(factor))

    def shift(self, offset: float) -> Distribution:
        return transform(self, Shift(offset))

    def pos_part(self) -> Distribution:
        return transform(self, PosPart())

    def neg_part(self) -> Distribution:
        return transform(self, NegPart())

    def abs(self) -> Distribution:
        return transform(self, Abs())

    def label(self) -> str:
        return repr(self)


class Discrete(Distribution):
    """Finitely supported distribution: atoms ``values`` at cumulative levels ``cum``.

    ``values`` must be strictly increasing and ``probs`` strictly positive
    with total mass 1 within 1e-12.  ``cum`` is the running sum of ``probs``
    with every step's rounding error carried, divided by its last entry,
    which is then exactly 1.  The quantile is ``values[i]`` on the levels
    (cum[i-1], cum[i]]: every derived discrete is built from these levels by
    :func:`_from_levels`, and its ``probs`` are their differences.
    Duplicate sample values are merged by the ``from_samples`` constructor,
    not here.
    """

    def __init__(self, values, probs):
        values = np.asarray(values, dtype=float)
        probs = np.asarray(probs, dtype=float)
        if values.ndim != 1 or values.shape != probs.shape or len(values) == 0:
            raise ParameterError("values and probs must be equal-length, non-empty 1-D sequences")
        if not np.all(np.isfinite(values)):
            raise ParameterError("atom values must be finite")
        if np.any(np.diff(values) <= 0):
            raise ParameterError("atom values must be strictly increasing")
        if np.any(probs <= 0):
            raise ParameterError("atom probabilities must be strictly positive")
        run = _compensated_cumsum(probs)
        if not abs(run[-1] - 1.0) <= _ATOM_TOL:
            raise ParameterError(f"atom probabilities must sum to 1 within {_ATOM_TOL}, got {float(run[-1])!r}")
        self.values = values
        self.probs = probs
        self.cum = run / run[-1]

    @classmethod
    def from_samples(cls, samples, weights=None) -> Discrete:
        """Empirical distribution; equal weights unless given, duplicates merged.

        One stable sort: the level of the k-th sorted sample is the running
        sum of the sorted weights over their total, within one float of the
        correctly rounded exact level, and the float k/n for equal weights.
        A run of equal samples is one atom at the run's last level; a sample
        whose level does not rise (zero weight, or too light to move a float
        level) is dropped.
        """
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 1 or len(samples) == 0:
            raise ParameterError("need at least one sample value")
        if weights is None:
            weights = np.ones_like(samples)
        else:
            weights = np.asarray(weights, dtype=float)
            if weights.shape != samples.shape:
                raise ParameterError("weights must match samples in length")
            if not np.all(weights >= 0):  # NaN too
                raise ParameterError("weights must be non-negative")
        order = np.argsort(samples, kind="stable")
        run = _compensated_cumsum(weights[order])
        if not run[-1] < math.inf:  # NaN too
            raise ParameterError("total weight must be finite")
        if run[-1] == 0.0:
            raise ParameterError("total weight must be positive")
        return _from_levels(samples[order], run / run[-1])

    def cdf(self, x: float) -> float:
        idx = int(np.searchsorted(self.values, x, side="right"))
        return 0.0 if idx == 0 else float(self.cum[idx - 1])

    def cdf_left(self, x: float) -> float:
        idx = int(np.searchsorted(self.values, x, side="left"))
        return 0.0 if idx == 0 else float(self.cum[idx - 1])

    def quantile_lower(self, u: float) -> float:
        u = _check_level(u)
        idx = int(np.searchsorted(self.cum, u, side="left"))
        return float(self.values[min(idx, len(self.values) - 1)])

    def quantile_upper(self, u: float) -> float:
        u = _check_level(u)
        idx = int(np.searchsorted(self.cum, u, side="right"))
        return float(self.values[min(idx, len(self.values) - 1)])

    def quantile_integral(self, a: float, b: float) -> float:
        a, b = _check_range(a, b)
        lower = np.concatenate(([0.0], self.cum[:-1]))
        overlap = np.minimum(self.cum, b) - np.maximum(lower, a)
        overlap = np.maximum(overlap, 0.0)
        return float(np.dot(self.values, overlap))

    def quantile_breakpoints(self) -> tuple[float, ...]:
        return tuple(float(c) for c in self.cum[:-1])

    def quantile_steps(self):
        return self.cum[:-1], self.values[:-1], self.values[1:]

    def support(self) -> tuple[float, float]:
        return float(self.values[0]), float(self.values[-1])

    def lower_tail(self):
        return BOUNDED

    def upper_tail(self):
        return BOUNDED

    def mean(self) -> float:
        return float(np.dot(self.values, self.probs))

    def label(self) -> str:
        if len(self.values) == 1:
            return f"point_mass({self.values[0]:g})"
        return f"discrete(n={len(self.values)})"

    def __repr__(self) -> str:
        if len(self.values) <= 6:
            pairs = ", ".join(f"({v:g}, {p:g})" for v, p in zip(self.values, self.probs))
            return f"Discrete([{pairs}])"
        return f"Discrete(n={len(self.values)})"


def point_mass(value: float) -> Discrete:
    return Discrete([value], [1.0])


def _power_gap(s: float, t: float, e: float) -> float:
    """``(s**e - t**e) / -e`` for 0 < s < t and e < 0 where ``s**e`` overflows.

    Formed in logs as ``s**e * -expm1(e*log(t/s)) / -e``; +inf when the result
    itself is beyond the float range.
    """
    gap = -math.expm1(e * math.log1p((t - s) / s))  # > 0, since s**e overflowing forces s < t
    try:
        return math.exp(e * math.log(s) + math.log(gap / -e))
    except OverflowError:
        return math.inf


class ParetoNegative(Distribution):
    """Power-law left tail supported on (-inf, -beta].

    ``cdf(x) = (beta / -x)**theta`` for x < -beta and 1 beyond.  ``theta``
    defaults to 2, which has a finite mean; ``theta <= 1`` gives mean -inf.
    """

    def __init__(self, beta: float, theta: float = 2.0):
        if not beta > 0:
            raise ParameterError(f"beta must be positive, got {beta!r}")
        if not theta > 0:
            raise ParameterError(f"theta must be positive, got {theta!r}")
        self.beta = float(beta)
        self.theta = float(theta)

    def cdf(self, x: float) -> float:
        if x >= -self.beta:
            return 1.0
        return (self.beta / -x) ** self.theta

    cdf_left = cdf  # continuous

    def quantile_lower(self, u: float) -> float:
        u = _check_level(u)
        try:
            return -self.beta * u ** (-1.0 / self.theta)
        except OverflowError:  # beyond the float range
            return -math.inf

    quantile_upper = quantile_lower  # strictly increasing CDF, no flat levels

    def quantile_integral(self, a: float, b: float) -> float:
        a, b = _check_range(a, b)
        if a == b:
            return 0.0
        if self.theta == 1.0:
            if a == 0.0:
                return -math.inf
            return -self.beta * (math.log(b) - math.log(a))
        e = 1.0 - 1.0 / self.theta
        if a == 0.0 and e <= 0:
            return -math.inf
        try:
            lo = 0.0 if a == 0.0 else a**e
            return -self.beta * (b**e - lo) / e
        except OverflowError:  # a**e beyond the float range
            return -self.beta * _power_gap(a, b, e)

    def support(self) -> tuple[float, float]:
        return -math.inf, -self.beta

    def lower_tail(self):
        return TailPower(self.theta, self.beta)

    def upper_tail(self):
        return BOUNDED

    def label(self) -> str:
        return f"pareto_negative(beta={self.beta:g},theta={self.theta:g})"

    def __repr__(self) -> str:
        return f"ParetoNegative(beta={self.beta!r}, theta={self.theta!r})"


class ParetoPositive(Distribution):
    """Classic Pareto right tail on [beta, inf): cdf(x) = 1 - (beta/x)**theta."""

    def __init__(self, beta: float, theta: float):
        if not beta > 0:
            raise ParameterError(f"beta must be positive, got {beta!r}")
        if not theta > 0:
            raise ParameterError(f"theta must be positive, got {theta!r}")
        self.beta = float(beta)
        self.theta = float(theta)

    def cdf(self, x: float) -> float:
        if x < self.beta:
            return 0.0
        return 1.0 - (self.beta / x) ** self.theta

    cdf_left = cdf

    def quantile_lower(self, u: float) -> float:
        u = _check_level(u)
        try:
            return self.beta * (1.0 - u) ** (-1.0 / self.theta)
        except OverflowError:  # beyond the float range
            return math.inf

    quantile_upper = quantile_lower

    def quantile_integral(self, a: float, b: float) -> float:
        a, b = _check_range(a, b)
        if a == b:
            return 0.0
        # substitute t = 1-u
        if self.theta == 1.0:
            if b == 1.0:
                return math.inf
            return self.beta * (math.log1p(-a) - math.log1p(-b))
        e = 1.0 - 1.0 / self.theta
        if b == 1.0 and e <= 0:
            return math.inf
        try:
            hi = 0.0 if b == 1.0 else (1.0 - b) ** e
            return -self.beta * (hi - (1.0 - a) ** e) / e
        except OverflowError:  # (1-b)**e beyond the float range
            return self.beta * _power_gap(1.0 - b, 1.0 - a, e)

    def support(self) -> tuple[float, float]:
        return self.beta, math.inf

    def lower_tail(self):
        return BOUNDED

    def upper_tail(self):
        return TailPower(self.theta, self.beta)

    def label(self) -> str:
        return f"pareto_positive(beta={self.beta:g},theta={self.theta:g})"

    def __repr__(self) -> str:
        return f"ParetoPositive(beta={self.beta!r}, theta={self.theta!r})"


# ---------------------------------------------------------------------------
# lazy transform nodes (non-discrete bases only; discrete transforms are eager)


class _Scaled(Distribution):
    def __init__(self, base: Distribution, factor: float):
        self.base = base
        self.factor = float(factor)  # > 0; factor 0 collapses to point_mass earlier

    def cdf(self, x):
        return self.base.cdf(x / self.factor)

    def cdf_left(self, x):
        return self.base.cdf_left(x / self.factor)

    def quantile_lower(self, u):
        return self.factor * self.base.quantile_lower(u)

    def quantile_upper(self, u):
        return self.factor * self.base.quantile_upper(u)

    def quantile_integral(self, a, b):
        return self.factor * self.base.quantile_integral(a, b)

    def quantile_breakpoints(self):
        return self.base.quantile_breakpoints()

    def support(self):
        lo, hi = self.base.support()
        return self.factor * lo, self.factor * hi

    def lower_tail(self):
        return _scale_tail(self.base.lower_tail(), self.factor)

    def upper_tail(self):
        return _scale_tail(self.base.upper_tail(), self.factor)

    def label(self):
        return f"scale({self.factor:g},{self.base.label()})"


class _Shifted(Distribution):
    def __init__(self, base: Distribution, offset: float):
        self.base = base
        self.offset = float(offset)

    def cdf(self, x):
        return self.base.cdf(x - self.offset)

    def cdf_left(self, x):
        return self.base.cdf_left(x - self.offset)

    def quantile_lower(self, u):
        return self.base.quantile_lower(u) + self.offset

    def quantile_upper(self, u):
        return self.base.quantile_upper(u) + self.offset

    def quantile_integral(self, a, b):
        return self.base.quantile_integral(a, b) + self.offset * (b - a)

    def quantile_breakpoints(self):
        return self.base.quantile_breakpoints()

    def support(self):
        lo, hi = self.base.support()
        return lo + self.offset, hi + self.offset

    def lower_tail(self):
        return self.base.lower_tail()  # shift does not change the blow-up

    def upper_tail(self):
        return self.base.upper_tail()

    def label(self):
        return f"shift({self.offset:g},{self.base.label()})"


class _Negated(Distribution):
    """Reflection x -> -x; internal only, used to realize NegPart and Abs."""

    def __init__(self, base: Distribution):
        self.base = base

    def cdf(self, x):
        return 1.0 - self.base.cdf_left(-x)

    def cdf_left(self, x):
        return 1.0 - self.base.cdf(-x)

    def quantile_lower(self, u):
        return -self.base.quantile_upper(1.0 - _check_level(u))

    def quantile_upper(self, u):
        return -self.base.quantile_lower(1.0 - _check_level(u))

    def quantile_integral(self, a, b):
        a, b = _check_range(a, b)
        return -self.base.quantile_integral(1.0 - b, 1.0 - a)

    def quantile_breakpoints(self):
        return tuple(sorted(1.0 - t for t in self.base.quantile_breakpoints()))

    def support(self):
        lo, hi = self.base.support()
        return -hi, -lo

    def lower_tail(self):
        return self.base.upper_tail()

    def upper_tail(self):
        return self.base.lower_tail()

    def label(self):
        return f"negate({self.base.label()})"


class _PosPart(Distribution):
    def __init__(self, base: Distribution):
        self.base = base
        self._split = base.cdf(0.0)  # quantile_lower(u) <= 0 iff u <= split

    def cdf(self, x):
        return 0.0 if x < 0 else self.base.cdf(x)

    def cdf_left(self, x):
        return 0.0 if x <= 0 else self.base.cdf_left(x)

    def quantile_lower(self, u):
        return max(self.base.quantile_lower(u), 0.0)

    def quantile_upper(self, u):
        return max(self.base.quantile_upper(u), 0.0)

    def quantile_integral(self, a, b):
        a, b = _check_range(a, b)
        lo = max(a, min(self._split, b))
        if b <= lo:
            return 0.0
        return self.base.quantile_integral(lo, b)

    def quantile_breakpoints(self):
        pts = set(self.base.quantile_breakpoints())
        if 0.0 < self._split < 1.0:
            pts.add(self._split)
        return tuple(sorted(pts))

    def support(self):
        lo, hi = self.base.support()
        return max(lo, 0.0), max(hi, 0.0)

    def lower_tail(self):
        return BOUNDED

    def upper_tail(self):
        hi = self.base.support()[1]
        return self.base.upper_tail() if hi > 0 else BOUNDED

    def label(self):
        return f"pos_part({self.base.label()})"


class _AbsMixed(Distribution):
    """|X| for a non-discrete base X straddling zero, evaluated in level space.

    The CDF F(x) - F(-x-) is exact up to the rounding of that difference,
    which loses relative accuracy where it is small.  A quantile is the
    least float x where that CDF reaches the level, so the float Galois
    relation ``quantile_lower(u) <= x`` iff ``u <= cdf(x)`` holds exactly.
    :func:`_search` finds it twice: in the level s, where the base
    quantiles bound |X| <= x on the levels (s, s+u], for an estimate
    (``_window``), then in x around the estimate on the CDF itself
    (``_least``).  Quantile integrals are closed form in the base's CDF
    and quantile integrals.
    """

    def __init__(self, base: Distribution):
        self.base = base

    def cdf(self, x):
        if x < 0:
            return 0.0
        return self.base.cdf(x) - self.base.cdf_left(-x)

    def cdf_left(self, x):
        if x <= 0:
            return 0.0
        return self.base.cdf_left(x) - self.base.cdf(-x)

    def quantile_lower(self, u):
        return self._least(self.cdf, _check_level(u))

    def quantile_upper(self, u):
        return self._least(self.cdf_left, math.nextafter(_check_level(u), 1.0))

    def _least(self, cdf, v):
        """Least float x >= 0 with cdf(x) >= v; cdf_left(x) > u is cdf_left(x) >= the float above u.

        First the window's estimate and its neighbour: two CDF calls when the
        estimate is exact.  Then :func:`_search` in x, bracketed by the
        estimate and the point w past it, or 0 or inf if the test is wrong
        there too, on the sign of cdf(x) - v only: at small levels that is a
        staircase whose values place no step, and a power-of-two w puts the
        bisection points on the base quantile's float grid and halfway between.
        Its top is twice the bracket's upper end, so it splits at plain
        midpoints down to 1/512 of that end and in bit order below.
        """

        def side(x):
            return -1.0 if cdf(x) < v else 1.0

        est, w = self._window(v)
        if side(est) > 0.0:
            lo, hi = max(math.nextafter(est, 0.0), 0.0), est
            if hi > 0.0 and side(lo) > 0.0:
                lo = max(est - w, 0.0)
                if side(lo) > 0.0:
                    lo, hi = 0.0, lo
                    if hi == 0.0 or side(0.0) > 0.0:
                        return 0.0
        else:
            lo, hi = est, math.nextafter(est, math.inf)
            if side(hi) < 0.0:
                hi = est + w
                if side(hi) < 0.0:
                    lo, hi = hi, math.inf
        return _search(side, lo, hi, -1.0, 1.0, 2.0 * hi)[1]

    def _window(self, v):
        """Estimate of the least x with cdf(x) >= v from the base quantiles alone, and a step w.

        F(x) >= t iff x >= q(t), and F(-x-) <= s iff x >= -q(s+) (s+ the float
        above s), so F(x) - F(-x-) >= v holds in floats iff x >= R(s) = q(t),
        t the least float with t - s >= v, and x >= L(s) = -q(s+) for some s.
        R rises and L falls in s: :func:`_search` on R - L finds where they
        cross, exact where q inverts F exactly.  Rounding in q moves the
        answer by about the step of R or L across the crossing, so w is the
        least power of two above the larger step and above 4 ulps.
        """
        base = self.base
        low, high = base.support()
        q, below_one = base.quantile_lower, math.nextafter(1.0, 0.0)
        reach = {}

        def gap(s):
            t = s + v  # moved to the least float t with t - s >= v
            while t - s < v:
                t = math.nextafter(t, 1.0)
            while math.nextafter(t, 0.0) - s >= v:
                t = math.nextafter(t, 0.0)
            right = q(t) if t < 1.0 else high
            left = -q(math.nextafter(s, 1.0)) if 0.0 < s < below_one else -low if s <= 0.0 else -high
            reach[s] = right, left
            return right - left

        top = (1.0 - v) + 0.5 * (v - math.nextafter(v, 0.0))  # the largest s with 1 - s >= v, or next to it
        while 1.0 - top < v:
            top = math.nextafter(top, 0.0)
        while 1.0 - math.nextafter(top, 1.0) >= v:
            top = math.nextafter(top, 1.0)
        a, b = _search(gap, 0.0, top, gap(0.0), gap(top), top)
        (ra, la), (rb, lb) = reach[a], reach[b]
        est = max(min(max(ra, la), max(rb, lb)), 0.0)
        w = max((d for d in (la - lb, rb - ra) if d < math.inf), default=0.0)
        return est, math.ldexp(1.0, math.frexp(max(w, 4.0 * math.ulp(est)))[1])

    def quantile_integral(self, a, b):
        """Closed form of the integral of q over (a, b).

        With c_t = q(t), G the CDF of |X| and F that of X,
        int_a^1 q = c_a (G(c_a) - a) + E[(X - c_a)+] + E[(-X - c_a)+], and
        the two expectations are quantile integrals of X.  For b < 1 the
        difference of the a and b terms is taken piece by piece,
        c_a (G(c_a) - a) - c_b (G(c_b) - b) + int_{F(c_a)}^{F(c_b)} q_X
        - int_{F(-c_b-)}^{F(-c_a-)} q_X, so a divergent tail of X never
        enters as inf - inf.  For b = 1 the c_b term drops, F(c_b) = 1 and
        F(-c_b-) = 0.
        """
        a, b = _check_range(a, b)
        if a == b:
            return 0.0
        ca, pa, na = self._levels(a)
        cb, pb, nb = (0.0, 1.0, 0.0) if b == 1.0 else self._levels(b)
        atoms = ca * (pa - na - a) - cb * (pb - nb - b)
        return atoms + self.base.quantile_integral(pa, pb) - self.base.quantile_integral(nb, na)

    def _levels(self, t):
        """(c, F(c), F(-c-)) for c = q(t), with c = 0 at t = 0."""
        c = 0.0 if t == 0.0 else self.quantile_lower(t)
        return c, self.base.cdf(c), self.base.cdf_left(-c)

    def quantile_breakpoints(self):
        """Levels where one side of the base runs out of support, and images of the base's breakpoints."""
        base = self.base
        lo, hi = base.support()
        xs = [-lo, hi]
        for t in base.quantile_breakpoints():
            xs += [abs(base.quantile_lower(t)), abs(base.quantile_upper(t))]
        levels = {self.cdf(x) for x in xs if math.isfinite(x)}
        return tuple(sorted(t for t in levels if 0.0 < t < 1.0))

    def support(self):
        lo, hi = self.base.support()
        return 0.0, max(abs(lo), abs(hi))

    def lower_tail(self):
        return BOUNDED

    def upper_tail(self):
        return _heavier_tail(self.base.lower_tail(), self.base.upper_tail())

    def label(self):
        return f"abs({self.base.label()})"


class ComonotoneSum(Distribution):
    """Sum of two comonotone risks: the lower quantiles add pointwise.

    Two discrete operands are merged exactly by :func:`comonotone_sum`; this
    lazy node covers the remaining cases.  With one ``Discrete`` operand the
    CDF is exact: on atom i's level interval (c_{i-1}, c_i] the discrete
    quantile is the constant v_i, so there the sum's CDF is the other
    operand's CDF at x - v_i, clipped to that interval.  It is c_i exactly
    from x = q(c_i) on, so the flat steps where the quantile jumps sit on
    the levels; elsewhere it carries the rounding of x - v_i and of the
    operand's CDF.  With two non-discrete operands the CDF inverts the
    summed quantile in the level by :func:`_invert_level`: the largest float
    u with q(u) <= x (q(u) < x for ``cdf_left``), so the float Galois
    relation holds exactly, found by the safeguarded regula falsi of
    :func:`_search`.
    """

    def __init__(self, first: Distribution, second: Distribution):
        self.first = first
        self.second = second

    @cached_property
    def _steps(self):
        """(values, levels, starts, ends, other) for a Discrete operand, else None.

        ``levels`` is [0, c_1, ..., c_n].  On atom i's interval the sum's
        quantile runs from ``starts[i]`` (its limit just above the bottom
        level) to ``ends[i]`` (its value at the top level), so x reaches the
        interval iff x >= starts[i] and covers it iff x >= ends[i].
        """
        if isinstance(self.first, Discrete):
            disc, other = self.first, self.second
        elif isinstance(self.second, Discrete):
            disc, other = self.second, self.first
        else:
            return None
        values = disc.values.tolist()
        levels = [0.0] + disc.cum.tolist()
        inner = levels[1:-1]
        starts = [-math.inf] + [v + other.quantile_upper(c) for v, c in zip(values[1:], inner)]
        ends = [v + other.quantile_lower(c) for v, c in zip(values, inner)] + [math.inf]
        return values, levels, starts, ends, other

    def quantile_lower(self, u):
        u = _check_level(u)
        return self.first.quantile_lower(u) + self.second.quantile_lower(u)

    def quantile_upper(self, u):
        u = _check_level(u)
        return self.first.quantile_upper(u) + self.second.quantile_upper(u)

    def cdf(self, x):
        lo, hi = self.support()
        if x < lo:
            return 0.0
        if x >= hi:
            return 1.0
        if self._steps is None:
            # largest u with q(u) <= x; measure of {q <= x}
            return _invert_level(self.quantile_lower, x)
        values, levels, starts, ends, other = self._steps
        i = bisect.bisect_right(starts, x) - 1
        if x >= ends[i]:
            return levels[i + 1]
        return min(max(other.cdf(x - values[i]), levels[i]), levels[i + 1])

    def cdf_left(self, x):
        lo, hi = self.support()
        if x <= lo:
            return 0.0
        if x > hi:
            return 1.0
        if self._steps is None:
            return _invert_level(self.quantile_lower, x, strict=True)
        values, levels, starts, ends, other = self._steps
        i = bisect.bisect_left(starts, x) - 1
        if x > ends[i]:
            return levels[i + 1]
        return min(max(other.cdf_left(x - values[i]), levels[i]), levels[i + 1])

    def quantile_integral(self, a, b):
        return self.first.quantile_integral(a, b) + self.second.quantile_integral(a, b)

    def quantile_breakpoints(self):
        return tuple(sorted(set(self.first.quantile_breakpoints()) | set(self.second.quantile_breakpoints())))

    def quantile_steps(self):
        if self._steps is not None:
            _values, levels, starts, ends, other = self._steps
            if not other.quantile_breakpoints():
                # the discrete operand's inner levels are the only breakpoints,
                # and q and q+ there end and start its atoms' level intervals
                return np.array(levels[1:-1]), np.array(ends[:-1]), np.array(starts[1:])
        return super().quantile_steps()

    def support(self):
        lo1, hi1 = self.first.support()
        lo2, hi2 = self.second.support()
        return lo1 + lo2, hi1 + hi2

    def lower_tail(self):
        return _heavier_tail(self.first.lower_tail(), self.second.lower_tail())

    def upper_tail(self):
        return _heavier_tail(self.first.upper_tail(), self.second.upper_tail())

    def label(self):
        return f"comonotone({self.first.label()},{self.second.label()})"


def _scale_tail(tail, factor):
    if isinstance(tail, TailPower):
        return TailPower(tail.theta, tail.coef * factor)
    return tail


def _heavier_tail(t1, t2):
    if t1 is None or t2 is None:
        return None
    if t1 == BOUNDED:
        return t2
    if t2 == BOUNDED:
        return t1
    if t1.theta == t2.theta:
        return TailPower(t1.theta, t1.coef + t2.coef)
    return t1 if t1.theta < t2.theta else t2


_DEEP = 2.0**-10  # within _DEEP * top of 0 or of top, [0, top] is split in float bit order


def _bits(u):
    return struct.unpack("<q", struct.pack("<d", u))[0]


def _from_bits(i):
    return struct.unpack("<d", struct.pack("<q", i))[0]


def _search(f, a, b, ga=-math.inf, gb=math.inf, top=1.0):
    """Shrink [a, b] in [0, top] to adjacent floats around the flip of a monotone test.

    f(s) < 0 puts s on a's side, anything else (0, NaN) on b's side: only
    its sign decides, its value places the next step.  ga and gb are f at a
    and b, infinite when unknown; f is never called at a or b, and when ga
    or gb is on the wrong side, (a, a) or (b, b) is the answer.  Steps are
    Illinois regula falsi, 4 ulps inside the bracket.  It is bisected
    instead while an end's value is infinite, after a step onto a flat
    stretch of f that falsi would creep along (the replaced end had the
    smaller value), after two steps that did not halve it, and while within
    ``_DEEP * top`` of 0 or top it spans over a factor of two in the
    distance to that end, where it is split in float bit order of that
    distance (everywhere when top is inf).  So every third step at least
    bisects or halves it, and a call costs at most about three times the
    60-odd steps of a bisection.
    """
    if not ga < 0.0 or gb < 0.0:  # no flip inside: the test holds at a, or fails at b
        return (b, b) if gb < 0.0 else (a, a)
    kept = flat = 0  # -1 or 1: the end the last falsi step left in place, the end the last step found flat
    goal, misses = 0.5 * (b - a), 0  # width the next steps must reach, steps in a row that did not
    deep, high = _DEEP * top, (1.0 - _DEEP) * top
    inf, ulp, nextafter = math.inf, math.ulp, math.nextafter
    while nextafter(a, inf) < b:
        lo, hi = a + 4.0 * ulp(a), b - 4.0 * ulp(b)
        falsi = (misses < 2 and -inf < ga < 0.0 <= gb < inf and lo < hi and not flat * (ga + gb) < 0.0
                 and (b > deep or b <= 2.0 * a) and (a < high or top - a <= 2.0 * (top - b)))
        if falsi:
            s = min(max(b - gb * (b - a) / (gb - ga), lo), hi)
        elif b <= deep:
            s = _from_bits((_bits(a) + _bits(b)) // 2)
        elif a >= high:  # the float below top is top - nextafter(top, 0) from it
            s = top - _from_bits((_bits(top - a) + _bits(max(top - b, top - nextafter(top, 0.0)))) // 2)
        else:
            s = 0.5 * (a + b)
        if not a < s < b:
            s = 0.5 * (a + b)
        g = f(s)
        if g < 0.0:
            flat = -1 if g == ga else 0
            a, ga = s, g
            if falsi:
                gb, kept = (0.5 * gb if kept == 1 else gb), 1
        else:
            flat = 1 if g == gb else 0
            b, gb = s, g
            if falsi:
                ga, kept = (0.5 * ga if kept == -1 else ga), -1
        if b - a <= goal or not falsi:
            goal, misses = 0.5 * (b - a), 0
        else:
            misses += 1
    return a, b


def _invert_level(q, x, strict=False):
    """Largest float u in [0, 1) with q(u) <= x (q(u) < x when strict), for nondecreasing q.

    Bitwise what bisection in u down to adjacent floats returns; q is never
    called at 0 or 1.  q(u) == x counts as an ulp of x on its side of x.
    """
    tie = math.ulp(x) if strict else -math.ulp(x)

    def gap(u):
        qu = q(u)
        return qu - x if qu != x else tie

    return _search(gap, 0.0, 1.0)[0]


# ---------------------------------------------------------------------------
# algebra entry points


def transform(dist: Distribution, op) -> Distribution:
    """Apply Scale/Shift/PosPart/NegPart/Abs; discrete inputs stay discrete."""
    if isinstance(op, Scale):
        if op.factor < 0:
            raise ParameterError("negative scale factors are outside the quantile calculus")
        if op.factor == 0:
            return point_mass(0.0)
        if op.factor == 1.0:
            return dist
        if isinstance(dist, Discrete):
            return _from_levels(dist.values * op.factor, dist.cum)
        return _Scaled(dist, op.factor)
    if isinstance(op, Shift):
        if op.offset == 0.0:
            return dist
        if isinstance(dist, Discrete):
            return _from_levels(dist.values + op.offset, dist.cum)
        return _Shifted(dist, op.offset)
    if isinstance(op, PosPart):
        if isinstance(dist, Discrete):
            return _from_levels(np.maximum(dist.values, 0.0), dist.cum)
        lo, hi = dist.support()
        if lo >= 0:
            return dist
        if hi <= 0:
            return point_mass(0.0)
        return _PosPart(dist)
    if isinstance(op, NegPart):
        return transform(_negate(dist), PosPart())
    if isinstance(op, Abs):
        if isinstance(dist, Discrete):  # |x| is not monotone: the atoms are sorted again
            return Discrete.from_samples(np.abs(dist.values), dist.probs)
        lo, hi = dist.support()
        if lo >= 0:
            return dist
        if hi <= 0:
            return _negate(dist)
        return _AbsMixed(dist)
    raise ParameterError(f"unknown transform op {op!r}")


def _negate(dist: Distribution) -> Distribution:
    if isinstance(dist, Discrete):  # P(-X <= -v_i) = 1 - cum[i-1]
        return _from_levels(-dist.values[::-1], np.append(1.0 - dist.cum[-2::-1], 1.0))
    if isinstance(dist, _Negated):
        return dist.base
    return _Negated(dist)


def _from_levels(values: np.ndarray, cum: np.ndarray) -> Discrete:
    """The discrete whose quantile is ``values[i]`` on the levels (cum[i-1], cum[i]].

    ``values`` and ``cum`` are nondecreasing, and ``cum`` ends at 1.  A run
    of equal values is one atom at the run's last level, and an atom whose
    level does not rise is dropped: no quantile returns it.
    """
    last = np.concatenate((values[1:] != values[:-1], [True]))
    values, cum = values[last], cum[last]
    probs = cum - np.concatenate(([0.0], cum[:-1]))  # a dropped atom's level is its predecessor's
    rises = probs > 0.0
    values, cum, probs = values[rises], cum[rises], probs[rises]
    if not np.isfinite(values).all():
        raise ParameterError("atom values must be finite")
    out = Discrete.__new__(Discrete)
    out.values, out.cum, out.probs = values, cum, probs
    return out


def comonotone_sum(d1: Distribution, d2: Distribution) -> Distribution:
    """Distribution of X+Y under the comonotone coupling of d1 and d2."""
    if isinstance(d1, Discrete) and isinstance(d2, Discrete):
        # on the union of the levels both quantiles are constant, so their sums are the atoms
        grid = np.union1d(d1.cum, d2.cum)
        sums = d1.values[np.searchsorted(d1.cum, grid)] + d2.values[np.searchsorted(d2.cum, grid)]
        return _from_levels(sums, grid)
    if isinstance(d1, Discrete) and len(d1.values) == 1:
        return transform(d2, Shift(float(d1.values[0])))
    if isinstance(d2, Discrete) and len(d2.values) == 1:
        return transform(d1, Shift(float(d2.values[0])))
    return ComonotoneSum(d1, d2)


def _check_range(a: float, b: float) -> tuple[float, float]:
    a, b = float(a), float(b)
    if not (0.0 <= a <= b <= 1.0):
        raise ParameterError(f"integration range must satisfy 0 <= a <= b <= 1, got ({a!r}, {b!r})")
    return a, b

