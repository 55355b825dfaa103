"""Closed algebra of one-dimensional distributions with exact evaluation.

Every distribution exposes its CDF (with left limits), both generalized
inverses, and exact integrals of the lower quantile function against a
power weight (quantile moments), whose k = 0 case is the plain quantile
integral.  The algebra is closed under positive affine maps (one node for
a scale and a shift), positive/negative part, absolute value and
comonotone addition; discrete inputs are transformed eagerly, by mapping
their atoms and cumulative levels, parametric tails stay symbolic.  The
right Pareto tail is the left one reflected by the negation node, which
also realizes the negative part and the absolute value.
"""

from __future__ import annotations

import bisect
import math
import operator
import struct
from functools import cached_property

import numpy as np

from .distortions import MASS_TOL
from .errors import InconclusiveError, ParameterError

__all__ = [
    "Distribution",
    "Discrete",
    "ParetoNegative",
    "ParetoPositive",
    "point_mass",
    "comonotone_sum",
]

# the default absolute tolerance of a quantile moment taken by quadrature
MOMENT_TOL = 1e-10
_BELOW_ONE = 1.0 - 2.0**-53  # the last float level below 1, where a CDF that inverts q stops
# A discrete of this many atoms or more sums only the atoms a k = 0 moment meets,
# and later reads a prefix table.  It is the measured break-even of one
# expected_shortfall_infimum (about 55 k = 0 calls) on a fresh discrete: below
# it the table's build costs more than clipping every atom at each call saves.
_PREFIX_CUT = 256

def _check_level(u: float) -> float:
    u = float(u)
    if not 0.0 < u < 1.0:
        raise ParameterError(f"quantile level must lie in (0,1), got {u!r}")
    return u


def _running_sum(xs) -> tuple[np.ndarray, np.ndarray]:
    """Running sum of ``xs`` in double-double: ``numpy.cumsum`` and the running sum of its TwoSum step errors.

    hi + lo carries each step's exact rounding error, so it is exact for
    integer masses; the running sum of the errors rounds too, by at most
    n * 2**-53 * max |lo| at every entry.
    """
    hi, err = _step_errors(xs)
    return hi, err.cumsum(out=err)


def _step_errors(xs) -> tuple[np.ndarray, np.ndarray]:
    """``numpy.cumsum`` of ``xs`` and the exact rounding error of each of its steps (TwoSum), 0 past an overflow."""
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite total is refused by the callers
        hi = xs.cumsum()
        err = np.empty_like(hi)
        err[0] = 0.0
        # TwoSum's error (prev - (hi - back)) + (xs - back), back = hi - prev, in two buffers
        back = hi[1:] - hi[:-1]
        step = np.subtract(hi[1:], back, out=err[1:])
        np.subtract(hi[:-1], step, out=step)
        step += np.subtract(xs[1:], back, out=back)
    if not math.isfinite(hi[-1]):  # past an overflow the sum stays inf, and the errors are NaN
        err[np.isnan(err)] = 0.0
    return hi, err


def _checked_fsum(parts, bound: float) -> float | None:
    """``fsum(parts)`` where every sum within ``bound`` of theirs rounds to the same nonzero float, else None."""
    total = math.fsum(parts)
    if 0.0 < abs(total) < math.inf and math.fsum((*parts, bound)) == total == math.fsum((*parts, -bound)):
        return total
    return None


# From this many terms on, _fsum takes numpy's cumsum and its summed step errors:
# below it fsum over the list is faster (break-even 512 terms, 15 us either way).
_FSUM_CUT = 512


def _fsum(xs: np.ndarray, extra=()) -> float:
    """``math.fsum`` of the terms ``xs`` and ``extra``, bit for bit.

    Below ``_FSUM_CUT`` terms it is that fsum.  From the cut on, the last
    entry of ``numpy.cumsum`` and numpy's sum of its step errors go into
    one fsum with ``extra``; that is the correctly rounded total, as
    fsum's, unless moving the error sum by its rounding bound, n * 2**-53
    times the sum of their sizes (doubled), changes a bit or the total is
    0 (whose sign fsum decides), and then the list is summed after all.
    """
    if len(xs) >= _FSUM_CUT:
        hi, err = _step_errors(xs)
        lo = float(err.sum())
        bound = 2.0 * len(err) * 2.0**-53 * float(np.abs(err, out=err).sum())
        total = _checked_fsum((float(hi[-1]), lo, *extra), bound)
        if total is not None:
            return total
    return math.fsum([*xs.tolist(), *extra])


class Distribution:
    """Abstract one-dimensional distribution.

    Subclasses implement ``cdf``, ``cdf_left``, ``quantile_lower``,
    ``quantile_upper``, ``quantile_breakpoints``, ``support`` and ``tails``,
    and ``quantile_moment`` for the weights they integrate
    in closed form; ``quantile_integral`` is its k = 0 case and is never
    overridden.  The default moment integrates every k numerically.  All
    instances are immutable and all operations are pure.
    """

    def cdf(self, x: float) -> float:
        raise NotImplementedError

    def cdf_left(self, x: float) -> float:
        """Left limit of the CDF at ``x``."""
        raise NotImplementedError

    def local_cdf(self, s: float, t: float):
        """The CDF, for x strictly between q+(s) and q(t), levels s < t with no quantile breakpoint between them.

        A node whose CDF searches for the piece that x falls in binds that
        piece once for such a stretch; by default this is ``cdf`` itself.
        """
        return self.cdf

    def quantile_lower(self, u: float) -> float:
        """inf{x : cdf(x) >= u} for u in (0,1)."""
        raise NotImplementedError

    def quantile_upper(self, u: float) -> float:
        """sup{x : cdf(x) <= u} for u in (0,1)."""
        raise NotImplementedError

    def quantile_integral(self, a: float, b: float) -> float:
        """Lebesgue integral of the lower quantile function over (a, b): the k = 0 quantile moment.

        May return ``+-inf`` when the improper integral diverges; the
        endpoints 0 and 1 are admissible.
        """
        return self.quantile_moment(a, b, 0.0, a)

    def quantile_moment(self, a: float, b: float, k: float, origin: float, *, epsabs: float = MOMENT_TOL) -> float:
        """Integral of q(u) |u - origin|**k over (a, b), for k > -1 and origin outside (a, b).

        The origin's side of (a, b) says which way the weight grows.  This
        default integrates every k, 0 too, numerically with absolute
        tolerance ``epsabs``; a node overrides it with the closed forms it
        has and defers here for the rest.
        """
        a, b, k, origin = _check_moment(a, b, k, origin)
        from .riskmeasures import _piece_integral  # the one quadrature route, loading scipy on first use

        return _piece_integral(self, a, b, k, origin, epsabs=epsabs)

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

    def tails(self) -> tuple[float | None, float | None]:
        """The tail exponents θ of the quantile function at 0+ and at 1-.

        A tail θ in (0, inf) means |q| blows up like t**(-1/θ) in the distance
        t to the endpoint, inf means q stays bounded there, and None that the
        node does not know: the domain checks then probe that end.
        """
        return None, None

    def mean(self) -> float:
        return self.quantile_integral(0.0, 1.0)

    @property
    def is_discrete(self) -> bool:
        return isinstance(self, Discrete)

    # the transform algebra: lazy nodes here, atoms mapped eagerly by Discrete
    def scale(self, factor: float) -> Distribution:
        """factor * X, for factor >= 0."""
        if factor < 0:
            raise ParameterError("negative scale factors are outside the quantile calculus")
        if factor == 0:
            return point_mass(0.0)
        return self if factor == 1.0 else self._affine(factor, -0.0)

    def shift(self, offset: float) -> Distribution:
        """X + offset."""
        return self if offset == 0.0 else self._affine(1.0, offset)

    def _affine(self, factor, offset) -> Distribution:
        return _Affine(self, factor, offset)

    def _reflect(self) -> Distribution:
        """-X."""
        return _Negated(self)

    def pos_part(self) -> Distribution:
        """max(X, 0)."""
        lo, hi = self.support()
        if lo >= 0:
            return self
        if hi <= 0:
            return point_mass(0.0)
        return _PosPart(self)

    def neg_part(self) -> Distribution:
        """max(-X, 0)."""
        return self._reflect().pos_part()

    def abs(self) -> Distribution:
        """|X|."""
        lo, hi = self.support()
        if lo >= 0:
            return self
        if hi <= 0:
            return self._reflect()
        return _AbsMixed(self)

    def label(self) -> str:
        return repr(self)


class Discrete(Distribution):
    """Finitely supported distribution: atoms ``values`` at cumulative levels ``cum``.

    ``values`` must be strictly increasing and ``probs`` strictly positive
    with total mass 1 within ``MASS_TOL``.  ``cum`` is the running sum of
    ``probs`` with every step's rounding error carried, divided by its last
    entry, which is then exactly 1.  The quantile is ``values[i]`` on the levels
    (cum[i-1], cum[i]]: every derived discrete is built from these levels by
    :func:`_from_levels`, stores no masses, and its ``probs`` are the level
    steps ``np.diff(cum, prepend=0.0)``.  Every integral, the mean too, is
    taken over these levels, never the given ``probs``.  A discrete of
    ``_PREFIX_CUT`` atoms or more sums the atoms of its first k = 0 moments
    directly and counts them; the first k = 0 moment that finds the count at
    the atom count builds a prefix table of v_i times the level steps in
    double-double (16 bytes an atom) and keeps it.  So one mean or one
    shortfall builds none.  Duplicate values are merged by ``from_samples``,
    not here.
    """

    _summed = 0  # atoms met by the k = 0 moments summed without the prefix table

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
        run, lo = _running_sum(probs)
        run += lo
        if not abs(run[-1] - 1.0) <= MASS_TOL:
            raise ParameterError(f"atom probabilities must sum to 1 within {MASS_TOL}, got {float(run[-1])!r}")
        run /= run[-1]
        self.values = values
        self._given = probs
        self.cum = run

    @classmethod
    def from_samples(cls, samples, weights=None) -> Discrete:
        """Empirical distribution; equal weights unless given, duplicates merged.

        The atoms are the samples in their stable order: by value, and equal
        values by index.  Equal weights sort with ``np.sort`` and give the
        k-th sorted sample the float k/n.  Other weights take numpy's default
        ``argsort`` and sort each run of equal neighbours again by index; the
        level of the k-th sample is then the running sum of the sorted
        weights over their total, within one float of the correctly rounded
        exact level.  A run of equal samples is one atom at the run's last
        level, with the value of its last sample by index (-0.0 or 0.0); a
        sample whose level does not rise (zero weight, or too light to move a
        float level) is dropped.  A NaN or infinite sample is refused,
        whatever its weight.
        """
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 1 or len(samples) == 0:
            raise ParameterError("need at least one sample value")
        if not np.isfinite(samples).all():
            raise ParameterError("atom values must be finite")
        if weights is None:
            values = np.sort(samples)
            zero = int(np.searchsorted(values, 0.0, side="right")) - 1
            if zero >= 0 and values[zero] == 0.0:  # np.sort may end the run of zeros on either sign
                values[zero] = samples[np.flatnonzero(samples == 0.0)[-1]]
            return _from_levels(values, np.arange(1.0, len(values) + 1.0) / len(values))
        weights = np.asarray(weights, dtype=float)
        if weights.shape != samples.shape:
            raise ParameterError("weights must match samples in length")
        if not (weights >= 0).all():  # NaN too
            raise ParameterError("weights must be non-negative")
        order = samples.argsort()
        values = samples[order]
        flat = values[1:] == values[:-1]
        if flat.any():  # the stable order is unique: (value, index) inside the runs of equal values
            tied = np.flatnonzero(np.concatenate((flat, [False])) | np.concatenate(([False], flat)))
            index = order[tied]
            order[tied] = index = index[np.lexsort((index, values[tied]))]
            values[tied] = samples[index]
        weights = weights[order]
        del order
        return _from_weights(values, weights)

    @property
    def probs(self) -> np.ndarray:
        """The masses given to the constructor; for a derived discrete, its level steps."""
        return _level_steps(self.cum) if self._given is None else self._given

    @cached_property
    def _prefix(self) -> tuple[np.ndarray, np.ndarray, float]:
        """hi + lo, the running sums of v_i times the level steps in double-double (16 bytes an atom), and lo's rounding bound, doubled."""
        products = _level_steps(self.cum)
        products *= self.values
        hi, lo = _running_sum(products)
        return hi, lo, 2.0 * len(lo) * 2.0**-53 * float(max(lo.max(), -lo.min()))

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

    def quantile_moment(self, a, b, k, origin, *, epsabs=MOMENT_TOL):
        """Sum over the atoms of v_i times the weight's integral over their levels clipped to (a, b).

        For k = 0 a discrete under ``_PREFIX_CUT`` atoms clips every atom's
        levels to (a, b) and sums them all.  A larger one returns the fsum of
        v_i times the level steps of the atoms strictly inside (a, b) and of
        the two clipped edge atoms: the correctly rounded sum of these
        products, within about 2**-53 of the sum of |v_i| times the clipped
        level steps, since each product's rounding stays with its atom.  It
        sums the products by :func:`_fsum` while the atoms its k = 0 moments
        met are fewer than its atoms; from then on it reads them as one
        difference of its prefix table, hi and lo, in O(log n), and sums
        them again only where lo's rounding bound leaves the last bit open.
        Either way the value is the same bits, whatever came before.

        For k != 0 only the atoms whose levels meet (a, b) are summed, each
        by the rule of :func:`_power_integral` with e = k + 1, from its level
        width w and the distance ``near`` of its nearer end to the origin:
        (far**e - near**e) / e where far**e exceeds exp(1) * near**e (w**e / e
        at the origin), and otherwise near**e * expm1(e * log1p(w / near)) / e,
        so that no difference of close powers is taken.
        """
        a, b, k, origin = _check_moment(a, b, k, origin)
        if k == 0.0 and len(self.values) < _PREFIX_CUT:
            knots = np.minimum(np.maximum(np.concatenate(([0.0], self.cum)), a), b)
            return float(np.dot(self.values, np.abs(knots[1:] - knots[:-1])))
        if a == b:
            return 0.0
        first = int(np.searchsorted(self.cum, a, side="right"))
        stop = int(np.searchsorted(self.cum, b, side="left")) + 1
        if k == 0.0:  # hi[j] + lo[j] sums the atoms up to j, so the difference spans first + 1 to last - 1
            v, cum, last = self.values, self.cum, stop - 1
            if first == last:
                return float(v[first] * (b - a))
            edges = v[first] * (cum[first] - a), v[last] * (b - cum[last - 1])
            if self._summed >= len(v):  # the direct sums have cost about one build: build the table, or read it
                hi, lo, bound = self._prefix
                total = _checked_fsum((hi[last - 1], -hi[first], lo[last - 1], -lo[first], *edges), 2.0 * bound)
                if total is not None:
                    return total
            else:
                self._summed += stop - first
            return _fsum(v[first + 1 : last] * (cum[first + 1 : last] - cum[first : last - 1]), edges)
        knots = np.concatenate(([a], self.cum[first : stop - 1], [b]))
        width = knots[1:] - knots[:-1]
        e = k + 1.0
        distance = np.abs(np.subtract(knots, origin, out=knots), out=knots)
        near, far = (distance[:-1], distance[1:]) if origin <= a else (distance[1:], distance[:-1])
        # w < near * expm1(1/e) is e * log1p(w / near) < 1, with 1/e capped inside
        # expm1's range.  The log form runs on every atom, a plain one over the
        # divisor 1, which keeps w / near finite for a subnormal near; the few
        # plain atoms are then overwritten.  In place: a fresh 10^5-atom
        # temporary costs about 0.3 ms in page faults.
        close = width < near * math.expm1(min(1.0 / e, 700.0))
        log = np.where(close, near, 1.0)
        np.divide(width, log, out=log)
        np.log1p(log, out=log)
        log *= e
        weight = near**e
        weight *= np.expm1(log, out=log)
        weight /= e
        plain = np.flatnonzero(~close)
        weight[plain] = (far[plain] ** e - near[plain] ** e) / e
        return float(np.dot(self.values[first:stop], weight))

    def _affine(self, factor, offset):
        with np.errstate(over="ignore", invalid="ignore"):  # an infinite atom is refused by _from_levels
            values = self.values * factor + offset
        return _from_levels(values, self.cum)

    def _reflect(self):  # P(-X <= -v_i) = 1 - cum[i-1]
        return _from_levels(-self.values[::-1], np.append(1.0 - self.cum[-2::-1], 1.0))

    def pos_part(self):
        return _from_levels(np.maximum(self.values, 0.0), self.cum)

    def abs(self):  # the |v_i| fall, then rise: a stable argsort reverses the first run and merges
        values = np.abs(self.values)
        order = values.argsort(kind="stable")
        values, weights = values[order], self.probs[order]
        del order  # each fresh 10^5-atom array costs page faults: the fewer alive, the fewer
        return _from_weights(values, weights)

    def quantile_breakpoints(self) -> tuple[float, ...]:
        return tuple(float(c) for c in self.cum[:-1])

    def quantile_steps(self):
        return self.cum[:-1], self.values[:-1], self.values[1:]

    def support(self) -> tuple[float, float]:
        return float(self.values[0]), float(self.values[-1])

    def tails(self):
        return math.inf, math.inf

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


_SERIES_TERMS = 2000  # beyond this the binomial series of a power moment defers to quadrature
_CANCEL = 2.0**10  # nor may a term of it exceed its sum by more


def _power_integral(a: float, b: float, p: float) -> float:
    """``(b**p - a**p) / p``, the integral of t**(p-1) over (a, b), for 0 <= a <= b; +inf where it diverges.

    Plain where a**p < b**p / e, so that nothing cancels; otherwise in logs,
    as ``a**p * expm1(p * log(b/a)) / p`` with log(b/a) = log1p((b-a)/a),
    which keeps its relative accuracy near p = 0 and a = b, and where a**p
    is beyond the float range.
    """
    if a == b:
        return 0.0
    if a == 0.0:
        return b**p / p if p > 0.0 else math.inf
    span = math.log1p((b - a) / a)
    if p == 0.0:
        return span
    if p * span > 1.0:
        return (b**p - a**p) / p
    ratio = math.expm1(p * span) / p
    try:
        return a**p * ratio
    except OverflowError:  # a**p beyond the float range, p < 0
        try:
            return math.exp(p * math.log(a) + math.log(ratio))
        except OverflowError:
            return math.inf


def _weight_integral(a: float, b: float, k: float, origin: float) -> float:
    """Integral of |u - origin|**k over (a, b), origin outside (a, b); b - a exactly for k = 0."""
    if k == 0.0:
        return b - a
    if origin <= a:
        return _power_integral(a - origin, b - origin, k + 1.0)
    return _power_integral(origin - b, origin - a, k + 1.0)


def _power_moment(a: float, b: float, r: float, k: float, o: float) -> float | None:
    """Integral of t**r |t - o|**k over (a, b) for 0 <= a <= b <= 1 and o outside (a, b); None without a closed form.

    At o = 0 or k = 0 a power integral.  Elsewhere two binomial series, each
    in a ratio of at most 2/3, term by term in power integrals: within o/2 of o,
    where |t - o|**k is small, the series of t**r about o; beyond, that of
    |t - o|**k in o/t or t/o, which ends after k + 1 terms for an integer k.
    Left of 0 (o < 0) only that last one is taken, and only where it ends.
    """
    if a == b:
        return 0.0
    if o == 0.0 or k == 0.0:
        return _power_integral(a, b, r + k + 1.0)
    if a == 0.0 and r <= -1.0:  # t**r times a weight bounded away from 0 near t = 0
        return math.inf
    near = far = 0.0
    if o <= a:  # weight (t - o)**k
        if o < 0.0 and not float(k).is_integer():
            return None
        cut = 1.5 * o  # below: t**r = o**r (1 + z)**r, z = t/o - 1; above: (t - o)**k = t**k (1 - o/t)**k
        if a < cut:
            z1, z2 = (a - o) / o, (min(b, cut) - o) / o
            near = _binomial_sum(r, 1.0, lambda m: _power_integral(z1, z2, m + k + 1.0))
        if cut < b:
            lo = max(a, cut)
            far = _binomial_sum(k, -o, lambda j: _power_integral(lo, b, r + k + 1.0 - j))
    else:  # weight (o - t)**k
        cut = 0.5 * o  # above: t**r = o**r (1 - z)**r, z = 1 - t/o; below: (o - t)**k = o**k (1 - t/o)**k
        if cut < b:
            z1, z2 = (o - b) / o, (o - max(a, cut)) / o
            near = _binomial_sum(r, -1.0, lambda m: _power_integral(z1, z2, m + k + 1.0))
        if a < cut:
            s1, s2 = a / o, min(b, cut) / o
            far = _binomial_sum(k, -1.0, lambda j: _power_integral(s1, s2, r + j + 1.0))
    if near is None or far is None:
        return None
    try:  # the near series is in units of o**(r+k+1), and so is the far one right of (a, b)
        unit = o ** (r + k + 1.0) if near or o > a else 0.0
    except OverflowError:
        return None
    total = unit * near + (unit * far if o > a else far)
    return total if math.isfinite(total) else None  # a power beyond the float range: left to quadrature


def _binomial_sum(k: float, x: float, integral) -> float | None:
    """Sum over j of C(k, j) x**j integral(j), up to its first negligible term.

    An integer k >= 0 ends the sum after k + 1 terms.  None if no term
    comes, or if the terms cancel: a term over _CANCEL times the sum has
    already lost that many units of its last place.  An alternating series
    does so for a steep power, in t**r about o for r well below -1.
    """
    total, coef, largest = 0.0, 1.0, 0.0
    for j in range(_SERIES_TERMS):
        # past an integer k's last term coef is 0, and integral(j) may be inf: 0 * inf = nan never ends the sum
        term = coef * integral(j) if coef else 0.0
        total += term
        largest = max(largest, abs(term))
        if abs(term) <= 2.0**-60 * abs(total):
            return total if largest <= _CANCEL * abs(total) else None
        coef *= x * (k - j) / (j + 1)
    return None


class ParetoNegative(Distribution):
    """Power-law left tail supported on (-inf, -beta]: q(u) = -beta u**(-1/theta).

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

    def quantile_moment(self, a, b, k, origin, *, epsabs=MOMENT_TOL):
        """-beta times the power moment of u**(-1/theta) (:func:`_power_moment`), or the default quadrature."""
        a, b, k, origin = _check_moment(a, b, k, origin)
        moment = _power_moment(a, b, -1.0 / self.theta, k, origin)
        if moment is None:
            return super().quantile_moment(a, b, k, origin, epsabs=epsabs)
        return -self.beta * moment

    def support(self) -> tuple[float, float]:
        return -math.inf, -self.beta

    def tails(self):
        return self.theta, math.inf

    def label(self) -> str:
        return f"pareto_negative(beta={self.beta:g},theta={self.theta:g})"

    def __repr__(self) -> str:
        return f"ParetoNegative(beta={self.beta!r}, theta={self.theta!r})"


# ---------------------------------------------------------------------------
# lazy transform nodes (non-discrete bases only; discrete transforms are eager)


class _Affine(Distribution):
    """factor * X + offset, factor > 0: ``scale`` builds one with no offset, ``shift`` one with factor 1."""

    def __init__(self, base: Distribution, factor: float, offset: float):
        self.base = base
        self.factor = float(factor)  # factor 0 collapses to point_mass earlier
        self.offset = float(offset)  # -0.0 adds nothing, not even to the sign of a zero quantile

    def cdf(self, x):
        return self.base.cdf((x - self.offset) / self.factor)

    def cdf_left(self, x):
        return self.base.cdf_left((x - self.offset) / self.factor)

    def quantile_lower(self, u):
        return self.factor * self.base.quantile_lower(u) + self.offset

    def quantile_upper(self, u):
        return self.factor * self.base.quantile_upper(u) + self.offset

    def quantile_moment(self, a, b, k, origin, *, epsabs=MOMENT_TOL):
        moment = self.factor * self.base.quantile_moment(a, b, k, origin, epsabs=epsabs / self.factor)
        if self.offset:
            moment += self.offset * _weight_integral(a, b, k, origin)
        return moment

    def quantile_breakpoints(self):
        return self.base.quantile_breakpoints()

    def support(self):
        lo, hi = self.base.support()
        return self.factor * lo + self.offset, self.factor * hi + self.offset

    def tails(self):
        return self.base.tails()  # a positive scale and a shift keep the blow-up's exponent

    def label(self):
        if self.offset:
            return f"shift({self.offset:g},{self.base.label()})"
        return f"scale({self.factor:g},{self.base.label()})"


class _Negated(Distribution):
    """Reflection x -> -x: realizes ``neg_part`` and ``abs``, and is the right Pareto tail.

    Where 1 - u rounds to 1 (u below 2**-53) both quantiles are minus the base's supremum, inconclusive if infinite.
    """

    def __init__(self, base: Distribution):
        self.base = base

    def cdf(self, x):
        return 1.0 - self.base.cdf_left(-x)

    def cdf_left(self, x):
        return 1.0 - self.base.cdf(-x)

    def quantile_lower(self, u):
        m = 1.0 - _check_level(u)
        return -self.base.quantile_upper(m) if m < 1.0 else self._top(u)

    def quantile_upper(self, u):
        m = 1.0 - _check_level(u)
        return -self.base.quantile_lower(m) if m < 1.0 else self._top(u)

    def _reflect(self):
        return self.base

    def _top(self, u):
        hi = self.base.support()[1]
        if math.isinf(hi):
            raise InconclusiveError(f"the level 1 - {u!r} rounds to 1, where the base is unbounded above")
        return -hi

    def quantile_moment(self, a, b, k, origin, *, epsabs=MOMENT_TOL):
        """Minus the base moment at the mirrored levels: |u - origin| is |(1-u) - (1-origin)|."""
        a, b, k, origin = _check_moment(a, b, k, origin)
        return -self.base.quantile_moment(1.0 - b, 1.0 - a, k, 1.0 - origin, epsabs=epsabs)

    def quantile_breakpoints(self):
        return tuple(sorted(1.0 - t for t in self.base.quantile_breakpoints()))

    def support(self):
        lo, hi = self.base.support()
        return -hi, -lo

    def tails(self):
        return self.base.tails()[::-1]

    def label(self):
        return f"negate({self.base.label()})"


class ParetoPositive(_Negated):
    """Classic Pareto right tail on [beta, inf): cdf(x) = 1 - (beta/x)**theta, q(u) = beta (1-u)**(-1/theta).

    The reflection of ``ParetoNegative(beta, theta)``: every evaluation is the negation node's.
    """

    def __init__(self, beta: float, theta: float):
        super().__init__(ParetoNegative(beta, theta))
        self.beta, self.theta = self.base.beta, self.base.theta

    def label(self):
        return f"pareto_positive(beta={self.beta:g},theta={self.theta:g})"

    def __repr__(self):
        return f"ParetoPositive(beta={self.beta!r}, theta={self.theta!r})"


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

    def quantile_moment(self, a, b, k, origin, *, epsabs=MOMENT_TOL):
        """The base moment over the levels above the split, where q is positive."""
        a, b, k, origin = _check_moment(a, b, k, origin)
        lo = max(a, min(self._split, b))
        if b <= lo:
            return 0.0
        return self.base.quantile_moment(lo, b, k, origin, epsabs=epsabs)

    def quantile_breakpoints(self):
        pts = set(self.base.quantile_breakpoints())
        if 0.0 < self._split < 1.0:
            pts.add(self._split)
        return tuple(sorted(pts))

    def support(self):
        lo, hi = self.base.support()
        return max(lo, 0.0), max(hi, 0.0)

    def tails(self):
        return math.inf, self.base.tails()[1]

    def label(self):
        return f"pos_part({self.base.label()})"


class _AbsMixed(Distribution):
    """|X| for a non-discrete base X straddling zero, evaluated in level space.

    The CDF F(x) - F(-x-) is exact up to the rounding of that difference,
    which loses relative accuracy where it is small; the left limit is
    clamped at 0, below which rounding in the base can take it.  A quantile
    is the least float x where that CDF reaches the level, so the float Galois
    relation ``quantile_lower(u) <= x`` iff ``u <= cdf(x)`` holds exactly.
    :func:`_search` finds it twice: in the level s, where the base
    quantiles bound |X| <= x on the levels (s, s+u], for an estimate
    (``_window``), then in x around the estimate on the CDF itself
    (``_least``).  Quantile integrals are closed form in the base's CDF
    and quantile integrals; other quantile moments are integrated
    numerically, by the default ``quantile_moment``.
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
        # an affine base can round x - c and -x - c onto one float, leaving minus an atom at 0
        return max(self.base.cdf_left(x) - self.base.cdf(-x), 0.0)

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
        q = base.quantile_lower
        reach = {}

        def gap(s):
            t = s + v  # moved to the least float t with t - s >= v
            while t - s < v:
                t = math.nextafter(t, 1.0)
            while math.nextafter(t, 0.0) - s >= v:
                t = math.nextafter(t, 0.0)
            right = q(t) if t < 1.0 else high
            left = -q(math.nextafter(s, 1.0)) if 0.0 < s < _BELOW_ONE else -low if s <= 0.0 else -high
            reach[s] = right, left
            return right - left

        # never below the largest s with 1 - s >= v in floats, so it only steps down to it
        top = (1.0 - v) + 0.5 * (v - math.nextafter(v, 0.0))
        while 1.0 - top < v:
            top = math.nextafter(top, 0.0)
        a, b = _search(gap, 0.0, top, gap(0.0), gap(top), top)
        (ra, la), (rb, lb) = reach[a], reach[b]
        est = max(min(max(ra, la), max(rb, lb)), 0.0)
        w = max((d for d in (la - lb, rb - ra) if d < math.inf), default=0.0)
        return est, math.ldexp(1.0, math.frexp(max(w, 4.0 * math.ulp(est)))[1])

    def quantile_moment(self, a, b, k, origin, *, epsabs=MOMENT_TOL):
        """Closed form of the integral of q over (a, b) at k = 0; other k by the default quadrature."""
        a, b, k, origin = _check_moment(a, b, k, origin)
        if k != 0.0:
            return super().quantile_moment(a, b, k, origin, epsabs=epsabs)
        return self._integral(a, b, self.quantile_lower)

    def _integral(self, a, b, q):
        """Integral of q over (a, b) in closed form, given this node's lower quantile ``q``.

        With c_t = q(t), G the CDF of |X| and F that of X,
        int_a^1 q = c_a (G(c_a) - a) + E[(X - c_a)+] + E[(-X - c_a)+], and
        the two expectations are quantile integrals of X.  For b < 1 the
        difference of the a and b terms is taken piece by piece,
        c_a (G(c_a) - a) - c_b (G(c_b) - b) + int_{F(c_a)}^{F(c_b)} q_X
        - int_{F(-c_b-)}^{F(-c_a-)} q_X, so a divergent tail of X never
        enters as inf - inf.  For b = 1 the c_b term drops, F(c_b) = 1 and
        F(-c_b-) = 0.  The dyadic probe passes a ``q`` that remembers its
        searches.
        """
        if a == b:
            return 0.0
        ca, pa, na = self._levels(a, q)
        cb, pb, nb = (0.0, 1.0, 0.0) if b == 1.0 else self._levels(b, q)
        atoms = ca * (pa - na - a) - cb * (pb - nb - b)
        return atoms + self.base.quantile_integral(pa, pb) - self.base.quantile_integral(nb, na)

    def _levels(self, t, q):
        """(c, F(c), F(-c-)) for c = q(t), with c = 0 at t = 0."""
        c = 0.0 if t == 0.0 else q(t)
        return c, self.base.cdf(c), self.base.cdf_left(-c)

    def _kinks(self):
        """Sorted finite x where the CDF may kink or jump: |x| of the base's support ends and ``quantile_steps``."""
        lo, hi = self.base.support()
        _levels, lower, upper = self.base.quantile_steps()
        xs = [-lo, hi, *np.abs(lower).tolist(), *np.abs(upper).tolist()]
        return sorted({x for x in xs if math.isfinite(x)})

    def quantile_breakpoints(self):
        """The levels of the kinks inside (0, 1)."""
        levels = {self.cdf(x) for x in self._kinks()}
        return tuple(sorted(t for t in levels if 0.0 < t < 1.0))

    def support(self):
        lo, hi = self.base.support()
        return 0.0, max(abs(lo), abs(hi))

    def tails(self):
        return math.inf, _heavier(*self.base.tails())

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
    :func:`_search`.  The first CDF call tabulates q at the fixed
    ``_TABLE_LEVELS`` (about 1 ms); each search then starts from the two
    adjacent table levels whose q values bracket x.
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
        return self._summed(_check_level(u))

    def _summed(self, u):
        """The operands' lower quantiles added, at a level already in (0, 1): the CDF's search asks no other."""
        return self.first.quantile_lower(u) + self.second.quantile_lower(u)

    @cached_property
    def _table(self) -> tuple[float, ...]:
        """``_summed`` at each of ``_TABLE_LEVELS``; () if those floats are out of order (a NaN too)."""
        table = tuple(map(self._summed, _TABLE_LEVELS))
        return table if all(map(operator.le, table, table[1:])) else ()

    def quantile_upper(self, u):
        u = _check_level(u)
        return self.first.quantile_upper(u) + self.second.quantile_upper(u)

    def cdf(self, x):
        lo, hi = self._support
        if x < lo:
            return 0.0
        if x >= hi:
            return 1.0
        if self._steps is None:
            # largest u with q(u) <= x; measure of {q <= x}
            return _invert_level(self._summed, x, self._table)
        values, levels, starts, ends, other = self._steps
        i = bisect.bisect_right(starts, x) - 1
        if x >= ends[i]:
            return levels[i + 1]
        return min(max(other.cdf(x - values[i]), levels[i]), levels[i + 1])

    def cdf_left(self, x):
        lo, hi = self._support
        if x <= lo:
            return 0.0
        if x > hi:
            return 1.0
        if self._steps is None:
            return _invert_level(self._summed, x, self._table, strict=True)
        values, levels, starts, ends, other = self._steps
        i = bisect.bisect_left(starts, x) - 1
        if x > ends[i]:
            return levels[i + 1]
        return min(max(other.cdf_left(x - values[i]), levels[i]), levels[i + 1])

    def local_cdf(self, s, t):
        """``cdf`` bound to the atom whose level interval holds (s, t): no bisection per call.

        Strictly between q+(s) and q(t), x lies inside that atom's stretch
        and below its end, so ``cdf``'s bisection finds this atom and its
        clipped value is the one returned here, bit for bit.
        """
        if self._steps is None:
            return self.cdf
        values, levels, _starts, _ends, other = self._steps
        i = bisect.bisect_right(levels, s) - 1
        v, bottom, top, cdf = values[i], levels[i], levels[i + 1], other.cdf
        return lambda x: min(max(cdf(x - v), bottom), top)

    def quantile_moment(self, a, b, k, origin, *, epsabs=MOMENT_TOL):
        """The operands' moments added, as their quantiles add: each in closed form where it has one."""
        return (self.first.quantile_moment(a, b, k, origin, epsabs=epsabs)
                + self.second.quantile_moment(a, b, k, origin, epsabs=epsabs))

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

    @cached_property
    def _support(self) -> tuple[float, float]:
        lo1, hi1 = self.first.support()
        lo2, hi2 = self.second.support()
        return lo1 + lo2, hi1 + hi2

    def support(self):
        return self._support

    def tails(self):
        (lo1, hi1), (lo2, hi2) = self.first.tails(), self.second.tails()
        return _heavier(lo1, lo2), _heavier(hi1, hi2)

    def label(self):
        return f"comonotone({self.first.label()},{self.second.label()})"


def _heavier(t1, t2):
    """The heavier of two tail exponents: the smaller θ, None if either is unknown."""
    return None if t1 is None or t2 is None else min(t1, t2)


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


# in order: 2**-k from the least subnormal up, the i/1024 grid, and 1 - 2**-k up to the float below 1;
# the grid holds 2**-k and 1 - 2**-k for k <= 10
_TABLE_LEVELS = (
    *(2.0**-k for k in range(1074, 10, -1)),
    *(i / 1024 for i in range(1, 1024)),
    *(1.0 - 2.0**-k for k in range(11, 54)),
)


def _invert_level(q, x, table, strict=False):
    """Largest float u in [0, 1) with q(u) <= x (q(u) < x when strict), for nondecreasing q.

    Bitwise what bisection in u down to adjacent floats returns; q is never
    called at 0 or 1.  q(u) == x counts as an ulp of x on its side of x.
    ``table`` is q at ``_TABLE_LEVELS``, in order, or () for none: the
    search starts from the adjacent table levels around x (0 or 1 past its
    ends) with their known gaps, and the answer, the flip of a monotone
    test, is the same from any bracket around it.
    """
    if x != x:  # no level passes a test against NaN; bisect_right would place it past the table's end
        return 0.0
    tie = math.ulp(x) if strict else -math.ulp(x)

    def side(qu):
        return qu - x if qu != x else tie

    def gap(u):
        return side(q(u))

    i = (bisect.bisect_left if strict else bisect.bisect_right)(table, x)
    a, ga = (_TABLE_LEVELS[i - 1], side(table[i - 1])) if i else (0.0, -math.inf)
    b, gb = (_TABLE_LEVELS[i], side(table[i])) if i < len(table) else (1.0, math.inf)
    return _search(gap, a, b, ga, gb)[0]


def _level_steps(cum: np.ndarray) -> np.ndarray:
    """``np.diff(cum, prepend=0.0)``, bit for bit, without its fixed cost of several microseconds."""
    steps = np.empty_like(cum)
    steps[:1] = cum[:1]
    np.subtract(cum[1:], cum[:-1], out=steps[1:])
    return steps


def _from_weights(values: np.ndarray, weights: np.ndarray) -> Discrete:
    """The discrete of nondecreasing ``values`` whose levels are the running sum of ``weights`` over their total."""
    run, lo = _running_sum(weights)
    run += lo
    if not run[-1] < math.inf:  # NaN too
        raise ParameterError("total weight must be finite")
    if run[-1] == 0.0:
        raise ParameterError("total weight must be positive")
    run /= run[-1]
    return _from_levels(values, run)


def _from_levels(values: np.ndarray, cum: np.ndarray) -> Discrete:
    """The discrete whose quantile is ``values[i]`` on the levels (cum[i-1], cum[i]].

    ``values`` and ``cum`` are nondecreasing, and ``cum`` ends at 1.  A run
    of equal values is one atom at the run's last level, and an atom whose
    level does not rise is dropped: no quantile returns it.  Arrays with
    nothing to merge or drop are kept, not copied.
    """
    last = values[1:] != values[:-1]
    if not last.all():
        last = np.append(last, True)
        values, cum = values[last], cum[last]
    # a dropped atom's level is its predecessor's: c_i > c_{i-1} is a level step > 0
    rises = cum[1:] > cum[:-1]
    if not (cum[0] > 0.0 and rises.all()):
        rises = np.concatenate(([cum[0] > 0.0], rises))
        values, cum = values[rises], cum[rises]
    if not np.isfinite(values).all():
        raise ParameterError("atom values must be finite")
    out = Discrete.__new__(Discrete)
    out.values, out.cum, out._given = values, cum, None
    return out


def _merged_atoms(d1: Discrete, d2: Discrete) -> tuple[np.ndarray, np.ndarray]:
    """The quantile sums of two discretes on the union of their levels, and that union.

    A stable argsort merges the two sorted level runs.  The first entry of each
    run of equal levels is a union level; the d1 entries before it count the
    d1 levels below it, d1's atom index there, and the d2 entries d2's.
    """
    levels = np.concatenate((d1.cum, d2.cum))
    order = levels.argsort(kind="stable")
    levels, from1 = levels[order], order < len(d1.cum)
    del order
    first = np.concatenate(([True], levels[1:] != levels[:-1]))
    i1 = (from1.cumsum() - from1)[first]
    i2 = first.nonzero()[0] - i1
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite atom is refused by _from_levels
        return d1.values[i1] + d2.values[i2], levels[first]


def comonotone_sum(d1: Distribution, d2: Distribution) -> Distribution:
    """Distribution of X+Y under the comonotone coupling of d1 and d2."""
    if isinstance(d1, Discrete) and isinstance(d2, Discrete):
        # on the union of the levels both quantiles are constant, so their sums are the atoms
        return _from_levels(*_merged_atoms(d1, d2))
    if isinstance(d1, Discrete) and len(d1.values) == 1:
        return d2.shift(float(d1.values[0]))
    if isinstance(d2, Discrete) and len(d2.values) == 1:
        return d1.shift(float(d2.values[0]))
    return ComonotoneSum(d1, d2)


def _check_moment(a: float, b: float, k: float, origin: float) -> tuple[float, float, float, float]:
    """The range, exponent and origin as Python floats: their powers raise ``OverflowError``, numpy's warn."""
    a, b = float(a), float(b)
    if not (0.0 <= a <= b <= 1.0):
        raise ParameterError(f"integration range must satisfy 0 <= a <= b <= 1, got ({a!r}, {b!r})")
    k, origin = float(k), float(origin)
    if not k > -1.0:
        raise ParameterError(f"moment exponent must exceed -1, got {k!r}")
    if not (origin <= a or origin >= b):  # NaN too
        raise ParameterError(f"moment origin must lie outside ({a!r}, {b!r}), got {origin!r}")
    return a, b, k, origin

