"""Distortion risk measures through their equivalent representations.

The same functional is computed three ways: integrating the quantile
function against the distortion measure, integrating the distorted tail
probabilities over the real line, and mixing expected shortfall across
levels.  Against one power piece of D, of the spectrum s or of a probe
band, the quantile form is a quantile moment, the integral of q times a
power of the distance to the piece's origin, and the mixture form is one
by parts.  So the quantile and mixture forms and the dyadic probe take
each piece as one ``quantile_moment`` call, for every input, which each
node answers in closed form where it can: discretes, power tails, their
affine maps, positive parts and comonotone sums, for every exponent.  Only
what a node cannot do in closed form, the moments of |X| other than its
quantile integral, and distributions defined outside this package, is
integrated by adaptive quadrature with the tolerances declared here; the
probe alone takes such an |X| band by parts in x instead.  The
tail integral shares none of this: it walks the quantile's breakpoint
levels, takes each flat step of the CDF and each stretch where D is flat
in closed form, and integrates only where D(F(x)) moves, each stretch
against the one piece of D that applies there, evaluated in floats.
Whether max(q, 0) or max(-q, 0) is integrable against D is decided in one
place, for the forms' domain flags and the class verdicts alike.  The
quadrature calls scipy's compiled QUADPACK routines directly; their
extension is loaded on the first quadrature call, without
``scipy.integrate`` and the packages it imports, so a process that only
evaluates closed forms never loads scipy.  ``+inf`` is never returned as a
risk value: a divergent positive part is reported as non-membership
instead, and a value or quantile beyond the float range, where both parts
converge, is inconclusive.
"""

from __future__ import annotations

import bisect
import enum
import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .distortions import MASS_TOL, Distortion, expectation, higher_order_es_distortion, spectral_of
from .distributions import _BELOW_ONE, Distribution, _AbsMixed, _fsum
from .errors import InconclusiveError, NotSpectralError, ParameterError

__all__ = [
    "RiskValue",
    "DomainClass",
    "Verdict",
    "MembershipVerdict",
    "DomainComparison",
    "InfimumResult",
    "quantile_risk",
    "choquet_risk",
    "mixture_risk",
    "value_at_risk",
    "expected_shortfall",
    "expected_shortfall_infimum",
    "expected_shortfall_higher_order",
    "classify_membership",
    "compare_domains",
]

QUAD_TOL = 1e-9
CLASSIFY_METHODS = ("auto", "analytic", "probe")
INFIMUM_TOL = 1e-10
PROBE_LEVELS = 40
PROBE_TOL = 1e-11  # the absolute tolerance of each probe band taken by quadrature
PROBE_CAUCHY = 1e-9
PROBE_RATIO = 0.85
PROBE_GROWTH = 1e-3
_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True)
class RiskValue:
    """A risk number in [-inf, inf), or the flag that X is outside the domain."""

    kind: str  # "finite" | "neg-inf" | "not-in-domain"
    value: float

    @classmethod
    def finite(cls, value: float) -> RiskValue:
        if not math.isfinite(value):
            # every caller has found both parts convergent: the value is finite but beyond the float range
            raise InconclusiveError(f"the risk value came out {value!r}: beyond the float range", diagnostics=[value])
        return cls("finite", float(value))

    @classmethod
    def neg_inf(cls) -> RiskValue:
        return cls("neg-inf", -math.inf)

    @classmethod
    def not_in_domain(cls) -> RiskValue:
        return cls("not-in-domain", math.nan)

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    @property
    def in_domain(self) -> bool:
        return self.kind != "not-in-domain"

    def as_float(self) -> float:
        """Numeric value; raises when the risk is undefined (not in domain)."""
        if not self.in_domain:
            raise ParameterError("risk value is undefined: variable outside the domain")
        return self.value

    def json_value(self):
        if self.kind == "finite":
            return self.value
        return "-inf" if self.kind == "neg-inf" else "not-in-domain"

    def __str__(self) -> str:
        return f"{self.value:.12g}" if self.kind == "finite" else self.json_value()


class DomainClass(enum.Enum):
    QUANTILE = "quantile"  # positive quantile part integrable
    ACERBI = "acerbi"  # absolute quantile integrable
    PICHLER = "pichler"  # quantile of |X| integrable

    def __str__(self) -> str:
        return self.value


class Verdict(enum.Enum):
    MEMBER = "member"
    NON_MEMBER = "non-member"
    INCONCLUSIVE = "inconclusive"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class MembershipVerdict:
    domain_class: DomainClass
    verdict: Verdict
    method: str  # "discrete" | "analytic" | "probe"
    partials: tuple[float, ...] = ()


# ---------------------------------------------------------------------------
# integration helpers


_POINTS_PER_CALL = 100  # leaves room for refinement under QUADPACK's 400-subinterval limit
_quadpack = None  # scipy's compiled QUADPACK module, bound by the first _quad call
_QUADPACK_LOCK = threading.Lock()  # concurrent first calls load and register one module


def _load_quadpack():
    """scipy's compiled ``scipy.integrate._quadpack``, without running ``scipy.integrate``'s ``__init__``.

    That ``__init__`` imports the ODE solvers, ``scipy.optimize``,
    ``scipy.sparse`` and ``scipy.linalg``; ``_quad`` calls three routines
    of the one extension.  A module already imported is reused; otherwise
    the extension is loaded from the ``scipy/integrate`` directory under its
    qualified name and registered, so a later ``import scipy.integrate``
    reuses this instance.
    """
    name = "scipy.integrate._quadpack"
    with _QUADPACK_LOCK:
        module = sys.modules.get(name)
        if module is None:
            dirs = [os.path.join(d, "integrate") for d in importlib.util.find_spec("scipy").submodule_search_locations]
            spec = importlib.util.spec_from_file_location(
                name, importlib.machinery.PathFinder.find_spec("_quadpack", dirs).origin
            )
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[name] = module
        return module


def _quad(f, a, b, *, points=(), epsabs) -> tuple[float, bool]:
    """Adaptive quadrature over (a, b), which may be infinite at one end, with interior breakpoints.

    QUADPACK is called directly, as ``scipy.integrate.quad`` would call it:
    ``qagse`` on a finite range, ``qagpe`` on one with breakpoints and
    ``qagie`` on a half-line, which takes no breakpoints.  A range no
    routine takes (b < a, both ends infinite, or breakpoints on a
    half-line) raises ``ValueError``; Choquet, the one caller with an
    infinite end, splits at 0 and passes no breakpoints.  The three
    routines are scipy-private; tier-1 pins their values, error estimates
    and give-up flags bitwise to ``quad``'s, verified on scipy 1.17.1 only.
    A call takes at most ``_POINTS_PER_CALL`` breakpoints, so the range is
    split at every ``_POINTS_PER_CALL + 1``-th breakpoint.  The pieces
    share ``epsabs``; their values and error estimates are summed.
    Returns the value and whether QUADPACK gave up on a piece (a nonzero
    ``ier``): its value may then be 0.0 for an integrand beyond the float
    range.  The raw routines issue no warnings, so none are filtered.
    """
    global _quadpack
    if _quadpack is None:
        _quadpack = _load_quadpack()
    pts = sorted({p for p in points if a < p < b})
    infinite = a == -math.inf, b == math.inf
    if b < a or all(infinite) or any(infinite) and pts:
        raise ValueError(f"no QUADPACK route for ({a!r}, {b!r}) with {len(pts)} breakpoints")
    edges = sorted({a, b, *pts[_POINTS_PER_CALL :: _POINTS_PER_CALL + 1]})
    val = err = 0.0
    gave_up = False
    for lo, hi in zip(edges, edges[1:]):
        inner = pts[bisect.bisect_right(pts, lo) : bisect.bisect_left(pts, hi)]
        tol = epsabs / (len(edges) - 1)
        # ier 6, invalid input, needs epsabs <= 0 with a tiny epsrel, limit < 1 or
        # at least limit breakpoints: none can come from these arguments
        if hi == math.inf:
            v, e, ier = _quadpack._qagie(f, lo, 1, (), 0, tol, 1e-10, 400)
        elif lo == -math.inf:
            v, e, ier = _quadpack._qagie(f, hi, -1, (), 0, tol, 1e-10, 400)
        elif inner:
            # QUADPACK's points array ends with two slots of its own
            v, e, ier = _quadpack._qagpe(f, lo, hi, (*inner, 0.0, 0.0), (), 0, tol, 1e-10, 400)
        else:
            v, e, ier = _quadpack._qagse(f, lo, hi, (), 0, tol, 1e-10, 400)
        val += v
        err += e
        gave_up = gave_up or ier != 0
    if not math.isfinite(val) or err > max(1e-7, abs(val) * 1e-6):
        raise InconclusiveError(
            f"quadrature did not converge on ({a!r}, {b!r})", diagnostics=[val, err]
        )
    return val, gave_up


def _piece_integral(dist, a: float, b: float, k: float, origin: float, *, epsabs: float) -> float:
    """Integral of q(u) |u - origin|**k over (a, b) by quadrature: the numeric route of ``quantile_moment``.

    A node reaches it only for a weight it has no closed form for.  For
    k >= 0 the weight is bounded, and q times it is integrated; a
    quadrature node that rounds onto the level 0 or 1, where q is not
    defined, makes the integral inconclusive.  For k < 0 it is singular at
    the origin, an end of (a, b); in v = |u - origin|**(k+1) / (k+1) the
    measure is dv, so q is integrated in v, where the singularity
    disappears.

    When QUADPACK gives up and q is beyond the float range at the levels of
    (a, b) nearest its ends, which bound q, the integral is inconclusive.
    """
    q, points = dist.quantile_lower, dist.quantile_breakpoints()
    if k >= 0.0:
        def f(u):
            if not 0.0 < u < 1.0:
                raise InconclusiveError(f"a quadrature node on ({a!r}, {b!r}) rounded to the level {u!r}")
            return q(u) * abs(u - origin) ** k

        val, gave_up = _quad(f, a, b, points=points, epsabs=epsabs)
    else:
        e = k + 1.0
        side = 1.0 if origin <= a else -1.0
        v = lambda u: abs(u - origin) ** e / e
        # u(v), kept inside [a, b] and (0, 1) against rounding
        u = lambda x: min(max(origin + side * (e * x) ** (1.0 / e), a, 5e-324), b, _BELOW_ONE)
        lo, hi = sorted((v(a), v(b)))
        val, gave_up = _quad(lambda x: q(u(x)), lo, hi, points=[v(t) for t in points if a < t < b], epsabs=epsabs)
    if gave_up and not all(math.isfinite(q(t)) for t in (max(a, 5e-324), min(b, _BELOW_ONE))):
        raise InconclusiveError(f"quad gave up on ({a!r}, {b!r}), where q leaves the float range", diagnostics=[val])
    return val


def _density_moment(dist, p, a: float, b: float, epsabs: float) -> float:
    """Integral of q against d(p) over (a, b), for one increasing, non-flat piece p.

    The density c (u - origin)**(expo - 1), c = coef * expo / width**expo,
    makes it c times one quantile moment.  A moment reached by quadrature
    gets the tolerance ``epsabs / c``, but never a looser one than
    ``epsabs``: ``_quad`` accepts an error estimate by its own scale.
    """
    a = max(a, p.origin)
    if b <= a:
        return 0.0
    c = p.coef * p.expo / p.width**p.expo
    return c * dist.quantile_moment(a, b, p.expo - 1.0, p.origin, epsabs=epsabs / max(c, 1.0))


def _tail_rule(theta, p) -> bool | None:
    """Does the quantile-vs-density integral diverge at this endpoint?

    A quantile ~ t**(-1/theta) in the distance t to the endpoint, against a
    density ~ t**p, is integrable exactly when p - 1/theta > -1.  ``theta`` is
    inf for a bounded quantile (1/inf = 0, and p > -1), ``p`` None when no
    density reaches the endpoint.  Returns None when ``theta`` is unknown.
    """
    if p is None:
        return False
    if theta is None:
        return None
    return p - 1.0 / theta <= -1.0


def _forced_value(dist: Distribution, distortion: Distortion) -> RiskValue | None:
    """The risk a divergent part forces, the positive part first, or None when both converge."""
    if dist.is_discrete:
        return None
    for part in "+-":
        verdict, partials = _part_verdict(dist, distortion, part)
        if verdict is Verdict.NON_MEMBER:
            return RiskValue.not_in_domain() if part == "+" else RiskValue.neg_inf()
        if verdict is Verdict.INCONCLUSIVE:
            raise InconclusiveError(
                f"dyadic probe undecided for the {part} part after {PROBE_LEVELS} levels",
                diagnostics=list(partials),
            )
    return None


def _part_verdict(dist, distortion, part: str, method: str = "auto") -> tuple[Verdict, tuple[float, ...]]:
    """Is max(q, 0) (part '+') or max(-q, 0) (part '-') integrable against D?

    The tail rule at the part's end decides when the tail data allows it,
    unless ``method`` is 'probe'; otherwise the dyadic probe decides, unless
    ``method`` is 'analytic'.  Returns the verdict (MEMBER when the part is
    integrable) and the probe partials, () when no probe ran.
    """
    upper = part == "+"
    if method != "probe":
        diverges = _tail_rule(dist.tails()[upper], distortion.density_exponent_at(int(upper)))
        if diverges is not None:
            return (Verdict.NON_MEMBER if diverges else Verdict.MEMBER), ()
        if method == "analytic":
            return Verdict.INCONCLUSIVE, ()
    # q > 0 exactly above the level F(0), so each part lives on one side of it
    zero = dist.cdf(0.0)
    sign, span = (1.0, (zero, 1.0)) if upper else (-1.0, (0.0, zero))
    partials = _dyadic_partials(dist, distortion, sign, span)
    return _judge_partials(partials), partials


def _dyadic_partials(dist, distortion, sign: float, span) -> tuple[float, ...]:
    """Cumulative integrals of h = max(sign * q, 0) dQ over the windows (2^-k, 1 - 2^-k).

    Window 1 is the level 0.5 and adds only D's atom there.  Window k >= 2
    adds D's atoms in [2^-k, 2^-(k-1)) and (1 - 2^-(k-1), 1 - 2^-k], then
    the two bands (2^-k, 2^-(k-1)) and (1 - 2^-(k-1), 1 - 2^-k), but only
    the levels ``span``, where h is sign * q: each band of a piece of D adds
    sign times one quantile moment, or on |X| one :func:`_abs_band`, which
    searches q only at the band's ends and remembers each search for the
    next band.
    """
    atoms = distortion.measure.atoms
    pieces = [p for p in distortion.pieces if not p.flat]
    if isinstance(dist, _AbsMixed):
        q, kinks = functools.cache(dist.quantile_lower), dist._kinks()
        band = lambda p, a, b: _abs_band(dist, p, a, b, q, kinks)
    else:
        q = dist.quantile_lower
        band = lambda p, a, b: _density_moment(dist, p, a, b, PROBE_TOL)
    total = 0.0
    out = []
    for k in range(1, PROBE_LEVELS + 1):
        lo, hi = 2.0**-k, 1.0 - 2.0**-k
        inc = 0.0
        for loc, mass in atoms:
            if lo <= loc <= hi and not 2.0 * lo <= loc <= 1.0 - 2.0 * lo:
                inc += mass * max(sign * q(loc), 0.0)
        for a, b in ((lo, 2.0 * lo), (1.0 - 2.0 * lo, hi)) if k > 1 else ():
            for piece in pieces:
                pa, pb = max(a, piece.lo, span[0]), min(b, piece.hi, span[1])
                if pb > pa:
                    inc += sign * band(piece, pa, pb)
        total += inc
        out.append(total)
    return tuple(out)


def _abs_band(dist, p, a: float, b: float, q, kinks) -> float:
    """Integral of the |X| quantile q against d(p) over a probe band (a, b), b < 1.

    A linear piece takes the closed-form quantile integral, as
    :func:`_density_moment` does.  Any other piece W = p is taken by parts
    in x: u > G(y) exactly where q(u) > y, G the CDF of |X| (two base CDF
    calls), so

        int_a^b q dW = q(a) (W(b) - W(a)) + int_{q(a)}^{q(b)} (W(b) - W(min(max(G(y), a), b))) dy,

    integrated with absolute tolerance ``PROBE_TOL`` and the ``kinks`` of G as
    breakpoints, in place of a quantile search at every node of a moment.
    Where ``_quad`` cannot certify that integral (in a deep band the
    rounding of G is a large part of W(b) - W(G)) or q(b) is past the float
    range, the band takes the level-space moment instead.  Only the forced
    probe takes this route: the risk forms keep level space, and the
    x-space integral of W(G) stays the tail integral's own.
    """
    if p.expo == 1.0:
        a = max(a, p.origin)
        return p.coef / p.width * dist._integral(a, b, q) if b > a else 0.0
    qa, qb = q(a), q(b)
    if math.isfinite(qb):
        at, cdf, wb = p.at, dist.cdf, p.at(b)
        points = kinks[bisect.bisect_right(kinks, qa) : bisect.bisect_left(kinks, qb)]
        try:
            val, _ = _quad(lambda y: wb - at(min(max(cdf(y), a), b)), qa, qb, points=points, epsabs=PROBE_TOL)
            return qa * (wb - at(a)) + val
        except InconclusiveError:
            pass
    return _density_moment(dist, p, a, b, PROBE_TOL)


def _judge_partials(partials) -> Verdict:
    """Verdict on a part from its dyadic partials.

    There are PROBE_LEVELS - 1 increments.  Member when the last is at most
    PROBE_CAUCHY, or when each of the last five is positive and at most
    PROBE_RATIO times the one before:
    the increments decay geometrically, so the rest sums to a finite amount.
    Non-member on five sustained increments above PROBE_GROWTH.
    """
    inc = [b - a for a, b in zip(partials, partials[1:])]
    if inc[-1] <= PROBE_CAUCHY:
        return Verdict.MEMBER
    last = inc[-6:]
    if all(0.0 < b <= PROBE_RATIO * a for a, b in zip(last, last[1:])):
        return Verdict.MEMBER
    tail = inc[-5:]
    if all(x > PROBE_GROWTH for x in tail) and all(b >= 0.9 * a for a, b in zip(tail, tail[1:])):
        return Verdict.NON_MEMBER
    return Verdict.INCONCLUSIVE


# ---------------------------------------------------------------------------
# the three representations


def quantile_risk(dist: Distribution, distortion: Distortion, *, epsabs: float = QUAD_TOL) -> RiskValue:
    """Integral of the lower quantile function against the distortion measure.

    One route for every input: D's jumps are summed exactly, and each
    moving piece of D, whose density is a power of the distance to its
    origin, adds one quantile moment: a linear piece the quantile integral,
    any other power its moment.  A moment with no closed form on the node
    (a discrete has one for every piece) is integrated with absolute
    tolerance ``epsabs``.  A divergent positive part yields the
    not-in-domain flag, a divergent negative part alone yields -inf.
    """
    flagged = _forced_value(dist, distortion)
    if flagged is not None:
        return flagged
    total = math.fsum(mass * dist.quantile_lower(loc) for loc, mass in distortion.measure.atoms)
    pieces = [p for p in distortion.pieces if not p.flat]
    tol = epsabs / max(len(pieces), 1)
    for p in pieces:
        total += _density_moment(dist, p, p.lo, p.hi, tol)
    return RiskValue.finite(total)


def choquet_risk(dist: Distribution, distortion: Distortion, *, epsabs: float = QUAD_TOL) -> RiskValue:
    """Tail-integral form: distorted survival over (0,inf) minus distorted CDF over (-inf,0).

    One path for every input, cut in level space.  On the step [q(t), q+(t))
    at a quantile breakpoint t the CDF is t, so the step adds its width times
    1 - D(t) above 0 and -D(t) below.  Between two breakpoint levels the
    stretch is cut again at D's knots, so one piece p of D applies on each
    cut: where p is flat, D(F) is that constant; elsewhere ``1 - p(F)`` and
    ``p(F)`` are integrated numerically in Python floats, each call with
    absolute tolerance ``epsabs / 4``, with F the stretch's
    ``Distribution.local_cdf``, bound only on a stretch that integrates.
    Only the stretches' ends are read from the step arrays, and each flat
    piece's value is taken once per call.  Where QUADPACK gives up on an
    infinite end and F at the last float has not reached 0 (left) or the
    last level below 1 (right), the value is inconclusive, as it is for a
    step whose q and q+ are both past the float range.  A discrete input
    is all steps and calls no quadrature.  The value is the ``math.fsum`` of
    all terms, bit for bit; from ``_FSUM_CUT`` step terms on it is taken by
    :func:`quantrisk.distributions._fsum` in numpy double-double.
    """
    flagged = _forced_value(dist, distortion)
    if flagged is not None:
        return flagged

    def integral(f, x0: float, x1: float) -> float:
        val, gave_up = _quad(f, x0, x1, epsabs=epsabs / 4)
        # at an infinite end with mass beyond the last float the integral may diverge
        if gave_up and (x0 == -math.inf and dist.cdf(-_FLOAT_MAX) > 0.0
                        or x1 == math.inf and dist.cdf(_FLOAT_MAX) < _BELOW_ONE):
            raise InconclusiveError(
                f"quad gave up on ({x0!r}, {x1!r}), where F has mass beyond the float range", diagnostics=[val]
            )
        return val

    levels, lower, upper = dist.quantile_steps()
    # q and q+ rise with the level: a step past the float range on both ends is the last or the first
    if len(levels) and (lower[-1] == math.inf or upper[0] == -math.inf):
        raise InconclusiveError("a step of F lies past the float range at a level inside (0, 1)")
    lo, hi = dist.support()
    # (a, b, D) of each flat stretch of D(F) inside a stretch below, beside the steps' own
    flat_a, flat_b, flat_d = [], [], []
    # outside the support F is 0 or 1: 1 - D(F) = 1 on (0, lo) and D(F) = 1 on (hi, 0)
    terms = [max(lo, 0.0), min(hi, 0.0)]
    # stretch i runs from q+ at breakpoint i - 1 (lo for the first) to q at breakpoint i (hi for the last);
    # only the outer two and the inner ones where q rises are read, as Python floats
    rises = lower[1:] > upper[:-1]
    flat = {}  # the value of each flat piece of D met, by its index
    for s, start, t, end in zip(
        [0.0, *levels[:-1][rises].tolist(), *levels[-1:].tolist()],
        [lo, *upper[:-1][rises].tolist(), *upper[-1:].tolist()],
        [*levels[:1].tolist(), *levels[1:][rises].tolist(), 1.0],
        [*lower[:1].tolist(), *lower[1:][rises].tolist(), hi],
    ):
        if not end > start:
            continue
        local = None
        for j, p in enumerate(distortion.pieces):
            if p.hi <= s or p.lo >= t:
                continue
            a = start if p.lo <= s else dist.quantile_lower(p.lo)
            b = end if p.hi >= t else dist.quantile_lower(p.hi)
            if b <= a:
                continue
            if p.flat:
                if j not in flat:
                    flat[j] = float(p.value(p.lo))
                flat_a.append(a)
                flat_b.append(b)
                flat_d.append(flat[j])
                continue
            if local is None:
                local = dist.local_cdf(s, t)
            # on (a, b) D(F) is p(F): p and the stretch's CDF are bound once, and evaluated in floats
            if a < 0.0:
                terms.append(-integral(lambda x, at=p.at, F=local: at(F(x)), a, min(b, 0.0)))
            if b > 0.0:
                terms.append(integral(lambda x, at=p.at, F=local: 1.0 - at(F(x)), max(a, 0.0), b))
    # no copies of the steps when no stretch added any
    a, b, d = (
        np.concatenate((steps, extra)) if extra else steps
        for steps, extra in ((lower, flat_a), (upper, flat_b), (distortion.eval(levels), flat_d))
    )
    sides, straddle = _flat_terms(a, b, d)
    return RiskValue.finite(_fsum(sides, terms + straddle))


def _flat_terms(a, b, d) -> tuple[np.ndarray, list[float]]:
    """Each flat stretch (a, b) of D(F) = d as one term: its width above 0 times 1 - d, less its width below 0 times d.

    The stretch that straddles 0, if any, gives its part below 0 as a
    second term, in the list.  ``d`` is overwritten by the terms: the
    fewer fresh arrays, the fewer page faults at 10^5 stretches.
    """
    above = np.maximum(b, 0.0)
    above -= np.maximum(a, 0.0)
    below = np.minimum(b, 0.0)
    below -= np.minimum(a, 0.0)
    past_above, past_below = np.isinf(above), np.isinf(below)
    if np.count_nonzero(past_above | past_below):
        # an infinite flat stretch at an end of the support lies at D(0+) or D(1-),
        # which are 0 and 1 within MASS_TOL: it adds nothing; where it
        # counts, q has left the float range inside (0, 1)
        if np.any(past_above & (1.0 - d > MASS_TOL) | past_below & (d > MASS_TOL)):
            raise InconclusiveError("a flat stretch of F reaches past the float range at a level inside (0, 1)")
        above[past_above] = 0.0
        below[past_below] = 0.0
    both = np.flatnonzero((above > 0.0) & (below > 0.0))  # at most one: the stretches are disjoint
    down = np.multiply(below, d, out=below)
    straddle = (-down[both]).tolist()
    down[both] = 0.0
    up = np.multiply(np.subtract(1.0, d, out=d), above, out=d)
    return np.subtract(up, down, out=up), straddle  # exact wherever one side is empty


def mixture_risk(dist: Distribution, distortion: Distortion, *, epsabs: float = QUAD_TOL) -> RiskValue:
    """Average of rescaled expected shortfalls against the spectral mixing measure.

    Only convex distortions admit this representation.  Atoms of the mixing
    measure are summed exactly.  Its density is taken by parts on each moving
    piece of the spectrum s, for every input: the rescaled shortfall times s
    at the piece's ends, plus one quantile moment, which a discrete takes in
    closed form and other nodes integrate with absolute tolerance ``epsabs``,
    by default ``QUAD_TOL`` as in the other forms, where they have none.
    """
    try:
        spectrum = spectral_of(distortion)
    except NotSpectralError as exc:
        raise NotSpectralError(
            f"{distortion.label()} is not convex: no expected-shortfall mixture exists",
            witness=exc.witness,
        ) from None
    flagged = _forced_value(dist, distortion)
    if flagged is not None:
        return flagged

    # (1-alpha) ES_alpha, the rescaled shortfall, is the quantile integral over (alpha, 1)
    total = 0.0
    for loc, mass in spectrum.measure.atoms:
        contrib = dist.quantile_integral(loc, 1.0)
        if math.isinf(contrib):
            # both parts converge, so this is a finite value beyond the float range
            raise InconclusiveError(f"the shortfall at the mixing atom {loc!r} is {contrib!r}", diagnostics=[contrib])
        total += mass * contrib
    pieces = [p for p in spectrum.pieces if not p.flat]
    tol = epsabs / max(len(pieces), 1)
    for p in pieces:
        # by parts against P = coef ((u - origin)/width)**expo, the piece's value
        # (spectral pieces have no base): [E P]_a^b, E the rescaled shortfall,
        # plus the integral of q P, as E' = -q, which is q against d(the
        # primitive of P).  The end term is 0 where P vanishes, at the origin,
        # and where E does, at 1: never inf * 0.
        a, b = max(p.lo, p.origin), p.hi
        ends = 0.0 if b == 1.0 else dist.quantile_integral(b, 1.0) * float(p.value(b))
        ends -= 0.0 if a == p.origin else dist.quantile_integral(a, 1.0) * float(p.value(a))
        total += ends + _density_moment(dist, p.antiderivative(0.0), a, b, tol)
    return RiskValue.finite(total)


# ---------------------------------------------------------------------------
# closed-form measures


def value_at_risk(dist: Distribution, alpha: float) -> float:
    """Lower quantile at alpha, finite for every distribution; inconclusive where it overflows the float range."""
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"value-at-risk level must lie in (0,1), got {alpha!r}")
    q = dist.quantile_lower(alpha)
    if not math.isfinite(q):
        raise InconclusiveError(f"the quantile at {alpha!r} is {q!r}, beyond the float range", diagnostics=[q])
    return q


def _stop_loss(dist: Distribution, c: float) -> float:
    """E[(X - c)+] via the quantile integral; may be +inf."""
    u0 = dist.cdf(c)
    integral = dist.quantile_integral(u0, 1.0)
    if math.isinf(integral):
        return math.inf
    return integral - c * (1.0 - u0)


def expected_shortfall(dist: Distribution, alpha: float) -> RiskValue:
    """Closed-form shortfall: quantile plus the rescaled stop-loss above it.

    ``alpha = 0`` returns the mean.  The not-in-domain flag appears exactly
    when E[X+] is infinite, for every alpha.
    """
    if not 0.0 <= alpha < 1.0:
        raise ParameterError(f"expected-shortfall level must lie in [0,1), got {alpha!r}")
    if alpha == 0.0:
        m = dist.mean()
        if m == math.inf:
            return RiskValue.not_in_domain()
        if m == -math.inf:
            return RiskValue.neg_inf()
        return RiskValue.finite(m)
    q = dist.quantile_lower(alpha)
    sl = _stop_loss(dist, q)
    if math.isinf(sl):
        return RiskValue.not_in_domain()
    return RiskValue.finite(q + sl / (1.0 - alpha))


@dataclass(frozen=True)
class InfimumResult:
    value: float
    minimizer: float


def expected_shortfall_infimum(dist: Distribution, alpha: float) -> InfimumResult:
    """Shortfall as the infimum of c + E[(X-c)+]/(1-alpha) over c.

    Golden-section search over a quantile bracket; the objective is convex,
    flat minimizers are acceptable.
    """
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"infimum form needs alpha in (0,1), got {alpha!r}")
    if _stop_loss(dist, 0.0) == math.inf:
        raise ParameterError("infimum form requires E[X+] < inf")

    def objective(c: float) -> float:
        return c + _stop_loss(dist, c) / (1.0 - alpha)

    lo = dist.quantile_lower(alpha / 2.0)
    hi = dist.quantile_lower((1.0 + alpha) / 2.0)
    for _ in range(4):
        c = 0.5 * (lo + hi) if hi - lo <= INFIMUM_TOL else _golden_section(objective, lo, hi, INFIMUM_TOL)
        val = objective(c)
        if not math.isfinite(val):
            raise InconclusiveError(f"the shortfall objective at c={c!r} is {val!r}, beyond the float range")
        if hi - lo <= INFIMUM_TOL:
            return InfimumResult(val, c)
        pad = hi - lo + 1.0
        if objective(lo) < val - 1e-12:
            lo, hi = lo - pad, hi
            continue
        if objective(hi) < val - 1e-12:
            lo, hi = lo, hi + pad
            continue
        return InfimumResult(val, c)
    raise InconclusiveError("bracket for the shortfall infimum failed to enclose a minimizer")


def _golden_section(f, lo: float, hi: float, tol: float) -> float:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol and a < c < d < b:  # far from 0 the floats run out before tol
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def expected_shortfall_higher_order(dist: Distribution, n: int, alpha: float) -> RiskValue:
    """Risk under the order-n shortfall distortion; order 1 is plain shortfall."""
    return quantile_risk(dist, higher_order_es_distortion(n, alpha))


# ---------------------------------------------------------------------------
# domain classification


def classify_membership(
    dist: Distribution,
    distortion: Distortion,
    domain_class: DomainClass,
    *,
    method: str = "auto",
) -> MembershipVerdict:
    """Decide membership of ``dist`` in one of the three integrability classes.

    Discrete distributions belong to every class.  Otherwise the class's
    parts are tested one by one: max(q, 0) for the quantile class, also
    max(-q, 0) for Acerbi's, q_|X| for Pichler's.  Each is decided by the
    analytic exponent comparison when the tail data allows it, else by the
    dyadic probe (forced with ``method='probe'``, never run under
    ``method='analytic'``).  NON_MEMBER if any part diverges, INCONCLUSIVE if
    any is undecided, MEMBER otherwise; method 'probe' if any part was
    probed, with the elementwise fsum of the probed parts' partials.
    """
    try:
        domain_class = DomainClass(domain_class)
    except ValueError:
        names = ", ".join(str(cls) for cls in DomainClass)
        raise ParameterError(f"unknown domain class {domain_class!r}; expected one of {names}") from None
    if method not in CLASSIFY_METHODS:
        raise ParameterError(f"unknown classify method {method!r}")
    if dist.is_discrete:
        return MembershipVerdict(domain_class, Verdict.MEMBER, "discrete")
    target = dist.abs() if domain_class is DomainClass.PICHLER else dist
    parts = "+-" if domain_class is DomainClass.ACERBI else "+"
    verdicts, partials = zip(*(_part_verdict(target, distortion, part, method) for part in parts))
    # the class takes its parts' worst verdict
    verdict = min(verdicts, key=(Verdict.NON_MEMBER, Verdict.INCONCLUSIVE, Verdict.MEMBER).index)
    probed = [p for p in partials if p]
    return MembershipVerdict(
        domain_class, verdict, "probe" if probed else "analytic", tuple(map(math.fsum, zip(*probed)))
    )


# ---------------------------------------------------------------------------
# domain comparison


# the relation named by (d1_le_d2, d2_le_d1)
_RELATIONS = {
    (True, True): "equal",
    (True, False): "subset-1-in-2",
    (False, True): "subset-2-in-1",
    (False, False): "incomparable",
}


@dataclass(frozen=True)
class DomainComparison:
    """The pointwise order of two distortions on [delta, 1), decided on their pieces.

    ``max_excess_*`` is the exact sup, left limits at the knots included.
    """

    delta: float
    max_excess_1_over_2: float
    max_excess_2_over_1: float
    sandwich_1: tuple[int, float] | None
    sandwich_2: tuple[int, float] | None

    @property
    def d1_le_d2(self) -> bool:
        return pointwise_le(self.max_excess_1_over_2)

    @property
    def d2_le_d1(self) -> bool:
        return pointwise_le(self.max_excess_2_over_1)

    @property
    def relation(self) -> str:
        return _RELATIONS[self.d1_le_d2, self.d2_le_d1]

    @property
    def domain_equals_expectation_1(self) -> bool:
        return self.sandwich_1 is not None

    @property
    def domain_equals_expectation_2(self) -> bool:
        return self.sandwich_2 is not None


def compare_domains(d1: Distortion, d2: Distortion, delta: float = 0.25) -> DomainComparison:
    """Exact comparison of two distortions on [delta, 1), decided on their pieces.

    A smaller distortion on [delta, 1) has the smaller domain.  The sandwich
    flags certify (per distortion) that some order-n shortfall curve lies
    below it while it stays below the identity, which pins its domain to the
    expectation's.  Each ``<=`` is decided by :func:`pointwise_le`.
    """
    if not 0.0 < delta < 1.0:
        raise ParameterError(f"delta must lie in (0,1), got {delta!r}")
    return DomainComparison(
        delta,
        max_excess(d1, d2, delta),
        max_excess(d2, d1, delta),
        _sandwich_certificate(d1, delta),
        _sandwich_certificate(d2, delta),
    )


def pointwise_le(excess: float) -> bool:
    """D1 <= D2, read from their ``max_excess(D1, D2, lo)``: the excess is at most ``MASS_TOL``."""
    return excess <= MASS_TOL


def max_excess(d1: Distortion, d2: Distortion, lo: float = 0.0) -> float:
    """The sup of D1 - D2 over [lo, 1), the left limits at the knots included.

    On a cell between knots, h = p1 - p2 for one piece of each.  Where both
    move, h' has the sign of log p1' - log p2', whose derivative vanishes at
    most once, at ``cut``; on each side of it h' changes sign at most once, so
    h peaks at an end or at the one maximum a golden section finds.  A part
    whose monotone bound p1(t) - p2(s) cannot beat the best so far is skipped.
    """
    best, i, j, a = -math.inf, 0, 0, lo
    while a < 1.0:
        while d1.pieces[i].hi <= a:
            i += 1
        while d2.pieces[j].hi <= a:
            j += 1
        p1, p2 = d1.pieces[i], d2.pieces[j]
        b = min(p1.hi, p2.hi)
        h = lambda u: p1.at(u) - p2.at(u)
        best = max(best, h(a), h(b))  # h(b) is the left limit at b
        parts = [a, b]
        if not (p1.flat or p2.flat) and p1.expo != p2.expo:
            cut = ((p1.expo - 1.0) * p2.origin - (p2.expo - 1.0) * p1.origin) / (p1.expo - p2.expo)
            if a < cut < b:
                parts.insert(1, cut)
                best = max(best, h(cut))
        for s, t in zip(parts, parts[1:]):
            if p1.at(t) - p2.at(s) > best:
                best = max(best, h(_golden_section(lambda u: -h(u), s, t, 0.0)))
        a = b
    return best


# the certificate's (n, alpha), in the order they are tried
_SANDWICH_CANDIDATES = [(n, round(float(alpha), 2)) for n in range(1, 7) for alpha in np.arange(0.05, 1.0, 0.05)]


def _sandwich_certificate(d: Distortion, delta: float) -> tuple[int, float] | None:
    if not pointwise_le(max_excess(d, expectation(), delta)):  # must stay below the identity
        return None
    below = lambda n, alpha: pointwise_le(max_excess(higher_order_es_distortion(n, alpha), d, delta))
    # es_n(n, alpha) falls as n or alpha grows, so the last candidate, es_n(6, 0.95), lies
    # below every other: if it is not below D, none is
    if not below(*_SANDWICH_CANDIDATES[-1]):
        return None
    return next((c for c in _SANDWICH_CANDIDATES if below(*c)), None)
