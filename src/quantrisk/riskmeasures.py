"""Distortion risk measures through their equivalent representations.

The same functional is computed three ways: integrating the quantile
function against the distortion measure, integrating the distorted tail
probabilities over the real line, and mixing expected shortfall across
levels.  Discrete distributions and piecewise distortions are evaluated in
closed form by all three, with no quadrature; parametric tails fall back to
adaptive quadrature with the tolerances declared here.  The quantile and
mixture forms and the dyadic probe integrate piece by piece through one
helper, which takes a concave piece in its own scale, where its singular
density disappears.  The tail integral shares none of this: it walks the
quantile's breakpoint levels, takes each flat step of the CDF and each
stretch where D is flat in closed form, and integrates only where D(F(x))
moves.  Whether max(q, 0) or max(-q, 0) is integrable against D is decided
in one place, for the forms' domain flags and the class verdicts alike.
scipy's ``quad`` is imported on the first quadrature call, so a process
that only evaluates closed forms never loads scipy.  ``+inf`` is never
returned as a risk value: a divergent positive part is reported as
non-membership instead.
"""

from __future__ import annotations

import bisect
import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .distortions import (
    Distortion,
    higher_order_es_distortion,
    mixture_measure_of,
    spectral_of,
)
from .distributions import BOUNDED, Discrete, Distribution, transform, Abs
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
MIXTURE_TOL = 1e-8
INFIMUM_TOL = 1e-10
PROBE_LEVELS = 40
PROBE_CAUCHY = 1e-9
PROBE_RATIO = 0.85
PROBE_GROWTH = 1e-3


@dataclass(frozen=True)
class RiskValue:
    """A risk number in [-inf, inf), or the flag that X is outside the domain."""

    kind: str  # "finite" | "neg-inf" | "not-in-domain"
    value: float

    @classmethod
    def finite(cls, value: float) -> RiskValue:
        if not math.isfinite(value):
            raise ValueError(f"finite risk value required, got {value!r}")
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
            raise ValueError("risk value is undefined: variable outside the domain")
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


_POINTS_PER_CALL = 100  # leaves room for refinement under quad's 400-subinterval limit
quad = None  # scipy.integrate.quad, bound by the first _quad call


def _quad(f, a, b, *, points=(), epsabs=1e-10):
    """Adaptive quadrature over (a, b), which may be infinite, with interior breakpoints.

    A call to ``quad`` takes at most ``_POINTS_PER_CALL`` breakpoints and no
    breakpoint beside an infinite limit, so the range is split at every
    ``_POINTS_PER_CALL + 1``-th breakpoint and at the breakpoints next to an
    infinite limit.  The pieces share ``epsabs``; their values and error
    estimates are summed.
    """
    global quad
    if quad is None:
        from scipy.integrate import quad
    pts = sorted({p for p in points if a < p < b})
    edges = {a, b, *pts[_POINTS_PER_CALL :: _POINTS_PER_CALL + 1]}
    if pts and math.isinf(a):
        edges.add(pts[0])
    if pts and math.isinf(b):
        edges.add(pts[-1])
    edges = sorted(edges)
    val = err = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for lo, hi in zip(edges, edges[1:]):
            inner = pts[bisect.bisect_right(pts, lo) : bisect.bisect_left(pts, hi)]
            v, e = quad(f, lo, hi, points=inner or None, limit=400,
                        epsabs=epsabs / (len(edges) - 1), epsrel=1e-10)
            val += v
            err += e
    if not math.isfinite(val) or err > max(1e-7, abs(val) * 1e-6):
        raise InconclusiveError(
            f"quadrature did not converge on ({a!r}, {b!r})", diagnostics=[val, err]
        )
    return val


def _piece_integral(f, p, a: float, b: float, *, points, epsabs: float) -> float:
    """Integral of f against d(p) over (a, b), for one increasing, non-flat piece p.

    A convex piece (expo >= 1) has a bounded density, and f is integrated
    against it.  A concave power's density is singular at its origin, at or
    just below lo; in v = ((u - origin)/width)**expo the measure is coef dv,
    so f is integrated in v, where the singularity disappears.
    """
    if p.expo >= 1.0:
        dens = p.derivative
        return _quad(lambda u: f(u) * float(dens.value(u)), a, b, points=points, epsabs=epsabs)
    v = lambda u: ((u - p.origin) / p.width) ** p.expo
    # u(v), kept inside [lo, hi] and (0, 1) against rounding
    u = lambda x: min(max(p.origin + p.width * x ** (1.0 / p.expo), p.lo, 5e-324), p.hi, 1 - 2**-53)
    return p.coef * _quad(lambda x: f(u(x)), v(a), v(b), points=[v(t) for t in points if a < t < b],
                          epsabs=epsabs / max(p.coef, 1.0))  # the v-integral is scaled by coef


def _tail_rule(tail, dens) -> bool | None:
    """Does the quantile-vs-density integral diverge at this endpoint?

    ``tail`` describes the quantile blow-up, ``dens`` the local density
    ``q(t) ~ coef * t**p`` in the distance t to the endpoint, with None
    meaning no density reaches it.  Returns None when undecidable analytically.
    """
    if tail == BOUNDED:
        return False
    if dens is None:
        return False
    if tail is None:
        return None
    p, _coef = dens
    return p - 1.0 / tail.theta <= -1.0


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
        tail = dist.upper_tail() if upper else dist.lower_tail()
        diverges = _tail_rule(tail, distortion.density_exponent_at(int(upper)))
        if diverges is not None:
            return (Verdict.NON_MEMBER if diverges else Verdict.MEMBER), ()
        if method == "analytic":
            return Verdict.INCONCLUSIVE, ()
    # q > 0 exactly above the level F(0), so each part lives on one side of it
    zero = dist.cdf(0.0)
    if upper:
        h, span = (lambda u: max(dist.quantile_lower(u), 0.0)), (zero, 1.0)
    else:
        h, span = (lambda u: max(-dist.quantile_lower(u), 0.0)), (0.0, zero)
    partials = _dyadic_partials(dist, distortion, h, span)
    return _judge_partials(partials), partials


def _dyadic_partials(dist, distortion, h, span) -> tuple[float, ...]:
    """Cumulative integrals of h dQ over the windows (2^-k, 1 - 2^-k).

    Only the levels ``span`` are integrated: h vanishes outside them.
    """
    atoms = distortion.jumps()
    pieces = [p for p in distortion.pieces if not p.flat]
    points = dist.quantile_breakpoints()
    total = 0.0
    out = []
    prev_lo, prev_hi = math.inf, -math.inf  # empty previous window
    for k in range(1, PROBE_LEVELS + 1):
        lo, hi = 2.0**-k, 1.0 - 2.0**-k
        inc = 0.0
        for loc, mass in atoms:
            if lo <= loc <= hi and not (prev_lo <= loc <= prev_hi):
                inc += mass * h(loc)
        if lo < hi:
            segments = [(lo, min(prev_lo, hi)), (max(prev_hi, lo), hi)] if prev_lo <= prev_hi else [(lo, hi)]
            for a, b in segments:
                if b <= a:
                    continue
                for piece in pieces:
                    pa, pb = max(a, piece.lo, span[0]), min(b, piece.hi, span[1])
                    if pb > pa:
                        inc += _piece_integral(h, piece, pa, pb, points=points, epsabs=1e-11)
        total += inc
        out.append(total)
        prev_lo, prev_hi = lo, hi
    return tuple(out)


def _judge_partials(partials) -> Verdict:
    """Verdict on a part from its dyadic partials.

    Member when the last increment is at most PROBE_CAUCHY, or when each of
    the last five is positive and at most PROBE_RATIO times the one before:
    the increments decay geometrically, so the rest sums to a finite amount.
    Non-member on five sustained increments above PROBE_GROWTH.
    """
    inc = [b - a for a, b in zip(partials, partials[1:])]
    if not inc:
        return Verdict.INCONCLUSIVE
    if inc[-1] <= PROBE_CAUCHY:
        return Verdict.MEMBER
    last = inc[-6:]
    if len(last) == 6 and all(0.0 < b <= PROBE_RATIO * a for a, b in zip(last, last[1:])):
        return Verdict.MEMBER
    tail = inc[-5:]
    if len(tail) == 5 and all(x > PROBE_GROWTH for x in tail) and all(
        b >= 0.9 * a for a, b in zip(tail, tail[1:])
    ):
        return Verdict.NON_MEMBER
    return Verdict.INCONCLUSIVE


# ---------------------------------------------------------------------------
# the three representations


def quantile_risk(dist: Distribution, distortion: Distortion, *, epsabs: float = QUAD_TOL) -> RiskValue:
    """Integral of the lower quantile function against the distortion measure.

    Exact for discrete distributions; adaptive quadrature with absolute
    tolerance ``epsabs`` otherwise.  There D's jumps are summed exactly, and
    a linear piece, whose density is constant, adds that density times the
    closed-form quantile integral over the piece.  q is integrated against
    the density of any other convex power piece, and against a concave one
    in the piece's own scale, where its singular density disappears.  A
    divergent positive part yields the not-in-domain flag, a divergent
    negative part alone yields -inf.
    """
    if dist.is_discrete:
        levels = np.asarray(dist.cum)
        dw = np.diff(np.concatenate(([0.0], np.asarray(distortion.eval(levels), dtype=float))))
        return RiskValue.finite(float(np.dot(dist.values, dw)))
    flagged = _forced_value(dist, distortion)
    if flagged is not None:
        return flagged
    total = math.fsum(mass * dist.quantile_lower(loc) for loc, mass in distortion.jumps())
    pieces = [p for p in distortion.pieces if not p.flat]
    points = dist.quantile_breakpoints()
    tol = epsabs / max(len(pieces), 1)
    for p in pieces:
        if p.expo == 1.0:  # the density is the constant coef/width
            total += p.coef / p.width * dist.quantile_integral(p.lo, p.hi)
        else:
            total += _piece_integral(dist.quantile_lower, p, p.lo, p.hi, points=points, epsabs=tol)
    return RiskValue.finite(total)


def choquet_risk(dist: Distribution, distortion: Distortion, *, epsabs: float = QUAD_TOL) -> RiskValue:
    """Tail-integral form: distorted survival over (0,inf) minus distorted CDF over (-inf,0).

    One path for every input, cut in level space.  On the step [q(t), q+(t))
    at a quantile breakpoint t the CDF is t, so the step adds its width times
    1 - D(t) above 0 and -D(t) below.  Between two breakpoint levels the
    stretch is cut again at D's knots: where D's piece is flat, D(F) is that
    constant; elsewhere ``1 - D(F)`` and ``D(F)`` are integrated numerically,
    each call with absolute tolerance ``epsabs / 4``.  A discrete input is
    all steps and calls no quadrature.  All terms are summed in one fsum.
    """
    flagged = _forced_value(dist, distortion)
    if flagged is not None:
        return flagged

    def dist_fx(x: float) -> float:
        return distortion.eval(dist.cdf(x))

    levels, lower, upper = dist.quantile_steps()
    lo, hi = dist.support()
    # (a, b, D) for every stretch of x on which D(F(x)) is constant
    flat_a, flat_b, flat_d = [lower], [upper], [np.asarray(distortion.eval(levels), dtype=float)]
    # outside the support F is 0 or 1: 1 - D(F) = 1 on (0, lo) and D(F) = 1 on (hi, 0)
    terms = [max(lo, 0.0), min(hi, 0.0)]
    starts = np.concatenate(([lo], upper))
    ends = np.concatenate((lower, [hi]))
    bounds = np.concatenate(([0.0], levels, [1.0]))
    for i in np.flatnonzero(ends > starts).tolist():
        # Python floats: the integrands run several times faster on them
        s, t, start, end = (float(x) for x in (bounds[i], bounds[i + 1], starts[i], ends[i]))
        for p in distortion.pieces:
            if p.hi <= s or p.lo >= t:
                continue
            a = start if p.lo <= s else dist.quantile_lower(p.lo)
            b = end if p.hi >= t else dist.quantile_lower(p.hi)
            if b <= a:
                continue
            if p.flat:
                flat_a.append([a])
                flat_b.append([b])
                flat_d.append([float(p.value(p.lo))])
                continue
            if a < 0.0:
                terms.append(-_quad(dist_fx, a, min(b, 0.0), epsabs=epsabs / 4))
            if b > 0.0:
                terms.append(_quad(lambda x: 1.0 - dist_fx(x), max(a, 0.0), b, epsabs=epsabs / 4))
    a, b, d = (np.concatenate(v) for v in (flat_a, flat_b, flat_d))
    above = np.maximum(b, 0.0) - np.maximum(a, 0.0)
    below = np.minimum(b, 0.0) - np.minimum(a, 0.0)
    # an infinite flat stretch lies at D(0+) or D(1-), which are 0 and 1
    # within the distortion's 1e-12 tolerance: it adds nothing
    above[np.isinf(above)] = 0.0
    below[np.isinf(below)] = 0.0
    up, down = above * (1.0 - d), below * d
    sides = up - down  # exact wherever one side is empty
    both = np.flatnonzero((above > 0.0) & (below > 0.0))  # at most one: the stretches are disjoint
    sides[both] = up[both]
    return RiskValue.finite(math.fsum([*sides.tolist(), *(-down[both]).tolist(), *terms]))


def mixture_risk(dist: Distribution, distortion: Distortion, *, epsabs: float = MIXTURE_TOL) -> RiskValue:
    """Average of rescaled expected shortfalls against the spectral mixing measure.

    Only convex distortions admit this representation.  Atoms of the mixing
    measure are summed exactly.  Its density is integrated in closed form for
    discrete inputs, whose rescaled shortfall is piecewise linear in the
    level.  Otherwise it is integrated against each moving piece of the
    spectrum s, with absolute tolerance ``epsabs``, as the quantile form
    integrates against D's pieces.
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
    nu = mixture_measure_of(spectrum)

    def scaled_es(alpha: float) -> float:
        # (1-alpha) * ES_alpha = integral of the quantile function over (alpha, 1)
        return dist.quantile_integral(alpha, 1.0)

    total = 0.0
    for loc, mass in nu.atoms:
        contrib = scaled_es(loc)
        if math.isinf(contrib):
            return RiskValue.neg_inf() if contrib < 0 else RiskValue.not_in_domain()
        total += mass * contrib
    if dist.is_discrete:
        return RiskValue.finite(total + math.fsum(_mixture_density_discrete(dist, p) for p in nu.density))
    pieces = [p for p in spectrum.pieces if not p.flat]
    points = dist.quantile_breakpoints()
    tol = epsabs / max(len(pieces), 1)
    for p in pieces:
        total += _piece_integral(scaled_es, p, p.lo, p.hi, points=points, epsabs=tol)
    return RiskValue.finite(total)


def _mixture_density_discrete(dist: Discrete, piece) -> float:
    """Exact integral of s(alpha) = quantile_integral(alpha, 1) against one density piece.

    On atom i's level interval [L_i, C_i] the integrand is linear,
    s(alpha) = A_i + v_i (C_i - alpha) with A_i = quantile_integral(C_i, 1).
    With F, G the first and second primitives of the density and a, b the
    interval clipped to [lo, hi], integrating by parts and collecting the A_i
    parts by atom gives
    sum_i v_i p_i (F(clip L_i) - F(lo)) + v_i [(C_i-b) F(b) - (C_i-a) F(a) + G(b) - G(a)].
    """
    levels = np.concatenate(([0.0], dist.cum))  # L_i = levels[i], C_i = levels[i + 1]
    knots = np.clip(levels, piece.lo, piece.hi)
    f = piece.primitive(knots, 1)
    g = piece.primitive(knots, 2)
    cum = dist.cum
    term = np.diff(levels)
    term *= f[:-1] - float(piece.primitive(piece.lo, 1))
    term += (cum - knots[1:]) * f[1:]
    term -= (cum - knots[:-1]) * f[:-1]
    term += np.diff(g)
    return float(np.dot(dist.values, term))


# ---------------------------------------------------------------------------
# closed-form measures


def value_at_risk(dist: Distribution, alpha: float) -> float:
    """Lower quantile at alpha; defined and finite for every distribution."""
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"value-at-risk level must lie in (0,1), got {alpha!r}")
    return dist.quantile_lower(alpha)


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


def expected_shortfall_infimum(dist: Distribution, alpha: float, *, tol: float = INFIMUM_TOL) -> InfimumResult:
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
        c = 0.5 * (lo + hi) if hi - lo <= tol else _golden_section(objective, lo, hi, tol)
        val = objective(c)
        if not math.isfinite(val):
            raise InconclusiveError(f"the shortfall objective at c={c!r} is {val!r}, beyond the float range")
        if hi - lo <= tol:
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
    domain_class = DomainClass(domain_class)
    if dist.is_discrete:
        return MembershipVerdict(domain_class, Verdict.MEMBER, "discrete")
    if method not in ("auto", "analytic", "probe"):
        raise ParameterError(f"unknown classify method {method!r}")
    target = transform(dist, Abs()) if domain_class is DomainClass.PICHLER else dist
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


@dataclass(frozen=True)
class DomainComparison:
    """Pointwise ordering evidence for two distortions on [delta, 1)."""

    delta: float
    d1_le_d2: bool
    d2_le_d1: bool
    max_excess_1_over_2: float
    max_excess_2_over_1: float
    relation: str  # "subset-1-in-2" | "subset-2-in-1" | "equal-on-grid" | "incomparable"
    sandwich_1: tuple[int, float] | None
    sandwich_2: tuple[int, float] | None

    @property
    def domain_equals_expectation_1(self) -> bool:
        return self.sandwich_1 is not None

    @property
    def domain_equals_expectation_2(self) -> bool:
        return self.sandwich_2 is not None


def compare_domains(d1: Distortion, d2: Distortion, delta: float = 0.25) -> DomainComparison:
    """Grid comparison of two distortions on [delta, 1).

    A smaller distortion on [delta, 1) has the smaller domain.  The sandwich
    flags certify (per distortion) that some order-n shortfall curve lies
    below it while it stays below the identity, which pins its domain to the
    expectation's.
    """
    if not 0.0 < delta < 1.0:
        raise ParameterError(f"delta must lie in (0,1), got {delta!r}")
    grid = _comparison_grid(d1, d2, delta)
    v1 = np.asarray(d1.eval(grid))
    v2 = np.asarray(d2.eval(grid))
    exc12 = float(np.max(v1 - v2))
    exc21 = float(np.max(v2 - v1))
    le12 = exc12 <= 1e-12
    le21 = exc21 <= 1e-12
    if le12 and le21:
        relation = "equal-on-grid"
    elif le12:
        relation = "subset-1-in-2"
    elif le21:
        relation = "subset-2-in-1"
    else:
        relation = "incomparable"
    return DomainComparison(
        delta=delta,
        d1_le_d2=le12,
        d2_le_d1=le21,
        max_excess_1_over_2=exc12,
        max_excess_2_over_1=exc21,
        relation=relation,
        sandwich_1=_sandwich_certificate(d1, grid, np.asarray(v1)),
        sandwich_2=_sandwich_certificate(d2, grid, np.asarray(v2)),
    )


def _comparison_grid(d1, d2, delta) -> np.ndarray:
    pts = set(np.linspace(delta, 1.0, 2049)[:-1])
    for d in (d1, d2):
        for p in d.pieces:
            pts.add(p.lo)
        for loc, _ in d.jumps():
            pts.update((loc, loc - 1e-9, loc + 1e-9))
    return np.array(sorted(p for p in pts if delta <= p < 1.0))


def _sandwich_certificate(d, grid, values) -> tuple[int, float] | None:
    if np.max(values - grid) > 1e-12:  # must stay below the identity
        return None
    for n in range(1, 7):
        for alpha in np.arange(0.05, 1.0, 0.05):
            low = higher_order_es_distortion(n, round(float(alpha), 2))
            if np.max(np.asarray(low.eval(grid)) - values) <= 1e-12:
                return (n, round(float(alpha), 2))
    return None
