"""Distortion functions on [0,1] as exact piecewise data.

One piece type, the shifted power ``base + coef * ((u - origin)/width)**expo``
on [lo, hi), covers constants, lines and the named power families.  It is a
piece of a distortion D, of a spectral density s and of a measure's density,
and carries its derivative, integrals and antiderivative in closed form.

D and s are contiguous pieces covering (0,1), evaluated right-continuously:
the value at a jump point is the post-jump value.  One Lebesgue-Stieltjes
derivation, run when either is built, gives the measure it induces: atoms at
the jumps, density the derivative of each non-flat piece.  For D that is the
measure Q the quantile form integrates against; for s it is the mixing
measure nu of the expected-shortfall mixture.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NotSpectralError, ParameterError

__all__ = [
    "Piece",
    "Distortion",
    "DistortionMeasure",
    "SpectralDensity",
    "ConvexityResult",
    "make_named",
    "expectation",
    "value_at_risk_distortion",
    "expected_shortfall_distortion",
    "higher_order_es_distortion",
    "threshold_distortion",
    "sqrt_example_distortion",
    "is_convex",
    "spectral_of",
    "distortion_of",
]

# The one test of equal probability masses, for X, Q = dD, nu = ds and a joint table:
# two masses differ when they are more than this apart.
MASS_TOL = 1e-12
# is_convex's midpoint margin: a bend at or below it counts as convex
_CONVEX_MARGIN = 1e-15

@dataclass(frozen=True, kw_only=True)
class Piece:
    """value(u) = base + coef * ((u - origin)/width)**expo on [lo, hi), expo > -1.

    The integrals and the antiderivative are of the power alone; they serve
    density pieces, whose base is 0.
    """

    lo: float
    hi: float
    base: float = 0.0
    coef: float
    origin: float
    width: float
    expo: float

    def __post_init__(self):
        # written as not (x > bound), so that NaN fails every check
        if not (0.0 <= self.lo < self.hi <= 1.0):
            raise ParameterError(f"piece interval [{self.lo}, {self.hi}) not inside [0,1]")
        if not all(map(math.isfinite, (self.base, self.coef, self.origin, self.width, self.expo))):
            raise ParameterError("piece parameters must be finite")
        if not (self.width > 0):
            raise ParameterError("piece width must be positive")
        if not (self.coef >= 0):
            raise ParameterError("pieces must be increasing (coef >= 0)")
        if not (self.expo > -1.0):
            raise ParameterError("piece exponent must exceed -1 to stay integrable")

    @property
    def flat(self) -> bool:
        return self.coef == 0.0 or self.expo == 0.0

    def value(self, u):
        u = np.asarray(u, dtype=float)
        if self.expo == 0.0:
            power = self.coef * np.ones_like(u)
        else:
            power = self.coef * np.maximum((u - self.origin) / self.width, 0.0) ** self.expo
        # density pieces run inside quadrature integrands: no add of a zero base
        return power + self.base if self.base else power

    def at(self, u: float) -> float:
        """``value`` at one float, in Python floats, for integrands that call it point by point.

        Its power is libm's, which can differ from numpy's array power in the last bit.
        """
        # x**0.0 is 1.0, for x = 0 too: a flat piece needs no branch
        power = self.coef * max((u - self.origin) / self.width, 0.0) ** self.expo
        return power + self.base if self.base else power

    @cached_property
    def derivative(self) -> Piece:
        """Derivative on (lo, hi); the zero piece when this one is flat.  Built once."""
        if self.flat:
            return Piece(lo=self.lo, hi=self.hi, coef=0.0, origin=0.0, width=1.0, expo=0.0)
        return Piece(
            lo=self.lo,
            hi=self.hi,
            coef=self.coef * self.expo / self.width,
            origin=self.origin,
            width=self.width,
            expo=self.expo - 1.0,
        )

    def integral(self, a: float, b: float) -> float:
        """Exact integral over (a, b) intersected with (lo, hi)."""
        a = max(a, self.lo)
        b = min(b, self.hi)
        if b <= a:
            return 0.0
        e1 = self.expo + 1.0
        za = (a - self.origin) / self.width
        zb = (b - self.origin) / self.width
        return self.coef * self.width / e1 * (max(zb, 0.0) ** e1 - max(za, 0.0) ** e1)

    def antiderivative(self, start: float) -> Piece:
        """Primitive on [lo, hi) taking the value ``start`` at lo."""
        e1 = self.expo + 1.0
        c = self.coef * self.width / e1
        za = max((self.lo - self.origin) / self.width, 0.0)
        return Piece(
            lo=self.lo,
            hi=self.hi,
            base=start - c * za**e1,
            coef=c,
            origin=self.origin,
            width=self.width,
            expo=e1,
        )


@dataclass(frozen=True)
class DistortionMeasure:
    """Atoms plus density of the measure an increasing piecewise function induces.

    Q = dD is a distortion's ``measure`` and nu = ds a spectral density's.
    """

    atoms: tuple[tuple[float, float], ...]
    density: tuple[Piece, ...]

    def cumulative(self, u: float) -> float:
        """Mass of [0,u] for u in (0,1]."""
        atom_part = math.fsum(m for loc, m in self.atoms if loc <= u)
        dens_part = math.fsum(p.integral(0.0, u) for p in self.density)
        return atom_part + dens_part


@dataclass(frozen=True)
class ConvexityResult:
    convex: bool
    witness: tuple[float, float] | None = None  # (u, eps) violating the midpoint test

    def __bool__(self) -> bool:
        return self.convex


class _Piecewise:
    """Increasing function given by contiguous pieces covering (0,1).

    Subclasses set ``_NOUN``, the error texts ``_COVER`` and ``_GAP``, and
    ``_OPEN``: whether ``eval`` refuses the ends 0 and 1.
    """

    def __init__(self, pieces):
        pieces = sorted(pieces, key=lambda p: p.lo)
        if not pieces:
            raise ParameterError(f"a {self._NOUN} needs at least one piece")
        if pieces[0].lo != 0.0 or pieces[-1].hi != 1.0:
            raise ParameterError(self._COVER)
        for prev, nxt in zip(pieces, pieces[1:]):
            if prev.hi != nxt.lo:
                raise ParameterError(self._GAP)
        self.pieces: tuple[Piece, ...] = tuple(pieces)
        self._knots = np.array([p.lo for p in pieces])

    def _stieltjes(self, zero_floor: float) -> DistortionMeasure:
        """Atoms at the jumps, density the derivative of each non-flat piece.

        The value at 0+ is a jump from 0, kept as an atom when it exceeds
        ``zero_floor``; interior jumps count above ``MASS_TOL``.
        """
        atoms = []
        end, floor = 0.0, zero_floor
        for p in self.pieces:
            h = float(p.value(p.lo)) - end
            if h < -MASS_TOL:
                raise ParameterError(f"{self._NOUN} decreases at {p.lo!r}")
            if h > floor:
                atoms.append((p.lo, h))
            end, floor = float(p.value(p.hi)), MASS_TOL
        density = tuple(p.derivative for p in self.pieces if not p.flat)
        return DistortionMeasure(atoms=tuple(atoms), density=density)

    def eval(self, u):
        """Evaluate right-continuously at jumps, with D(1) = 1; one path for floats and arrays: a scalar is a 1-element array."""
        scalar = np.isscalar(u) or np.ndim(u) == 0
        arr = np.atleast_1d(np.asarray(u, dtype=float))
        if np.any((arr <= 0.0) | (arr >= 1.0) if self._OPEN else (arr < 0.0) | (arr > 1.0)):
            raise ParameterError(f"{self._NOUN} argument must lie in {'(0,1)' if self._OPEN else '[0,1]'}")
        idx = np.minimum(np.searchsorted(self._knots, arr, side="right") - 1, len(self.pieces) - 1)
        out = np.empty_like(arr)
        for i, piece in enumerate(self.pieces):
            mask = idx == i
            if np.any(mask):
                out[mask] = piece.value(arr[mask])
        out = np.where(arr == 1.0, 1.0, out)
        return float(out[0]) if scalar else out


class Distortion(_Piecewise):
    """Increasing right-continuous D on [0,1] with D(0)=0 and D(1-)=1."""

    _NOUN = "distortion"
    _COVER = "pieces must cover [0,1)"
    _GAP = "pieces must be contiguous"
    _OPEN = False

    def __init__(self, pieces, name: str | None = None):
        pieces = list(pieces)
        for p in pieces:
            if p.origin > p.lo + 1e-15:
                raise ParameterError("piece origin must not exceed its left endpoint")
            if p.expo < 0:
                raise ParameterError("piece exponent must be >= 0")
        super().__init__(pieces)
        self.name = name
        start = float(self.pieces[0].value(0.0))
        if abs(start) > MASS_TOL:
            raise ParameterError(f"distortion must vanish at 0, got {start!r}")
        self.measure = self._stieltjes(MASS_TOL)
        top = float(self.pieces[-1].value(1.0))
        if abs(top - 1.0) > MASS_TOL:
            raise ParameterError(f"distortion must reach 1 at 1, got {top!r}")

    def jumps(self) -> tuple[tuple[float, float], ...]:
        """Interior discontinuities as (location, height) pairs."""
        return self.measure.atoms

    def density_exponent_at(self, endpoint: int) -> float | None:
        """The exponent p of the density D' ~ t**p at endpoint 0 or 1, p > -1.

        t is the distance to the endpoint.  None when no density piece
        touches it (D flat there or atom-only).
        """
        piece = self.pieces[0 if endpoint == 0 else -1]
        if piece.flat:
            return None
        dens = piece.derivative
        # origin < 0 at 0+, or origin <= lo < 1 at 1-: the density is bounded
        # and positive at the endpoint
        return dens.expo if endpoint == 0 and dens.origin == 0.0 else 0.0

    def label(self) -> str:
        return self.name or f"piecewise({len(self.pieces)} pieces)"

    def __repr__(self) -> str:
        return f"Distortion({self.label()})"


# ---------------------------------------------------------------------------
# named families


def expectation() -> Distortion:
    return Distortion([_linear_identity(0.0, 1.0)], name="expectation")


def value_at_risk_distortion(alpha: float) -> Distortion:
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"var level must lie in (0,1), got {alpha!r}")
    return Distortion(
        [_flat(0.0, alpha, 0.0), _flat(alpha, 1.0, 1.0)],
        name=f"var({alpha:g})",
    )


def expected_shortfall_distortion(alpha: float) -> Distortion:
    return higher_order_es_distortion(1, alpha, _name=f"es({alpha:g})")


def higher_order_es_distortion(n: int, alpha: float, _name: str | None = None) -> Distortion:
    if not float(n).is_integer() or n < 1:
        raise ParameterError(f"order must be an integer >= 1, got {n!r}")
    if not 0.0 <= alpha < 1.0:
        raise ParameterError(f"es level must lie in [0,1), got {alpha!r}")
    n = int(n)
    name = _name or f"es_n({n},{alpha:g})"
    ramp = Piece(lo=alpha, hi=1.0, base=0.0, coef=1.0, origin=alpha, width=1.0 - alpha, expo=float(n))
    if alpha == 0.0:
        return Distortion([ramp], name=name)
    return Distortion([_flat(0.0, alpha, 0.0), ramp], name=name)


def threshold_distortion(delta: float) -> Distortion:
    if not 0.0 < delta < 1.0:
        raise ParameterError(f"threshold must lie in (0,1), got {delta!r}")
    return Distortion(
        [_linear_identity(0.0, delta), _flat(delta, 1.0, 1.0)],
        name=f"threshold({delta:g})",
    )


def sqrt_example_distortion() -> Distortion:
    half_sqrt = Piece(lo=0.0, hi=0.25, base=0.0, coef=0.5, origin=0.0, width=1.0, expo=0.5)
    return Distortion([half_sqrt, _linear_identity(0.25, 1.0)], name="sqrt_example")


def _linear_identity(lo: float, hi: float) -> Piece:
    return Piece(lo=lo, hi=hi, base=0.0, coef=1.0, origin=0.0, width=1.0, expo=1.0)


def _flat(lo: float, hi: float, level: float) -> Piece:
    return Piece(lo=lo, hi=hi, base=level, coef=0.0, origin=0.0, width=1.0, expo=0.0)


_NAMED = {
    "expectation": ((), lambda params: expectation()),
    "var": (("alpha",), lambda params: value_at_risk_distortion(params["alpha"])),
    "es": (("alpha",), lambda params: expected_shortfall_distortion(params["alpha"])),
    "es_n": (("n", "alpha"), lambda params: higher_order_es_distortion(params["n"], params["alpha"])),
    "threshold": (("delta",), lambda params: threshold_distortion(params["delta"])),
    "sqrt_example": ((), lambda params: sqrt_example_distortion()),
}


def make_named(name: str, **params) -> Distortion:
    """Build one of the named families: expectation, var, es, es_n, threshold, sqrt_example."""
    try:
        required, builder = _NAMED[name]
    except KeyError:
        raise ParameterError(f"unknown distortion family {name!r}") from None
    missing = [k for k in required if k not in params]
    extra = sorted(set(params) - set(required))
    if missing or extra:
        raise TypeError(
            f"family {name!r} takes parameters {list(required)}; missing {missing}, unexpected {extra}"
        )
    for key, value in params.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ParameterError(f"{name} parameter {key!r} must be a real number, got {value!r}")
    return builder(params)


# ---------------------------------------------------------------------------
# convexity, spectrum


def is_convex(distortion: Distortion) -> ConvexityResult:
    """Exact convexity decision for a piecewise distortion.

    A piecewise distortion can only fail convexity at a jump, inside a
    concave piece or where the slope drops across a knot.  Each such place
    counts only when the midpoint test finds it above ``_CONVEX_MARGIN``, so a
    non-convex result always carries a witness (u, eps) with
    ``2 D(u) > D(u-eps) + D(u+eps)``.  Knots are judged on ``_slope``, so a
    concave piece enters and leaves with its chord slope.
    """
    pieces = distortion.pieces
    suspects = itertools.chain(  # jumps, concave pieces, slope drops at knots
        ((loc, None) for loc, _height in distortion.jumps()),
        ((0.5 * (p.lo + p.hi), 0.25 * (p.hi - p.lo)) for p in pieces if _concave(p)),
        ((nxt.lo, None) for prev, nxt in zip(pieces, pieces[1:])
         if float(_slope(prev).value(prev.hi)) > float(_slope(nxt).value(nxt.lo)) + _CONVEX_MARGIN),
    )
    for u, eps in suspects:
        witness = _shrink_witness(distortion, u, eps)
        if witness is not None:
            return ConvexityResult(False, witness)
    return ConvexityResult(True)


def _concave(p: Piece) -> bool:
    return p.coef > 0 and 0.0 < p.expo < 1.0


def _slope(p: Piece) -> Piece:
    """D' on a piece, but a concave piece's chord slope, as a constant, in its place.

    ``is_convex`` accepts a concave piece only with a bend below the margin,
    and within that margin its slope is its chord, not its derivative, which
    is infinite at its origin.
    """
    if not _concave(p):
        return p.derivative
    chord = float(p.value(p.hi) - p.value(p.lo)) / (p.hi - p.lo)
    return Piece(lo=p.lo, hi=p.hi, coef=chord, origin=0.0, width=1.0, expo=0.0)


def _shrink_witness(distortion, u: float, eps: float | None = None) -> tuple[float, float] | None:
    """Find eps with a midpoint violation above ``_CONVEX_MARGIN`` at u, halving from a safe start."""
    if eps is None:
        eps = 0.5 * min(u, 1.0 - u)
    twice = 2.0 * distortion.eval(u)
    for _ in range(80):
        if twice > distortion.eval(u - eps) + distortion.eval(u + eps) + _CONVEX_MARGIN:
            return (u, eps)
        eps *= 0.5
    return None


class SpectralDensity(_Piecewise):
    """Increasing density s on (0,1) with unit integral, stored piecewise.

    Its ``measure`` is nu = ds, with nu[[0,u]] = s(u): the mixing measure
    that weights the expected-shortfall mixture.
    """

    _NOUN = "spectral density"
    _COVER = "density pieces must cover (0,1)"
    _GAP = "density pieces must be contiguous"
    _OPEN = True

    def __init__(self, pieces):
        super().__init__(pieces)
        for p in self.pieces:
            if p.expo < 0:
                raise ParameterError("spectral pieces must be increasing (expo >= 0)")
            if p.base != 0.0:
                raise ParameterError("spectral pieces take no base; a constant is coef with expo 0")
        self.measure = self._stieltjes(0.0)
        total = math.fsum(p.integral(p.lo, p.hi) for p in self.pieces)
        if abs(total - 1.0) > MASS_TOL:
            raise ParameterError(f"spectral density must integrate to 1, got {total!r}")


def spectral_of(distortion: Distortion) -> SpectralDensity:
    """Derivative of a convex distortion, the density of its measure.

    A concave piece, accepted only with a bend below the margin, gives its
    chord slope, as in the knot test of ``is_convex``.
    """
    res = is_convex(distortion)
    if not res.convex:
        raise NotSpectralError(
            f"{distortion.label()} is not convex, hence admits no increasing density",
            witness=res.witness,
        )
    return SpectralDensity([_slope(p) for p in distortion.pieces])


def distortion_of(spectrum: SpectralDensity) -> Distortion:
    """Primitive of a spectral density: the convex distortion it represents."""
    pieces = []
    cum = 0.0
    for dens in spectrum.pieces:
        piece = dens.antiderivative(cum)
        cum = float(piece.value(piece.hi))
        pieces.append(piece)
    return Distortion(pieces, name="integral")
