"""Properties of randomly built piecewise distortions.

The strategy draws 1-5 contiguous shifted-power pieces with random knots,
exponents in [0, 4] and optional jumps, then scales them so the function
reaches 1.  Convex draws keep every piece convex, drop the jumps and make
each slope at a knot at least the slope just before it.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quantrisk.distortions import (
    Distortion,
    DistortionMeasure,
    Piece,
    SpectralDensity,
    distortion_of,
    is_convex,
    spectral_of,
)
from quantrisk.distributions import Discrete, ParetoNegative, ParetoPositive, comonotone_sum
from quantrisk.errors import ParameterError
from quantrisk.riskmeasures import choquet_risk, mixture_risk, quantile_risk
from quantrisk.suite import Tolerances

# positive exponents stay away from 0, where expo - 1 loses the bits of expo
# below 2**-53 (README "Numerical contract": the floor of piece exponents)
_EXPO = st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(0.01, 4.0))
_CONVEX_EXPO = st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(1.0, 4.0))


@st.composite
def piecewise_distortions(draw, convex=False):
    n = draw(st.integers(1, 5))
    cuts = sorted(draw(st.lists(st.integers(1, 99), min_size=n - 1, max_size=n - 1, unique=True)))
    knots = [0.0] + [c / 100 for c in cuts] + [1.0]
    raw = []  # (lo, hi, base, coef, origin, width, expo) before scaling
    end = slope = 0.0  # value and slope of the function at the last knot
    for lo, hi in zip(knots, knots[1:]):
        width = draw(st.floats(0.25, 2.0))
        if convex:
            expo = draw(_CONVEX_EXPO)
            if slope > 0.0 and expo == 0.0:
                expo = 1.0  # a flat piece would lower the slope
            steeper = slope + draw(st.floats(0.01, 2.0))
            if expo == 0.0:
                coef, origin = 0.0, lo
            elif expo == 1.0:
                coef, origin = steeper * width, lo
            elif slope == 0.0:
                coef, origin = draw(st.floats(0.0, 2.0)), lo - draw(st.floats(0.0, 1.0)) * lo
            else:
                # the slope at lo is coef * expo / width * z_lo**(expo - 1)
                origin = lo - draw(st.floats(0.05, 1.0)) * lo
                z_lo = (lo - origin) / width
                coef = steeper * width / (expo * z_lo ** (expo - 1.0))
            jump = 0.0
        else:
            expo = draw(_EXPO)
            coef = draw(st.floats(0.0, 1.0))
            origin = lo - draw(st.floats(0.0, 1.0)) * lo
            jump = draw(st.one_of(st.just(0.0), st.floats(0.05, 1.0))) if lo > 0.0 else 0.0
        z_lo, z_hi = (lo - origin) / width, (hi - origin) / width
        base = end + jump - coef * z_lo**expo
        raw.append((lo, hi, base, coef, origin, width, expo))
        end = base + coef * z_hi**expo
        slope = coef * expo / width * z_hi ** (expo - 1.0) if expo > 0.0 else 0.0
    assume(end > 1e-3)
    pieces = [
        Piece(lo=lo, hi=hi, base=base / end, coef=coef / end, origin=origin, width=width, expo=expo)
        for lo, hi, base, coef, origin, width, expo in raw
    ]
    return Distortion(pieces)


def _grid(distortion):
    knots = [p.lo for p in distortion.pieces[1:]]
    near = [k + d for k in knots for d in (-1e-9, 1e-9)]
    return sorted(set(np.linspace(0.0, 1.0, 65).tolist() + knots + near))


def _discrete(seed):
    rng = np.random.default_rng(seed)
    return Discrete.from_samples(rng.normal(0.0, 3.0, size=50), rng.random(50) + 0.1)


@settings(max_examples=100, deadline=None)
@given(piecewise_distortions(), st.lists(st.floats(0.0, 1.0), max_size=10))
def test_a_scalar_gives_the_bits_of_its_array_element(d, levels):
    us = [0.0, 1.0, *(p.lo for p in d.pieces), *levels]
    for u, want in zip(us, d.eval(np.array(us)).tolist()):
        for scalar in (float(u), np.float64(u), np.array(u)):
            got = d.eval(scalar)
            assert type(got) is float
            assert got.hex() == want.hex()


@settings(max_examples=150, deadline=None)
@given(piecewise_distortions())
def test_measure_cumulative_is_the_distortion(d):
    m = d.measure
    for u in _grid(d):
        assert abs(m.cumulative(u) - d.eval(u)) <= 1e-12
    assert abs(m.cumulative(1.0) - 1.0) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(piecewise_distortions(convex=True))
def test_convex_spectral_round_trip(d):
    assert is_convex(d)
    s = spectral_of(d)
    back = distortion_of(s)
    nu = s.measure
    for u in _grid(d):
        assert abs(back.eval(u) - d.eval(u)) <= 1e-12
        if 0.0 < u < 1.0:
            assert abs(nu.cumulative(u) - s.eval(u)) <= 1e-12 * max(1.0, s.eval(u))


@settings(max_examples=60, deadline=None)
@given(piecewise_distortions(), st.integers(0, 2**32 - 1))
def test_quantile_and_choquet_agree(d, seed):
    dist = _discrete(seed)
    q, c = quantile_risk(dist, d).value, choquet_risk(dist, d).value
    assert abs(q - c) <= Tolerances().quantile_choquet


@settings(max_examples=30, deadline=None)
@given(piecewise_distortions(), st.integers(0, 2**32 - 1), st.sampled_from([2.0, 3.0]))
def test_quantile_and_choquet_agree_on_discrete_plus_tail(d, seed, theta):
    # flat pieces of D are summed exactly, the others integrated between knots
    rng = np.random.default_rng(seed)
    disc = Discrete.from_samples(rng.normal(0.0, 3.0, size=20), rng.random(20) + 0.1)
    dist = comonotone_sum(disc, ParetoNegative(1.0, theta))
    q, c = quantile_risk(dist, d), choquet_risk(dist, d)
    assert q.kind == c.kind
    if q.is_finite:
        assert abs(q.value - c.value) <= Tolerances().quantile_choquet


@settings(max_examples=60, deadline=None)
@given(piecewise_distortions(convex=True), st.integers(0, 2**32 - 1))
def test_convex_three_way_agreement(d, seed):
    dist = _discrete(seed)
    tol = Tolerances()
    q = quantile_risk(dist, d).value
    assert abs(q - choquet_risk(dist, d).value) <= tol.quantile_choquet
    assert abs(q - mixture_risk(dist, d).value) <= tol.mixture


@settings(max_examples=30, deadline=None)
@given(piecewise_distortions(convex=True), st.integers(0, 2**32 - 1), st.sampled_from([2.0, 3.0]), st.booleans())
def test_convex_three_way_agreement_on_tails(d, seed, theta, with_atoms):
    # the mixture form integrates s piece by piece as the quantile form does D,
    # concave pieces of s (1 < expo < 2 in D) in their own scale
    dist = ParetoNegative(1.0, theta)
    if with_atoms:
        rng = np.random.default_rng(seed)
        dist = comonotone_sum(Discrete.from_samples(rng.normal(0.0, 3.0, size=20), rng.random(20) + 0.1), dist)
    tol = Tolerances()
    q = quantile_risk(dist, d)
    for other, bound in ((choquet_risk(dist, d), tol.quantile_choquet), (mixture_risk(dist, d), tol.mixture)):
        assert other.kind == q.kind
        if q.is_finite:
            assert abs(other.value - q.value) <= bound


@settings(max_examples=20, deadline=None)
@given(piecewise_distortions(convex=True), st.floats(2.0, 4.0), st.floats(2.0, 4.0), st.floats(-3.0, 3.0))
def test_convex_three_way_agreement_on_two_tail_sums(d, theta1, theta2, c):
    # Choquet reads the CDF of the lazy sum, which inverts the summed quantile
    # in the level; the quantile and mixture forms never call it
    dist = comonotone_sum(ParetoNegative(1.0, theta1), ParetoPositive(1.0, theta2)).shift(c)
    tol = Tolerances()
    q = quantile_risk(dist, d)
    assert q.is_finite
    assert abs(choquet_risk(dist, d).value - q.value) <= tol.quantile_choquet
    assert abs(mixture_risk(dist, d).value - q.value) <= tol.mixture


class TestAtomAtZero:
    def test_mixture_measure_keeps_any_positive_density_at_zero(self):
        s = SpectralDensity([
            Piece(lo=0.0, hi=0.5, coef=1e-13, origin=0.0, width=1.0, expo=0.0),
            Piece(lo=0.5, hi=1.0, coef=2.0 - 1e-13, origin=0.0, width=1.0, expo=0.0),
        ])
        nu = s.measure
        assert nu.atoms[0] == (0.0, 1e-13)
        assert nu.atoms[1][0] == 0.5

    @pytest.mark.parametrize("start", [5e-13, -5e-13, 1e-12])
    def test_distortion_tolerates_a_tiny_start_without_an_atom(self, start):
        d = Distortion([Piece(lo=0.0, hi=1.0, base=start, coef=1.0 - start, origin=0.0, width=1.0, expo=1.0)])
        assert d.measure.atoms == ()
        assert d.jumps() == ()

    def test_distortion_rejects_a_start_beyond_the_tolerance(self):
        with pytest.raises(ParameterError, match="vanish at 0"):
            Distortion([Piece(lo=0.0, hi=1.0, base=2e-12, coef=1.0, origin=0.0, width=1.0, expo=1.0)])

    def test_interior_jumps_count_only_above_the_tolerance(self):
        d = Distortion([
            Piece(lo=0.0, hi=0.5, coef=1.0, origin=0.0, width=1.0, expo=1.0),
            Piece(lo=0.5, hi=1.0, base=5e-13, coef=1.0, origin=0.0, width=1.0, expo=1.0),
        ])
        assert d.measure.atoms == ()
        s = SpectralDensity([
            Piece(lo=0.0, hi=0.5, coef=1.0, origin=0.0, width=1.0, expo=0.0),
            Piece(lo=0.5, hi=1.0, coef=1.0 + 5e-13, origin=0.0, width=1.0, expo=0.0),
        ])
        assert s.measure.atoms == ((0.0, 1.0),)


class TestOnePieceType:
    def test_piece_builds_from_its_keyword_arguments(self):
        p = Piece(lo=0.0, hi=0.5, base=0.25, coef=1.0, origin=0.0, width=1.0, expo=2.0)
        assert p.value(0.5) == 0.5

    def test_density_piece_builds_from_its_keyword_arguments(self):
        p = Piece(lo=0.0, hi=1.0, coef=2.0, origin=0.0, width=1.0, expo=1.0)
        assert isinstance(p, Piece) and p.base == 0.0
        assert p.integral(0.0, 1.0) == 1.0

    def test_one_measure_type(self):
        d = Distortion([Piece(lo=0.0, hi=1.0, coef=1.0, origin=0.0, width=1.0, expo=2.0)])
        assert isinstance(spectral_of(d).measure, DistortionMeasure)
        assert d.measure is d.measure

    def test_spectral_pieces_take_no_base(self):
        with pytest.raises(ParameterError, match="no base"):
            SpectralDensity([Piece(lo=0.0, hi=1.0, base=0.5, coef=0.5, origin=0.0, width=1.0, expo=0.0)])
