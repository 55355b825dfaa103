"""Distortion families, measures, convexity, spectra and mixture measures."""

import itertools
import math

import numpy as np
import pytest

from quantrisk.distortions import (
    ConvexityResult,
    Distortion,
    Piece,
    SpectralDensity,
    distortion_of,
    is_convex,
    make_named,
    spectral_of,
)
from quantrisk.distributions import Discrete
from quantrisk.errors import NotSpectralError, ParameterError
from quantrisk.riskmeasures import compare_domains
from quantrisk.subadditivity import JointTable

NAMED = {
    "expectation": make_named("expectation"),
    "var(0.25)": make_named("var", alpha=0.25),
    "var(0.5)": make_named("var", alpha=0.5),
    "es(0.25)": make_named("es", alpha=0.25),
    "es(0.5)": make_named("es", alpha=0.5),
    "es(0.75)": make_named("es", alpha=0.75),
    "es_n(2,0)": make_named("es_n", n=2, alpha=0.0),
    "es_n(3,0.2)": make_named("es_n", n=3, alpha=0.2),
    "es_n(5,0.9)": make_named("es_n", n=5, alpha=0.9),
    "threshold(0.5)": make_named("threshold", delta=0.5),
    "sqrt_example": make_named("sqrt_example"),
}
CONVEX = ["expectation", "es(0.25)", "es(0.5)", "es(0.75)", "es_n(2,0)", "es_n(3,0.2)", "es_n(5,0.9)"]
NON_CONVEX = ["var(0.25)", "var(0.5)", "threshold(0.5)", "sqrt_example"]


class TestNamedFamilies:
    def test_expectation_is_identity(self):
        assert NAMED["expectation"].eval(0.37) == 0.37

    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_float_argument_gives_the_array_value(self, name):
        d = NAMED[name]
        rng = np.random.default_rng(3)
        us = np.concatenate((rng.random(2000), rng.random(500) ** 8, [0.0, 0.25, 0.5, 0.9, 1.0, 5e-324]))
        us = np.concatenate((us, [p.lo for p in d.pieces], [np.nextafter(p.lo, 0.0) for p in d.pieces[1:]]))
        assert np.array_equal(np.array([d.eval(float(u)) for u in us]), d.eval(us))
        assert all(type(d.eval(float(u))) is float for u in us[:5])
        with pytest.raises(ParameterError):
            d.eval(1.5)

    def test_var_indicator_right_closed(self):
        d = make_named("var", alpha=0.25)
        assert d.eval(0.2) == 0.0
        assert d.eval(0.25) == 1.0
        assert make_named("var", alpha=0.5).eval(0.5) == 1.0

    def test_es_ramp(self):
        d = NAMED["es(0.5)"]
        assert d.eval(0.75) == 0.5
        assert d.eval(0.5) == 0.0
        assert d.eval(1.0) == 1.0

    def test_es_order_one_equals_es(self):
        g = np.linspace(0, 1, 1001)
        a = make_named("es_n", n=1, alpha=0.3).eval(g)
        b = make_named("es", alpha=0.3).eval(g)
        assert np.array_equal(a, b)

    def test_es_level_zero_equals_expectation(self):
        g = np.linspace(0, 1, 1001)
        assert np.array_equal(make_named("es", alpha=0.0).eval(g), NAMED["expectation"].eval(g))

    def test_threshold_shape(self):
        d = NAMED["threshold(0.5)"]
        assert d.eval(0.3) == 0.3
        assert d.eval(0.5) == 1.0

    def test_sqrt_example_shape(self):
        d = NAMED["sqrt_example"]
        assert abs(d.eval(0.16) - 0.5 * 0.4) < 1e-15
        assert d.eval(0.25) == 0.25
        assert d.eval(0.7) == 0.7

    def test_parameter_ranges(self):
        with pytest.raises(ParameterError):
            make_named("var", alpha=0.0)
        with pytest.raises(ParameterError):
            make_named("es", alpha=1.0)
        with pytest.raises(ParameterError):
            make_named("es_n", n=0, alpha=0.5)
        with pytest.raises(ParameterError):
            make_named("threshold", delta=1.0)
        with pytest.raises(ParameterError):
            make_named("nope")

    @pytest.mark.parametrize(
        "name, params",
        [
            ("var", {"alpha": "0.5"}),
            ("es", {"alpha": None}),
            ("threshold", {"delta": True}),
            ("es_n", {"n": "2", "alpha": 0.5}),
            ("es_n", {"n": 2.5, "alpha": 0.5}),
            ("es_n", {"n": float("inf"), "alpha": 0.5}),
            ("es_n", {"n": float("nan"), "alpha": 0.5}),
        ],
    )
    def test_parameter_types(self, name, params):
        with pytest.raises(ParameterError):
            make_named(name, **params)

    def test_eval_domain(self):
        with pytest.raises(ParameterError):
            NAMED["expectation"].eval(1.5)


class TestStructuralInvariants:
    @pytest.mark.parametrize("label", list(NAMED), ids=str)
    def test_boundary_and_monotone(self, label):
        d = NAMED[label]
        g = np.linspace(0, 1, 513)
        v = d.eval(g)
        assert v[0] == 0.0 and v[-1] == 1.0
        assert np.all(np.diff(v) >= -1e-15)

    @pytest.mark.parametrize("label", list(NAMED), ids=str)
    def test_unit_mass(self, label):
        assert abs(NAMED[label].measure.cumulative(1.0) - 1.0) <= 1e-12

    def test_decreasing_pieces_rejected(self):
        with pytest.raises(ParameterError):
            Distortion(
                [
                    Piece(lo=0.0, hi=0.5, base=0.0, coef=2.0, origin=0.0, width=1.0, expo=1.0),
                    Piece(lo=0.5, hi=1.0, base=0.5, coef=0.5, origin=0.0, width=1.0, expo=1.0),
                ]
            )  # drops from 1.0 to 0.5 at the knot

    def test_mass_deficit_rejected(self):
        with pytest.raises(ParameterError):
            Distortion([Piece(lo=0.0, hi=1.0, base=0.0, coef=0.5, origin=0.0, width=1.0, expo=1.0)])


class TestMeasures:
    def test_var_is_dirac(self):
        m = make_named("var", alpha=0.3).measure
        assert m.atoms == ((0.3, 1.0),)
        assert m.density == ()

    def test_es_density(self):
        m = NAMED["es(0.5)"].measure
        assert m.atoms == ()
        dens = [p for p in m.density if p.coef > 0]
        assert len(dens) == 1
        assert abs(dens[0].value(0.8) - 2.0) < 1e-15
        assert (dens[0].lo, dens[0].hi) == (0.5, 1.0)

    def test_threshold_mixed(self):
        m = NAMED["threshold(0.5)"].measure
        assert m.atoms == ((0.5, 0.5),)
        live = [p for p in m.density if p.coef > 0]
        assert len(live) == 1 and abs(live[0].value(0.2) - 1.0) < 1e-15


class TestConvexity:
    @pytest.mark.parametrize("label", CONVEX, ids=str)
    def test_convex_families(self, label):
        assert is_convex(NAMED[label]).convex

    @pytest.mark.parametrize("label", NON_CONVEX, ids=str)
    def test_non_convex_families_with_valid_witness(self, label):
        res = is_convex(NAMED[label])
        assert not res.convex
        u, eps = res.witness
        assert 0 < u < 1 and 0 < eps < min(u, 1 - u)
        d = NAMED[label]
        assert 2 * d.eval(u) > d.eval(u - eps) + d.eval(u + eps)

    def test_var_witness_pinned(self):
        assert is_convex(NAMED["var(0.5)"]).witness == (0.5, 0.25)
        assert is_convex(NAMED["threshold(0.5)"]).witness == (0.5, 0.25)

    def test_violation_below_the_margin_counts_as_convex(self):
        # the concave piece bends by about 1e-301, below the midpoint test's
        # 1e-15 margin: no witness exists there, so the verdict is convex
        d = Distortion([
            Piece(lo=0.0, hi=0.5, coef=1e-300, origin=0.0, width=1.0, expo=0.5),
            Piece(lo=0.5, hi=1.0, base=-1.0, coef=2.0, origin=0.0, width=1.0, expo=1.0),
        ])
        assert is_convex(d) == ConvexityResult(True)

    def test_every_non_convex_verdict_carries_a_witness(self):
        # a jump, then a concave piece whose midpoint bend is visible
        d = Distortion([
            Piece(lo=0.0, hi=0.5, coef=0.5, origin=0.0, width=1.0, expo=1.0),
            Piece(lo=0.5, hi=1.0, base=0.5, coef=0.5, origin=0.5, width=0.5, expo=0.5),
        ])
        res = is_convex(d)
        assert not res.convex
        u, eps = res.witness
        assert 2 * d.eval(u) > d.eval(u - eps) + d.eval(u + eps) + 1e-15


class TestNonFinitePieces:
    @pytest.mark.parametrize("field", ["base", "coef", "origin", "width", "expo"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejected(self, field, bad):
        args = dict(lo=0.0, hi=1.0, base=0.0, coef=1.0, origin=0.0, width=1.0, expo=1.0)
        args[field] = bad
        with pytest.raises(ParameterError):
            Piece(**args)

    @pytest.mark.parametrize("lo, hi", [(math.nan, 1.0), (0.0, math.nan)])
    def test_nan_interval_rejected(self, lo, hi):
        with pytest.raises(ParameterError):
            Piece(lo=lo, hi=hi, coef=1.0, origin=0.0, width=1.0, expo=1.0)


class TestSpectra:
    def test_es_spectrum(self):
        s = spectral_of(NAMED["es(0.5)"])
        assert s.eval(0.4) == 0.0
        assert abs(s.eval(0.7) - 2.0) < 1e-15

    def test_expectation_spectrum_constant_one(self):
        s = spectral_of(NAMED["expectation"])
        for u in (0.1, 0.45, 0.99):
            assert s.eval(u) == 1.0

    def test_higher_order_spectrum_closed_form(self):
        n, alpha = 3, 0.2
        s = spectral_of(make_named("es_n", n=n, alpha=alpha))
        for u in (0.3, 0.6, 0.9):
            want = n / (1 - alpha) * ((u - alpha) / (1 - alpha)) ** (n - 1)
            assert abs(s.eval(u) - want) < 1e-14

    def test_not_spectral_carries_witness(self):
        with pytest.raises(NotSpectralError) as err:
            spectral_of(NAMED["var(0.5)"])
        assert err.value.witness == (0.5, 0.25)

    @pytest.mark.parametrize("label", CONVEX, ids=str)
    def test_round_trip_thousand_points(self, label):
        d = NAMED[label]
        back = distortion_of(spectral_of(d))
        g = np.linspace(0.0, 1.0, 1000)
        assert np.max(np.abs(np.asarray(back.eval(g)) - np.asarray(d.eval(g)))) <= 1e-12

    @pytest.mark.parametrize("label", CONVEX, ids=str)
    def test_spectrum_increasing_at_boundaries(self, label):
        s = spectral_of(NAMED[label])
        for prev, nxt in zip(s.pieces, s.pieces[1:]):
            assert float(nxt.value(nxt.lo)) >= float(prev.value(prev.hi)) - 1e-15

    def test_integrate_then_differentiate(self):
        s = SpectralDensity([Piece(lo=0.0, hi=1.0, coef=2.0, origin=0.0, width=1.0, expo=1.0)])
        d = distortion_of(s)
        g = np.linspace(0, 1, 101)
        assert np.max(np.abs(np.asarray(d.eval(g)) - g * g)) < 1e-15
        s2 = spectral_of(d)
        for u in (0.2, 0.5, 0.8):
            assert abs(s2.eval(u) - 2 * u) < 1e-15

    def test_constant_density_integrates_to_expectation(self):
        s = SpectralDensity([Piece(lo=0.0, hi=1.0, coef=1.0, origin=0.0, width=1.0, expo=0.0)])
        d = distortion_of(s)
        g = np.linspace(0, 1, 101)
        assert np.max(np.abs(np.asarray(d.eval(g)) - g)) < 1e-15

    def test_spectral_density_validation(self):
        with pytest.raises(ParameterError):
            SpectralDensity(
                [
                    Piece(lo=0.0, hi=0.5, coef=2.0, origin=0.0, width=1.0, expo=0.0),
                    Piece(lo=0.5, hi=1.0, coef=0.0, origin=0.0, width=1.0, expo=0.0),
                ]
            )  # decreasing across the knot


class TestSpectrumMeasure:
    def test_constant_density_gives_unit_atom_at_zero(self):
        nu = spectral_of(NAMED["expectation"]).measure
        assert nu.atoms == ((0.0, 1.0),)
        assert nu.density == ()

    def test_es_spectrum_gives_single_interior_atom(self):
        nu = spectral_of(NAMED["es(0.5)"]).measure
        assert len(nu.atoms) == 1
        loc, mass = nu.atoms[0]
        assert loc == 0.5 and abs(mass - 2.0) < 1e-15

    def test_linear_density_gives_pure_density(self):
        nu = spectral_of(NAMED["es_n(2,0)"]).measure
        assert nu.atoms == ()
        assert len(nu.density) == 1
        assert abs(nu.density[0].value(0.3) - 2.0) < 1e-15

    @pytest.mark.parametrize("label", CONVEX, ids=str)
    def test_cumulative_matches_spectrum(self, label):
        s = spectral_of(NAMED[label])
        nu = s.measure
        for u in np.linspace(0.02, 0.98, 49):
            assert abs(nu.cumulative(u) - s.eval(u)) <= 1e-10


def _linear(lo, hi, **kw):
    return Piece(**{"lo": lo, "hi": hi, "coef": 1.0, "origin": 0.0, "width": 1.0, "expo": 1.0, **kw})


def _flat_density(lo, hi, level):
    return Piece(lo=lo, hi=hi, coef=level, origin=0.0, width=1.0, expo=0.0)


def _refused(build) -> bool:
    try:
        build()
    except ParameterError:
        return True
    return False


def _jump_at_half(height):
    """The identity with a jump of ``height`` at 0.5, a drop when negative."""
    after = _linear(0.5, 1.0, base=0.5 + height, coef=0.5 - height, origin=0.5, width=0.5)
    return Distortion([_linear(0.0, 0.5), after])


MASS = 1e-12  # MASS_TOL, written out so that the boundary itself is pinned
# per site: does an offset of the mass cross the policy (a refusal, an atom, a strict relation)?
MASS_SITES = {
    "discrete-total": lambda off: _refused(lambda: Discrete([1.0, 2.0], [0.5, 0.5 + off])),
    "joint-table-total": lambda off: _refused(
        lambda: JointTable([0.0, 1.0], [0.0, 1.0], [[0.25, 0.25], [0.25, 0.25 + off]])),
    "D(0)": lambda off: _refused(lambda: Distortion([_linear(0.0, 1.0, base=off, coef=1.0 - off)])),
    "D(1)": lambda off: _refused(lambda: Distortion([_linear(0.0, 1.0, coef=1.0 + off)])),
    "jump-is-atom": lambda off: len(_jump_at_half(off).measure.atoms) == 1,
    "drop-is-refused": lambda off: _refused(lambda: _jump_at_half(-off)),
    "spectral-integral": lambda off: _refused(lambda: SpectralDensity([_flat_density(0.0, 1.0, 1.0 + off)])),
    "compare-domains": lambda off: {compare_domains(*pair).relation for pair in itertools.permutations(
        (_jump_at_half(off), make_named("expectation")))} == {"subset-2-in-1", "subset-1-in-2"},
}


@pytest.mark.parametrize("site", MASS_SITES)
def test_one_mass_policy_at_every_site(site):
    """Every site that asks whether two masses are equal answers with the same 1e-12."""
    assert not MASS_SITES[site](0.9 * MASS)
    assert MASS_SITES[site](1.1 * MASS)


class TestValidation:
    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda: _linear(0.0, 1.0, width=0.0), "width must be positive"),
            (lambda: _linear(0.0, 1.0, coef=-1.0), r"increasing \(coef >= 0\)"),
            (lambda: _linear(0.0, 1.0, expo=-1.0), "exceed -1"),
            (lambda: Distortion([]), "a distortion needs at least one piece"),
            (lambda: Distortion([_linear(0.1, 1.0)]), r"pieces must cover \[0,1\)"),
            (lambda: Distortion([_linear(0.0, 0.4), _linear(0.5, 1.0)]), "pieces must be contiguous"),
            (lambda: Distortion([_linear(0.0, 0.5), _linear(0.5, 1.0, origin=0.6)]), "origin must not exceed"),
            (lambda: Distortion([_linear(0.0, 1.0, expo=-0.5)]), "exponent must be >= 0"),
            (lambda: SpectralDensity([_flat_density(0.0, 0.5, 2.0)]), r"density pieces must cover \(0,1\)"),
            (lambda: SpectralDensity([_flat_density(0.0, 0.4, 1.0), _flat_density(0.5, 1.0, 1.0)]),
             "density pieces must be contiguous"),
            (lambda: SpectralDensity([_linear(0.0, 1.0, coef=0.5, expo=-0.5)]), r"increasing \(expo >= 0\)"),
            (lambda: SpectralDensity([_flat_density(0.0, 1.0, 2.0)]), "must integrate to 1"),
        ],
        ids=["piece-width", "piece-coef", "piece-expo", "no-piece", "cover", "gap", "origin", "negative-expo",
             "density-cover", "density-gap", "density-expo", "density-total"],
    )
    def test_malformed_pieces_are_refused(self, build, match):
        with pytest.raises(ParameterError, match=match):
            build()

    def test_distortion_argument_outside_the_unit_interval(self):
        with pytest.raises(ParameterError, match=r"must lie in \[0,1\]"):
            NAMED["es(0.5)"].eval(np.array([0.5, 1.5]))

    @pytest.mark.parametrize("u", [0.0, 1.0, np.array([0.5, 1.0])], ids=["0", "1", "array"])
    def test_spectral_density_argument_outside_the_open_interval(self, u):
        with pytest.raises(ParameterError, match=r"must lie in \(0,1\)"):
            spectral_of(NAMED["es(0.5)"]).eval(u)

    def test_repr_names_the_distortion(self):
        assert repr(NAMED["es(0.5)"]) == "Distortion(es(0.5))"
        assert repr(Distortion([_linear(0.0, 1.0)])) == "Distortion(piecewise(1 pieces))"
