"""Distortion families, measures, convexity, spectra and mixture measures."""

import math

import numpy as np
import pytest

from quantrisk.distortions import (
    ConvexityResult,
    DensityPiece,
    Distortion,
    Piece,
    SpectralDensity,
    distortion_of,
    is_convex,
    make_named,
    measure_of,
    mixture_measure_of,
    spectral_of,
)
from quantrisk.errors import NotSpectralError, ParameterError

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
    def test_total_mass(self, label):
        assert abs(measure_of(NAMED[label]).total_mass() - 1.0) <= 1e-12

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
        m = measure_of(make_named("var", alpha=0.3))
        assert m.atoms == ((0.3, 1.0),)
        assert m.density == ()

    def test_es_density(self):
        m = measure_of(NAMED["es(0.5)"])
        assert m.atoms == ()
        dens = [p for p in m.density if p.coef > 0]
        assert len(dens) == 1
        assert abs(dens[0].value(0.8) - 2.0) < 1e-15
        assert (dens[0].lo, dens[0].hi) == (0.5, 1.0)

    def test_threshold_mixed(self):
        m = measure_of(NAMED["threshold(0.5)"])
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
        s = SpectralDensity([DensityPiece(lo=0.0, hi=1.0, coef=2.0, origin=0.0, width=1.0, expo=1.0)])
        d = distortion_of(s)
        g = np.linspace(0, 1, 101)
        assert np.max(np.abs(np.asarray(d.eval(g)) - g * g)) < 1e-15
        s2 = spectral_of(d)
        for u in (0.2, 0.5, 0.8):
            assert abs(s2.eval(u) - 2 * u) < 1e-15

    def test_constant_density_integrates_to_expectation(self):
        s = SpectralDensity([DensityPiece(lo=0.0, hi=1.0, coef=1.0, origin=0.0, width=1.0, expo=0.0)])
        d = distortion_of(s)
        g = np.linspace(0, 1, 101)
        assert np.max(np.abs(np.asarray(d.eval(g)) - g)) < 1e-15

    def test_spectral_density_validation(self):
        with pytest.raises(ParameterError):
            SpectralDensity(
                [
                    DensityPiece(lo=0.0, hi=0.5, coef=2.0, origin=0.0, width=1.0, expo=0.0),
                    DensityPiece(lo=0.5, hi=1.0, coef=0.0, origin=0.0, width=1.0, expo=0.0),
                ]
            )  # decreasing across the knot


class TestMixtureMeasure:
    def test_constant_density_gives_unit_atom_at_zero(self):
        nu = mixture_measure_of(spectral_of(NAMED["expectation"]))
        assert nu.atoms == ((0.0, 1.0),)
        assert nu.density == ()

    def test_es_spectrum_gives_single_interior_atom(self):
        nu = mixture_measure_of(spectral_of(NAMED["es(0.5)"]))
        assert len(nu.atoms) == 1
        loc, mass = nu.atoms[0]
        assert loc == 0.5 and abs(mass - 2.0) < 1e-15

    def test_linear_density_gives_pure_density(self):
        nu = mixture_measure_of(spectral_of(NAMED["es_n(2,0)"]))
        assert nu.atoms == ()
        assert len(nu.density) == 1
        assert abs(nu.density[0].value(0.3) - 2.0) < 1e-15

    @pytest.mark.parametrize("label", CONVEX, ids=str)
    def test_cumulative_matches_spectrum(self, label):
        s = spectral_of(NAMED[label])
        nu = mixture_measure_of(s)
        for u in np.linspace(0.02, 0.98, 49):
            assert abs(nu.cumulative(u) - s.eval(u)) <= 1e-10
