"""Risk representations against independent oracles, domain classification."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from quantrisk.distortions import Distortion, Piece, is_convex, make_named
from quantrisk.distributions import (
    Discrete,
    Distribution,
    ParetoNegative,
    ParetoPositive,
    comonotone_sum,
    point_mass,
)
from quantrisk import riskmeasures
from quantrisk.errors import InconclusiveError, NotSpectralError, ParameterError, QuantRiskError
from quantrisk.riskmeasures import (
    DomainClass,
    Verdict,
    choquet_risk,
    classify_membership,
    compare_domains,
    expected_shortfall,
    expected_shortfall_higher_order,
    expected_shortfall_infimum,
    max_excess,
    mixture_risk,
    quantile_risk,
    value_at_risk,
)


def oracle_tail_average(values, probs, alpha):
    """ES oracle: average of the top (1 - alpha) probability mass, split
    fractionally at the cut; independent of any quantile machinery."""
    need = 1.0 - alpha
    acc = 0.0
    remaining = need
    for v, p in sorted(zip(values, probs), reverse=True):
        take = min(p, remaining)
        acc += v * take
        remaining -= take
        if remaining <= 1e-15:
            break
    return acc / need


def oracle_spectral_integral(dist, density, lo, hi):
    """Quadrature oracle for the spectral integral of a discrete quantile."""
    pts = [c for c in dist.cum[:-1] if lo < c < hi]
    val, _ = quad(
        lambda u: dist.quantile_lower(u) * density(u), lo, hi, points=pts or None, limit=200
    )
    return val


FOUR = Discrete.from_samples([1, 2, 3, 4])
EXPECTATION = make_named("expectation")


class TestQuantileRisk:
    def test_expectation_is_mean(self):
        assert quantile_risk(FOUR, EXPECTATION).as_float() == 2.5

    def test_var_distortion_picks_quantile(self):
        assert quantile_risk(FOUR, make_named("var", alpha=0.5)).as_float() == 2.0

    def test_es_distortion_matches_tail_average(self):
        got = quantile_risk(FOUR, make_named("es", alpha=0.5)).as_float()
        want = oracle_tail_average(FOUR.values, FOUR.probs, 0.5)
        assert got == want == 3.5

    def test_tail_average_oracle_sweep(self):
        d = Discrete.from_samples([-5, -1, 0, 2, 9], [1, 2, 4, 2, 1])
        for alpha in (0.1, 0.25, 0.5, 0.8, 0.95):
            got = quantile_risk(d, make_named("es", alpha=alpha)).as_float()
            assert abs(got - oracle_tail_average(d.values, d.probs, alpha)) < 1e-12

    def test_higher_order_matches_quadrature_oracle(self):
        d = Discrete.from_samples([0, 1])
        n, alpha = 2, 0.0
        density = lambda u: n / (1 - alpha) * ((u - alpha) / (1 - alpha)) ** (n - 1)
        want = oracle_spectral_integral(d, density, 0.0, 1.0)
        got = expected_shortfall_higher_order(d, n, alpha).as_float()
        assert abs(got - want) < 1e-10
        assert abs(got - 0.75) < 1e-12  # frozen from the oracle

    def test_higher_order_concentrates_at_top(self):
        assert abs(expected_shortfall_higher_order(FOUR, 80, 0.0).as_float() - 4.0) < 1e-2

    def test_higher_order_order_one_is_shortfall(self):
        assert expected_shortfall_higher_order(FOUR, 1, 0.5).as_float() == 3.5


class TestChoquetAgreement:
    def test_symmetric_two_point(self):
        assert choquet_risk(Discrete.from_samples([-1, 1]), EXPECTATION).as_float() == 0.0

    def test_es_agreement(self):
        a = quantile_risk(FOUR, make_named("es", alpha=0.5)).as_float()
        b = choquet_risk(FOUR, make_named("es", alpha=0.5)).as_float()
        assert abs(a - b) < 1e-12

    @pytest.mark.parametrize("c", [-3.0, 0.0, 7.0])
    def test_point_mass_translation(self, c):
        for D in (EXPECTATION, make_named("var", alpha=0.3), make_named("sqrt_example")):
            assert abs(choquet_risk(point_mass(c), D).as_float() - c) < 1e-12

    def test_pareto_var_closed_form(self):
        pn = ParetoNegative(1.0)
        a = quantile_risk(pn, make_named("var", alpha=0.25)).as_float()
        b = choquet_risk(pn, make_named("var", alpha=0.25)).as_float()
        assert abs(a + 2.0) < 1e-12
        assert abs(b + 2.0) < 1e-9


class TestValueAtRisk:
    def test_discrete(self):
        assert value_at_risk(FOUR, 0.5) == 2.0

    def test_pareto_closed_form(self):
        assert value_at_risk(ParetoNegative(1.0), 0.25) == -2.0

    def test_equals_var_distortion(self):
        for dist in (FOUR, ParetoNegative(2.0), Discrete.from_samples([-2, -1, 1, 5])):
            for alpha in (0.1, 0.5, 0.9):
                assert (
                    abs(
                        value_at_risk(dist, alpha)
                        - quantile_risk(dist, make_named("var", alpha=alpha)).as_float()
                    )
                    < 1e-12
                )

    def test_level_validation(self):
        with pytest.raises(ParameterError):
            value_at_risk(FOUR, 0.0)

    def test_comonotone_additivity_at_every_shared_level(self):
        # the sum's levels are the union of the operands' levels, so at each
        # of them the lower quantiles add exactly; with levels recomputed
        # from the summed masses, 4 of these sums had a level in neither
        # operand and VaR missed additivity at 8 levels
        rng = np.random.default_rng(5)
        for _ in range(300):
            n, m = rng.integers(2, 200, 2)
            x1, w1, x2 = rng.integers(-50, 50, n), rng.integers(1, 5, n), rng.integers(-50, 50, m)
            d1, d2 = Discrete.from_samples(x1, w1), Discrete.from_samples(x2)
            s = comonotone_sum(d1, d2)
            assert np.all(np.isin(s.cum, d1.cum) | np.isin(s.cum, d2.cum))
            for alpha in np.union1d(d1.cum, d2.cum)[:-1]:
                assert value_at_risk(s, alpha) == value_at_risk(d1, alpha) + value_at_risk(d2, alpha)


class TestExpectedShortfall:
    def test_both_closed_forms(self):
        # quantile plus rescaled stop-loss: 2 + 2*E[(X-2)^+] = 2 + 2*0.75
        assert expected_shortfall(FOUR, 0.5).as_float() == 3.5

    def test_level_zero_is_mean(self):
        assert expected_shortfall(FOUR, 0.0).as_float() == 2.5

    def test_top_quarter(self):
        assert expected_shortfall(FOUR, 0.75).as_float() == 4.0

    def test_agrees_with_integral_form_on_pareto(self):
        pn = ParetoNegative(1.0)
        for alpha in (0.1, 0.5, 0.9):
            closed = expected_shortfall(pn, alpha).as_float()
            integral = quantile_risk(pn, make_named("es", alpha=alpha)).as_float()
            assert abs(closed - integral) < 1e-9

    @pytest.mark.parametrize("theta", [1.01, 1.05, 1.1])
    def test_quantile_form_is_exact_on_heavy_tails(self, theta):
        # es(0.9) has the constant density 10 on [0.9, 1), so the quantile
        # form is 10 * quantile_integral(0.9, 1); quadrature of q * 10 was
        # off by -4.3e-6, -1.2e-7 and -1.8e-8 here
        e = 1.0 - 1.0 / theta
        exact = 10.0 * 0.1**e / e
        value = quantile_risk(ParetoPositive(1.0, theta), make_named("es", alpha=0.9)).as_float()
        assert abs(value - exact) <= 1e-12 * exact

    def test_domain_flag_independent_of_level(self):
        heavy = ParetoPositive(1.0, 1.0)  # E[X^+] = inf
        for alpha in (0.0, 0.3, 0.9):
            assert expected_shortfall(heavy, alpha).kind == "not-in-domain"

    def test_neg_inf_only_at_level_zero(self):
        pn1 = ParetoNegative(1.0, 1.0)  # mean -inf
        assert expected_shortfall(pn1, 0.0).kind == "neg-inf"
        assert expected_shortfall(pn1, 0.5).is_finite


class TestShortfallInfimum:
    def test_flat_minimum(self):
        res = expected_shortfall_infimum(FOUR, 0.5)
        assert abs(res.value - 3.5) < 1e-8
        assert 2.0 - 1e-6 <= res.minimizer <= 3.0 + 1e-6

    def test_a_cdf_that_does_not_invert_the_quantile_leaves_the_bracket_open(self):
        # defined outside the package, and wrong: its CDF is 0 everywhere, so the
        # objective falls without end to the right of every bracket
        class ZeroCdf(ParetoNegative):
            def cdf(self, x):
                return 0.0

        with pytest.raises(InconclusiveError, match="failed to enclose a minimizer"):
            expected_shortfall_infimum(ZeroCdf(1.0, 2.0), 0.5)

    def test_point_mass(self):
        res = expected_shortfall_infimum(point_mass(7.0), 0.3)
        assert abs(res.value - 7.0) < 1e-8
        assert abs(res.minimizer - 7.0) < 1e-4

    def test_grid_oracle(self):
        d = Discrete.from_samples([0, 10])
        alpha = 0.9
        objective = lambda c: c + oracle_stop_loss(d, c) / (1 - alpha)
        grid_min = min(objective(c) for c in np.linspace(-5, 15, 4001))
        res = expected_shortfall_infimum(d, alpha)
        assert abs(res.value - grid_min) < 1e-6
        assert abs(res.value - 10.0) < 1e-7

    def test_requires_integrable_positive_part(self):
        with pytest.raises(ParameterError):
            expected_shortfall_infimum(ParetoPositive(1.0, 0.5), 0.5)

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_alpha_must_lie_inside_the_unit_interval(self, alpha):
        with pytest.raises(ParameterError, match=r"infimum form needs alpha in \(0,1\)"):
            expected_shortfall_infimum(FOUR, alpha)

    @staticmethod
    def infimum_inputs():
        # t3 samples rounded to 0.01, so that many values tie, with random weights
        rng = np.random.default_rng(20260)
        for _ in range(20):
            n = int(rng.integers(10, 501))
            yield Discrete.from_samples(np.round(rng.standard_t(3.0, size=n), 2), rng.random(n) + 0.05)
        yield ParetoNegative(1.0, 3.0)
        yield ParetoPositive(1.0, 3.0)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9, 0.99])
    def test_matches_the_closed_form_shortfall(self, alpha):
        # the minimum of the convex objective is the shortfall itself, so a
        # search that stops short of it (a midpoint of the bracket) fails here
        for d in self.infimum_inputs():
            want = expected_shortfall(d, alpha).value
            got = expected_shortfall_infimum(d, alpha).value
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want)), (d.label(), alpha, got, want)

    @pytest.fixture
    def bounded_search(self, monkeypatch):
        # the search used to loop forever here; fail instead of hanging
        calls = 0
        stop_loss = riskmeasures._stop_loss

        def counted(dist, c):
            nonlocal calls
            calls += 1
            assert calls < 20_000, "the infimum search did not stop"
            return stop_loss(dist, c)

        monkeypatch.setattr(riskmeasures, "_stop_loss", counted)

    @pytest.mark.parametrize("scale", [1e6, 1e7, 1e100])
    def test_stops_where_floats_are_coarser_than_the_tolerance(self, bounded_search, scale):
        # 1e-10 is below an ulp of 2e6, so the bracket could never get that narrow
        d = Discrete.from_samples([scale, 2.0 * scale, 3.0 * scale])
        res = expected_shortfall_infimum(d, 0.5)
        assert res.value == pytest.approx(expected_shortfall(d, 0.5).value, rel=1e-12)
        assert res.minimizer == pytest.approx(2.0 * scale, rel=1e-12)

    def test_objective_beyond_the_float_range_is_inconclusive(self, bounded_search):
        # E[(X - c)+] / (1 - alpha) overflows below c ~ 1e308; it printed nan with exit 0
        with pytest.raises(InconclusiveError, match="beyond the float range"):
            expected_shortfall_infimum(Discrete.from_samples([1e308, -2.5, 4.0]), 0.9)


def oracle_stop_loss(d, c):
    return float(np.dot(np.maximum(d.values - c, 0.0), d.probs))


class TestStopLossIdentity:
    @pytest.mark.parametrize("c", [-2.0, 0.0, 1.5, 3.0, 10.0])
    def test_quantile_integral_equals_expectation_form(self, c):
        d = Discrete.from_samples([-5, -1, 0, 2, 9], [1, 2, 4, 2, 1])
        lhs, _ = quad(
            lambda u: max(d.quantile_lower(u) - c, 0.0),
            0,
            1,
            points=list(d.cum[:-1]),
            limit=200,
        )
        assert abs(lhs - oracle_stop_loss(d, c)) < 1e-10


class TestMixtureRisk:
    def test_single_atom_mixture_is_es(self):
        for alpha in (0.25, 0.5, 0.9):
            D = make_named("es", alpha=alpha)
            assert abs(mixture_risk(FOUR, D).as_float() - expected_shortfall(FOUR, alpha).as_float()) < 1e-10

    def test_expectation_mixture(self):
        assert abs(mixture_risk(FOUR, EXPECTATION).as_float() - 2.5) < 1e-12

    def test_cross_representation(self):
        d = Discrete.from_samples([0, 1])
        D = make_named("es_n", n=2, alpha=0.0)
        assert abs(mixture_risk(d, D).as_float() - 0.75) < 1e-8
        assert abs(mixture_risk(d, D).as_float() - expected_shortfall_higher_order(d, 2, 0.0).as_float()) < 1e-8

    def test_rejects_non_convex(self):
        with pytest.raises(NotSpectralError):
            mixture_risk(FOUR, make_named("var", alpha=0.5))

    def test_pareto_mixture(self):
        pn = ParetoNegative(1.0)
        D = make_named("es_n", n=3, alpha=0.2)
        assert abs(mixture_risk(pn, D).as_float() - quantile_risk(pn, D).as_float()) < 1e-6


def oracle_choquet_loop(dist, distortion):
    """The per-edge tail-integral loop, one scalar distortion call per edge."""
    edges = np.unique(np.concatenate((dist.values, [0.0])))
    terms = []
    for a, b in zip(edges, edges[1:]):
        dlevel = float(distortion.eval(dist.cdf(a)))
        if b <= 0.0:
            terms.append(-(b - a) * dlevel)
        else:
            terms.append((b - a) * (1.0 - dlevel))
    return math.fsum(terms)


SIX_FAMILIES = (
    make_named("expectation"),
    make_named("var", alpha=0.5),
    make_named("es", alpha=0.9),
    make_named("es_n", n=3, alpha=0.2),
    make_named("threshold", delta=0.5),
    make_named("sqrt_example"),
)


@st.composite
def large_discretes(draw):
    """Up to 1e3 atoms of any sign, with ties and atoms at zero."""
    n = draw(st.integers(min_value=1, max_value=1000))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    offset = draw(st.sampled_from([0.0, -3.0, 3.0]))
    values = rng.standard_t(3, size=n) + offset
    if draw(st.booleans()):
        values = np.round(values, 1)  # ties, and atoms at exactly zero
    return Discrete.from_samples(values, rng.random(n) + 0.05)


class TestDiscreteEngine:
    @given(dist=large_discretes())
    @settings(max_examples=40, deadline=None)
    def test_choquet_equals_loop_exactly(self, dist):
        for D in SIX_FAMILIES + (make_named("es_n", n=2, alpha=0.0),):
            assert choquet_risk(dist, D).as_float() == oracle_choquet_loop(dist, D)

    @pytest.mark.parametrize("n", [1_000, 10_000])
    @pytest.mark.parametrize(
        "D",
        [
            make_named("es", alpha=0.9),
            make_named("es_n", n=2, alpha=0.5),
            make_named("es_n", n=3, alpha=0.2),
            EXPECTATION,
        ],
        ids=lambda D: D.label(),
    )
    def test_mixture_agrees_with_quantile_form(self, n, D):
        rng = np.random.default_rng(n)
        d = Discrete.from_samples(rng.standard_t(3, size=n), rng.random(n) + 0.05)
        # D's one moving piece starts at its origin, so both forms take it as the
        # same closed-form quantile moment, with no end term: bit for bit equal
        assert mixture_risk(d, D).as_float() == quantile_risk(d, D).as_float()

    def test_discrete_forms_make_no_quadrature_call(self, monkeypatch):
        import quantrisk.riskmeasures as rm

        def no_quad(*args, **kwargs):
            raise AssertionError("quadrature called on a discrete input")

        monkeypatch.setattr(rm, "_quad", no_quad)
        d = Discrete.from_samples(np.linspace(-2.0, 5.0, 1001))
        # the golden transcript's custom_convex: its spectrum has a kink at 0.2 and
        # a jump at 0.6, so the moment route takes end terms at interior knots
        custom_convex = Distortion([
            Piece(lo=0.0, hi=0.2, coef=0.0, origin=0.0, width=1.0, expo=0.0),
            Piece(lo=0.2, hi=0.6, coef=0.8, origin=0.2, width=0.8, expo=2.0),
            Piece(lo=0.6, hi=1.0, base=-1.0, coef=2.0, origin=0.0, width=1.0, expo=1.0),
        ])
        for D in (EXPECTATION, make_named("es", alpha=0.9), make_named("es_n", n=3, alpha=0.2), custom_convex):
            assert mixture_risk(d, D).is_finite
            assert quantile_risk(d, D).is_finite
        # a jump of D, and sqrt_example's moment with k = -0.5
        for D in (make_named("var", alpha=0.5), make_named("threshold", delta=0.5), make_named("sqrt_example")):
            assert quantile_risk(d, D).is_finite


class TestDivergenceFlags:
    def test_sqrt_on_pareto_is_neg_inf_everywhere(self):
        pn = ParetoNegative(1.0)
        D = make_named("sqrt_example")
        assert quantile_risk(pn, D).kind == "neg-inf"
        assert choquet_risk(pn, D).kind == "neg-inf"

    def test_heavy_positive_tail_not_in_domain(self):
        pp = ParetoPositive(1.0, 1.0)
        for fn in (quantile_risk, choquet_risk, mixture_risk):
            assert fn(pp, EXPECTATION).kind == "not-in-domain"

    def test_an_undefined_risk_has_no_float(self):
        risk = quantile_risk(ParetoPositive(1.0, 1.0), EXPECTATION)
        assert str(risk) == "not-in-domain"
        with pytest.raises(QuantRiskError, match="risk value is undefined"):
            risk.as_float()

    def test_infinite_mean_expectation(self):
        pn1 = ParetoNegative(1.0, 1.0)
        assert quantile_risk(pn1, EXPECTATION).kind == "neg-inf"
        assert mixture_risk(pn1, EXPECTATION).kind == "neg-inf"

    def test_vanishing_distortion_keeps_risk_finite(self):
        pn1 = ParetoNegative(1.0, 1.0)
        for D in (make_named("es", alpha=0.5), make_named("var", alpha=0.5), make_named("es_n", n=2, alpha=0.25)):
            assert quantile_risk(pn1, D).is_finite


class TestClassification:
    def test_sqrt_example_separation(self):
        pn = ParetoNegative(1.0)
        D = make_named("sqrt_example")
        assert classify_membership(pn, D, DomainClass.QUANTILE).verdict is Verdict.MEMBER
        assert classify_membership(pn, D, DomainClass.PICHLER).verdict is Verdict.MEMBER
        assert classify_membership(pn, D, DomainClass.ACERBI).verdict is Verdict.NON_MEMBER

    def test_probe_detects_log_divergence(self):
        verdict = classify_membership(
            ParetoNegative(1.0), make_named("sqrt_example"), DomainClass.ACERBI, method="probe"
        )
        assert verdict.verdict is Verdict.NON_MEMBER
        assert verdict.method == "probe"
        assert len(verdict.partials) == 40
        increments = np.diff(verdict.partials)
        assert np.all(increments[-5:] > 1e-3)  # sustained growth

    def test_threshold_with_heavy_left_tail(self):
        pn1 = ParetoNegative(1.0, 1.0)
        D = make_named("threshold", delta=0.5)
        assert classify_membership(pn1, D, DomainClass.QUANTILE).verdict is Verdict.MEMBER
        assert classify_membership(pn1, D, DomainClass.PICHLER).verdict is Verdict.MEMBER
        assert classify_membership(pn1, D, DomainClass.ACERBI).verdict is Verdict.NON_MEMBER

    def test_var_admits_everything(self):
        heavy = comonotone_sum(ParetoNegative(1.0, 0.5), ParetoPositive(1.0, 0.5))
        for cls in DomainClass:
            assert classify_membership(heavy, make_named("var", alpha=0.5), cls).verdict is Verdict.MEMBER

    def test_discrete_always_member(self):
        for cls in DomainClass:
            v = classify_membership(FOUR, make_named("sqrt_example"), cls)
            assert v.verdict is Verdict.MEMBER and v.method == "discrete"

    def test_probe_agrees_with_analytic_on_members(self):
        pn = ParetoNegative(1.0)
        D = make_named("es", alpha=0.5)
        analytic = classify_membership(pn, D, DomainClass.ACERBI, method="analytic")
        probe = classify_membership(pn, D, DomainClass.ACERBI, method="probe")
        assert analytic.verdict is Verdict.MEMBER
        assert probe.verdict is Verdict.MEMBER  # integral settles below the Cauchy tolerance

    def test_unknown_method_is_refused(self):
        with pytest.raises(ParameterError, match="unknown classify method 'quadrature'"):
            classify_membership(ParetoNegative(1.0), EXPECTATION, DomainClass.ACERBI, method="quadrature")

    def test_unknown_method_is_refused_for_a_discrete_too(self):
        with pytest.raises(ParameterError, match="unknown classify method 'bogus'"):
            classify_membership(point_mass(1.0), EXPECTATION, DomainClass.QUANTILE, method="bogus")

    def test_unknown_class_is_refused_with_the_class_names(self):
        message = "unknown domain class 'bogus'; expected one of quantile, acerbi, pichler"
        with pytest.raises(ParameterError, match=message):
            classify_membership(point_mass(1.0), EXPECTATION, "bogus")

    def test_the_class_names_print_as_their_values(self):
        assert [str(cls) for cls in DomainClass] == ["quantile", "acerbi", "pichler"]

    def test_a_probe_band_left_of_its_piece_origin_adds_nothing(self):
        # D's second piece starts 2e-16 below 0.5 with its origin 9e-16 above its start: in
        # the band (2**-2, 2**-1) it is a sliver where D is flat, and its density integrates to 0
        lo = 0.5 - 2e-16
        origin = lo + 9e-16
        sliver = Distortion([
            Piece(lo=0.0, hi=lo, coef=0.5, origin=0.0, width=1.0, expo=1.0),
            Piece(lo=lo, hi=1.0, base=0.5 * lo, coef=1.0 - 0.5 * lo, origin=origin, width=1.0 - origin, expo=0.5),
        ])
        dist = ParetoNegative(1.0, 50.0)  # the windows miss less than 1e-11 of its tails
        probe = classify_membership(dist, sliver, DomainClass.ACERBI, method="probe")
        assert probe.verdict is Verdict.MEMBER
        assert abs(probe.partials[-1] + quantile_risk(dist, sliver).value) <= 1e-10

    def test_pichler_inside_acerbi_for_convex(self):
        dists = [ParetoNegative(1.0), ParetoNegative(2.0), ParetoNegative(1.0, 1.0)]
        convex = [EXPECTATION, make_named("es", alpha=0.5), make_named("es_n", n=3, alpha=0.2)]
        for dist in dists:
            for D in convex:
                pich = classify_membership(dist, D, DomainClass.PICHLER).verdict
                acer = classify_membership(dist, D, DomainClass.ACERBI).verdict
                assert not (pich is Verdict.MEMBER and acer is Verdict.NON_MEMBER)


def _linear(lo, hi):
    return Piece(lo=lo, hi=hi, coef=1.0, origin=0.0, width=1.0, expo=1.0)


def _flat(lo, hi, level):
    return Piece(lo=lo, hi=hi, base=level, coef=0.0, origin=0.0, width=1.0, expo=0.0)


class TestCompareDomains:
    def test_es_has_the_expectations_domain_though_it_lies_below(self):
        cmp = compare_domains(make_named("es", alpha=0.5), EXPECTATION, 0.01)
        assert cmp.relation == "equal"
        assert cmp.domain_equals_expectation_1 and cmp.domain_equals_expectation_2
        assert cmp.d1_le_d2 and not cmp.d2_le_d1
        assert (cmp.max_excess_1_over_2, cmp.max_excess_2_over_1) == (0.0, 0.5)

    def test_a_kinked_distortion_has_the_expectations_domain(self):
        # slope 1.5 on [0, 0.5), then 0.5 + 0.5 u: above the identity on (0, 1), yet its
        # density at 1 is bounded and positive, as the identity's is
        kinked = Distortion([
            Piece(lo=0.0, hi=0.5, coef=1.5, origin=0.0, width=1.0, expo=1.0),
            Piece(lo=0.5, hi=1.0, base=0.5, coef=0.5, origin=0.0, width=1.0, expo=1.0),
        ])
        cmp = compare_domains(kinked, EXPECTATION)
        assert cmp.relation == "equal" and cmp.domain_equals_expectation_1
        assert cmp.d2_le_d1 and not cmp.d1_le_d2

    def test_sqrt_example_has_the_expectations_domain(self):
        cmp = compare_domains(make_named("sqrt_example"), EXPECTATION, 0.25)
        assert cmp.domain_equals_expectation_1 and cmp.relation == "equal"
        assert (cmp.max_excess_1_over_2, cmp.max_excess_2_over_1) == (0.0, 0.0)

    def test_var_pair_is_equal_at_every_delta(self):
        # both flat near 1, so both domains hold every distribution; only the order moves with delta
        cmp = compare_domains(make_named("var", alpha=0.3), make_named("var", alpha=0.6), 0.6)
        assert cmp.relation == "equal" and cmp.d1_le_d2 and cmp.d2_le_d1
        assert (cmp.max_excess_1_over_2, cmp.max_excess_2_over_1) == (0.0, 0.0)
        cmp2 = compare_domains(make_named("var", alpha=0.3), make_named("var", alpha=0.6), 0.35)
        assert cmp2.relation == "equal" and not cmp2.d1_le_d2 and cmp2.d2_le_d1
        assert (cmp2.max_excess_1_over_2, cmp2.max_excess_2_over_1) == (1.0, 0.0)
        assert not (cmp.domain_equals_expectation_1 or cmp.domain_equals_expectation_2)

    def test_delta_validation(self):
        with pytest.raises(ParameterError):
            compare_domains(EXPECTATION, EXPECTATION, 0.0)

    def test_var_holds_the_expectations_domain_though_neither_lies_below(self):
        cmp = compare_domains(make_named("var", alpha=0.5), EXPECTATION)
        assert cmp.relation == "subset-2-in-1"
        assert not cmp.domain_equals_expectation_1 and cmp.domain_equals_expectation_2
        assert not cmp.d1_le_d2 and not cmp.d2_le_d1
        # the second sup is the left limit at the jump, which no grid point reaches
        assert (cmp.max_excess_1_over_2, cmp.max_excess_2_over_1) == (0.5, 0.5)

    def test_es_7_has_the_expectations_domain(self):
        cmp = compare_domains(make_named("es_n", n=7, alpha=0.95), EXPECTATION)
        assert cmp.relation == "equal"
        assert cmp.domain_equals_expectation_1 and cmp.domain_equals_expectation_2
        # u - ((u - 0.95)/0.05)**7 peaks where z**6 = 1/140; the sup of D - u is its left limit at 1
        z = 140.0 ** (-1.0 / 6.0)
        assert cmp.max_excess_1_over_2 == 0.0
        assert abs(cmp.max_excess_2_over_1 - (0.95 + 0.05 * z - z**7)) <= 1e-15

    def test_a_comparison_takes_two_sups(self, monkeypatch):
        calls = []
        monkeypatch.setattr(riskmeasures, "max_excess", lambda *a: calls.append(a) or max_excess(*a))
        compare_domains(make_named("es_n", n=7, alpha=0.95), EXPECTATION)
        assert len(calls) == 2

    def test_a_bump_between_grid_points_is_an_excess(self):
        # above the identity by w/4 at a + w/4, on [a, a + w): that lies between two points of
        # an even 2,049-point grid on [0.25, 1), so a sampled comparison reads D <= identity
        w = 1e-4
        a = 0.25 + 100.2 * (0.75 / 2048)
        bump = Piece(lo=a, hi=a + w, base=a, coef=w, origin=a, width=w, expo=0.5)
        cmp = compare_domains(Distortion([_linear(0.0, a), bump, _linear(a + w, 1.0)]), EXPECTATION)
        assert not cmp.d1_le_d2 and cmp.d2_le_d1
        assert abs(cmp.max_excess_1_over_2 - 2.5e-5) <= 1e-12
        assert cmp.relation == "equal" and cmp.domain_equals_expectation_1

    def test_the_sup_is_found_past_the_cut(self):
        # on [0.5, 0.72), h = 0.01 + 0.458 (u - 0.5)**4 - (u - 0.4)**6 and log p1' - log p2'
        # peaks at u* = 0.65: h falls, rises to its maximum near 0.703 and falls again, and one
        # golden section over the whole cell keeps the wrong bracket and misses it by 4.8e-6
        d1 = Distortion([
            _flat(0.0, 0.5, 0.0),
            Piece(lo=0.5, hi=0.72, base=0.01, coef=0.458, origin=0.5, width=1.0, expo=4.0),
            _flat(0.72, 1.0, 1.0),
        ])
        d2 = Distortion([
            _flat(0.0, 0.5, 0.0),
            Piece(lo=0.5, hi=0.72, coef=1.0, origin=0.4, width=1.0, expo=6.0),
            _flat(0.72, 1.0, 1.0),
        ])
        grid = np.linspace(0.0, 1.0, 200_001)
        sampled = float(np.max(d1.eval(grid) - d2.eval(grid)))
        assert sampled - 1e-15 <= max_excess(d1, d2) <= sampled + 1e-12


class TestAxiomIdentities:
    """Spot checks; the verification suite runs these across the full matrix."""

    @pytest.mark.parametrize("a", [0.0, 0.5, 1.0, 3.0])
    def test_positive_homogeneity(self, a):
        for D in (EXPECTATION, make_named("es", alpha=0.25), make_named("var", alpha=0.7)):
            base = quantile_risk(FOUR, D).as_float()
            assert abs(quantile_risk(FOUR.scale(a), D).as_float() - a * base) < 1e-12

    @pytest.mark.parametrize("c", [-5.0, 0.0, 7.0])
    def test_translation(self, c):
        for D in (EXPECTATION, make_named("es", alpha=0.25), make_named("threshold", delta=0.5)):
            base = quantile_risk(FOUR, D).as_float()
            assert abs(quantile_risk(FOUR.shift(c), D).as_float() - (base + c)) < 1e-12

    def test_comonotone_additivity(self):
        d1 = Discrete.from_samples([1, 2])
        d2 = Discrete.from_samples([10, 20])
        for D in (make_named("es", alpha=0.5), make_named("var", alpha=0.3)):
            lhs = quantile_risk(comonotone_sum(d1, d2), D).as_float()
            rhs = quantile_risk(d1, D).as_float() + quantile_risk(d2, D).as_float()
            assert abs(lhs - rhs) < 1e-12

    def test_shortfall_monotone_in_level(self):
        for dist in (FOUR, ParetoNegative(1.0)):
            values = [expected_shortfall(dist, a).as_float() for a in np.linspace(0.0, 0.9, 10)]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_shortfall_infimum_recovers_mean(self):
        for dist in (FOUR, ParetoNegative(1.0), Discrete.from_samples([-2, -1, 1, 5])):
            mean = dist.mean()
            best = min(expected_shortfall(dist, 2.0**-k).as_float() for k in range(1, 49))
            assert abs(best - mean) <= 1e-6


class TestLazyTailNodes:
    @staticmethod
    def stratified_normal(n):
        """n atoms, one drawn in each of n equal-probability strata of the standard normal."""
        from scipy.special import ndtri

        rng = np.random.default_rng(n)
        return Discrete.from_samples(ndtri((np.arange(n) + rng.uniform(0.0, 1.0, n)) / n))

    @staticmethod
    def discrete_plus_tail(n):
        return comonotone_sum(TestLazyTailNodes.stratified_normal(n), ParetoNegative(1.0, 2.0))

    @pytest.mark.parametrize("D", SIX_FAMILIES, ids=lambda D: D.label())
    def test_three_forms_agree_on_discrete_plus_tail(self, D):
        # 600 atoms give 599 breakpoints, above quad's 400-subinterval limit,
        # and as many flat steps of the CDF for the Choquet form to cut at
        from quantrisk.distortions import is_convex

        s = self.discrete_plus_tail(600)
        ref = quantile_risk(s, D)
        tail = choquet_risk(s, D)
        assert tail.kind == ref.kind
        if ref.is_finite:
            assert abs(tail.value - ref.value) < 1e-8
        if is_convex(D):
            mix = mixture_risk(s, D)
            assert mix.kind == ref.kind
            if ref.is_finite:
                assert abs(mix.value - ref.value) < 1e-6

    def test_abs_kink_regression(self):
        # the quantile of |X| kinks where X's upper side runs out (at |X| = 4);
        # reference: mpmath quadrature of 1 - D(G(x)) to 30 digits
        m = ParetoNegative(1.0, 3.0).shift(5.0).abs()
        D = make_named("sqrt_example")
        assert abs(quantile_risk(m, D).as_float() - 3.3875280644219) < 1e-9
        assert abs(choquet_risk(m, D).as_float() - 3.3875280644219) < 1e-9


def record_quad_calls(monkeypatch):
    """Route ``_quad`` through a recorder; returns the list each call's arguments go into."""
    calls = []
    quad_once = riskmeasures._quad

    def counted(*args, **kwargs):
        calls.append(args)
        return quad_once(*args, **kwargs)

    monkeypatch.setattr(riskmeasures, "_quad", counted)
    return calls


def choquet_or_none(dist, D):
    """``choquet_risk``, or None where it raises ``InconclusiveError``."""
    try:
        return choquet_risk(dist, D)
    except InconclusiveError:
        return None


class TestOneChoquetPath:
    """Choquet cuts in level space: steps and flat stretches exact, quadrature only where D(F) moves."""

    @pytest.mark.parametrize(
        "D", SIX_FAMILIES + (make_named("es_n", n=2, alpha=0.0),), ids=lambda D: D.label()
    )
    def test_discrete_choquet_makes_no_quadrature_call(self, monkeypatch, D):
        import quantrisk.riskmeasures as rm

        def no_quad(*args, **kwargs):
            raise AssertionError("quadrature called on a discrete input")

        monkeypatch.setattr(rm, "_quad", no_quad)
        for values in ([3.0], [-2.0, -1.0], [1.0, 2.5, 4.0], np.linspace(-2.0, 5.0, 1001)):
            d = Discrete.from_samples(values)
            assert choquet_risk(d, D).as_float() == oracle_choquet_loop(d, D)

    @pytest.mark.parametrize("n", [600, 6_000])
    @pytest.mark.parametrize(
        "D, count",
        [
            (make_named("expectation"), 3),
            (make_named("es_n", n=2, alpha=0.5), 2),
            (make_named("threshold", delta=0.5), 2),
            (make_named("es", alpha=0.9), 1),
            (make_named("var", alpha=0.5), 0),
        ],
        ids=lambda x: x.label() if hasattr(x, "label") else str(x),
    )
    def test_quadrature_calls_on_discrete_plus_tail(self, monkeypatch, D, count, n):
        # the atoms' stretches tile the tail's axis in y = x - v_i: one call per
        # piece of D where it moves, per side of 0, and one more for the cut
        # that reaches -inf; none on the n - 1 steps, for any n
        s = TestLazyTailNodes.discrete_plus_tail(n)
        calls = record_quad_calls(monkeypatch)
        tail = choquet_risk(s, D)
        assert len(calls) == count
        assert abs(tail.as_float() - quantile_risk(s, D).as_float()) < 1e-8

    BENCH_SIX = (
        make_named("expectation"), make_named("var", alpha=0.5), make_named("es", alpha=0.9),
        make_named("es_n", n=2, alpha=0.5), make_named("threshold", delta=0.5), make_named("sqrt_example"),
    )
    TILED = (*(ParetoNegative(1.0, theta) for theta in (1.5, 2.0, 3.0)),
             *(ParetoPositive(1.0, theta) for theta in (1.5, 2.0, 3.0)),
             ParetoNegative(1.0, 2.0).scale(0.5).shift(3.0))
    # where the lone call on (b, inf) under a right tail this heavy already misses
    # the quantile form by more than 1e-12 with one call per stretch (up to 3.8e-10
    # at theta 1.5, or InconclusiveError at 2,000 atoms): the tail tolerance's defect
    HEAVY_RIGHT = ("pareto_positive(beta=1,theta=1.5)", "pareto_positive(beta=1,theta=2)")
    RUN_BOUND = 1.2e-13  # the largest run-against-stretch move reached on these cells is 1.10e-13

    @staticmethod
    def per_stretch(monkeypatch, dist, D):
        """Choquet with one quadrature call per stretch: each stretch's CDF a fresh clipped closure in x."""
        from quantrisk.distributions import ComonotoneSum

        tiled = ComonotoneSum.local_cdf

        def fresh(self, s, t):
            G, shift = tiled(self, s, t)
            return (lambda x: min(max(G(x - shift), s), t)), 0.0

        with monkeypatch.context() as m:
            m.setattr(ComonotoneSum, "local_cdf", fresh)
            return choquet_or_none(dist, D)

    @pytest.mark.parametrize("n", [1, 2, 20, 600, 2_000])
    def test_runs_agree_with_the_quantile_form_at_beta_one(self, monkeypatch, n):
        disc = TestLazyTailNodes.stratified_normal(n)
        over = set()
        for other in self.TILED:
            s = comonotone_sum(disc, other)
            for D in self.BENCH_SIX:
                ref, tail, stretch = quantile_risk(s, D), choquet_or_none(s, D), self.per_stretch(monkeypatch, s, D)
                # the runs raise where the calls per stretch do, and only there
                assert (tail is None) == (stretch is None), (other.label(), D.label())
                if tail is None:
                    over.add(other.label())
                    continue
                assert tail.kind == stretch.kind == ref.kind
                if ref.is_finite:
                    scale = max(1.0, abs(ref.value))
                    assert abs(tail.value - stretch.value) <= self.RUN_BOUND * scale, (other.label(), D.label())
                    if abs(tail.value - ref.value) > 1e-12 * scale:
                        over.add(other.label())
        assert over <= set(self.HEAVY_RIGHT)

    @pytest.mark.parametrize("n", [1, 2, 20, 600])
    def test_runs_never_cross_a_flat_stretch_of_an_operand(self, monkeypatch, n):
        # operands with breakpoints, and an affine map of a tiled sum, whose CDF is
        # a fresh bound method per stretch: each stretch keeps its own call, bit for bit
        from quantrisk.distributions import ComonotoneSum

        disc = TestLazyTailNodes.stratified_normal(n)
        calls = record_quad_calls(monkeypatch)
        for s in (comonotone_sum(disc, ParetoNegative(1.0, 2.0).shift(2.0).abs()),
                  ComonotoneSum(disc, Discrete.from_samples([-1.0, 0.25, 0.5, 2.0])),
                  comonotone_sum(disc, ParetoNegative(1.0, 2.0)).scale(0.5)):
            for D in self.BENCH_SIX:
                calls.clear()
                tail = choquet_risk(s, D)
                runs = len(calls)
                calls.clear()
                stretch = self.per_stretch(monkeypatch, s, D)
                assert runs == len(calls)
                assert tail.kind == stretch.kind and tail.value.hex() == stretch.value.hex()
                ref = quantile_risk(s, D)
                assert tail.kind == ref.kind
                if ref.is_finite:
                    assert abs(tail.value - ref.value) <= 2e-12 * max(1.0, abs(ref.value))

    @pytest.mark.parametrize("theta", [1.5, 2.0, 3.0])
    def test_agrees_with_quantile_on_thousand_atoms_plus_pareto(self, theta):
        from scipy.special import ndtri

        rng = np.random.default_rng(int(theta * 10))
        n = 1_000
        disc = Discrete.from_samples(ndtri((np.arange(n) + rng.uniform(0.0, 1.0, n)) / n))
        s = comonotone_sum(disc, ParetoNegative(1.0, theta))
        for D in SIX_FAMILIES:
            ref, tail = quantile_risk(s, D), choquet_risk(s, D)
            assert tail.kind == ref.kind
            if ref.is_finite:
                assert abs(tail.value - ref.value) < 1e-8

    # 20 equal atoms: their level intervals are (k/20, (k+1)/20], and every knot
    # below lies strictly inside one of them, so D's piece changes mid-stretch
    KNOTS_INSIDE = [
        make_named("es", alpha=0.925),
        make_named("threshold", delta=0.525),
        Distortion([
            Piece(lo=0.0, hi=0.33, coef=0.6, origin=0.0, width=1.0, expo=1.0),
            Piece(lo=0.33, hi=0.66, base=0.198, coef=0.3, origin=0.33, width=0.33, expo=1.5),
            Piece(lo=0.66, hi=1.0, base=0.6, coef=0.4, origin=0.66, width=0.34, expo=1.5),
        ]),
    ]

    @pytest.mark.parametrize("D", KNOTS_INSIDE, ids=lambda D: D.label())
    def test_agrees_with_quantile_where_a_knot_cuts_an_atom_interval(self, D):
        values = [-2.7, -2.1, -1.6, -1.2, -0.9, -0.5, -0.2, 0.1, 0.3, 0.6,
                  0.8, 1.1, 1.3, 1.7, 2.0, 2.4, 2.9, 3.3, 3.8, 4.5]
        s = comonotone_sum(Discrete.from_samples(values), ParetoNegative(1.0, 2.0))
        ref = quantile_risk(s, D).as_float()
        assert abs(choquet_risk(s, D).as_float() - ref) < 1e-8
        if is_convex(D):
            assert abs(mixture_risk(s, D).as_float() - ref) < 1e-6

    def test_infinite_flat_stretch_adds_nothing(self):
        # D(0) = 1e-13 lies inside the 1e-12 tolerance; the flat first piece
        # spans (-inf, q(0.5)) on a Pareto left tail and must not add -inf
        from quantrisk.io import distortion_from_json

        D = distortion_from_json(
            '{"kind":"piecewise","pieces":[{"form":"constant","lo":0,"hi":0.5,"level":1e-13},'
            '{"form":"linear","lo":0.5,"hi":1,"slope":2,"intercept":-1}]}'
        )
        pn = ParetoNegative(1.0, 2.0)
        exact = 2.0 * math.sqrt(2.0) - 4.0  # 2 * integral of -u**-0.5 over (0.5, 1)
        assert abs(choquet_risk(pn, D).as_float() - exact) < 1e-9
        assert abs(quantile_risk(pn, D).as_float() - exact) < 1e-9
        # the same at the top: a flat last piece at 1 - 1e-13 on a right tail
        D_top = distortion_from_json(
            '{"kind":"piecewise","pieces":[{"form":"linear","lo":0,"hi":0.5,"slope":2},'
            '{"form":"constant","lo":0.5,"hi":1,"level":0.9999999999999}]}'
        )
        pp = ParetoPositive(1.0, 3.0)
        assert abs(choquet_risk(pp, D_top).as_float() - quantile_risk(pp, D_top).as_float()) < 1e-9

    def test_concave_piece_with_near_singular_density(self):
        # the second piece's density (u - origin)**(-2/3) blows up 1e-10 below
        # its knot; integrated against that density, quad converged falsely
        # and the quantile form was off by about 1e-3
        D = Distortion([
            Piece(lo=0.0, hi=0.5, coef=0.5, origin=0.0, width=1.0, expo=1.0),
            Piece(lo=0.5, hi=1.0, base=0.25, coef=0.75, origin=0.5 - 1e-10, width=0.5 + 1e-10, expo=1.0 / 3.0),
        ])
        rng = np.random.default_rng(7)
        disc = Discrete.from_samples(rng.normal(0.0, 3.0, size=20), rng.random(20) + 0.1)
        s = comonotone_sum(disc, ParetoNegative(1.0, 2.0))
        assert abs(quantile_risk(s, D).as_float() - choquet_risk(s, D).as_float()) < 1e-8


class _TailLess(Distribution):
    """A distribution with its tail exponents hidden, so every domain flag is probed.

    Its quantile moments are the base's closed forms: only the tail data is hidden.
    """

    def __init__(self, base):
        self.base = base

    def cdf(self, x):
        return self.base.cdf(x)

    def cdf_left(self, x):
        return self.base.cdf_left(x)

    def quantile_lower(self, u):
        return self.base.quantile_lower(u)

    def quantile_upper(self, u):
        return self.base.quantile_upper(u)

    def quantile_moment(self, a, b, k, origin, *, epsabs=1e-10):
        return self.base.quantile_moment(a, b, k, origin, epsabs=epsabs)

    def quantile_breakpoints(self):
        return self.base.quantile_breakpoints()

    def support(self):
        return self.base.support()


class TestOneIntegralAgainstD:
    """One piece integral for the quantile and mixture forms and the probe; one test per part."""

    @staticmethod
    def near_singular_convex():
        # D = 0 on [0, 0.5), ((u - o)/(1 - o))**1.5 after it: convex, but the
        # mixing density of nu, s' ~ (u - o)**-0.5, blows up 1e-10 below the knot
        o = 0.5 - 1e-10
        return Distortion([
            Piece(lo=0.0, hi=0.5, coef=0.0, origin=0.0, width=1.0, expo=0.0),
            Piece(lo=0.5, hi=1.0, coef=1.0, origin=o, width=1.0 - o, expo=1.5),
        ])

    @pytest.mark.parametrize("with_atoms", [False, True])
    def test_mixture_on_a_near_singular_spectrum(self, with_atoms):
        # integrated against nu's density, quad converged falsely: the mixture
        # form was off by 2.5e-5 on the Pareto and 1.7e-5 on the sum
        D = self.near_singular_convex()
        dist = ParetoNegative(1.0, 2.0)
        if with_atoms:
            rng = np.random.default_rng(3)
            disc = Discrete.from_samples(rng.normal(0.0, 3.0, size=20), rng.random(20) + 0.1)
            dist = comonotone_sum(disc, dist)
        q = quantile_risk(dist, D).as_float()
        assert abs(mixture_risk(dist, D).as_float() - q) < 1e-10
        assert abs(choquet_risk(dist, D).as_float() - q) < 1e-10

    @pytest.mark.parametrize("theta", [1.0, 2.0])
    @pytest.mark.parametrize(
        "D", [make_named("sqrt_example"), make_named("es_n", n=2, alpha=0.5)], ids=lambda D: D.label()
    )
    def test_probe_matches_the_tail_rule_without_tail_data(self, theta, D):
        pn = ParetoNegative(1.0, theta)
        hidden = _TailLess(pn)
        assert hidden.tails() == (None, None)
        assert quantile_risk(hidden, D).kind == quantile_risk(pn, D).kind
        for cls in DomainClass:
            analytic = classify_membership(pn, D, cls)
            probed = classify_membership(hidden, D, cls)
            assert analytic.method == "analytic" and probed.method == "probe"
            assert probed.verdict is analytic.verdict

    @pytest.mark.parametrize(
        "dist",
        [ParetoNegative(1.0, 2.0), ParetoNegative(1.0, 2.0).scale(0.5).shift(3.0),
         ParetoPositive(1.0, 1.5), ParetoNegative(1.0, 2.0).shift(2.0).abs()],
        ids=["pn_t2", "pn_scale_shift", "pp_t1.5", "abs_shift2"],
    )
    @pytest.mark.parametrize(
        "D",
        [make_named("expectation"), make_named("sqrt_example"), make_named("es_n", n=2, alpha=0.5),
         make_named("es", alpha=0.9)],
        ids=lambda D: D.label(),
    )
    def test_geometric_decay_decides_as_the_tail_rule(self, dist, D):
        # increments of these convergent parts fall by a constant ratio of
        # 0.71-0.79 per level, too slowly for the Cauchy test alone
        hidden = _TailLess(dist)
        forms = [quantile_risk, choquet_risk] + ([mixture_risk] if is_convex(D).convex else [])
        for form in forms:
            assert form(hidden, D) == form(dist, D)
        for cls in DomainClass:
            assert classify_membership(hidden, D, cls).verdict is classify_membership(dist, D, cls).verdict

    @pytest.mark.parametrize("ratio, want", [
        (0.5, Verdict.MEMBER), (2**-0.5, Verdict.MEMBER), (0.8, Verdict.MEMBER),
        (0.88, Verdict.INCONCLUSIVE), (1.0, Verdict.NON_MEMBER),
    ])
    def test_judge_partials_ratio_rule(self, ratio, want):
        import quantrisk.riskmeasures as rm

        partials = tuple(itertools.accumulate(ratio**k for k in range(rm.PROBE_LEVELS)))
        assert rm._judge_partials(partials) is want

    @pytest.mark.parametrize(
        "D", [make_named("sqrt_example"), make_named("es_n", n=2, alpha=0.5)], ids=lambda D: D.label()
    )
    def test_acerbi_partials_are_the_sum_of_the_parts(self, D):
        import quantrisk.riskmeasures as rm

        pn = ParetoNegative(1.0)
        acerbi = classify_membership(pn, D, DomainClass.ACERBI, method="probe")
        (_, pos), (_, neg) = (rm._part_verdict(pn, D, part, "probe") for part in "+-")
        assert len(acerbi.partials) == len(pos) == len(neg) == rm.PROBE_LEVELS
        assert acerbi.partials == tuple(math.fsum(pair) for pair in zip(pos, neg))

    def test_an_undecided_probe_makes_every_form_inconclusive(self, monkeypatch):
        # a node with no tail data is probed by the forms; an undecided part
        # must raise with its partials, never fall through to a number
        monkeypatch.setattr(riskmeasures, "_judge_partials", lambda partials: Verdict.INCONCLUSIVE)
        hidden, D = _TailLess(ParetoNegative(1.0, 2.0)), make_named("es", alpha=0.9)
        for form in (quantile_risk, choquet_risk, mixture_risk):
            with pytest.raises(InconclusiveError, match=r"dyadic probe undecided for the \+ part") as info:
                form(hidden, D)
            assert len(info.value.diagnostics) == riskmeasures.PROBE_LEVELS

    def test_a_divergent_positive_part_decides_before_the_negative_part_is_probed(self):
        # without tail data the positive part of this sum diverges under the
        # probe: the risk is not in the domain, whatever the negative part is
        pp_pn = comonotone_sum(ParetoPositive(1.0, 0.8), ParetoNegative(1.0, 2.0))
        D = make_named("expectation")
        assert quantile_risk(_TailLess(pp_pn), D).kind == quantile_risk(pp_pn, D).kind == "not-in-domain"
        verdict = classify_membership(_TailLess(pp_pn), D, DomainClass.QUANTILE)
        assert verdict.verdict is Verdict.NON_MEMBER and verdict.method == "probe"

    def test_each_part_is_probed_only_on_its_own_side_of_zero(self, monkeypatch):
        # a Pareto left tail lies below 0: its positive part needs no quadrature
        import quantrisk.riskmeasures as rm

        calls = record_quad_calls(monkeypatch)
        D = make_named("sqrt_example")
        verdict, partials = rm._part_verdict(ParetoNegative(1.0), D, "+", "probe")
        assert verdict is Verdict.MEMBER and partials == (0.0,) * rm.PROBE_LEVELS and calls == []
        verdict, _ = rm._part_verdict(ParetoNegative(1.0), D, "-", "probe")
        assert verdict is Verdict.NON_MEMBER and calls == []

    def test_analytic_method_reports_a_divergent_part_when_another_is_undecided(self):
        # the positive part of a Pareto right tail with theta < 1 diverges under
        # the expectation, whatever the hidden left tail does
        class UpperTailOnly(_TailLess):
            def tails(self):
                return None, self.base.tails()[1]

        D = make_named("expectation")
        for dist, want in ((UpperTailOnly(ParetoPositive(1.0, 0.8)), Verdict.NON_MEMBER),
                           (UpperTailOnly(ParetoPositive(1.0, 1.5)), Verdict.INCONCLUSIVE)):
            verdict = classify_membership(dist, D, DomainClass.ACERBI, method="analytic")
            assert verdict.verdict is want and verdict.method == "analytic" and verdict.partials == ()


# D = 0 on [0, 1e-10), then u**2 from about 0: its left tail under the steep
# Pareto below is where QUADPACK gives up (tests/test_moments.py)
STEEP_D = Distortion([Piece(lo=0.0, hi=1e-10, coef=0.0, origin=0.0, width=1.0, expo=0.0),
                      Piece(lo=1e-10, hi=1.0, coef=1.0, origin=1e-300, width=1.0, expo=2.0)])


class TestDirectQuadpack:
    """``_quad`` calls QUADPACK's routines as ``scipy.integrate.quad`` does, and gets quad's results bitwise."""

    @staticmethod
    def reference(name, args):
        """``quad``'s value, error estimate and give-up flag for one recorded routine call."""
        f, *rest = args
        if name == "_qagie":
            bound, inf, _args, _full, epsabs, epsrel, limit = rest
            lo, hi, points = (bound, math.inf, None) if inf == 1 else (-math.inf, bound, None)
        elif name == "_qagpe":
            lo, hi, pts, _args, _full, epsabs, epsrel, limit = rest
            assert pts[-2:] == (0.0, 0.0)
            points = list(pts[:-2])
        else:
            lo, hi, _args, _full, epsabs, epsrel, limit = rest
            points = None
        assert (_args, _full, epsrel, limit) == ((), 0, 1e-10, 400)
        v, e, *more = quad(f, lo, hi, points=points, limit=limit, full_output=1, epsabs=epsabs, epsrel=epsrel)
        return v.hex(), e.hex(), len(more) > 1  # a message follows the info dict iff ier != 0

    # each shape of call _quad makes, and a computation that makes it
    SHAPES = {
        "finite": lambda: choquet_risk(ParetoNegative(1.0, 2.0), make_named("es_n", n=2, alpha=0.5)),
        "breakpoints": lambda: ParetoNegative(1.0, 2.0).shift(2.0).abs().quantile_moment(0.1, 0.9, 1.0, 0.0),
        "right-half-line": lambda: choquet_risk(ParetoPositive(1.0, 3.0), EXPECTATION),
        "left-half-line": lambda: choquet_risk(ParetoNegative(1.0, 2.0), EXPECTATION),
        "gave-up": lambda: choquet_risk(ParetoNegative(1.0, 0.02), STEEP_D),
    }

    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_every_call_is_bitwise_quads(self, monkeypatch, shape):
        import warnings

        module = riskmeasures._load_quadpack()
        calls = []

        class Recorder:
            def __getattr__(self, name):
                def call(*args):
                    out = getattr(module, name)(*args)
                    calls.append((name, args, out))
                    return out

                return call

        monkeypatch.setattr(riskmeasures, "_quadpack", Recorder())
        try:
            self.SHAPES[shape]()
        except InconclusiveError:
            assert shape == "gave-up"
        shapes = set()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for name, args, (v, e, ier) in calls:
                assert (v.hex(), e.hex(), ier != 0) == self.reference(name, args), (name, args[1:])
                shapes.add({"_qagse": "finite", "_qagpe": "breakpoints"}.get(name)
                           or ("right-half-line" if args[2] == 1 else "left-half-line"))
                if ier != 0:
                    shapes.add("gave-up")
        assert shape in shapes

    def test_the_subdivision_limit_counts_as_giving_up(self):
        import warnings

        # ier 1 with an error estimate of 7e-5, inside the acceptance floor of 1e-3
        f = lambda x: 1e3 + math.sin(1.0 / x)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            v, _, *more = quad(f, 1e-9, 1.0, limit=400, full_output=1, epsabs=1e-10, epsrel=1e-10)
        assert more[-1].startswith("The maximum number of subdivisions (400)")
        val, gave_up = riskmeasures._quad(f, 1e-9, 1.0, epsabs=1e-10)
        assert (val.hex(), gave_up) == (v.hex(), True)

    @pytest.mark.parametrize("a, b, points", [
        (1.0, 0.0, ()), (-math.inf, math.inf, ()), (0.0, math.inf, (1.0,)), (-math.inf, 0.0, (-1.0,)),
    ])
    def test_a_range_no_routine_takes_is_refused(self, a, b, points):
        with pytest.raises(ValueError, match="no QUADPACK route"):
            riskmeasures._quad(lambda x: math.exp(-abs(x)), a, b, points=points, epsabs=1e-10)

    def test_an_unimported_extension_is_loaded_from_its_file(self, monkeypatch):
        import sys

        name = "scipy.integrate._quadpack"
        imported = riskmeasures._load_quadpack()
        monkeypatch.delitem(sys.modules, name)
        monkeypatch.setattr(riskmeasures, "_quadpack", None)
        got = riskmeasures._quad(lambda x: x * x, 0.0, 3.0, epsabs=1e-12)
        assert riskmeasures._quadpack is sys.modules[name]
        assert riskmeasures._quadpack.__file__ == imported.__file__
        assert "_quadpack" not in sys.modules
        assert got == (imported._qagse(lambda x: x * x, 0.0, 3.0, (), 0, 1e-12, 1e-10, 400)[0], False)

    def test_concurrent_first_calls_load_one_module(self, monkeypatch):
        import importlib.util
        import sys
        import threading

        name = "scipy.integrate._quadpack"
        riskmeasures._load_quadpack()
        monkeypatch.delitem(sys.modules, name)
        monkeypatch.setattr(riskmeasures, "_quadpack", None)
        loads = []
        module_from_spec = importlib.util.module_from_spec

        def counting(spec):
            loads.append(spec.name)
            return module_from_spec(spec)

        monkeypatch.setattr(importlib.util, "module_from_spec", counting)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(1, 6):
                # six threads released at once make the first call; each round starts unloaded
                sys.modules.pop(name, None)
                riskmeasures._quadpack = None
                results, start = [], threading.Barrier(6, timeout=60)

                def first_call():
                    start.wait()
                    results.append(riskmeasures._quad(math.exp, 0.0, 1.0, epsabs=1e-12))

                threads = [threading.Thread(target=first_call) for _ in range(6)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert loads == [name] * round_ and len(results) == 6 and len(set(results)) == 1
                assert riskmeasures._quadpack is sys.modules[name]
        finally:
            sys.setswitchinterval(interval)


def _choquet_step_fsum(d, D):
    """``math.fsum`` of the Choquet form's terms on a discrete, recomputed: every step's width
    above 0 times 1 - D and below 0 times -D at its level, and the support's ends."""
    levels, a, b = d.cum[:-1], d.values[:-1], d.values[1:]
    w = D.eval(levels)
    above = np.maximum(b, 0.0) - np.maximum(a, 0.0)
    below = np.minimum(b, 0.0) - np.minimum(a, 0.0)
    lo, hi = d.support()
    return math.fsum([*(above * (1.0 - w)).tolist(), *(-(below * w)).tolist(), max(lo, 0.0), min(hi, 0.0)])


def test_choquet_is_the_fsum_of_its_step_terms():
    # either side of the sum's cut, samples left of 0, right of it and across it
    rng = np.random.default_rng(3811)
    distortions = [make_named("expectation"), make_named("es", alpha=0.9), make_named("es_n", n=3, alpha=0.2),
                   make_named("var", alpha=0.5), make_named("sqrt_example")]
    misses = []
    for n in (256, 511, 512, 3000, 10**4):
        for kind in ("t3", "normal"):
            x = rng.standard_t(3.0, n) if kind == "t3" else rng.normal(size=n)
            for side, samples in (("left", x - x.max() - 1.0), ("right", x - x.min() + 1.0), ("across", x)):
                for weights in (None, rng.uniform(0.5, 2.0, n)):
                    d = Discrete.from_samples(samples, weights)
                    for D in distortions:
                        got, want = choquet_risk(d, D).as_float(), _choquet_step_fsum(d, D)
                        if got.hex() != want.hex():
                            misses.append((n, kind, side, weights is None, D.label(), got.hex(), want.hex()))
    assert misses == []
