"""The verification suite's configuration checks and comparison arms."""

import pytest

from quantrisk import suite
from quantrisk.distortions import is_convex, make_named
from quantrisk.distributions import Discrete, ParetoPositive
from quantrisk.errors import ParameterError
from quantrisk.riskmeasures import RiskValue
from quantrisk.suite import SuiteConfig, Tolerances, run_suite

ES = [("es(0.5)", make_named("es", alpha=0.5))]
FOUR = [("four", Discrete.from_samples([1.0, 2.0, 3.0, 4.0]))]


class TestValidation:
    @pytest.mark.parametrize("value", [0.0, -1e-9])
    def test_tolerances_must_be_positive(self, value):
        with pytest.raises(ParameterError, match="tolerance axiom must be positive"):
            Tolerances(axiom=value).validated()

    @pytest.mark.parametrize("dists, distortions", [([], ES), (FOUR, [])])
    def test_the_matrix_needs_cases(self, dists, distortions):
        with pytest.raises(ParameterError, match="no cases"):
            SuiteConfig(distributions=dists, distortions=distortions).validate()

    def test_unknown_checks(self):
        with pytest.raises(ParameterError, match=r"unknown checks: \['bogus'\]"):
            SuiteConfig(distributions=FOUR, distortions=ES, checks=("agreement", "bogus")).validate()


class TestComparisons:
    def test_close_fails_on_kind_and_on_value(self):
        assert suite._close(RiskValue.finite(1.0), RiskValue.neg_inf(), 1.0) == (False, "kind finite vs neg-inf")
        assert suite._close(RiskValue.finite(1.0), RiskValue.finite(1.5), 0.1) == (False, "|1 - 1.5| > 0.1")
        assert suite._close(RiskValue.finite(1.0), RiskValue.finite(1.05), 0.1) == (True, "")

    def test_le_extended_over_the_extended_line(self):
        finite, neg_inf, undefined = RiskValue.finite(1.0), RiskValue.neg_inf(), RiskValue.not_in_domain()
        assert suite._le_extended(finite, undefined, 1.0) is None
        assert suite._le_extended(undefined, finite, 1.0) is None
        assert suite._le_extended(neg_inf, finite, 0.0) is True
        assert suite._le_extended(finite, neg_inf, 0.0) is False


class TestOrdering:
    def test_risks_outside_the_domain_are_skipped(self):
        # mean +inf: only a var risk of this tail is in the domain, and its mean is not compared
        tail = [("pp(0.8)", ParetoPositive(1.0, 0.8))]
        report = run_suite(SuiteConfig(distributions=tail, distortions=ES, checks=("ordering",)))
        assert report.ok
        names = [r.name for r in report.results if not r.name.startswith("pointwise ")]
        assert names == ["risk-reversal var(0.5)/var(0.25) pp(0.8)", "shortfall-monotone pp(0.8)"]

    def test_a_finite_mean_above_a_risk_of_minus_inf_fails(self, monkeypatch):
        monkeypatch.setattr(suite, "quantile_risk", lambda dist, distortion: RiskValue.neg_inf())
        report = run_suite(SuiteConfig(distributions=FOUR, distortions=ES, checks=("ordering",)))
        [failure] = report.failures()
        assert failure.name == "mean-below-risk four x es(0.5)"
        assert failure.detail == "mean 2.5 vs -inf"


class TestAgreement:
    def test_convexity_is_decided_once_per_distortion(self, monkeypatch):
        calls = []

        def counted(distortion):
            calls.append(distortion)
            return is_convex(distortion)

        monkeypatch.setattr(suite, "is_convex", counted)
        config = suite.default_config(trials=10)
        records = list(suite._check_agreement("agreement", config, Tolerances()))
        assert len(calls) == len(config.distortions) == 11
        # a quantile-vs-choquet record per pair, a quantile-vs-mixture one per convex pair
        convex = sum(is_convex(d).convex for _, d in config.distortions)
        assert len(records) == len(config.distributions) * (11 + convex) == 14 * 18
