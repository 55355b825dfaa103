"""Distribution algebra: quantiles against brute-force oracles, transform laws."""

import itertools
import math
import operator
import struct
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantrisk.distributions import (
    Discrete,
    ParetoNegative,
    ParetoPositive,
    comonotone_sum,
    point_mass,
)
import quantrisk.distributions as qd
from quantrisk.errors import InconclusiveError, ParameterError
from quantrisk.riskmeasures import expected_shortfall, expected_shortfall_infimum, value_at_risk


def oracle_quantile_lower(dist, u, candidates):
    """inf{x : cdf(x) >= u} scanned over candidate atoms, using only the CDF."""
    feasible = [x for x in sorted(candidates) if dist.cdf(x) >= u]
    assert feasible, "oracle needs a feasible candidate"
    return feasible[0]


def oracle_quantile_upper(dist, u, candidates):
    """sup{x : cdf(x) <= u}: the first candidate where the CDF exceeds u."""
    for x in sorted(candidates):
        if dist.cdf(x) > u:
            return x
    return max(candidates)


class TestDiscreteQuantiles:
    def setup_method(self):
        self.d = Discrete.from_samples([1, 2, 3, 4])

    def test_cdf_step(self):
        assert self.d.cdf(2.5) == 0.5
        assert self.d.cdf(0.5) == 0.0
        assert self.d.cdf(4.0) == 1.0

    def test_lower_quantile_matches_oracle(self):
        assert self.d.quantile_lower(0.5) == oracle_quantile_lower(self.d, 0.5, [1, 2, 3, 4]) == 2
        assert self.d.quantile_lower(0.5 + 1e-9) == 3

    def test_upper_quantile_matches_oracle(self):
        assert self.d.quantile_upper(0.5) == oracle_quantile_upper(self.d, 0.5, [1, 2, 3, 4]) == 3
        d = Discrete.from_samples([1, 1, 2])
        assert d.quantile_lower(2 / 3) == 1
        assert d.quantile_upper(2 / 3) == oracle_quantile_upper(d, 2 / 3, [1, 2]) == 2

    def test_oracle_sweep(self):
        values = [-2.0, -0.5, 0.0, 1.5, 7.0]
        d = Discrete.from_samples(values, [1, 2, 3, 2, 1])
        for u in np.linspace(0.01, 0.99, 101):
            assert d.quantile_lower(u) == oracle_quantile_lower(d, u, values)
            assert d.quantile_upper(u) == oracle_quantile_upper(d, u, values)

    def test_defining_property(self):
        for u in np.linspace(0.05, 0.95, 19):
            assert self.d.cdf(self.d.quantile_lower(u)) >= u

    def test_level_domain_errors(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ParameterError):
                self.d.quantile_lower(bad)
            with pytest.raises(ParameterError):
                self.d.quantile_upper(bad)

    def test_atom_validation(self):
        with pytest.raises(ParameterError):
            Discrete([1.0, 1.0], [0.5, 0.5])  # not strictly increasing
        with pytest.raises(ParameterError):
            Discrete([1.0, 2.0], [0.5, 0.4])  # mass deficit
        with pytest.raises(ParameterError):
            Discrete([1.0, 2.0], [1.0, 0.0])  # zero probability atom

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("first", [True, False], ids=["first", "last"])
    def test_a_non_finite_sample_is_refused_at_any_weight(self, bad, first):
        # a zero-weight atom was dropped before the finiteness check, so
        # [1.0, nan] with weights [1, 0] gave a point mass at 1
        samples, weights = ([bad, 1.0], [0.0, 1.0]) if first else ([1.0, bad], [1.0, 0.0])
        with pytest.raises(ParameterError, match="atom values must be finite"):
            Discrete.from_samples(samples, weights)

    @pytest.mark.parametrize("weights", [[math.nan, 1.0], [1.0, math.nan], [math.nan, math.nan], [-1.0, 2.0]])
    def test_sample_weights_must_be_non_negative_numbers(self, weights):
        # a NaN weight failed both `weights < 0` and `weights > 0`, so its
        # sample was dropped: [nan, 1.0] gave a point mass at 2
        with pytest.raises(ParameterError, match="non-negative"):
            Discrete.from_samples([1.0, 2.0], weights)


class TestValidation:
    def test_atom_values_must_be_finite(self):
        with pytest.raises(ParameterError, match="atom values must be finite"):
            Discrete([1.0, math.inf], [0.5, 0.5])

    def test_samples_must_not_be_empty(self):
        with pytest.raises(ParameterError, match="need at least one sample value"):
            Discrete.from_samples([])

    @pytest.mark.parametrize("dist", [Discrete.from_samples([1.0, 2.0, 4.0]), ParetoNegative(1.0, 2.0)],
                             ids=["discrete", "pareto_negative"])
    @pytest.mark.parametrize("args, message", [
        ((0.6, 0.4, 0.0, 0.0), r"integration range must satisfy 0 <= a <= b <= 1"),
        ((0.2, 0.6, -1.0, 0.0), r"moment exponent must exceed -1"),
        ((0.2, 0.6, 0.5, 0.4), r"moment origin must lie outside \(0.2, 0.6\)"),
    ], ids=["reversed", "k=-1", "origin-inside"])
    def test_moment_arguments_are_checked(self, dist, args, message):
        with pytest.raises(ParameterError, match=message):
            dist.quantile_moment(*args)

    def test_values_and_probs_must_match(self):
        with pytest.raises(ParameterError, match="equal-length, non-empty 1-D sequences"):
            Discrete([1.0, 2.0], [1.0])

    def test_weights_must_match_the_samples(self):
        with pytest.raises(ParameterError, match="weights must match samples in length"):
            Discrete.from_samples([1.0, 2.0], [1.0])

    def test_total_weight_must_be_positive(self):
        with pytest.raises(ParameterError, match="total weight must be positive"):
            Discrete.from_samples([1.0, 2.0], [0.0, 0.0])

    @pytest.mark.parametrize("build", [
        lambda: Discrete.from_samples([1.0, 2.0]).scale(1e308),
        lambda: Discrete.from_samples([1e308, 1.5e308]).shift(1e308),
        lambda: comonotone_sum(Discrete.from_samples([1e308, 1.5e308]), Discrete.from_samples([1e308, 1.7e308])),
    ], ids=["scale", "shift", "comonotone_sum"])
    def test_eager_atoms_past_the_float_range_are_refused(self, build):
        # warnings are errors under pyproject.toml: numpy's overflow warning must not escape first
        with pytest.raises(ParameterError, match="atom values must be finite"):
            build()


class TestDiscreteLevels:
    """The cumulative levels are the representation: built once, then mapped."""

    def test_equal_weights_give_the_float_k_over_n(self):
        for n in [*range(1, 201), 10**5]:
            assert np.array_equal(Discrete.from_samples(np.arange(n)).cum, np.arange(1, n + 1) / n), n

    def test_var_at_a_shared_level(self):
        assert value_at_risk(Discrete.from_samples(range(6)), 5 / 6) == 4.0

    def test_zero_weight_run_member_keeps_the_run(self):
        d = Discrete.from_samples([0, 1, 1, 2], [1, 1, 0, 2])
        assert list(d.values) == [0.0, 1.0, 2.0]
        assert list(d.cum) == [0.25, 0.5, 1.0]

    def test_atom_whose_level_does_not_rise_is_dropped(self):
        d = Discrete.from_samples([1, 2, 3], [1e20, 1, 1e20])
        assert list(d.values) == [1.0, 3.0]
        assert list(d.cum) == [0.5, 1.0]
        d = Discrete.from_samples([1, 2], [1e-300, 1e300])
        assert list(d.values) == [2.0]
        assert list(d.cum) == list(d.probs) == [1.0]

    def test_weighted_levels_are_within_an_ulp_of_exact(self):
        # the t3w input of bench/discrete_exact.py at seed 7 and 10^5 atoms;
        # a plain cumsum is up to 87 floats (1.2e-14 relative) off here
        n = 10**5
        rng = np.random.default_rng([7, n])
        rng.normal(0.0, 1.0, n)
        samples, weights = rng.standard_t(3.0, n), rng.uniform(0.5, 2.0, n)
        d = Discrete.from_samples(samples, weights)
        # weights in [0.5, 2) are integers times 2**-53; int / int rounds correctly
        running = list(itertools.accumulate(int(w * 2.0**53) for w in weights[np.argsort(samples, kind="stable")]))
        exact = [r / running[-1] for r in running]
        assert len(d.cum) == n
        assert all(math.nextafter(x, 0.0) <= c <= math.nextafter(x, 1.0) for c, x in zip(d.cum.tolist(), exact))

    def test_parts_map_the_levels(self):
        base = Discrete.from_samples([-3.0, -1.0, 0.5, 2.0], [1, 2, 3, 4])
        pos, neg = base.pos_part(), base.neg_part()
        assert list(pos.values) == [0.0, 0.5, 2.0]
        assert list(pos.cum) == base.cum[1:].tolist()
        # negation maps the levels to 1 - c, reversed: P(-X <= -v_i) = 1 - cum[i-1]
        assert list(neg.values) == [0.0, 1.0, 3.0]
        assert list(neg.cum) == [1.0 - base.cum[1], 1.0 - base.cum[0], 1.0]


def stable_from_samples(samples, weights=None):
    """``from_samples`` by one stable argsort and the running sum of every sorted weight: the reference route."""
    samples = np.asarray(samples, dtype=float)
    weights = np.ones_like(samples) if weights is None else np.asarray(weights, dtype=float)
    order = np.argsort(samples, kind="stable")
    hi, lo = qd._running_sum(weights[order])
    run = hi + lo
    return qd._from_levels(samples[order], run / run[-1])


def union_comonotone_sum(d1, d2):
    """The comonotone sum of two discretes on ``union1d`` of their levels: the reference route."""
    grid = np.union1d(d1.cum, d2.cum)
    return qd._from_levels(d1.values[np.searchsorted(d1.cum, grid)] + d2.values[np.searchsorted(d2.cum, grid)], grid)


def same_bytes(d, ref):
    return d.values.tobytes() == ref.values.tobytes() and d.cum.tobytes() == ref.cum.tobytes()


# few values, so that runs of equal samples are long; -0.0 and 0.0 compare equal
POOL = [0.0, -0.0, 1.0, -1.0, 2.5, -7.0, 1e-300, 3.0]
WEIGHTS = [0.0, 1e-300, 1e20, 1.0, 0.5, 3.0]


@st.composite
def sample_sets(draw):
    """A drawn pattern repeated up to 400 times, then a drawn tail: one sample up to thousands, with ties."""
    pattern = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=8))
    tail = draw(st.lists(st.one_of(st.sampled_from(POOL), st.floats(-5.0, 5.0)), max_size=20))
    return pattern * draw(st.integers(1, 400)) + tail


@st.composite
def weighted_sets(draw):
    samples = draw(sample_sets())
    weights = draw(st.lists(st.one_of(st.sampled_from(WEIGHTS), st.floats(0.0, 10.0)), min_size=1, max_size=9))
    weights = (weights * len(samples))[: len(samples)]
    if not any(weights):
        weights[-1] = 1.0
    return samples, weights


class TestSortRoutes:
    """``from_samples`` (one plain sort) and ``comonotone_sum`` (one merge) give the stable reference's bytes."""

    @given(samples=sample_sets())
    @settings(max_examples=150, deadline=None)
    def test_equal_weights(self, samples):
        assert same_bytes(Discrete.from_samples(samples), stable_from_samples(samples))

    @given(case=weighted_sets())
    @settings(max_examples=150, deadline=None)
    def test_given_weights_and_abs(self, case):
        d = Discrete.from_samples(*case)
        assert same_bytes(d, stable_from_samples(*case))
        assert same_bytes(d.abs(), stable_from_samples(np.abs(d.values), d.probs))

    @given(a=st.one_of(sample_sets().map(lambda s: (s,)), weighted_sets()),
           b=st.one_of(sample_sets().map(lambda s: (s,)), weighted_sets()))
    @settings(max_examples=150, deadline=None)
    def test_comonotone_sum(self, a, b):
        d1, d2 = Discrete.from_samples(*a), Discrete.from_samples(*b)
        for x, y in ((d1, d2), (d1, d1), (d1, d1.shift(1.0)), (d1, point_mass(2.0)), (point_mass(-1.0), d2)):
            assert same_bytes(comonotone_sum(x, y), union_comonotone_sum(x, y))

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_equal_weights_are_the_bits_of_weights_of_one(self, data):
        # the running sum of ones is exact, so both routes give the correctly rounded k/n,
        # and both keep the last zero by index
        n = data.draw(st.integers(1, 10**4))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        pool = np.array(POOL + rng.normal(size=data.draw(st.integers(0, n))).tolist())
        samples = rng.choice(pool, n)
        equal, ones = Discrete.from_samples(samples), Discrete.from_samples(samples, np.ones(n))
        assert same_bytes(equal, ones)
        assert (np.signbit(equal.values) == np.signbit(ones.values)).all()

    def test_a_run_of_signed_zeros_ends_on_its_last_sample(self):
        # np.sort may leave either zero last in a long run; the last by index decides
        for first, last in ((0.0, -0.0), (-0.0, 0.0)):
            d = Discrete.from_samples([first, last] * 600 + [3.0])
            assert d.values.tobytes() == np.array([last, 3.0]).tobytes()
            assert list(d.cum) == [1200 / 1201, 1.0]

    def test_a_tied_weighted_run_is_taken_in_index_order(self):
        # the default argsort may leave either zero last; the run sorted again by index ends on the last sample
        for first, last in ((0.0, -0.0), (-0.0, 0.0)):
            d = Discrete.from_samples([first, last, 1.0] * 300, [1.0, 3.0, 2.0] * 300)
            assert d.values.tobytes() == np.array([last, 1.0]).tobytes()
            assert list(d.cum) == [1200 / 1800, 1.0]


class TestPrefixTable:
    """k = 0 moments of a large discrete: the first builds a prefix table, and every later one reads it."""

    @staticmethod
    def count_builds(monkeypatch):
        """The atom count of every prefix table built from now on."""
        builds, build = [], Discrete._prefix.func

        def counted(d):
            builds.append(len(d.values))
            return build(d)

        table = cached_property(counted)
        table.__set_name__(Discrete, "_prefix")
        monkeypatch.setattr(Discrete, "_prefix", table)
        return builds

    def test_one_infimum_builds_the_table_once(self, monkeypatch):
        d = Discrete.from_samples(np.random.default_rng(24).standard_t(3.0, 10**4))
        builds = self.count_builds(monkeypatch)
        expected_shortfall_infimum(d, 0.9)
        expected_shortfall_infimum(d, 0.5)
        assert builds == [10**4]

    def test_a_discrete_below_the_cut_builds_none(self, monkeypatch):
        d = Discrete.from_samples(np.random.default_rng(24).standard_t(3.0, qd._PREFIX_CUT - 1))
        builds = self.count_builds(monkeypatch)
        expected_shortfall_infimum(d, 0.9)
        assert builds == []

    def test_the_first_k0_moment_builds_the_table(self, monkeypatch):
        samples = np.random.default_rng(38).standard_t(3.0, 10**5)
        builds = self.count_builds(monkeypatch)
        by_mean, by_shortfall = Discrete.from_samples(samples), Discrete.from_samples(samples)
        first = by_mean.mean()
        expected_shortfall(by_shortfall, 0.9)
        assert builds == [10**5, 10**5]
        assert "_prefix" in by_mean.__dict__ and "_prefix" in by_shortfall.__dict__
        assert by_mean.mean().hex() == by_shortfall.mean().hex() == first.hex()
        assert builds == [10**5, 10**5]

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_a_k0_moment_is_the_same_bits_before_and_after_the_table(self, data):
        n = data.draw(st.integers(1, 3000))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        samples = rng.standard_t(3.0, n) + data.draw(st.sampled_from([0.0, -20.0, 20.0]))
        weights = rng.uniform(0.5, 2.0, n) if data.draw(st.booleans()) else None
        fresh, built = Discrete.from_samples(samples, weights), Discrete.from_samples(samples, weights)
        built.mean()
        assert ("_prefix" in built.__dict__) == (n >= qd._PREFIX_CUT)
        ends = st.one_of(st.sampled_from([0.0, 1.0]), st.sampled_from(built.cum.tolist()), st.floats(0.0, 1.0))
        a, b = sorted((data.draw(ends), data.draw(ends)))
        got = fresh.quantile_integral(a, b)
        # both are the fsum of each atom's value times its level step clipped to (a, b)
        clipped = np.clip(np.concatenate(([0.0], fresh.cum)), a, b)
        want = math.fsum((fresh.values * (clipped[1:] - clipped[:-1])).tolist())
        assert got.hex() == built.quantile_integral(a, b).hex() == want.hex()

    def test_a_table_difference_with_its_last_bit_open_is_summed_again(self, monkeypatch):
        summed, fsum = [], qd._fsum
        monkeypatch.setattr(qd, "_fsum", lambda xs, extra=(): summed.append(len(xs)) or fsum(xs, extra))
        # 2**9 symmetric values at the levels k/512: their products cancel to exactly 0,
        # whose sign only the sum of the products decides
        d = Discrete.from_samples(np.arange(-255.5, 256.0))
        assert d.mean() == 0.0 and d.mean() == 0.0 and "_prefix" in d.__dict__
        assert summed == [510, 510]
        # far left atoms whose table differences leave the last bit of a slice near 0 open
        x = np.concatenate((np.linspace(-1e12 - 1e6, -1e12, 2000), np.linspace(0.5, 1.0, 1000)))
        d, fresh = Discrete.from_samples(x), Discrete.from_samples(x)
        d.mean()
        d.mean()
        summed.clear()
        for a, b in ((0.7, 1.0), (0.9, 0.95), (2 / 3, 0.7)):
            assert d.quantile_integral(a, b).hex() == fresh.quantile_integral(a, b).hex()
        assert len(summed) > 3  # fresh's three and at least one of d's

    def test_derived_probs_are_the_level_steps(self):
        # a run of equal samples, and atoms whose levels do not rise, are dropped
        d = Discrete.from_samples([3, 1, 2, 2, 5, 4, 6], [1, 1e-300, 0, 3, 1e20, 0.5, 2])
        assert d._given is None  # no masses stored
        assert d.probs.tobytes() == np.diff(d.cum, prepend=0.0).tobytes()
        for moved in (d.shift(0.1), d.scale(3.0), d.neg_part(), d.abs()):
            assert moved.probs.tobytes() == np.diff(moved.cum, prepend=0.0).tobytes()

    def test_a_constructed_discrete_keeps_its_given_probs(self):
        probs = np.array([0.1, 0.2, 0.7]) * (1.0 + 9e-13)
        d = Discrete([1.0, 2.0, 3.0], probs)
        assert d.probs is probs
        assert not np.array_equal(d.probs, np.diff(d.cum, prepend=0.0))


class TestFsum:
    """``_fsum`` is ``math.fsum`` of its terms, bit for bit, on either side of its cut."""

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_it_is_fsum(self, data):
        n = data.draw(st.integers(1, 3 * qd._FSUM_CUT))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        scale = 10.0 ** rng.integers(-300, 300, n) if data.draw(st.booleans()) else 1.0
        xs = rng.standard_t(2.0, n) * scale
        extra = data.draw(st.lists(st.floats(-1e10, 1e10), max_size=3))
        assert qd._fsum(xs, extra).hex() == math.fsum([*xs.tolist(), *extra]).hex()

    def test_an_open_last_bit_or_a_zero_total_sums_the_list(self):
        n = qd._FSUM_CUT
        # 1 + 2**-53 is a tie, rounded to even; the error sum's bound reaches either side of it
        tie = np.array([1.0, 2.0**-53, *[0.0] * (n - 2)])
        assert qd._fsum(tie) == 1.0
        assert qd._fsum(tie, [2.0**-60]) == 1.0 + 2.0**-52
        # 2**-160 lifts the tie, but numpy's sum of the errors 2**-53 and 2**-160 rounds it away
        tie[2] = 2.0**-160
        assert qd._fsum(tie) == 1.0 + 2.0**-52
        zeros = np.full(n, -0.0)
        assert qd._fsum(zeros, [-0.0]).hex() == math.fsum([*zeros.tolist(), -0.0]).hex()
        x = np.random.default_rng(5).normal(size=n)
        assert qd._fsum(np.concatenate((x, -x[::-1]))).hex() == "0x0.0p+0"
        with pytest.raises(OverflowError):
            qd._fsum(np.full(n, 1e308))


class TestParetoNegative:
    def test_cdf_closed_form(self):
        pn = ParetoNegative(1.0)
        assert pn.cdf(-2.0) == 0.25
        assert pn.cdf(-1.0) == 1.0
        assert pn.cdf(0.0) == 1.0

    def test_quantiles_invert_cdf(self):
        pn = ParetoNegative(1.0)
        assert pn.quantile_lower(0.25) == -2.0
        for u in np.linspace(0.05, 0.95, 11):
            assert pn.quantile_upper(u) == pn.quantile_lower(u)
            assert abs(pn.cdf(pn.quantile_lower(u)) - u) < 1e-12

    def test_mean(self):
        assert abs(ParetoNegative(1.0).mean() + 2.0) < 1e-12
        assert ParetoNegative(1.0, 1.0).mean() == -math.inf

    def test_quantile_integral_matches_quadrature(self):
        from scipy.integrate import quad

        pn = ParetoNegative(2.0, 3.0)
        val, _ = quad(pn.quantile_lower, 0.1, 0.9)
        assert abs(pn.quantile_integral(0.1, 0.9) - val) < 1e-9

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            ParetoNegative(0.0)
        with pytest.raises(ParameterError):
            ParetoNegative(1.0, -2.0)

    def test_a_moment_at_level_0_diverges_for_theta_1(self):
        # t**(-1/theta) near 0 against a weight bounded away from 0: an origin left of (a, b)
        assert ParetoNegative(1.0, 1.0).quantile_moment(0.0, 0.5, 1.0, -0.25) == -math.inf

    def test_a_fractional_power_about_an_origin_below_0_is_integrated_numerically(self):
        from scipy.integrate import quad

        assert qd._power_moment(0.1, 0.5, -1.0 / 3.0, 0.5, -0.25) is None
        want = -quad(lambda u: u ** (-1.0 / 3.0) * (u + 0.25) ** 0.5, 0.1, 0.5, epsabs=1e-14, epsrel=1e-14)[0]
        assert abs(ParetoNegative(1.0, 3.0).quantile_moment(0.1, 0.5, 0.5, -0.25) - want) <= 1e-12

    def test_a_series_that_runs_out_of_terms_ends_in_closed_form(self):
        # the binomial series in (t - o)**1 ends after two terms; its next power
        # integral from 0 is inf, and 0 * inf must not keep the series running
        want = 0.05 ** (5.0 / 3.0) / (5.0 / 3.0) + 0.5 * 0.05 ** (2.0 / 3.0) / (2.0 / 3.0)
        assert abs(qd._power_moment(0.0, 0.05, -1.0 / 3.0, 1.0, -0.5) - want) <= 1e-15 * want
        assert abs(ParetoNegative(1.0, 3.0).quantile_moment(0.0, 0.05, 1.0, -0.5) + want) <= 1e-15 * want

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("o", [-0.5, -0.1, -0.001])
    def test_an_integer_power_about_an_origin_below_0_needs_no_quadrature(self, monkeypatch, k, o):
        from quantrisk import riskmeasures as rm

        def no_quad(*args, **kwargs):
            raise AssertionError("quadrature called")

        monkeypatch.setattr(rm, "_quad", no_quad)
        # -integral of u**(-1/3) (u - o)**k over (0, 0.05), term by term in the binomial expansion
        want = -math.fsum(math.comb(k, j) * (-o) ** (k - j) * 0.05 ** (j + 2.0 / 3.0) / (j + 2.0 / 3.0)
                          for j in range(k + 1))
        got = ParetoNegative(1.0, 3.0).quantile_moment(0.0, 0.05, float(k), o)
        assert abs(got - want) <= 1e-15 * abs(want)

    @pytest.mark.parametrize("dist", [Discrete.from_samples([1.0, 2.0, 4.0]), ParetoNegative(1.0, 2.0).shift(1.0)],
                             ids=["discrete", "affine"])
    @pytest.mark.parametrize("k", [0.0, 1.0, -0.5])
    def test_a_moment_over_an_empty_range_is_0(self, dist, k):
        assert dist.quantile_moment(0.3, 0.3, k, 0.0) == 0.0

    def test_quantiles_beyond_the_float_range_are_infinite(self):
        assert ParetoNegative(1.0, 0.5).quantile_lower(1e-300) == -math.inf
        assert ParetoPositive(1.0, 0.01).quantile_upper(1.0 - 2**-53) == math.inf
        m = ParetoNegative(1.0, 0.5).shift(2.0).abs()
        assert m.cdf(m.quantile_lower(1e-300)) >= 1e-300

    def test_quantile_integrals_beyond_the_float_range_are_infinite(self):
        assert ParetoNegative(1.0, 0.1).quantile_integral(1e-300, 0.5) == -math.inf
        assert ParetoNegative(1.0, 0.01).quantile_integral(1e-5, 0.5) == -math.inf
        assert ParetoPositive(1.0, 0.01).quantile_integral(0.5, 1.0 - 2**-53) == math.inf

    def test_quantile_integral_finite_where_the_power_overflows(self):
        # a**-9 is beyond the float range, the integral over (a, a(1 + 2**-40)) is not;
        # reference from mpmath at 50 digits on the same float endpoints
        a = 1e-35
        got = ParetoNegative(1.0, 0.1).quantile_integral(a, a * (1.0 + 2**-40))
        assert abs(got / -9.0954183084019709e302 - 1.0) < 1e-12


class TestParetoPositive:
    BETAS = [1e-8, 1.0, 1e8, 1e300]
    THETAS = [0.05, 0.3, 0.5, 0.8, 1.0, 3.0, 50.0]
    # the first three round 1 - u to 1, where both quantiles are beta
    LEVELS = [5e-324, 1e-20, 2.0**-54, 2.0**-53, 1e-10, 0.1, 0.5, 0.9, 1.0 - 1e-10, 1.0 - 2.0**-53]

    @staticmethod
    def quantile(beta, theta, u):
        try:
            return beta * (1.0 - u) ** (-1.0 / theta)
        except OverflowError:
            return math.inf

    def test_bitwise_the_closed_forms(self):
        for beta, theta in itertools.product(self.BETAS, self.THETAS):
            d = ParetoPositive(beta, theta)
            for u in self.LEVELS:
                want = self.quantile(beta, theta, u)
                assert d.quantile_lower(u) == d.quantile_upper(u) == want, (beta, theta, u)
            for u in self.LEVELS[:3]:
                assert d.quantile_lower(u) == beta
            below = [-1.0, 0.0, 0.5 * beta, math.nextafter(beta, 0.0)]
            above = [beta, math.nextafter(beta, math.inf), 1.5 * beta, 2.0 * beta, 1e300, math.inf]
            for x in below:
                assert d.cdf(x) == d.cdf_left(x) == 0.0, (beta, theta, x)
            for x in above:
                assert d.cdf(x) == d.cdf_left(x) == 1.0 - (beta / x) ** theta, (beta, theta, x)
            assert d.support() == (beta, math.inf)
            assert d.tails() == (math.inf, theta)
            assert d.label() == f"pareto_positive(beta={beta:g},theta={theta:g})"
            assert repr(d) == f"ParetoPositive(beta={beta!r}, theta={theta!r})"


class TestGaloisProperty:
    # the coupling inf{x : F(x) >= u} <= x  <=>  u <= F(x)
    dists = [
        Discrete.from_samples([1, 2, 3, 4]),
        Discrete.from_samples([-2, -1, 1, 5]),
        ParetoNegative(1.0),
        ParetoPositive(1.0, 2.0),
        ParetoNegative(1.0).shift(5.0),
        Discrete.from_samples([-2, 5]).pos_part(),
        comonotone_sum(ParetoNegative(1.0), ParetoPositive(1.0, 2.0)),
    ]

    @pytest.mark.parametrize("dist", dists, ids=lambda d: d.label())
    def test_grid(self, dist):
        for u in np.linspace(0.02, 0.98, 25):
            for x in [-4.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.5, 6.0]:
                assert (dist.quantile_lower(u) <= x) == (u <= dist.cdf(x))

    @pytest.mark.parametrize("dist", dists, ids=lambda d: d.label())
    def test_cdf_monotone_right_continuous(self, dist):
        xs = np.linspace(-8, 8, 161)
        vals = [dist.cdf(x) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        for x in xs[::8]:
            assert dist.cdf(x + 1e-12) >= dist.cdf(x) - 1e-9


class TestTransforms:
    def test_shift(self):
        d = Discrete.from_samples([1, 2]).shift(3.0)
        assert d.quantile_lower(0.7) == 5.0

    def test_pos_part(self):
        d = Discrete.from_samples([-2, 5]).pos_part()
        assert d.quantile_lower(0.9) == 5.0
        assert d.quantile_lower(0.3) == 0.0

    def test_scale_zero_degenerate(self):
        d = Discrete.from_samples([1, 2, 3]).scale(0.0)
        for u in (0.1, 0.5, 0.9):
            assert d.quantile_lower(u) == 0.0

    def test_scale_negative_rejected(self):
        with pytest.raises(ParameterError):
            point_mass(1.0).scale(-1.0)

    def test_pos_part_law_on_grid(self):
        base = Discrete.from_samples([-3, -1, 0, 2, 4])
        clipped = base.pos_part()
        for u in np.linspace(0.01, 0.99, 49):
            assert clipped.quantile_lower(u) == max(base.quantile_lower(u), 0.0)

    def test_scale_shift_commute(self):
        base = Discrete.from_samples([-1, 0, 2])
        a, c = 2.5, -3.0
        left = base.scale(a).shift(a * c)
        right = base.shift(c).scale(a)
        for u in np.linspace(0.05, 0.95, 19):
            assert abs(left.quantile_lower(u) - right.quantile_lower(u)) < 1e-12

    def test_abs_cdf_consistency_discrete(self):
        base = Discrete.from_samples([-3, -1, 0, 2, 5])
        ad = base.abs()
        for x in [0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0]:
            assert abs(ad.cdf(x) - (base.cdf(x) - base.cdf_left(-x))) < 1e-15

    def test_abs_of_negative_pareto_is_positive_pareto(self):
        left = ParetoNegative(1.5, 2.0).abs()
        right = ParetoPositive(1.5, 2.0)
        for u in np.linspace(0.05, 0.95, 19):
            assert abs(left.quantile_lower(u) - right.quantile_lower(u)) < 1e-12

    @pytest.mark.parametrize("u", [1e-20, 2.0**-54])
    def test_reflected_quantiles_below_the_last_float_under_1(self, u):
        # 1 - u rounds to 1.0, outside (0, 1): both quantiles are minus the base's supremum
        d = ParetoNegative(1.0, 2.0).abs()
        assert d.quantile_lower(u) == d.quantile_upper(u) == 1.0

    def test_neg_part_of_a_lazy_node_below_the_last_float_under_1(self):
        npart = ParetoNegative(1.0, 2.0).shift(3.0).neg_part()
        assert npart.quantile_lower(1e-20) == npart.quantile_upper(1e-20) == 0.0

    def test_a_base_bounded_above_is_read_at_its_supremum(self):
        # the true quantile at 1e-20 is 0.5 + 2e-19, which rounds to 0.5; read at 1 - 2**-53 it would be 0.5 + 2.2e-15
        npart = ParetoNegative(1.0, 0.05).shift(0.5).neg_part()
        assert npart.quantile_lower(1e-20) == npart.quantile_upper(1e-20) == 0.5

    def test_a_base_unbounded_above_is_not_read_at_the_last_float_under_1(self):
        # max(-(1e20**0.1 - 50), 0) = 0 at 1e-20; read at 1 - 2**-53 it would be 50 - 2**5.3, about 10.6
        npart = ParetoPositive(1.0, 10.0).shift(-50.0).neg_part()
        assert abs(npart.quantile_lower(2.0**-52) - (50.0 - 2.0**5.2)) <= 1e-13
        for q in (npart.quantile_lower, npart.quantile_upper):
            with pytest.raises(InconclusiveError):
                q(1e-20)

    def test_shift_merges_atoms_that_round_together(self):
        d = Discrete([1e-17, 2e-17], [0.5, 0.5]).shift(1.0)
        assert list(d.values) == [1.0]
        assert list(d.probs) == [1.0]

    def test_scale_merges_atoms_that_round_together(self):
        d = Discrete([1.0, 1.0 + 2**-52], [0.5, 0.5]).scale(1e-320)
        assert len(d.values) == 1
        assert d.quantile_lower(0.5) == 1.0 * 1e-320

    def test_shift_and_scale_keep_levels(self):
        base = Discrete.from_samples([-1.0, 0.5, 2.0, 7.0], [1, 2, 3, 4])
        for moved in (base.shift(2.5), base.scale(3.0)):
            assert np.array_equal(moved.cum, Discrete(moved.values, base.probs).cum)
            assert np.array_equal(moved.probs, base.probs)

    def test_neg_part(self):
        base = Discrete.from_samples([-2, 5])
        npart = base.neg_part()
        assert list(npart.values) == [0.0, 2.0]
        assert list(npart.probs) == [0.5, 0.5]

    def test_the_negative_part_of_a_right_tail_is_a_point_mass_at_0(self):
        npart = ParetoPositive(1.0, 2.0).neg_part()
        assert isinstance(npart, Discrete)
        assert (npart.values.tolist(), npart.cum.tolist()) == ([0.0], [1.0])

    def test_a_comonotone_sum_with_a_point_mass_is_a_shift(self):
        tail = ParetoNegative(1.0, 3.0)
        for summed in (comonotone_sum(point_mass(2.0), tail), comonotone_sum(tail, point_mass(2.0))):
            assert summed.label() == tail.shift(2.0).label() == "shift(2,pareto_negative(beta=1,theta=3))"
            for u in (1e-9, 0.3, 0.9):
                assert summed.quantile_lower(u) == tail.shift(2.0).quantile_lower(u)

    def test_pos_part_left_limit(self):
        base = ParetoNegative(1.0, 2.0).shift(3.0)
        ppart = base.pos_part()
        assert ppart.cdf_left(0.0) == 0.0
        assert ppart.cdf_left(1.0) == base.cdf_left(1.0) == 0.25

    def test_abs_cdf_below_zero(self):
        mixed = ParetoNegative(1.0, 2.0).shift(2.0).abs()
        assert (mixed.cdf(-1.0), mixed.cdf_left(-1.0), mixed.cdf_left(0.0)) == (0.0, 0.0, 0.0)

    def test_abs_mixed_support_bisection(self):
        mixed = ParetoNegative(1.0).shift(5.0).abs()
        for u in (0.2, 0.5, 0.8):
            q = mixed.quantile_lower(u)
            assert mixed.cdf(q) >= u
            assert mixed.cdf(q - 1e-9 * max(1.0, abs(q))) <= u + 1e-12


class TestComonotoneSum:
    def test_rank_merge(self):
        s = comonotone_sum(Discrete.from_samples([1, 2]), Discrete.from_samples([10, 20]))
        assert list(s.values) == [11.0, 22.0]
        assert list(s.probs) == [0.5, 0.5]

    def test_rank_merge_with_duplicates(self):
        s = comonotone_sum(Discrete.from_samples([1, 2, 3]), Discrete.from_samples([0, 0, 9]))
        assert list(s.values) == [1.0, 2.0, 12.0]

    def test_point_mass_is_shift(self):
        base = ParetoNegative(1.0)
        s = comonotone_sum(base, point_mass(3.0))
        for u in np.linspace(0.05, 0.95, 19):
            assert abs(s.quantile_lower(u) - (base.quantile_lower(u) + 3.0)) < 1e-12

    def test_quantiles_add(self):
        d1, d2 = ParetoNegative(1.0), ParetoPositive(1.0, 2.0)
        s = comonotone_sum(d1, d2)
        for u in np.linspace(0.05, 0.95, 19):
            assert abs(s.quantile_lower(u) - (d1.quantile_lower(u) + d2.quantile_lower(u))) < 1e-12

    def test_the_heavier_of_two_tails_decides(self):
        # theta 2 blows up faster than theta 3 at u = 0
        for d1, d2 in itertools.permutations((ParetoNegative(1.0, 2.0), ParetoNegative(1.0, 3.0))):
            assert comonotone_sum(d1, d2).tails() == (2.0, math.inf)


@st.composite
def discrete_dists(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    values = draw(
        st.lists(
            st.integers(min_value=-20, max_value=20), min_size=n, max_size=n, unique=True
        )
    )
    weights = draw(st.lists(st.integers(min_value=1, max_value=9), min_size=n, max_size=n))
    return Discrete.from_samples([float(v) for v in values], weights)


@given(dist=discrete_dists(), u=st.floats(min_value=0.001, max_value=0.999))
@settings(max_examples=120, deadline=None)
def test_galois_property_random(dist, u):
    x = dist.quantile_lower(u)
    assert u <= dist.cdf(x)
    assert dist.quantile_lower(u) <= dist.quantile_upper(u)


@given(dist=discrete_dists(), u1=st.floats(0.01, 0.99), u2=st.floats(0.01, 0.99))
@settings(max_examples=80, deadline=None)
def test_quantiles_increasing_random(dist, u1, u2):
    lo, hi = min(u1, u2), max(u1, u2)
    assert dist.quantile_lower(lo) <= dist.quantile_lower(hi)
    assert dist.quantile_upper(lo) <= dist.quantile_upper(hi)


@given(dist=discrete_dists(), a=st.floats(0.0, 5.0), c=st.floats(-10.0, 10.0), u=st.floats(0.01, 0.99))
@settings(max_examples=80, deadline=None)
def test_affine_quantile_laws_random(dist, a, c, u):
    scaled = dist.scale(a)
    shifted = dist.shift(c)
    assert abs(scaled.quantile_lower(u) - a * dist.quantile_lower(u)) < 1e-9
    assert abs(shifted.quantile_lower(u) - (dist.quantile_lower(u) + c)) < 1e-9


def bisection_level_cdf(dist, x, strict=False):
    """Measure of {u : q(u) <= x} (or < x when strict) by bisection on the summed quantile."""
    lo, hi = dist.support()
    if x < lo or (strict and x == lo):
        return 0.0
    if x > hi or (not strict and x == hi):
        return 1.0
    below = (lambda u: dist.quantile_lower(u) < x) if strict else (lambda u: dist.quantile_lower(u) <= x)
    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return lo
        if below(mid):
            lo = mid
        else:
            hi = mid


def bisection_abs_quantile(m, u, upper=False):
    """Least float x >= 0 with cdf(x) >= u (cdf_left(x) > u when upper), by bisection over [0, inf] in bit order."""
    holds = (lambda x: m.cdf_left(x) > u) if upper else (lambda x: m.cdf(x) >= u)
    if holds(0.0):
        return 0.0
    lo, hi = 0, struct.unpack("<q", struct.pack("<d", math.inf))[0]  # bit patterns: holds fails at lo, holds at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(struct.unpack("<d", struct.pack("<q", mid))[0]):
            hi = mid
        else:
            lo = mid
    return struct.unpack("<d", struct.pack("<q", hi))[0]


def small_stratified_normal(n, seed):
    from scipy.special import ndtri

    rng = np.random.default_rng(seed)
    return Discrete.from_samples(ndtri((np.arange(n) + rng.uniform(0.0, 1.0, n)) / n))


class TestComonotoneStepCdf:
    @pytest.mark.parametrize(
        "other",
        [ParetoNegative(1.0, 2.0), ParetoPositive(1.0, 1.5), ParetoPositive(2.0, 3.0).shift(-4.0)],
        ids=lambda d: d.label(),
    )
    def test_matches_bisection_to_the_rounding_of_x(self, other):
        # Both CDFs round differently (x - v_i against v_i + q(u)), so the
        # step CDF at x must lie between the bisection CDF 4 ulps of x either
        # side, within 1 ulp of the level.
        disc = small_stratified_normal(40, 5)
        for s in (comonotone_sum(disc, other), comonotone_sum(other, disc)):
            rng = np.random.default_rng(7)
            xs = list(rng.uniform(-12.0, 12.0, 60))
            xs += [s.quantile_lower(u) for u in rng.uniform(0.0, 1.0, 30)]
            xs += [s.quantile_upper(float(c)) for c in disc.cum[:-1:4]]
            for x in map(float, xs):
                d = 4.0 * math.ulp(x)
                for strict, f in ((False, s.cdf), (True, s.cdf_left)):
                    level = f(x)
                    assert bisection_level_cdf(s, x - d, strict) - math.ulp(level) <= level
                    assert level <= bisection_level_cdf(s, x + d, strict) + math.ulp(level)

    def test_flat_steps_sit_exactly_on_the_levels(self):
        disc = small_stratified_normal(40, 6)
        s = comonotone_sum(disc, ParetoNegative(1.0, 2.0))
        for c in disc.cum[:-1]:
            lo, hi = s.quantile_lower(float(c)), s.quantile_upper(float(c))
            assert lo < hi
            assert s.cdf(lo) == s.cdf(0.5 * (lo + hi)) == s.cdf_left(hi) == c

    @pytest.mark.parametrize("other", [ParetoNegative(1.0, 2.0), ParetoPositive(1.0, 1.5)], ids=lambda d: d.label())
    def test_quantile_steps_from_the_step_table_are_bitwise_the_generic_ones(self, other):
        from quantrisk.distributions import Distribution

        disc = small_stratified_normal(600, 8)
        for s in (comonotone_sum(disc, other), comonotone_sum(other, disc)):
            got, want = s.quantile_steps(), Distribution.quantile_steps(s)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("other", [
        ParetoNegative(1.0, 2.0), ParetoPositive(1.0, 1.5), ParetoNegative(1.0, 2.0).shift(2.0).abs(),
        small_stratified_normal(5, 2),
    ], ids=["pn", "pp", "abs", "discrete"])
    def test_the_local_cdf_of_a_stretch_is_bitwise_the_cdf(self, other):
        from quantrisk.distributions import ComonotoneSum

        disc = small_stratified_normal(40, 9)
        rng = np.random.default_rng(11)
        # a discrete second operand stays lazy only when the node is built directly
        for s in (ComonotoneSum(disc, other), ComonotoneSum(other, disc)):
            levels, lower, upper = s.quantile_steps()
            lo, hi = s.support()
            bounds, starts, ends = [0.0, *levels, 1.0], [lo, *upper], [*lower, hi]
            for i in np.flatnonzero(np.array(ends) > np.array(starts)).tolist():
                start, end = max(starts[i], -1e6), min(ends[i], 1e6)
                xs = [math.nextafter(start, end), math.nextafter(end, start), *rng.uniform(start, end, 5)]
                G, shift = s.local_cdf(float(bounds[i]), float(bounds[i + 1]))
                local = [min(max(G(x - shift), bounds[i]), bounds[i + 1]) for x in xs]
                assert [y.hex() for y in local] == [s.cdf(x).hex() for x in xs], i

    @pytest.mark.parametrize("other", [ParetoNegative(1.0, 2.0), ParetoPositive(1.0, 1.5)], ids=lambda d: d.label())
    def test_the_local_cdf_of_a_tiled_sum_is_one_object_shifted_by_the_atom(self, other):
        # an operand without breakpoints: every atom's stretch hands out its CDF, bound once, and the atom
        disc = small_stratified_normal(40, 9)
        s = comonotone_sum(disc, other)
        levels = [0.0, *s.quantile_steps()[0].tolist(), 1.0]
        pairs = [s.local_cdf(lo, hi) for lo, hi in zip(levels, levels[1:])]
        assert all(G is pairs[0][0] for G, _ in pairs)
        assert [shift for _, shift in pairs] == disc.values.tolist()

    def test_the_local_cdf_is_a_fresh_clipped_closure_where_the_operand_has_breakpoints(self):
        from quantrisk.distributions import ComonotoneSum

        s = ComonotoneSum(small_stratified_normal(40, 9), ParetoNegative(1.0, 2.0).shift(2.0).abs())
        levels = [0.0, *s.quantile_steps()[0].tolist(), 1.0]
        pairs = [s.local_cdf(lo, hi) for lo, hi in zip(levels, levels[1:])]
        assert len({id(G) for G, _ in pairs}) == len(pairs)
        assert all(shift == 0.0 for _, shift in pairs)

    def test_the_local_cdf_is_the_cdf_without_a_step_table(self):
        for dist in (ParetoNegative(1.0, 2.0), comonotone_sum(ParetoNegative(1.0, 3.0), ParetoPositive(1.0, 3.0))):
            G, shift = dist.local_cdf(0.25, 0.5)
            assert G == dist.cdf and shift.hex() == (0.0).hex()

    def test_quantile_steps_fall_back_when_the_other_operand_has_breakpoints(self):
        from quantrisk.distributions import ComonotoneSum, Distribution

        # two discretes kept lazy: the second operand's levels are breakpoints too
        s = ComonotoneSum(small_stratified_normal(7, 1), small_stratified_normal(5, 2))
        got, want = s.quantile_steps(), Distribution.quantile_steps(s)
        assert len(got[0]) == 10
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()


def counted(node, method, arg, inner):
    """(node.method(arg), calls the lazy node makes of its own methods named in inner meanwhile).

    A lazy sum inverts its summed quantile (``_summed``) for a CDF;
    |X| searches its own ``cdf`` and ``cdf_left`` for a quantile.
    """
    calls = 0

    def counting(f):
        def call(*args):
            nonlocal calls
            calls += 1
            return f(*args)

        return call

    for name in inner:
        setattr(node, name, counting(getattr(node, name)))
    try:
        return getattr(node, method)(arg), calls
    finally:
        for name in inner:
            delattr(node, name)


def counted_cdf(s, x, strict=False):
    """(cdf(x), or cdf_left(x) when strict, of the lazy sum s; calls of its summed quantile by the search).

    The level table is built first, so its calls are not counted.
    """
    s._table
    return counted(s, "cdf_left" if strict else "cdf", x, ("_summed",))


def assert_bisection_cdfs(s, x):
    """Both CDFs of s at x are bitwise the bisection ones, within 100 summed-quantile calls each."""
    for strict in (False, True):
        level, calls = counted_cdf(s, x, strict)
        want = bisection_level_cdf(s, x, strict)
        assert level.hex() == want.hex(), (x, strict, level, want)
        assert calls <= 100


COMO_TAILS = comonotone_sum(ParetoNegative(1.0, 3.0), ParetoPositive(1.0, 3.0))
# pos_part(shift(c, .)) has an atom at 0, so the summed quantile is 0, flat,
# on the levels below the smaller split
FLAT_START = comonotone_sum(
    ParetoNegative(1.0, 2.0).shift(1.5).pos_part(), ParetoNegative(1.0, 3.0).shift(1.2).pos_part()
)


class TestLevelInversion:
    @pytest.mark.parametrize("x", [-1e20, -1e30, -1e300])
    @pytest.mark.parametrize(
        "s", [COMO_TAILS, comonotone_sum(ParetoNegative(1.0, 1.0), ParetoPositive(2.0, 0.8))], ids=lambda s: s.label()
    )
    def test_deep_tail_levels_are_not_truncated(self, s, x):
        # a 200-step bisection stopped at 2**-200: cdf(-1e20) was 2**-200 and
        # cdf(-1e30) was 0.0 on the first sum, though q(1e-91) <= -1e30
        assert_bisection_cdfs(s, x)

    def test_no_level_passes_against_nan(self):
        assert_bisection_cdfs(COMO_TAILS, math.nan)

    def test_deep_tail_level_keeps_the_galois_relation(self):
        level = COMO_TAILS.cdf(-1e30)
        assert 0.0 < level < 1e-89
        assert COMO_TAILS.quantile_lower(level) <= -1e30 < COMO_TAILS.quantile_lower(math.nextafter(level, 1.0))

    @pytest.mark.parametrize("x", [0.0, 1e-300, 5e-324, 0.25])
    def test_flat_start_of_the_summed_quantile(self, x):
        # q == 0 on (0, 4/9]: a falsi step placed by q - x alone stalls there
        assert_bisection_cdfs(FLAT_START, x)
        # the table keeps q's ties there: its check asks for order, not a strict rise
        assert FLAT_START._table[0] == FLAT_START._table[1] == 0.0
        if x < 0.25:
            assert FLAT_START.cdf(x) == 0.4444444444444445

    def test_summed_quantile_calls_per_cdf_call(self):
        # bisection makes about 54 calls at each of these levels; a search from (0, 1)
        # made 14.05 on average and 22 at most, one from the table's bracket 8.0 and 12
        xs = [COMO_TAILS.quantile_lower((k + 0.5) / 500) for k in range(500)]
        for strict in (False, True):
            counts = [counted_cdf(COMO_TAILS, x, strict)[1] for x in xs]
            assert sum(counts) / len(counts) <= 9
            assert max(counts) <= 14

    def test_the_table_levels_rise_through_their_three_families(self):
        levels = qd._TABLE_LEVELS
        assert all(map(operator.lt, levels, levels[1:]))
        assert set(levels) == (
            {2.0**-k for k in range(1, 1075)} | {1.0 - 2.0**-k for k in range(1, 54)} | {i / 1024 for i in range(1, 1024)}
        )

    def test_the_first_cdf_call_builds_the_level_table_once(self):
        s = comonotone_sum(ParetoNegative(1.0, 3.0), ParetoPositive(1.0, 3.0))
        first, calls = counted(s, "cdf", 0.25, ("_summed",))
        level, later = counted_cdf(s, 0.25)
        assert calls == len(qd._TABLE_LEVELS) + later
        assert first == level
        assert s._table == tuple(map(s.quantile_lower, qd._TABLE_LEVELS))

    def test_a_table_out_of_order_falls_back_to_the_whole_level_range(self, monkeypatch):
        s = comonotone_sum(ParetoNegative(1.0, 3.0), ParetoPositive(1.0, 3.0))
        summed = s._summed
        monkeypatch.setattr(s, "_summed", lambda u: math.nan if u == 0.25 else summed(u))
        assert s._table == ()
        monkeypatch.undo()
        # the last x is q at the float below 1: there the search from (0, 1) meets a split that rounds onto an end
        for x in (-1e30, -2.0, 0.0, 0.3, 5.0, s.quantile_lower(1.0 - 2.0**-53)):
            for strict in (False, True):
                level, calls = counted_cdf(s, x, strict)
                assert level.hex() == bisection_level_cdf(s, x, strict).hex()
                # the same steps as a search from (0, 1) with no table
                steps = []
                assert qd._invert_level(lambda u: steps.append(u) or summed(u), x, (), strict) == level
                assert calls == len(steps)


@st.composite
def lazy_sums(draw):
    """Two non-discrete operands: shifted Pareto laws, or positive parts with an atom at 0."""
    theta = st.floats(min_value=0.5, max_value=4.0)
    if draw(st.booleans()):
        kinds = (ParetoNegative, ParetoPositive)
        return comonotone_sum(*(
            draw(st.sampled_from(kinds))(draw(st.floats(0.5, 3.0)), draw(theta)).shift(draw(st.floats(-5.0, 5.0)))
            for _ in range(2)
        ))
    return comonotone_sum(*(
        ParetoNegative(1.0, draw(theta)).shift(draw(st.floats(1.05, 5.0))).pos_part() for _ in range(2)
    ))


def nudged(x, k):
    """x moved k in {-1, 0, 1} floats."""
    return x if k == 0 else math.nextafter(x, math.copysign(math.inf, k))


def level_points(s):
    """x at or next to q(u) at a drawn level u or a table level, past the table's ends, extreme or moderate."""
    levels = st.one_of(
        st.floats(1e-300, 1.0, exclude_max=True), st.sampled_from([1e-300, 1e-30, 0.5, 1.0 - 2.0**-53])
    )
    first, last = s.quantile_lower(qd._TABLE_LEVELS[0]), s.quantile_lower(qd._TABLE_LEVELS[-1])
    beyond = [x for x in (first - abs(first) - 1.0, last + abs(last) + 1.0) if math.isfinite(x)]
    return st.one_of(
        st.builds(lambda u, k: nudged(s.quantile_lower(u), k), levels, st.integers(-1, 1)).filter(math.isfinite),
        # at, or a float off, the summed quantile at a level of the table, and beyond its ends
        st.builds(lambda u, k: nudged(s.quantile_lower(u), k), st.sampled_from(qd._TABLE_LEVELS),
                  st.integers(-1, 1)).filter(math.isfinite),
        st.sampled_from(beyond),
        st.sampled_from([0.0, 1e-300, -1e-300, 5e-324, -1e300, 1e300]),
        st.floats(-1e3, 1e3),
    )


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_lazy_sum_cdfs_are_bitwise_the_bisection_ones(data):
    s = data.draw(lazy_sums())
    assert_bisection_cdfs(s, data.draw(level_points(s)))


def abs_bases():
    """Non-discrete bases straddling zero: shifted power tails and comonotone sums."""
    theta = st.floats(min_value=0.5, max_value=4.0)
    shift = st.floats(min_value=1.5, max_value=10.0)
    pareto = st.builds(lambda t, c: ParetoNegative(1.0, t).shift(c), theta, shift)
    tails = st.builds(
        lambda t1, t2, c: comonotone_sum(ParetoNegative(1.0, t1), ParetoPositive(1.0, t2)).shift(c),
        theta, theta, st.floats(min_value=-3.0, max_value=3.0),
    )
    with_atoms = st.builds(
        lambda t, c, seed: comonotone_sum(small_stratified_normal(12, seed), ParetoNegative(1.0, t)).shift(c),
        theta, shift, st.integers(min_value=0, max_value=1000),
    )
    return st.one_of(pareto, tails, with_atoms)


@given(base=abs_bases(), u=st.one_of(st.floats(1e-9, 1.0 - 1e-9), st.sampled_from([1e-12, 0.5, 1.0 - 1e-12])))
@settings(max_examples=120, deadline=None)
def test_abs_quantiles_satisfy_the_float_galois_relation(base, u):
    # q(u) <= x  <=>  u <= cdf(x) for every float x, and the upper quantile
    # is the least float where cdf_left exceeds u (inf if none does); the
    # CDF is monotone, so checking q and the float below it covers every x
    m = base.abs()
    q, qu = m.quantile_lower(u), m.quantile_upper(u)
    assert m.cdf(q) >= u
    assert q == 0.0 or m.cdf(math.nextafter(q, 0.0)) < u
    assert qu == math.inf or m.cdf_left(qu) > u
    assert m.cdf_left(math.nextafter(qu, 0.0)) <= u
    assert q <= qu
    assert q.hex() == bisection_abs_quantile(m, u).hex()
    assert qu.hex() == bisection_abs_quantile(m, u, upper=True).hex()


def test_abs_upper_quantile_where_cdf_left_never_exceeds_the_level():
    # in floats cdf_left stays at the last level below 1 up to x = inf, so
    # no finite float qualifies; the search must end at inf
    m = comonotone_sum(ParetoNegative(1.0, 3.9), ParetoPositive(1.0, 1.8)).shift(0.04).abs()
    u = math.nextafter(1.0, 0.0)
    assert m.quantile_upper(u) == math.inf
    assert m.cdf(m.quantile_lower(u)) >= u


ABS_INPUTS = {
    "abs_shift2": ParetoNegative(1.0, 2.0).shift(2.0).abs(),
    "abs_shift5": ParetoNegative(1.0, 3.0).shift(5.0).abs(),
    "abs_como_tails": COMO_TAILS.abs(),
}
# uniform levels, decimal and dyadic tails on both sides, and the float below 1
ABS_LEVELS = sorted(
    {(k + 0.5) / 500 for k in range(500)}
    | {t for k in range(1, 16) for t in (10.0**-k, 1.0 - 10.0**-k)}
    | {t for k in range(1, 54) for t in (2.0**-k, 1.0 - 2.0**-k)}
    | {t for j in range(2, 301, 2) for t in (10.0 ** (-j / 20), 1.0 - 10.0 ** (-j / 20))}
    | {math.nextafter(1.0, 0.0)}
)


class TestAbsQuantileSearch:
    @pytest.mark.parametrize("name", ABS_INPUTS)
    def test_quantiles_are_bitwise_the_bisection_ones(self, name):
        m = ABS_INPUTS[name]
        assert len(ABS_LEVELS) >= 900
        for u in ABS_LEVELS:
            assert m.quantile_lower(u).hex() == bisection_abs_quantile(m, u).hex(), u
            assert m.quantile_upper(u).hex() == bisection_abs_quantile(m, u, upper=True).hex(), u

    @pytest.mark.parametrize("name", ABS_INPUTS)
    @pytest.mark.parametrize("method", ["quantile_lower", "quantile_upper"])
    @pytest.mark.parametrize("u", [1e-12, 1e-6, 1.0 - 1e-9, 1.0 - 1e-15])
    def test_cdf_calls_at_deep_levels(self, name, method, u):
        # where s + u rounds coarsely: the estimate must use the float levels the CDF rounds to
        assert counted(ABS_INPUTS[name], method, u, ("cdf", "cdf_left"))[1] <= 20

    @pytest.mark.parametrize("name", ABS_INPUTS)
    @pytest.mark.parametrize("method", ["quantile_lower", "quantile_upper"])
    def test_cdf_calls_at_uniform_levels(self, name, method):
        counts = [counted(ABS_INPUTS[name], method, (k + 0.5) / 500, ("cdf", "cdf_left"))[1] for k in range(500)]
        assert sum(counts) / len(counts) <= 5


def test_abs_quantile_inside_an_atom_at_0_that_only_the_cdf_sees():
    # the base's atom at 1.1 lands on 1.1 * 7 - 7.7 = 8.9e-16 in the quantile, but the CDF
    # at 0 is the base's at 7.7 / 7 = 1.1: the window's estimate is 8.9e-16, the answer 0
    base = comonotone_sum(Discrete.from_samples([0.0, 1.1]), ParetoPositive(1.0, 2.0).shift(-3.0).pos_part())
    moved = base.scale(7.0).shift(-7.7)
    assert moved.quantile_lower(0.6) == 2.0**-50
    mixed = moved.abs()
    assert mixed.cdf(0.0) == base.cdf(1.1) - base.cdf_left(1.1) >= 0.3
    for u in (1e-10, 0.1, 0.3):
        assert mixed.quantile_lower(u) == 0.0


def test_abs_left_cdf_of_an_atom_at_0_stays_a_cdf():
    # the shift takes the base's CDF at 1 + x and 1 - x, one float for x below 2**-53,
    # where F(x-) - F(-x) is minus the atom of |X| at 0 before the clamp
    mixed = comonotone_sum(
        Discrete.from_samples([0.0, 1.0]), ParetoPositive(1.0, 2.0).shift(-3.0).pos_part()
    ).shift(-1.0).abs()
    assert mixed.cdf(0.0) > 0.38
    values = [mixed.cdf_left(x) for x in (1e-300, 2.0**-60, 2.0**-54, 2.0**-53, 2.0**-52, 1e-10, 0.5)]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert values == sorted(values)


class TestAbsQuantileIntegral:
    @staticmethod
    def nested_quad(m, a, b):
        """The former quadrature of the bisected quantile, told where the quantile kinks."""
        from scipy.integrate import quad

        kinks = [t for t in m.quantile_breakpoints() if a < t < b]
        val, _ = quad(m.quantile_lower, a, b, points=kinks or None, limit=200, epsabs=1e-12, epsrel=1e-12)
        return val

    @pytest.mark.parametrize(
        "base",
        [
            ParetoNegative(1.0, 2.0).shift(2.0),
            ParetoNegative(1.0, 3.0).shift(5.0),
            ParetoNegative(1.0, 0.5).shift(2.0),
            comonotone_sum(ParetoNegative(1.0, 3.0), ParetoPositive(1.0, 3.0)),
        ],
        ids=lambda d: d.label(),
    )
    def test_closed_form_matches_nested_quadrature(self, base):
        m = base.abs()
        ranges = [(0.0, 0.5), (0.1, 0.9), (0.3, 0.31), (0.6, 0.99), (0.2, 0.2)]
        if base.tails()[0] > 1.0:  # finite mean: the upper end may be 1
            ranges += [(0.0, 1.0), (0.25, 1.0), (0.99, 1.0)]
        for a, b in ranges:
            assert abs(m.quantile_integral(a, b) - self.nested_quad(m, a, b)) < 1e-10

    def test_divergent_tail_is_infinite_and_never_nan(self):
        m = ParetoNegative(1.0, 0.5).shift(2.0).abs()
        assert m.quantile_integral(0.3, 1.0) == math.inf
        assert m.mean() == math.inf
        assert math.isfinite(m.quantile_integral(0.3, 1.0 - 1e-9))

    def test_breakpoint_where_the_upper_side_runs_out(self):
        # shift(5, pareto_negative) lives on (-inf, 4]: beyond |X| = 4 only
        # the left tail counts, so the quantile of |X| kinks at G(4)
        m = ParetoNegative(1.0, 3.0).shift(5.0).abs()
        assert m.quantile_breakpoints() == (m.cdf(4.0),)
        assert abs(m.cdf(4.0) - (1.0 - 9.0**-3)) < 1e-15


class TestLabels:
    def test_discrete_reprs(self):
        assert repr(Discrete([-1.0, 2.5], [0.25, 0.75])) == "Discrete([(-1, 0.25), (2.5, 0.75)])"
        assert repr(Discrete.from_samples(np.arange(7.0))) == "Discrete(n=7)"

    def test_pareto_reprs(self):
        assert repr(ParetoNegative(2.0, 3.0)) == "ParetoNegative(beta=2.0, theta=3.0)"
        assert repr(ParetoPositive(2.0, 3.0)) == "ParetoPositive(beta=2.0, theta=3.0)"

    def test_lazy_node_labels(self):
        tail = ParetoNegative(1.0, 2.0)
        assert tail.scale(2.0).label() == "scale(2,pareto_negative(beta=1,theta=2))"
        assert tail.shift(3.0).pos_part().label() == "pos_part(shift(3,pareto_negative(beta=1,theta=2)))"
        assert tail.shift(3.0).abs().label() == "abs(shift(3,pareto_negative(beta=1,theta=2)))"

    def test_a_distribution_defined_outside_labels_itself_by_its_repr(self):
        class Outside(qd.Distribution):
            def __repr__(self):
                return "Outside()"

        assert Outside().label() == "Outside()"
