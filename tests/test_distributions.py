"""Distribution algebra: quantiles against brute-force oracles, transform laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantrisk.distributions import (
    Abs,
    Discrete,
    NegPart,
    ParetoNegative,
    ParetoPositive,
    PosPart,
    Scale,
    Shift,
    comonotone_sum,
    point_mass,
    transform,
)
from quantrisk.errors import ParameterError


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


class TestGaloisProperty:
    # the coupling inf{x : F(x) >= u} <= x  <=>  u <= F(x)
    dists = [
        Discrete.from_samples([1, 2, 3, 4]),
        Discrete.from_samples([-2, -1, 1, 5]),
        ParetoNegative(1.0),
        ParetoPositive(1.0, 2.0),
        transform(ParetoNegative(1.0), Shift(5.0)),
        transform(Discrete.from_samples([-2, 5]), PosPart()),
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
        d = transform(Discrete.from_samples([1, 2]), Shift(3.0))
        assert d.quantile_lower(0.7) == 5.0

    def test_pos_part(self):
        d = transform(Discrete.from_samples([-2, 5]), PosPart())
        assert d.quantile_lower(0.9) == 5.0
        assert d.quantile_lower(0.3) == 0.0

    def test_scale_zero_degenerate(self):
        d = transform(Discrete.from_samples([1, 2, 3]), Scale(0.0))
        for u in (0.1, 0.5, 0.9):
            assert d.quantile_lower(u) == 0.0

    def test_scale_negative_rejected(self):
        with pytest.raises(ParameterError):
            transform(point_mass(1.0), Scale(-1.0))

    def test_pos_part_law_on_grid(self):
        base = Discrete.from_samples([-3, -1, 0, 2, 4])
        clipped = transform(base, PosPart())
        for u in np.linspace(0.01, 0.99, 49):
            assert clipped.quantile_lower(u) == max(base.quantile_lower(u), 0.0)

    def test_scale_shift_commute(self):
        base = Discrete.from_samples([-1, 0, 2])
        a, c = 2.5, -3.0
        left = transform(transform(base, Scale(a)), Shift(a * c))
        right = transform(transform(base, Shift(c)), Scale(a))
        for u in np.linspace(0.05, 0.95, 19):
            assert abs(left.quantile_lower(u) - right.quantile_lower(u)) < 1e-12

    def test_abs_cdf_consistency_discrete(self):
        base = Discrete.from_samples([-3, -1, 0, 2, 5])
        ad = transform(base, Abs())
        for x in [0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0]:
            assert abs(ad.cdf(x) - (base.cdf(x) - base.cdf_left(-x))) < 1e-15

    def test_abs_of_negative_pareto_is_positive_pareto(self):
        left = transform(ParetoNegative(1.5, 2.0), Abs())
        right = ParetoPositive(1.5, 2.0)
        for u in np.linspace(0.05, 0.95, 19):
            assert abs(left.quantile_lower(u) - right.quantile_lower(u)) < 1e-12

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
        npart = transform(base, NegPart())
        assert list(npart.values) == [0.0, 2.0]
        assert list(npart.probs) == [0.5, 0.5]

    def test_abs_mixed_support_bisection(self):
        mixed = transform(transform(ParetoNegative(1.0), Shift(5.0)), Abs())
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
    scaled = transform(dist, Scale(a))
    shifted = transform(dist, Shift(c))
    assert abs(scaled.quantile_lower(u) - a * dist.quantile_lower(u)) < 1e-9
    assert abs(shifted.quantile_lower(u) - (dist.quantile_lower(u) + c)) < 1e-9
