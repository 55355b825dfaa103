"""Joint tables, the explicit counterexample, and the randomized search."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantrisk.distortions import make_named
from quantrisk.distributions import Discrete, point_mass
from quantrisk.errors import NoCounterexampleError, ParameterError
from quantrisk.riskmeasures import quantile_risk
from quantrisk.subadditivity import (
    JointTable,
    build_counterexample,
    comonotone_additivity_check,
    subadditivity_search,
)
from quantrisk.subadditivity import _stieltjes_batch, _trial_pack


class TestJointTable:
    def setup_method(self):
        self.table = JointTable(
            x_values=[-1.25, 0.0],
            y_values=[-1.25, -1.125, 0.0],
            probs=[[0.25, 0.0, 0.25], [0.0, 0.25, 0.25]],
        )

    def test_marginals(self):
        mx = self.table.marginal_x()
        assert list(mx.values) == [-1.25, 0.0]
        assert list(mx.probs) == [0.5, 0.5]
        my = self.table.marginal_y()
        assert list(my.values) == [-1.25, -1.125, 0.0]
        assert list(my.probs) == [0.25, 0.25, 0.5]

    def test_sum_distribution_exact_atoms(self):
        s = self.table.sum_distribution()
        assert list(s.values) == [-2.5, -1.25, -1.125, 0.0]
        assert list(s.probs) == [0.25, 0.25, 0.25, 0.25]

    def test_cdf_of_counterexample_sum(self):
        # the row of cumulative sums reaches u at the second atom
        s = self.table.sum_distribution()
        assert s.cdf(-1.25) == 0.5

    def test_validation(self):
        with pytest.raises(ParameterError):
            JointTable([0.0, 1.0], [0.0], [[0.5], [0.4]])
        with pytest.raises(ParameterError):
            JointTable([1.0, 0.0], [0.0], [[0.5], [0.5]])
        with pytest.raises(ParameterError):
            JointTable([0.0], [0.0, 1.0], [[0.7, -0.3]])

    @pytest.mark.parametrize(
        "x_values, y_values, probs",
        [
            ([0.0, 1.0], [0.0, 1.0], [[np.nan, 0.5], [0.25, 0.25]]),
            ([0.0, 1.0], [0.0, 1.0], [[np.inf, 0.5], [0.25, 0.25]]),
            ([0.0, np.nan], [0.0, 1.0], [[0.25, 0.25], [0.25, 0.25]]),
            ([0.0, 1.0], [-np.inf, 1.0], [[0.25, 0.25], [0.25, 0.25]]),
        ],
    )
    def test_non_finite_entries_rejected(self, x_values, y_values, probs):
        with pytest.raises(ParameterError):
            JointTable(x_values, y_values, probs)


class TestCounterexample:
    def test_var_pinned_values(self):
        rep = build_counterexample(make_named("var", alpha=0.5), a=1.0)
        assert (rep.u, rep.eps) == (0.5, 0.25)
        assert abs(rep.risk_x + 1.25) < 1e-12
        assert abs(rep.risk_y + 1.125) < 1e-12
        assert abs(rep.risk_sum + 1.25) < 1e-12
        assert abs(rep.gap - 1.125) < 1e-12
        assert abs(rep.risk_x + rep.risk_y + 2.375) < 1e-12
        assert rep.risk_sum > rep.risk_x + rep.risk_y

    def test_gap_matches_identity(self):
        for name, params in (
            ("var", {"alpha": 0.25}),
            ("var", {"alpha": 0.5}),
            ("var", {"alpha": 0.75}),
            ("threshold", {"delta": 0.25}),
            ("threshold", {"delta": 0.5}),
            ("sqrt_example", {}),
        ):
            D = make_named(name, **params)
            rep = build_counterexample(D)
            assert rep.gap > 0
            assert abs(rep.gap - rep.predicted_gap) <= 1e-10

    def test_gap_scales_affinely(self):
        D = make_named("var", alpha=0.5)
        g1 = build_counterexample(D, a=1.0).gap
        g10 = build_counterexample(D, a=10.0).gap
        # gap = (a + eps/2) * violation; eps = 0.25, violation = 1
        assert abs(g1 - 1.125) < 1e-12
        assert abs(g10 - 10.125) < 1e-12

    def test_risks_recomputable_from_table(self):
        D = make_named("threshold", delta=0.5)
        rep = build_counterexample(D)
        assert abs(quantile_risk(rep.table.marginal_x(), D).as_float() - rep.risk_x) < 1e-12
        assert abs(quantile_risk(rep.table.sum_distribution(), D).as_float() - rep.risk_sum) < 1e-12

    def test_convex_raises(self):
        with pytest.raises(NoCounterexampleError):
            build_counterexample(make_named("es", alpha=0.3))

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            build_counterexample(make_named("var", alpha=0.5), a=0.0)


class TestSearch:
    def test_convex_families_clean(self):
        for D in (
            make_named("es", alpha=0.5),
            make_named("es_n", n=3, alpha=0.25),
            make_named("expectation"),
        ):
            assert subadditivity_search(D, trials=3000, seed=42) is None

    def test_var_finds_violation(self):
        found = subadditivity_search(make_named("var", alpha=0.5), trials=1000, seed=42)
        assert found is not None
        assert found.gap >= 1.125 - 1e-12  # at least the constructed counterexample

    def test_constructed_trial_included_even_without_random_hits(self):
        found = subadditivity_search(make_named("var", alpha=0.5), trials=0, seed=0)
        assert found is not None and found.trial == -1
        assert abs(found.gap - 1.125) < 1e-12

    def test_found_violation_is_recomputable(self):
        D = make_named("var", alpha=0.5)
        found = subadditivity_search(D, trials=500, seed=7)
        t = found.table
        gap = (
            quantile_risk(t.sum_distribution(), D).as_float()
            - quantile_risk(t.marginal_x(), D).as_float()
            - quantile_risk(t.marginal_y(), D).as_float()
        )
        assert abs(gap - found.gap) < 1e-12

    def test_deterministic_under_seed(self):
        a = subadditivity_search(make_named("var", alpha=0.25), trials=400, seed=9)
        b = subadditivity_search(make_named("var", alpha=0.25), trials=400, seed=9)
        assert a.gap == b.gap and a.trial == b.trial

    def test_expectation_is_additive_on_all_trials(self):
        pack = _trial_pack(2000, 21)
        D = make_named("expectation")
        rho = {role: _stieltjes_batch(D, *pack.roles[role]) for role in ("x", "y", "s")}
        gaps = rho["s"] - rho["x"] - rho["y"]
        assert float(np.max(np.abs(gaps))) <= 1e-10

    def test_batch_matches_public_path(self):
        pack = _trial_pack(60, 5)
        D = make_named("es", alpha=0.25)
        batch = _stieltjes_batch(D, *pack.roles["s"])
        for i in (0, 17, 59):
            xv, yv, w, total = pack.tables[i]
            table = JointTable(xv, yv, w / total)
            direct = quantile_risk(table.sum_distribution(), D).as_float()
            assert abs(batch[i] - direct) < 1e-12


def _pack_digest(pack) -> str:
    """sha256 over dtype and bytes of every role array and every table entry."""
    h = hashlib.sha256()
    arrays = [a for role in ("x", "y", "s") for a in pack.roles[role]]
    arrays += [np.asarray(item) for i in range(len(pack.tables)) for item in pack.tables[i]]
    for a in arrays:
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    return h.hexdigest()


class TestTrialPack:
    # Recorded from the per-trial np.unique/np.add.at implementation; the flat
    # bincount build must reproduce it bit for bit.
    DIGESTS = {
        (2000, 21): "075fc12d3f979a3c645430b18c26c1450f138edfdf66d2d241b5d27cf073be6c",
        (60, 5): "37536e950a23f49fad901cf98c9f49058584e99a35146e727c93e91e8a9fab6a",
        (1, 0): "ffac9401a394dbe48b2817c4c4d30390faa9065e80c9013b99d1e085f03b047f",
    }
    # worst gap (float.hex) and its trial index at trials=1000, seed=2008
    SEARCH = {
        ("var", 0.25): ("0x1.c000000000000p+3", 406),
        ("var", 0.5): ("0x1.c000000000000p+3", 682),
        ("var", 0.75): ("0x1.8000000000000p+2", 485),
        ("threshold", 0.25): ("0x1.adb6db6db6db7p+3", 406),
        ("threshold", 0.5): ("0x1.6444444444445p+3", 682),
        ("threshold", 0.75): ("0x1.b6db6db6db6dcp+1", 660),
    }

    @pytest.mark.parametrize("trials, seed", sorted(DIGESTS))
    def test_pinned_digest(self, trials, seed):
        assert _pack_digest(_trial_pack(trials, seed)) == self.DIGESTS[trials, seed]

    @pytest.mark.parametrize("kind, level", sorted(SEARCH))
    def test_pinned_search(self, kind, level):
        param = "alpha" if kind == "var" else "delta"
        found = subadditivity_search(make_named(kind, **{param: level}), trials=1000, seed=2008)
        assert (found.gap.hex(), found.trial) == self.SEARCH[kind, level]

    def test_invariants(self):
        pack = _trial_pack(2000, 21)
        for role in ("x", "y", "s"):
            values, levels, starts = pack.roles[role]
            assert len(starts) == 2000 and starts[0] == 0
            ends = np.append(starts[1:], len(values))
            assert np.all(ends > starts)
            for lo, hi in zip(starts, ends):
                assert np.all(np.diff(values[lo:hi]) > 0)
                assert np.all(np.diff(levels[lo:hi]) > 0)
            assert np.all(levels[ends - 1] == 1.0)

    def test_tables_match_roles(self):
        pack = _trial_pack(60, 5)
        assert len(pack.tables) == 60
        for i in (0, 31, -1):
            xv, yv, w, total = pack.tables[i]
            assert isinstance(total, float) and total == w.sum() > 0
            assert w.shape == (len(xv), len(yv)) and w.flags.c_contiguous
            values, levels, starts = pack.roles["x"]
            lo = starts[i]
            mass = w.sum(axis=1)
            assert np.array_equal(values[lo : lo + np.count_nonzero(mass)], xv[mass > 0])
        with pytest.raises(IndexError):
            pack.tables[60]

    def test_prefix_of_a_longer_pack(self):
        short, long = _trial_pack(300, 11), _trial_pack(1000, 11)
        for i in range(300):
            for a, b in zip(short.tables[i], long.tables[i]):
                assert np.array_equal(a, b)
        for role in ("x", "y", "s"):
            values, levels, starts = short.roles[role]
            n = len(values)
            assert np.array_equal(values, long.roles[role][0][:n])
            assert np.array_equal(levels, long.roles[role][1][:n])
            assert np.array_equal(starts, long.roles[role][2][:300])

    @pytest.mark.parametrize(
        "kwargs", [{"trials": 2.5}, {"trials": True}, {"trials": -1}, {"seed": -1}, {"seed": 1.0}]
    )
    def test_search_arguments_are_non_negative_integers(self, kwargs):
        with pytest.raises(ParameterError, match="non-negative integer"):
            subadditivity_search(make_named("es", alpha=0.5), **{"trials": 10, **kwargs})


class TestComonotoneAdditivity:
    def test_point_mass_reduces_to_translation(self):
        rep = comonotone_additivity_check(
            make_named("sqrt_example"), Discrete.from_samples([1, 5, 9]), point_mass(4.0)
        )
        assert rep.additive

    def test_var_exact(self):
        rep = comonotone_additivity_check(
            make_named("var", alpha=0.3),
            Discrete.from_samples([1, 2, 7]),
            Discrete.from_samples([-4, 0, 3]),
        )
        assert rep.deviation == 0.0

    def test_es_pair(self):
        rep = comonotone_additivity_check(
            make_named("es", alpha=0.5),
            Discrete.from_samples([1, 2]),
            Discrete.from_samples([10, 20]),
        )
        # top-half average of the summed atoms {11, 22}
        assert rep.additive and abs(rep.risk_sum - 22.0) < 1e-12


@st.composite
def joint_tables(draw):
    m = draw(st.integers(1, 5))
    k = draw(st.integers(1, 5))
    xv = sorted(draw(st.lists(st.integers(-10, 10), min_size=m, max_size=m, unique=True)))
    yv = sorted(draw(st.lists(st.integers(-10, 10), min_size=k, max_size=k, unique=True)))
    w = np.array(
        draw(st.lists(st.integers(0, 4), min_size=m * k, max_size=m * k)), dtype=float
    ).reshape(m, k)
    if not w.any():
        w[0, 0] = 1.0
    return JointTable([float(v) for v in xv], [float(v) for v in yv], w / w.sum())


@given(table=joint_tables())
@settings(max_examples=60, deadline=None)
def test_convex_subadditive_on_random_tables(table):
    D = make_named("es", alpha=0.5)
    rs = quantile_risk(table.sum_distribution(), D).as_float()
    r1 = quantile_risk(table.marginal_x(), D).as_float()
    r2 = quantile_risk(table.marginal_y(), D).as_float()
    assert rs <= r1 + r2 + 1e-9


@given(table=joint_tables())
@settings(max_examples=60, deadline=None)
def test_expectation_additive_on_random_tables(table):
    D = make_named("expectation")
    rs = quantile_risk(table.sum_distribution(), D).as_float()
    r1 = quantile_risk(table.marginal_x(), D).as_float()
    r2 = quantile_risk(table.marginal_y(), D).as_float()
    assert abs(rs - r1 - r2) <= 1e-10
