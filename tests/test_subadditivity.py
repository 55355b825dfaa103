"""Joint tables, the explicit counterexample, and the randomized search.

The seeded pins of the trial pack are recorded from a slow per-trial
reference of its block scheme, kept below.  To print them again after an
intended change of the scheme (change the reference first):

    PYTHONPATH=src python tests/test_subadditivity.py --record
"""

import hashlib
import re
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantrisk.distortions import Distortion, is_convex, make_named
from quantrisk.distributions import Discrete, point_mass
from quantrisk.errors import NoCounterexampleError, ParameterError
from quantrisk.riskmeasures import quantile_risk
from quantrisk import subadditivity
from quantrisk.subadditivity import (
    SEARCH_SLACK,
    JointTable,
    build_counterexample,
    comonotone_additivity_check,
    subadditivity_search,
)
from quantrisk.subadditivity import _stieltjes_batch, _trial_pack
from test_piecewise_properties import piecewise_distortions


class TestJointTable:
    def setup_method(self):
        self.table = JointTable(
            x_values=[-1.25, 0.0],
            y_values=[-1.25, -1.125, 0.0],
            probs=[[0.25, 0.0, 0.25], [0.0, 0.25, 0.25]],
        )

    def test_shape_must_match_the_grids(self):
        with pytest.raises(ParameterError, match="probability matrix shape must match the value grids"):
            JointTable(x_values=[0.0, 1.0], y_values=[0.0], probs=[[0.5, 0.5]])

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

    @pytest.mark.parametrize("a", [1e16, float("inf")])
    def test_a_too_large_for_the_witness_is_refused(self, a):
        message = f"a = {a!r} is too large for the witness eps = 0.25"
        with pytest.raises(ParameterError, match=re.escape(message)):
            build_counterexample(make_named("var", alpha=0.5), a=a)

    def test_a_sliver_loss_rounded_to_a_keeps_the_identity(self):
        # 2**50 + 0.125 rounds to 2**50 and 2**50 + 0.25 is exact: the grid stays strictly increasing
        rep = build_counterexample(make_named("var", alpha=0.5), a=2.0**50)
        assert rep.gap == rep.predicted_gap > 0


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
        rho = {
            role: _stieltjes_batch(D.eval(levels), values, starts)
            for role, (values, levels, starts) in pack.roles.items()
        }
        gaps = rho["s"] - rho["x"] - rho["y"]
        assert float(np.max(np.abs(gaps))) <= 1e-10

    def test_batch_matches_public_path(self):
        pack = _trial_pack(60, 5)
        D = make_named("es", alpha=0.25)
        values, levels, starts = pack.roles["s"]
        batch = _stieltjes_batch(D.eval(levels), values, starts)
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


BLOCK = 1024  # trials per generator in the seeded scheme


def _reference_pack(trials: int, seed: int):
    """The block scheme, one trial at a time.

    Block b is drawn in full from ``default_rng([seed, b])``: the sizes m and
    k, 21 keys per trial for x and then for y, 64 int8 weights per trial and
    one cell in 0..m*k-1.  Each trial's grid is the sorted indices of its m
    (or k) smallest keys, its weights the first m*k, with the cell set to 1
    if they are all 0, and each role is merged with ``np.unique`` and
    ``np.add.at``.
    """
    tables, values, levels, lengths = [], {}, {}, {}
    for t in range(trials):
        b, i = divmod(t, BLOCK)
        if i == 0:
            rng = np.random.default_rng([seed, b])
            m, k = rng.integers(1, 9, size=(2, BLOCK))
            x_keys, y_keys = rng.random((BLOCK, 21)), rng.random((BLOCK, 21))
            weights = rng.integers(0, 5, size=(BLOCK, 64), dtype=np.int8)
            cell = rng.integers(0, m * k)
        mi, ki = int(m[i]), int(k[i])
        xv = np.sort(np.argsort(x_keys[i])[:mi]).astype(float) - 10.0
        yv = np.sort(np.argsort(y_keys[i])[:ki]).astype(float) - 10.0
        w = weights[i, : mi * ki].astype(np.int64).reshape(mi, ki)
        if not w.any():
            w.flat[cell[i]] = 1
        total = int(w.sum())
        tables.append((xv, yv, w.astype(float), float(total)))
        for role, vals, masses in (
            ("x", xv, w.sum(axis=1)),
            ("y", yv, w.sum(axis=0)),
            ("s", (xv[:, None] + yv[None, :]).ravel(), w.ravel()),
        ):
            uniq, inverse = np.unique(vals, return_inverse=True)
            merged = np.zeros(len(uniq), dtype=np.int64)
            np.add.at(merged, inverse, masses)
            keep = merged > 0
            values.setdefault(role, []).append(uniq[keep])
            levels.setdefault(role, []).append(np.cumsum(merged[keep]) / total)
            lengths.setdefault(role, []).append(int(keep.sum()))
    roles = {
        role: (
            np.concatenate(values[role]),
            np.concatenate(levels[role]),
            np.concatenate(([0], np.cumsum(lengths[role])[:-1])),
        )
        for role in ("x", "y", "s")
    }
    return SimpleNamespace(tables=tables, roles=roles)


def _reference_search(distortion, trials: int, seed: int):
    """(gap, trial) of the worst violation over the reference tables.

    The constructed counterexample is trial -1.  The trials' risks are
    summed by ``_stieltjes_batch``, the search's own evaluator.
    """
    pack = _reference_pack(trials, seed)
    rho = {
        role: _stieltjes_batch(distortion.eval(levels), values, starts)
        for role, (values, levels, starts) in pack.roles.items()
    }
    gaps = rho["s"] - rho["x"] - rho["y"]
    i = int(np.argmax(gaps))
    constructed = build_counterexample(distortion).gap
    return (float(gaps[i]), i) if gaps[i] > max(SEARCH_SLACK, constructed) else (constructed, -1)


_SEARCH_TRIALS, _SEARCH_SEED = 1000, 2008


def _named(kind: str, level: float):
    return make_named(kind, **{"alpha" if kind == "var" else "delta": level})


class TestTrialPack:
    # Recorded from _reference_pack; the flat build must reproduce it bit for bit.
    DIGESTS = {
        (2000, 21): "9c6aba2b73b19a3a6b1392ceacb27d01733df310690eb13862ff383cd553561f",
        (60, 5): "f8148f32266b16c66d6c270cd4f632d11d10cdcdb03d18f92b1decde72a78ee8",
        (1, 0): "8815c111d88cb2067055ed037a6b283ab2d9bf1fb4c496b7a450f4cb69aefa37",
    }
    # worst gap (float.hex) and its trial index at trials=1000, seed=2008,
    # recorded from _reference_search
    SEARCH = {
        ("var", 0.25): ("0x1.e000000000000p+3", 201),
        ("var", 0.5): ("0x1.8000000000000p+3", 941),
        ("var", 0.75): ("0x1.c000000000000p+2", 879),
        ("threshold", 0.25): ("0x1.a000000000000p+3", 358),
        ("threshold", 0.5): ("0x1.2627627627627p+3", 941),
        ("threshold", 0.75): ("0x1.9a7b9611a7b95p+1", 574),
    }

    @pytest.mark.parametrize("trials, seed", [*sorted(DIGESTS), (2049, 3)])
    def test_matches_the_reference(self, trials, seed):
        assert _pack_digest(_trial_pack(trials, seed)) == _pack_digest(_reference_pack(trials, seed))

    @pytest.mark.parametrize("trials, seed", sorted(DIGESTS))
    def test_pinned_digest(self, trials, seed):
        assert _pack_digest(_trial_pack(trials, seed)) == self.DIGESTS[trials, seed]

    @pytest.mark.parametrize("kind, level", sorted(SEARCH))
    def test_pinned_search(self, kind, level):
        found = subadditivity_search(_named(kind, level), trials=_SEARCH_TRIALS, seed=_SEARCH_SEED)
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

    def test_distinct_levels_index_every_level(self):
        pack = _trial_pack(2000, 21)
        assert np.all(np.diff(pack.distinct) > 0)
        for role, (_, levels, _) in pack.roles.items():
            assert pack.index[role].dtype == np.uint16
            assert pack.distinct[pack.index[role]].tobytes() == levels.tobytes()
        used = np.concatenate(list(pack.index.values()))
        assert np.array_equal(np.unique(used), np.arange(len(pack.distinct)))

    @pytest.mark.parametrize(
        "kind, params",
        [("es", {"alpha": 0.5}), ("es_n", {"n": 3, "alpha": 0.2}), ("expectation", {})],
        ids=["es", "es_n", "expectation"],
    )
    def test_one_evaluation_of_D_per_search_on_the_distinct_levels(self, monkeypatch, kind, params):
        D = make_named(kind, **params)
        sizes = []
        evaluate = Distortion.eval

        def spy(self, u):
            sizes.append(np.size(u))
            return evaluate(self, u)

        monkeypatch.setattr(Distortion, "eval", spy)
        subadditivity_search(D, trials=10_000, seed=5)
        assert len(sizes) == 1
        assert sizes[0] <= len(_trial_pack(10_000, 5).distinct)

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

    @pytest.mark.parametrize("short_trials, long_trials", [(300, 1000), (1000, 3000)])
    def test_prefix_of_a_longer_pack(self, short_trials, long_trials):
        short, long = _trial_pack(short_trials, 11), _trial_pack(long_trials, 11)
        for i in range(short_trials):
            for a, b in zip(short.tables[i], long.tables[i]):
                assert np.array_equal(a, b)
        for role in ("x", "y", "s"):
            values, levels, starts = short.roles[role]
            n = len(values)
            assert np.array_equal(values, long.roles[role][0][:n])
            assert np.array_equal(levels, long.roles[role][1][:n])
            assert np.array_equal(starts, long.roles[role][2][:short_trials])

    def test_each_trial_keeps_its_law(self):
        # chi-square statistics against their 0.999 quantiles at 7, 20 and 4 degrees of freedom
        chi2_999 = {4: 18.47, 7: 24.32, 20: 45.31}
        trials = 10_000
        pack = _trial_pack(trials, 2008)
        sizes = np.zeros((2, 9), dtype=np.int64)  # [x or y, m or k]
        points = np.zeros((9, 21), dtype=np.int64)  # [size, grid index], x and y pooled
        weights = np.zeros(5, dtype=np.int64)
        for i in range(trials):
            xv, yv, w, total = pack.tables[i]
            assert total > 0
            for axis, grid in enumerate((xv, yv)):
                assert np.all(np.diff(grid) > 0) and np.array_equal(grid, np.round(grid))
                sizes[axis, len(grid)] += 1
                points[len(grid)] += np.bincount((grid + 10).astype(int), minlength=21)
            weights += np.bincount(w.ravel().astype(int), minlength=5)
        for axis in range(2):
            assert sizes[axis, 0] == 0
            observed, expected = sizes[axis, 1:], trials / 8
            assert np.sum((observed - expected) ** 2 / expected) <= chi2_999[7]
        for size in range(1, 9):
            # each of the 21 points is chosen with probability p = size / 21; the counts
            # sum to size * n, so their covariance is n p (1-p) (21/20) (I - J/21)
            n, p = sizes[:, size].sum(), size / 21
            stat = np.sum((points[size] - n * p) ** 2) * 20 / (21 * n * p * (1 - p))
            assert stat <= chi2_999[20], size
        expected = weights.sum() / 5
        assert np.sum((weights - expected) ** 2 / expected) <= chi2_999[4]

    @pytest.mark.parametrize(
        "kwargs", [{"trials": 2.5}, {"trials": True}, {"trials": -1}, {"seed": -1}, {"seed": 1.0}]
    )
    def test_search_arguments_are_non_negative_integers(self, kwargs):
        with pytest.raises(ParameterError, match="non-negative integer"):
            subadditivity_search(make_named("es", alpha=0.5), **{"trials": 10, "seed": 0, **kwargs})

    def test_more_than_max_trials_are_refused_before_any_draw(self, monkeypatch):
        def no_pack(trials, seed):
            raise AssertionError(f"a pack of {trials} trials was drawn")

        monkeypatch.setattr(subadditivity, "_trial_pack", no_pack)
        with pytest.raises(ParameterError, match="trials must be at most 1000000, got 1000001"):
            subadditivity_search(make_named("es", alpha=0.5), trials=10**6 + 1, seed=0)

    def test_the_trials_and_seed_have_no_defaults(self):
        with pytest.raises(TypeError):
            subadditivity_search(make_named("es", alpha=0.5), trials=10)
        with pytest.raises(TypeError):
            subadditivity_search(make_named("es", alpha=0.5), 10, 0)


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


def _per_level_search(distortion, trials: int, seed: int):
    """(gap.hex(), trial) of the worst violation, or None, with D evaluated at every level.

    The reference for the search's one evaluation on the distinct levels:
    each role's risks are summed per trial from D at that role's own levels.
    """

    def batch(values, levels, starts):
        w = distortion.eval(levels)
        prev = np.empty_like(w)
        prev[1:] = w[:-1]
        prev[starts] = 0.0
        return np.add.reduceat(values * (w - prev), starts)

    pack = _trial_pack(trials, seed)
    rho = {role: batch(*pack.roles[role]) for role in ("x", "y", "s")}
    gaps = rho["s"] - rho["x"] - rho["y"]
    i = int(np.argmax(gaps))
    best = None if is_convex(distortion).convex else (build_counterexample(distortion).gap, -1)
    if gaps[i] > SEARCH_SLACK and (best is None or gaps[i] > best[0]):
        best = (float(gaps[i]), i)
    return None if best is None else (best[0].hex(), best[1])


# knots on eighths put jumps and kinks on levels such as 1/2 and 3/8, where the trials' levels sit
@given(
    st.one_of(
        piecewise_distortions(grid=8), piecewise_distortions(), piecewise_distortions(convex=True)
    ),
    st.integers(0, 3),
)
@settings(max_examples=60, deadline=None)
def test_search_is_bitwise_the_per_level_search(distortion, seed):
    found = subadditivity_search(distortion, trials=1000, seed=seed)
    got = None if found is None else (found.gap.hex(), found.trial)
    assert got == _per_level_search(distortion, 1000, seed)


def _record():
    digests = {key: _pack_digest(_reference_pack(*key)) for key in TestTrialPack.DIGESTS}
    search = {}
    for kind, level in TestTrialPack.SEARCH:
        gap, trial = _reference_search(_named(kind, level), _SEARCH_TRIALS, _SEARCH_SEED)
        search[kind, level] = (gap.hex(), trial)
    print("DIGESTS = {")
    for key, digest in digests.items():
        print(f'    {key}: "{digest}",')
    print("}")
    print("SEARCH = {")
    for (kind, level), (gap, trial) in search.items():
        print(f'    ("{kind}", {level}): ("{gap}", {trial}),')
    print("}")
    print("search-finds-violation lines of golden/suite_records.json:")
    for (kind, level), (gap, _trial) in search.items():
        label = _named(kind, level).label()
        print(f'["subadditivity", "search-finds-violation {label}", "expected-violation", '
              f'"worst gap {float.fromhex(gap):.12g}"]')


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python tests/test_subadditivity.py --record")
    _record()
