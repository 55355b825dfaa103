"""Verification suite over a distribution x distortion matrix.

Runs the structural checks as data: representation agreement, closed-form
shortfall identities, the risk-measure axioms, ordering and finiteness
rules, domain-class separations, and the subadditivity dichotomy.  Each
check yields a pass/fail record; violations of subadditivity under a
non-convex distortion are expected and recorded as such, not as failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distortions import Distortion, is_convex, make_named
from .distributions import (
    Discrete,
    Distribution,
    ParetoNegative,
    ParetoPositive,
    comonotone_sum,
    point_mass,
)
from .errors import ParameterError
from .io import render_table
from .riskmeasures import (
    DomainClass,
    RiskValue,
    Verdict,
    choquet_risk,
    classify_membership,
    expected_shortfall,
    expected_shortfall_infimum,
    max_excess,
    mixture_risk,
    pointwise_le,
    quantile_risk,
)
from .subadditivity import (
    AXIOM_TOL,
    _count,
    _trials,
    build_counterexample,
    comonotone_additivity_check,
    subadditivity_search,
)

__all__ = ["SuiteConfig", "CheckResult", "SuiteReport", "default_config", "run_suite"]


# the bounds the suite checks the identities at, one per claim
QUANTILE_CHOQUET_TOL = 1e-8  # the quantile form against the Choquet tail integral
MIXTURE_TOL = 1e-6  # the quantile form against the expected-shortfall mixture
SHORTFALL_TOL = 1e-8  # ES's stop-loss closed form against its integral and its infimum form
SHIFT_TOL = 1e-10  # translation, relative to max(1, |risk|)
# the smallest shortfall over the levels 2^-k, k = 1..48, against the mean: the gap is
# the truncation of that grid, 1.2e-7 to 2.4e-7 on the built-in Pareto tails
INFIMUM_VS_MEAN_TOL = 1e-6
GAP_IDENTITY_TOL = 1e-10  # a counterexample's gap against its closed-form prediction


@dataclass
class SuiteConfig:
    distributions: list[tuple[str, Distribution]]
    distortions: list[tuple[str, Distortion]]
    checks: tuple[str, ...] = field(default_factory=lambda: tuple(_GROUPS))
    trials: int = 10_000
    seed: int = 2008

    def validate(self) -> SuiteConfig:
        if not self.distributions or not self.distortions:
            raise ParameterError("no cases: the matrix needs distributions and distortions")
        unknown = set(self.checks) - set(_GROUPS)
        if unknown:
            raise ParameterError(f"unknown checks: {sorted(unknown)}")
        _trials(self.trials)
        _count("seed", self.seed)
        return self


@dataclass(frozen=True)
class CheckResult:
    group: str
    name: str
    status: str  # "pass" | "fail" | "expected-violation"
    detail: str = ""

    def to_json(self) -> dict:
        return {"group": self.group, "name": self.name, "status": self.status, "detail": self.detail}


@dataclass
class SuiteReport:
    results: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.status != "fail" for r in self.results)

    def counts(self) -> dict:
        out: dict[str, dict[str, int]] = {}
        for r in self.results:
            group = out.setdefault(r.group, {"pass": 0, "fail": 0, "expected-violation": 0})
            group[r.status] += 1
        return out

    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if r.status == "fail"]

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "counts": self.counts(),
            "results": [r.to_json() for r in self.results],
        }

    def render_summary(self) -> str:
        rows = [
            {"group": g, **c} for g, c in sorted(self.counts().items())
        ]
        out = [render_table(rows, ["group", "pass", "fail", "expected-violation"])]
        bad = self.failures()
        if bad:
            out.append("")
            out.append(render_table([r.to_json() for r in bad], ["group", "name", "status", "detail"]))
        out.append("")
        out.append("SUITE OK" if self.ok else f"SUITE FAILED ({len(bad)} failing checks)")
        return "\n".join(out)


def default_distributions() -> list[tuple[str, Distribution]]:
    rng = np.random.default_rng(90210)
    big = np.round(rng.normal(0.0, 3.0, size=100), 2)
    return [
        ("point_mass(7)", point_mass(7.0)),
        ("empirical4", Discrete.from_samples([1.0, 2.0, 3.0, 4.0])),
        ("mixed4", Discrete.from_samples([-2.0, -1.0, 1.0, 5.0])),
        ("empirical100", Discrete.from_samples(big)),
        ("two_atom", Discrete.from_samples([0.0, 1.0])),
        ("wide_pair", Discrete.from_samples([0.0, 10.0])),
        ("skewed_atoms", Discrete([-1.25, 0.0], [0.25, 0.75])),
        ("pareto_neg", ParetoNegative(1.0)),
        ("pareto_neg_b2", ParetoNegative(2.0)),
        ("pareto_neg_t1", ParetoNegative(1.0, 1.0)),
        ("shifted_pair", Discrete.from_samples([1.0, 2.0]).shift(3.0)),
        ("pos_part_mix", Discrete.from_samples([-2.0, 5.0]).pos_part()),
        ("scaled_pareto", ParetoNegative(1.0).scale(0.5)),
        ("como_sum", comonotone_sum(Discrete.from_samples([1.0, 2.0]), Discrete.from_samples([10.0, 20.0]))),
    ]


def default_distortions() -> list[tuple[str, Distortion]]:
    specs = [
        make_named("expectation"),
        make_named("var", alpha=0.25),
        make_named("var", alpha=0.5),
        make_named("es", alpha=0.25),
        make_named("es", alpha=0.5),
        make_named("es", alpha=0.9),
        make_named("es_n", n=2, alpha=0.0),
        make_named("es_n", n=3, alpha=0.2),
        make_named("es_n", n=5, alpha=0.5),
        make_named("threshold", delta=0.5),
        make_named("sqrt_example"),
    ]
    return [(d.label(), d) for d in specs]


def default_config(trials: int = SuiteConfig.trials, seed: int = SuiteConfig.seed) -> SuiteConfig:
    return SuiteConfig(
        distributions=default_distributions(),
        distortions=default_distortions(),
        trials=trials,
        seed=seed,
    )


def run_suite(config: SuiteConfig | None = None) -> SuiteReport:
    config = (config or default_config()).validate()
    report = SuiteReport()
    for group in config.checks:
        report.results.extend(_GROUPS[group](group, config))
    return report


# ---------------------------------------------------------------------------
# individual check groups


def _verdict(group: str, name: str, ok: bool, detail: str = "") -> CheckResult:
    """A pass or fail record; the detail is kept only on failure."""
    return CheckResult(group, name, "pass" if ok else "fail", "" if ok else detail)


def _close(a: RiskValue, b: RiskValue, tol: float) -> tuple[bool, str]:
    if a.kind != b.kind:
        return False, f"kind {a.kind} vs {b.kind}"
    if a.is_finite and abs(a.value - b.value) > tol:
        return False, f"|{a.value:.12g} - {b.value:.12g}| > {tol:g}"
    return True, ""


def _le_extended(a: RiskValue, b: RiskValue, tol: float) -> bool | None:
    """a <= b + tol over [-inf, inf); None when either side is undefined."""
    if not (a.in_domain and b.in_domain):
        return None
    if a.kind == "neg-inf":
        return True
    if b.kind == "neg-inf":
        return False
    return a.value <= b.value + tol


def _check_agreement(group, config):
    convex = [is_convex(distortion).convex for _, distortion in config.distortions]
    for dlabel, dist in config.distributions:
        for (qlabel, distortion), spectral in zip(config.distortions, convex):
            name = f"{dlabel} x {qlabel}"
            rq = quantile_risk(dist, distortion)
            rc = choquet_risk(dist, distortion)
            yield _verdict(group, f"quantile-vs-choquet {name}", *_close(rq, rc, QUANTILE_CHOQUET_TOL))
            if spectral:
                rm = mixture_risk(dist, distortion)
                yield _verdict(group, f"quantile-vs-mixture {name}", *_close(rq, rm, MIXTURE_TOL))


def _check_shortfall(group, config):
    levels = (0.0, 0.25, 0.5, 0.9)
    for dlabel, dist in config.distributions:
        for alpha in levels:
            name = f"{dlabel} alpha={alpha:g}"
            closed = expected_shortfall(dist, alpha)
            integral = quantile_risk(dist, make_named("es", alpha=alpha))
            yield _verdict(group, f"stop-loss-vs-integral {name}", *_close(closed, integral, SHORTFALL_TOL))
            if alpha > 0.0 and closed.is_finite:
                inf_form = expected_shortfall_infimum(dist, alpha)
                yield _verdict(
                    group,
                    f"infimum-vs-stop-loss {name}",
                    abs(inf_form.value - closed.value) <= SHORTFALL_TOL,
                    f"{inf_form.value!r} vs {closed.value!r}",
                )
        if dist.is_discrete:
            exact = expected_shortfall(dist, 0.0).value == dist.mean()
            yield _verdict(group, f"level-zero-is-mean {dlabel}", exact)


_SCALES = (0.0, 0.5, 1.0, 3.0)
_SHIFTS = (-5.0, 0.0, 7.0)


def _check_axioms(group, config):
    discrete = [(l, d) for l, d in config.distributions if d.is_discrete]
    pairs = [
        (discrete[i % len(discrete)], discrete[(i + 1) % len(discrete)])
        for i in range(0, len(discrete), 2)
    ]
    for qlabel, distortion in config.distortions:
        for dlabel, dist in discrete:
            base = quantile_risk(dist, distortion).as_float()
            for a in _SCALES:
                got = quantile_risk(dist.scale(a), distortion).as_float()
                want = a * base
                yield _verdict(
                    group,
                    f"homogeneity {dlabel} x {qlabel} a={a:g}",
                    abs(got - want) <= AXIOM_TOL * max(1.0, abs(want)),
                    f"{got!r} vs {want!r}",
                )
            for c in _SHIFTS:
                got = quantile_risk(dist.shift(c), distortion).as_float()
                want = base + c
                yield _verdict(
                    group,
                    f"translation {dlabel} x {qlabel} c={c:g}",
                    abs(got - want) <= SHIFT_TOL * max(1.0, abs(want)),
                    f"{got!r} vs {want!r}",
                )
            # coupled monotone pair: bumping every atom up cannot reduce the risk
            bumped = Discrete(np.asarray(dist.values) + 1.5, dist.probs)
            ok = base <= quantile_risk(bumped, distortion).as_float() + AXIOM_TOL
            yield _verdict(group, f"monotonicity {dlabel} x {qlabel}", ok)
        for (l1, d1), (l2, d2) in pairs:
            rep = comonotone_additivity_check(distortion, d1, d2)
            yield _verdict(
                group,
                f"comonotone-additivity {l1}+{l2} x {qlabel}",
                rep.additive,
                f"{rep.risk_sum!r} vs {rep.risk_1 + rep.risk_2!r}",
            )


_ORDERED_PAIRS = (  # (low, high) with low <= high on [0,1], each as (family, params)
    (("es", {"alpha": 0.25}), ("expectation", {})),
    (("es", {"alpha": 0.5}), ("es", {"alpha": 0.25})),
    (("es_n", {"n": 3, "alpha": 0.2}), ("es_n", {"n": 2, "alpha": 0.2})),
    (("var", {"alpha": 0.5}), ("var", {"alpha": 0.25})),
    (("es", {"alpha": 0.25}), ("threshold", {"delta": 0.5})),
)


def _check_ordering(group, config):
    for pair in _ORDERED_PAIRS:
        low, high = (make_named(kind, **params) for kind, params in pair)
        pointwise = pointwise_le(max_excess(low, high))
        yield _verdict(group, f"pointwise {low.label()} <= {high.label()}", pointwise)
        for dlabel, dist in config.distributions:
            # smaller distortion on [0,1] means larger risk
            r_low = quantile_risk(dist, low)
            r_high = quantile_risk(dist, high)
            verdict = _le_extended(r_high, r_low, AXIOM_TOL)
            if verdict is None:
                continue
            yield _verdict(
                group, f"risk-reversal {low.label()}/{high.label()} {dlabel}", verdict, f"{r_high} > {r_low}"
            )
    convex = [(l, d) for l, d in config.distortions if is_convex(d).convex]
    for dlabel, dist in config.distributions:
        mean = dist.mean()
        for qlabel, distortion in convex:
            risk = quantile_risk(dist, distortion)
            if not risk.in_domain:
                continue
            if mean == -math.inf:
                ok = True
            elif risk.kind == "neg-inf":
                ok = False  # a finite mean cannot dominate -inf under a convex distortion
            else:
                ok = mean <= risk.value + AXIOM_TOL
            yield _verdict(group, f"mean-below-risk {dlabel} x {qlabel}", ok, f"mean {mean!r} vs {risk}")
        # shortfall increases with its level
        es = [expected_shortfall(dist, float(alpha)) for alpha in np.linspace(0.0, 0.9, 10)]
        monotone = all(_le_extended(a, b, AXIOM_TOL) is not False for a, b in zip(es, es[1:]))
        yield _verdict(group, f"shortfall-monotone {dlabel}", monotone)
        if math.isfinite(mean):
            best = min(expected_shortfall(dist, 2.0**-k).value for k in range(1, 49))
            yield _verdict(
                group,
                f"shortfall-infimum-is-mean {dlabel}",
                abs(best - mean) <= INFIMUM_VS_MEAN_TOL,
                f"{best!r} vs mean {mean!r}",
            )


def _check_finiteness(group, config):
    for qlabel, distortion in config.distortions:
        if not distortion.pieces[0].flat:  # D vanishes near 0
            continue
        for dlabel, dist in config.distributions:
            risk = quantile_risk(dist, distortion)
            yield _verdict(group, f"finite-risk {dlabel} x {qlabel}", risk.is_finite, str(risk))
            if not dist.is_discrete:
                a = classify_membership(dist, distortion, DomainClass.QUANTILE).verdict
                b = classify_membership(dist, distortion, DomainClass.ACERBI).verdict
                yield _verdict(group, f"native-equals-acerbi {dlabel} x {qlabel}", a == b, f"{a} vs {b}")


def _check_domains(group, config):
    sq = make_named("sqrt_example")
    heavy = comonotone_sum(ParetoNegative(1.0, 0.5), ParetoPositive(1.0, 0.5))
    cases = [
        ("var-heavy-two-sided", make_named("var", alpha=0.5), heavy, {
            DomainClass.QUANTILE: Verdict.MEMBER,
            DomainClass.ACERBI: Verdict.MEMBER,
            DomainClass.PICHLER: Verdict.MEMBER,
        }),
        ("sqrt-pareto", sq, ParetoNegative(1.0), {
            DomainClass.QUANTILE: Verdict.MEMBER,
            DomainClass.PICHLER: Verdict.MEMBER,
            DomainClass.ACERBI: Verdict.NON_MEMBER,
        }),
        ("threshold-pareto-t1", make_named("threshold", delta=0.5), ParetoNegative(1.0, 1.0), {
            DomainClass.QUANTILE: Verdict.MEMBER,
            DomainClass.PICHLER: Verdict.MEMBER,
            DomainClass.ACERBI: Verdict.NON_MEMBER,
        }),
    ]
    for name, distortion, dist, expected in cases:
        for cls, want in expected.items():
            got = classify_membership(dist, distortion, cls).verdict
            yield _verdict(group, f"{name} {cls.value}", got == want, f"{got} (wanted {want})")
    probe = classify_membership(ParetoNegative(1.0), sq, DomainClass.ACERBI, method="probe")
    yield _verdict(group, "sqrt-pareto acerbi probe", probe.verdict == Verdict.NON_MEMBER)
    for qlabel, distortion in config.distortions:
        if not is_convex(distortion).convex:
            continue
        for dlabel, dist in config.distributions:
            pich = classify_membership(dist, distortion, DomainClass.PICHLER).verdict
            acer = classify_membership(dist, distortion, DomainClass.ACERBI).verdict
            bad = pich == Verdict.MEMBER and acer == Verdict.NON_MEMBER
            yield _verdict(group, f"pichler-inside-acerbi {dlabel} x {qlabel}", not bad)


_CONVEX_SEARCH_GRID = tuple((n, alpha) for n in (1, 2, 3, 5) for alpha in (0.0, 0.25, 0.5, 0.9))
_NONCONVEX_GRID = (
    ("var", {"alpha": 0.25}),
    ("var", {"alpha": 0.5}),
    ("var", {"alpha": 0.75}),
    ("threshold", {"delta": 0.25}),
    ("threshold", {"delta": 0.5}),
    ("threshold", {"delta": 0.75}),
)


def _check_subadditivity(group, config):
    for n, alpha in _CONVEX_SEARCH_GRID:
        distortion = make_named("es_n", n=n, alpha=alpha)
        found = subadditivity_search(distortion, trials=config.trials, seed=config.seed)
        yield _verdict(
            group,
            f"search-no-violation {distortion.label()}",
            found is None,
            "" if found is None else f"gap {found.gap!r} at trial {found.trial}",
        )
    for kind, params in _NONCONVEX_GRID:
        distortion = make_named(kind, **params)
        label = distortion.label()
        rep = build_counterexample(distortion)
        ok = rep.gap > 0 and abs(rep.gap - rep.predicted_gap) <= GAP_IDENTITY_TOL
        yield CheckResult(
            group,
            f"counterexample {label}",
            "expected-violation" if ok else "fail",
            f"gap {rep.gap:.12g} at (u={rep.u:g}, eps={rep.eps:g})" if ok else f"gap {rep.gap!r} vs {rep.predicted_gap!r}",
        )
        found = subadditivity_search(distortion, trials=min(config.trials, 1000), seed=config.seed)
        ok = found is not None and found.gap > 0
        yield CheckResult(
            group,
            f"search-finds-violation {label}",
            "expected-violation" if ok else "fail",
            f"worst gap {found.gap:.12g}" if ok else "no violation found",
        )


_GROUPS = {
    "agreement": _check_agreement,
    "shortfall": _check_shortfall,
    "axioms": _check_axioms,
    "ordering": _check_ordering,
    "finiteness": _check_finiteness,
    "domains": _check_domains,
    "subadditivity": _check_subadditivity,
}
