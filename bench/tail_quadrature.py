"""tail-quadrature: power tails and their transforms.

Here adaptive quadrature, the domain flags and the dyadic probe do the work
and the discrete engine is nearly idle.  Every cell runs each applicable
form (mixture only for convex distortions) and is checked against the
quantile form; domain classification is checked against the quantile
form's domain flag, and the forced probe against the analytic verdict.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

from quantrisk import (
    Discrete,
    DomainClass,
    ParetoNegative,
    ParetoPositive,
    Verdict,
    choquet_risk,
    classify_membership,
    comonotone_sum,
    is_convex,
    make_named,
    mixture_risk,
    quantile_risk,
)

from harness import agrees_with

NAME = "tail-quadrature"

DISCRETE_ATOMS, QUICK_DISCRETE_ATOMS = 600, 8
# abs(shift(5, .)) has no mixture cell: its mixture takes about 60 s.
NO_MIXTURE = ("abs_shift5",)
# forced dyadic probes: (distribution, class), under sqrt_example
PROBES = (("pn_t2", DomainClass.ACERBI), ("abs_shift2", DomainClass.PICHLER),
          ("como_tails", DomainClass.PICHLER))
QUICK_DISTRIBUTIONS = ("pn_t2", "pn_scale_shift", "como_tails", "abs_shift2")


def _distortions(quick: bool):
    specs = [("expectation", {}), ("var", {"alpha": 0.5}), ("es", {"alpha": 0.9}), ("sqrt_example", {})]
    if not quick:
        specs[3:3] = [("es_n", {"n": 2, "alpha": 0.5}), ("threshold", {"delta": 0.5})]
    return [(d, is_convex(d).convex) for d in (make_named(k, **p) for k, p in specs)]


def setup(seed: int, quick: bool, workdir) -> dict:
    # A stratified normal sample: one atom drawn in each of n equal-probability
    # strata.  The seed moves every atom, but the failing Choquet calls on the
    # sum take the same time for every seed, as they do not on a plain sample.
    atoms = QUICK_DISCRETE_ATOMS if quick else DISCRETE_ATOMS
    rng = np.random.default_rng([seed, atoms])
    discrete = Discrete.from_samples(ndtri((np.arange(atoms) + rng.uniform(0.0, 1.0, atoms)) / atoms))
    dists = [
        ("pn_t1", "pareto", ParetoNegative(1.0, 1.0)),
        ("pn_t2", "pareto", ParetoNegative(1.0, 2.0)),
        ("pp_t0.8", "pareto", ParetoPositive(1.0, 0.8)),
        ("pp_t1.5", "pareto", ParetoPositive(1.0, 1.5)),
        ("pp_t3", "pareto", ParetoPositive(1.0, 3.0)),
        ("pn_scale_shift", "transformed", ParetoNegative(1.0, 2.0).scale(0.5).shift(3.0)),
        ("pn_shift_pos", "transformed", ParetoNegative(1.0, 2.0).shift(5.0).pos_part()),
        ("como_tails", "comonotone", comonotone_sum(ParetoNegative(1.0, 3.0), ParetoPositive(1.0, 3.0))),
        ("como_disc", "comonotone", comonotone_sum(discrete, ParetoNegative(1.0, 2.0))),
        ("abs_shift2", "abs", ParetoNegative(1.0, 2.0).shift(2.0).abs()),
        ("abs_shift5", "abs", ParetoNegative(1.0, 3.0).shift(5.0).abs()),
    ]
    if quick:
        dists = [d for d in dists if d[0] in QUICK_DISTRIBUTIONS]
    classify_under = [make_named("sqrt_example")]
    if not quick:
        classify_under.append(make_named("es_n", n=2, alpha=0.5))
    return {"dists": dists, "distortions": _distortions(quick), "classify_under": classify_under,
            "probes": PROBES[:1] if quick else PROBES}


def _classify_check(cls, ref):
    """Auto verdicts must be decided; the quantile and acerbi classes must match
    the quantile form's domain flag."""

    def check(res) -> str | None:
        if res.verdict is Verdict.INCONCLUSIVE:
            return "auto mode left the verdict inconclusive"
        if cls is DomainClass.PICHLER:
            return None
        if ref is None:
            return "no reference: the quantile op failed"
        outside = ("not-in-domain",) if cls is DomainClass.QUANTILE else ("not-in-domain", "neg-inf")
        want = Verdict.NON_MEMBER if ref.kind in outside else Verdict.MEMBER
        return None if res.verdict is want else f"{res.verdict.value} but the quantile form is {ref.kind}"

    return check


def _probe_check(auto):
    def check(res) -> str | None:
        if auto is None:
            return "no reference: the auto-mode op failed"
        if res.verdict in (auto.verdict, Verdict.INCONCLUSIVE):
            return None
        return f"probe says {res.verdict.value}, analytic says {auto.verdict.value}"

    return check


def run_pass(inputs: dict, r, index: int) -> None:
    verdicts = {}
    for name, kind, dist in inputs["dists"]:
        refs = {}
        for distortion, convex in inputs["distortions"]:
            label = distortion.label()
            cell = f"{name}/{label}"
            ref = r.call(f"{cell}/quantile", "riskmeasures.quantile_risk", quantile_risk, dist,
                         distortion, tag=kind)
            refs[label] = ref
            r.call(f"{cell}/choquet", "riskmeasures.choquet_risk", choquet_risk, dist, distortion,
                   tag=kind, check=agrees_with(ref, 1e-8, "quantile"))
            if convex and name not in NO_MIXTURE:
                r.call(f"{cell}/mixture", "riskmeasures.mixture_risk", mixture_risk, dist, distortion,
                       tag=kind, check=agrees_with(ref, 1e-6, "quantile"))
        for distortion in inputs["classify_under"]:
            label = distortion.label()
            ref = refs.get(label)
            for cls in DomainClass:
                verdicts[name, label, cls] = r.call(
                    f"{name}/{label}/classify-{cls.value}", "riskmeasures.classify_membership",
                    classify_membership, dist, distortion, cls, tag="analytic",
                    check=_classify_check(cls, ref))
    dists = {name: dist for name, _, dist in inputs["dists"]}
    sqrt = make_named("sqrt_example")
    for name, cls in inputs["probes"]:
        auto = verdicts.get((name, sqrt.label(), cls))
        r.call(f"{name}/{sqrt.label()}/probe-{cls.value}", "riskmeasures.classify_membership",
               classify_membership, dists[name], sqrt, cls, method="probe", tag="probe",
               check=_probe_check(auto))
