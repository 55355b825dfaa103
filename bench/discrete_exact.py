"""discrete-exact: the exact discrete engine on large empirical samples.

Inputs are a normal sample and a weighted Student-t(3) sample at 10^3, 10^4
and 10^5 atoms.  Every op is a call into quantrisk's public API, checked
against another form of the same number: quantile vs Choquet (1e-8) and
mixture (1e-6), the translation, homogeneity and comonotone additivity
identities, and closed-form expected shortfall vs its integral and infimum
forms.
"""

from __future__ import annotations

import numpy as np

from quantrisk import (
    Discrete,
    choquet_risk,
    comonotone_sum,
    distortion_of,
    expected_shortfall,
    expected_shortfall_infimum,
    is_convex,
    make_named,
    mixture_risk,
    quantile_risk,
    spectral_of,
)

from harness import agrees_with, near

NAME = "discrete-exact"

SIZES = {"n1e3": 1_000, "n1e4": 10_000, "n1e5": 100_000}
QUICK_SIZES = {"n1e3": 20, "n1e4": 40, "n1e5": 80}
# Choquet takes about 4 s per call at 10^5 atoms on the seed commit, so the
# largest size runs it under es(0.9) only.
CHOQUET_AT_LARGEST = ("es(0.9)",)
SHIFT, FACTOR, ES_LEVEL = 1.5, 2.0, 0.9
# convexity of each distortion, as the paper states it
DISTORTIONS = (
    (make_named("es", alpha=0.9), True),
    (make_named("es_n", n=3, alpha=0.2), True),
    (make_named("var", alpha=0.5), False),
)


def setup(seed: int, quick: bool, workdir) -> dict:
    sizes = QUICK_SIZES if quick else SIZES
    samples = {}
    for tag, n in sizes.items():
        rng = np.random.default_rng([seed, n])
        samples[tag] = {
            "normal": (rng.normal(0.0, 1.0, n), None),
            "t3w": (rng.standard_t(3.0, n), rng.uniform(0.5, 2.0, n)),
        }
    return {"samples": samples, "largest": list(sizes)[-1]}


def _from_samples_check(samples, weights):
    w = np.ones_like(samples) if weights is None else weights
    mean = float(np.dot(samples, w) / w.sum())

    def check(d) -> str | None:
        if len(d.values) != len(np.unique(samples)):
            return f"{len(d.values)} atoms from {len(np.unique(samples))} distinct samples"
        if d.cum[-1] != 1.0:
            return f"last cumulative level {d.cum[-1]!r}"
        return near(d.mean(), mean, 1e-9, relative=True)

    return check


def _maps_values(base, fn):
    """Check that a transform maps every atom of ``base`` by ``fn``, masses kept."""

    def check(d) -> str | None:
        if base is None:
            return "no reference: the from_samples op failed"
        want = fn(base.values)
        if d.values.shape != want.shape or not np.array_equal(d.probs, base.probs):
            return "atoms or masses changed"
        return near(float(np.max(np.abs(d.values - want))), 0.0, 1e-12 * max(1.0, float(np.max(np.abs(want)))))

    return check


def _abs_check(base):
    def check(d) -> str | None:
        if base is None:
            return "no reference: the from_samples op failed"
        if np.any(d.values < 0) or np.any(np.diff(d.values) <= 0):
            return "atoms not sorted non-negative"
        return near(d.mean(), float(np.dot(np.abs(base.values), base.probs)), 1e-12, relative=True)

    return check


def _identity(ref, want_fn, what: str):
    """Check a quantile-form value against ``want_fn(ref)`` (relative 1e-9)."""

    def check(value) -> str | None:
        if any(r is None for r in ref):
            return f"no reference: a quantile op of the {what} identity failed"
        return near(value.as_float(), want_fn(*[r.as_float() for r in ref]), 1e-9, relative=True)

    return check


def _eval_check(w) -> str | None:
    w = np.asarray(w, dtype=float)
    if np.any(np.diff(w) < 0) or w[0] < 0 or w[-1] != 1.0:
        return "distortion values not increasing from [0,1] to 1"
    return None


def _roundtrip_check(distortion):
    grid = np.linspace(0.0, 1.0, 1001)

    def check(rebuilt) -> str | None:
        gap = float(np.max(np.abs(np.asarray(rebuilt.eval(grid)) - np.asarray(distortion.eval(grid)))))
        return near(gap, 0.0, 1e-12)

    return check


def run_pass(inputs: dict, r, index: int) -> None:
    for distortion, convex in DISTORTIONS:
        label = distortion.label()
        r.call(f"{label}/is_convex", "distortions.is_convex", is_convex, distortion,
               check=lambda res, want=convex: None if res.convex == want else f"convex={res.convex}")
        if convex:
            r.call(f"{label}/spectral_roundtrip", "distortions.spectral_roundtrip",
                   lambda d: distortion_of(spectral_of(d)), distortion,
                   check=_roundtrip_check(distortion))
    for tag, pair in inputs["samples"].items():
        largest = tag == inputs["largest"]
        dists, quantiles = {}, {}
        for kind, (samples, weights) in pair.items():
            base = f"{kind}/{tag}"
            d = r.call(f"{base}/from_samples", "distributions.from_samples", Discrete.from_samples,
                       samples, weights, tag=tag, check=_from_samples_check(samples, weights))
            dists[kind] = d
            shifted = r.call(f"{base}/shift", "distributions.shift", lambda d: d.shift(SHIFT), d,
                             tag=tag, needs=(d,), check=_maps_values(d, lambda v: v + SHIFT))
            scaled = r.call(f"{base}/scale", "distributions.scale", lambda d: d.scale(FACTOR), d,
                            tag=tag, needs=(d,), check=_maps_values(d, lambda v: v * FACTOR))
            r.call(f"{base}/abs", "distributions.abs", lambda d: d.abs(), d, tag=tag, needs=(d,),
                   check=_abs_check(d))
            for distortion, convex in DISTORTIONS:
                label = distortion.label()
                cell = f"{base}/{label}"
                ref = r.call(f"{cell}/quantile", "riskmeasures.quantile_risk", quantile_risk, d,
                             distortion, tag=tag, needs=(d,))
                quantiles[kind, label] = ref
                if not largest or label in CHOQUET_AT_LARGEST:
                    r.call(f"{cell}/choquet", "riskmeasures.choquet_risk", choquet_risk, d, distortion,
                           tag=tag, needs=(d,), check=agrees_with(ref, 1e-8, "quantile"))
                if convex:
                    r.call(f"{cell}/mixture", "riskmeasures.mixture_risk", mixture_risk, d, distortion,
                           tag=tag, needs=(d,), check=agrees_with(ref, 1e-6, "quantile"))
                r.call(f"{cell}/translation", "riskmeasures.quantile_risk", quantile_risk, shifted,
                       distortion, tag="identity", needs=(shifted,),
                       check=_identity((ref,), lambda v: v + SHIFT, "translation"))
                r.call(f"{cell}/homogeneity", "riskmeasures.quantile_risk", quantile_risk, scaled,
                       distortion, tag="identity", needs=(scaled,),
                       check=_identity((ref,), lambda v: v * FACTOR, "homogeneity"))
            integral = quantiles[kind, f"es({ES_LEVEL:g})"]
            closed = r.call(f"{base}/es({ES_LEVEL:g})/closed", "riskmeasures.expected_shortfall",
                            expected_shortfall, d, ES_LEVEL, tag=tag, needs=(d,),
                            check=agrees_with(integral, 1e-8, "quantile (integral form)"))
            r.call(f"{base}/es({ES_LEVEL:g})/infimum", "riskmeasures.expected_shortfall_infimum",
                   expected_shortfall_infimum, d, ES_LEVEL, tag=tag, needs=(d,),
                   check=lambda res, closed=closed: (
                       "no reference: the closed-form op failed" if closed is None
                       else near(res.value, closed.value, 1e-8)))
        d1, d2 = dists["normal"], dists["t3w"]
        total = r.call(f"comonotone/{tag}/comonotone_sum", "distributions.comonotone_sum",
                       comonotone_sum, d1, d2, tag=tag, needs=(d1, d2),
                       check=lambda s, d1=d1, d2=d2: near(s.mean(), d1.mean() + d2.mean(), 1e-9, relative=True))
        for distortion, _ in DISTORTIONS:
            label = distortion.label()
            refs = (quantiles["normal", label], quantiles["t3w", label])
            r.call(f"comonotone/{tag}/{label}/additivity", "riskmeasures.quantile_risk", quantile_risk,
                   total, distortion, tag="identity", needs=(total,),
                   check=_identity(refs, lambda a, b: a + b, "comonotone additivity"))
            r.call(f"normal/{tag}/{label}/eval", "distortions.eval",
                   lambda d, q=distortion: q.eval(d.cum), d1, tag=tag, needs=(d1,), check=_eval_check)
