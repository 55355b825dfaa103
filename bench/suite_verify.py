"""suite-verify: the built-in verification matrix, as `quantrisk suite` runs it.

Each pass runs the checks of ``run_suite(default_config(trials=10000,
seed=s))`` with a fresh ``s`` derived from the workload seed, so the
subadditivity trial pack is built cold, as it is for every CLI user.  Each
check group is one call; each suite check is one checked item, and a check
with status ``fail`` is a failed item.
"""

from __future__ import annotations

from dataclasses import replace

from quantrisk import (
    build_counterexample,
    default_config,
    make_named,
    quantile_risk,
    run_suite,
    subadditivity_search,
)
from quantrisk.suite import default_distortions, default_distributions

from harness import near
from metrics import SUITE_GROUPS

NAME = "suite-verify"

TRIALS, QUICK_TRIALS = 10_000, 50
QUICK_CASES = 4  # distributions and distortions kept in quick mode


def setup(seed: int, quick: bool, workdir) -> dict:
    return {"seed": seed, "quick": quick, "trials": QUICK_TRIALS if quick else TRIALS}


def _config(inputs: dict, index: int):
    config = default_config(trials=inputs["trials"], seed=inputs["seed"] * 1000 + index)
    if inputs["quick"]:
        config.distributions = config.distributions[:QUICK_CASES]
        config.distortions = config.distortions[:QUICK_CASES]
    return config


def _items(report) -> list[tuple[str, str | None]]:
    return [(f"{c.group}/{c.name}", f"wrong: {c.detail}" if c.status == "fail" else None)
            for c in report.results]


def run_pass(inputs: dict, r, index: int) -> None:
    """The default suite, one check group per call, so each group is an op of its own."""
    config = r.call("default_config", "suite.default_config", _config, inputs, index,
                    check=lambda c: None if c.distributions and c.distortions else "empty matrix")
    for group in SUITE_GROUPS:
        r.call(f"run_suite/{group}", "suite.run_suite", lambda g: run_suite(replace(config, checks=(g,))),
               group, tag=group, needs=(config,), items=_items)


def probes(inputs: dict, r) -> None:
    """Layer calls the suite makes, timed one by one on the suite's own inputs."""
    for dlabel, dist in default_distributions():
        if dist.is_discrete:
            for qlabel, distortion in default_distortions():
                r.call(f"probe/{dlabel}/{qlabel}/quantile", "riskmeasures.quantile_risk",
                       quantile_risk, dist, distortion, tag="small")
    es = make_named("es", alpha=0.5)
    seed = inputs["seed"] * 1000 + 999  # unused by any pass, so the first search is cold
    for i, tag in enumerate(("cold", "warm", "warm", "warm")):
        r.call(f"probe/search-{i}", "subadditivity.subadditivity_search", subadditivity_search, es,
               trials=inputs["trials"], seed=seed, tag=tag,
               check=lambda found: None if found is None else f"violation found, gap {found.gap!r}")
    var = make_named("var", alpha=0.5)
    for i in range(5):
        r.call(f"probe/counterexample-{i}", "subadditivity.build_counterexample",
               build_counterexample, var,
               check=lambda rep: near(rep.gap, rep.predicted_gap, 1e-10) if rep.gap > 0 else "no gap")
