"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.  The matrix checks share a single full suite run
(10,000 seeded search trials), whose (group, name, status, detail) records
must equal ``golden/suite_records.json``.  To record them again after an
intended change of the suite's output:

    PYTHONPATH=src python tests/test_acceptance.py --record
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from quantrisk.distortions import distortion_of, is_convex, make_named, spectral_of
from quantrisk.errors import NotSpectralError
from quantrisk.subadditivity import build_counterexample
from quantrisk.suite import default_config, run_suite

TRIALS = 10_000
RECORDS = Path(__file__).parent / "golden" / "suite_records.json"


@pytest.fixture(scope="module")
def suite_report():
    return run_suite(default_config(trials=TRIALS))


def _records(report):
    return [[r.group, r.name, r.status, r.detail] for r in report.results]


def _group(report, name):
    return [r for r in report.results if r.group == name]


def _announce(number, title, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} ({title}): {status}{suffix}")
    return ok


def test_criterion_1_representation_equivalence(suite_report):
    results = _group(suite_report, "agreement")
    config = default_config()
    assert len(config.distributions) >= 12
    assert len(config.distortions) >= 10
    failures = [r for r in results if r.status == "fail"]
    ok = not failures and len(results) >= 12 * 10
    assert _announce(
        1,
        "representation equivalence 1e-8/1e-6",
        ok,
        f"{len(results)} comparisons, {len(failures)} failures",
    ), failures


def test_criterion_2_shortfall_closed_forms(suite_report):
    results = _group(suite_report, "shortfall")
    failures = [r for r in results if r.status == "fail"]
    ok = not failures and any("level-zero-is-mean" in r.name for r in results)
    assert _announce(
        2, "shortfall closed forms 1e-8", ok, f"{len(results)} comparisons"
    ), failures


def test_criterion_3_axioms(suite_report):
    results = _group(suite_report, "axioms")
    failures = [r for r in results if r.status == "fail"]
    ok = not failures
    assert _announce(3, "axiom suite 1e-9", ok, f"{len(results)} identities"), failures


def test_criterion_4_ordering(suite_report):
    results = _group(suite_report, "ordering")
    failures = [r for r in results if r.status == "fail"]
    names = {r.name for r in results}
    ok = not failures and any("shortfall-infimum-is-mean" in n for n in names)
    assert _announce(4, "ordering suite incl. dyadic infimum 1e-6", ok), failures


def test_criterion_5_subadditivity_dichotomy(suite_report):
    results = _group(suite_report, "subadditivity")
    failures = [r for r in results if r.status == "fail"]
    searches = [r for r in results if r.name.startswith("search-no-violation")]
    counterexamples = [r for r in results if r.name.startswith("counterexample")]
    rep = build_counterexample(make_named("var", alpha=0.5), a=1.0)
    pinned = (
        (rep.u, rep.eps) == (0.5, 0.25)
        and abs(rep.gap - 1.125) <= 1e-10
        and abs(rep.risk_sum - (-1.25)) <= 1e-10
        and abs(rep.risk_x + rep.risk_y - (-2.375)) <= 1e-10
        and rep.risk_sum > rep.risk_x + rep.risk_y
        and abs(rep.gap - rep.predicted_gap) <= 1e-10
    )
    ok = not failures and len(searches) == 16 and len(counterexamples) >= 6 and pinned
    assert _announce(
        5,
        "subadditivity dichotomy (10k trials, gap identity 1e-10)",
        ok,
        f"gap {rep.gap:.6g}",
    ), failures


def test_criterion_6_spectral_round_trip():
    named = [make_named("expectation")]
    named += [make_named("es", alpha=a) for a in (0.25, 0.5, 0.75, 0.9)]
    named += [
        make_named("es_n", n=n, alpha=a) for n in (2, 3, 5) for a in (0.0, 0.25, 0.5, 0.9)
    ]
    grid = np.linspace(0.0, 1.0, 1000)
    worst = 0.0
    for d in named:
        assert is_convex(d).convex
        back = distortion_of(spectral_of(d))
        worst = max(worst, float(np.max(np.abs(np.asarray(back.eval(grid)) - np.asarray(d.eval(grid))))))
    round_trip_ok = worst <= 1e-12
    with pytest.raises(NotSpectralError):
        spectral_of(make_named("var", alpha=0.5))
    assert _announce(
        6, "spectral round trip 1e-12", round_trip_ok, f"max deviation {worst:.3g}"
    )


def test_criterion_7_domain_separations(suite_report):
    results = _group(suite_report, "domains")
    failures = [r for r in results if r.status == "fail"]
    names = {r.name for r in results}
    required = {
        "var-heavy-two-sided quantile",
        "sqrt-pareto acerbi",
        "sqrt-pareto acerbi probe",
        "threshold-pareto-t1 acerbi",
    }
    ok = not failures and required <= names
    assert _announce(7, "domain separations and inclusion", ok), failures


def test_criterion_8_finiteness_guard(suite_report):
    results = _group(suite_report, "finiteness")
    failures = [r for r in results if r.status == "fail"]
    covered = any("pareto_neg_t1" in r.name for r in results)
    ok = not failures and covered
    assert _announce(
        8, "finiteness for distortions vanishing near 0", ok, f"{len(results)} checks"
    ), failures


def test_records_equal_the_pinned_list(suite_report):
    assert _records(suite_report) == json.loads(RECORDS.read_text())


def test_suite_is_green_overall(suite_report):
    assert suite_report.ok, suite_report.failures()


def test_runtime_budget(suite_report):
    # the full matrix (10k trials) must stay convenient for CI
    import time

    t0 = time.time()
    run_suite(default_config(trials=TRIALS))
    elapsed = time.time() - t0
    print(f"suite wall time: {elapsed:.1f}s")
    assert elapsed < 60.0


def _record():
    records = _records(run_suite(default_config(trials=TRIALS)))
    RECORDS.write_text("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")
    print(f"recorded {len(records)} suite records in {RECORDS}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python tests/test_acceptance.py --record")
    _record()
