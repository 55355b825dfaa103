"""Metric definitions: end-to-end metrics of a timed run, per-layer metrics of a traced run.

BENCHMARK.json lists the same names, units and directions; the self-test
checks that they match.
"""

from __future__ import annotations

import math
import statistics

from harness import OP_LIMIT_S, self_times

# name, unit, better
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("ok_ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("ok_frac", "ratio", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

SIZES = ("n1e3", "n1e4", "n1e5")
FORMS = ("quantile", "choquet", "mixture")
TAIL_KINDS = ("pareto", "transformed", "comonotone", "abs")
SUITE_GROUPS = ("agreement", "shortfall", "axioms", "ordering", "finiteness", "domains", "subadditivity")
UNIT_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}
PERCENTILE_BAND = 5.0  # a percentile is the mean of the values within this many percent of it


def _span_metrics() -> list[tuple[str, str, str, str]]:
    """(metric, unit, span name, span tag): the median self time of matching spans."""
    rows = [(f"distributions.{fn}_{n}_ms", "ms", f"distributions.{fn}", n)
            for fn in ("from_samples", "shift", "scale", "abs", "comonotone_sum") for n in SIZES]
    rows += [
        ("distortions.eval_n1e5_ms", "ms", "distortions.eval", "n1e5"),
        ("distortions.is_convex_us", "us", "distortions.is_convex", ""),
        ("distortions.spectral_roundtrip_us", "us", "distortions.spectral_roundtrip", ""),
    ]
    rows += [(f"riskmeasures.{form}_{n}_ms", "ms", f"riskmeasures.{form}_risk", n)
             for form in FORMS for n in SIZES]
    rows += [
        ("riskmeasures.es_closed_n1e5_ms", "ms", "riskmeasures.expected_shortfall", "n1e5"),
        ("riskmeasures.es_infimum_n1e5_ms", "ms", "riskmeasures.expected_shortfall_infimum", "n1e5"),
        ("riskmeasures.quantile_small_us", "us", "riskmeasures.quantile_risk", "small"),
    ]
    rows += [(f"riskmeasures.{form}_{kind}_ms", "ms", f"riskmeasures.{form}_risk", kind)
             for form in FORMS for kind in TAIL_KINDS]
    rows += [
        ("riskmeasures.classify_analytic_us", "us", "riskmeasures.classify_membership", "analytic"),
        ("riskmeasures.classify_probe_ms", "ms", "riskmeasures.classify_membership", "probe"),
        ("subadditivity.search_cold_s", "s", "subadditivity.subadditivity_search", "cold"),
        ("subadditivity.search_warm_ms", "ms", "subadditivity.subadditivity_search", "warm"),
        ("subadditivity.counterexample_ms", "ms", "subadditivity.build_counterexample", ""),
    ]
    rows += [(f"suite.{g}_s", "s", "suite.run_suite", g) for g in SUITE_GROUPS]
    rows += [
        ("io.csv_parse_n1e5_ms", "ms", "io.distribution_from_csv_text", "n1e5"),
        ("io.json_spec_us", "us", "io.distribution_from_json", ""),
        ("cli.import_s", "s", "cli.import", ""),
        ("cli.main_ms", "ms", "cli.main", "warm"),
    ]
    return rows


SPAN_METRICS = _span_metrics()
# failed ops (raised, timed out or wrong) per form, and ops whose value failed its check
FAILURE_METRICS = tuple(f"riskmeasures.{form}_failed" for form in FORMS) + ("riskmeasures.check_failed",)
TRACE_METRICS = (("trace.overhead_s", "s"), ("trace.spans", "count"))

PER_LAYER = tuple((m, unit, "lower") for m, unit, _, _ in SPAN_METRICS) + tuple(
    (m, "count", "lower") for m in FAILURE_METRICS) + tuple((m, u, "lower") for m, u in TRACE_METRICS)


def percentile(values: list[float], q: float) -> float:
    """The q-th percentile, estimated as the mean of the values between the
    (q - PERCENTILE_BAND)-th and (q + PERCENTILE_BAND)-th percentiles.

    One order statistic of a few hundred mixed ops jumps between op types
    from run to run; the mean of its neighbours is steadier.  Values above
    the per-op time limit count as the limit.
    """
    ordered = sorted(min(v, OP_LIMIT_S) for v in values)
    n = len(ordered)
    lo = min(n - 1, math.floor((q - PERCENTILE_BAND) / 100.0 * n))
    hi = max(lo + 1, math.ceil((q + PERCENTILE_BAND) / 100.0 * n))
    return statistics.fmean(ordered[lo:hi])


def end_to_end(passes: list[dict], setup_samples: list[float], peak_rss_mb: float) -> dict:
    """The end-to-end metrics of a timed run from its passes.

    Times are op times scaled to the reference host speed (see harness.py);
    a pass takes the sum of its ops' times.  A failed op counts as slower
    than any op can pass, that is as taking the per-op time limit.
    """
    ops = [op for p in passes for op in p["ops"]]
    attempted = sum(op["items"] for op in ops)
    failed = sum(len(op["failed_items"]) for op in ops)
    latencies = [op["scaled_seconds"] if op["error"] is None else math.inf for op in ops]
    walls = [sum(op["scaled_seconds"] for op in p["ops"]) for p in passes]
    ok_rates = [sum(op["items"] - len(op["failed_items"]) for op in p["ops"]) / wall
                for p, wall in zip(passes, walls)]
    values = {
        "wall_s": statistics.median(walls),
        "ok_ops_per_s": statistics.median(ok_rates),
        "op_p50_ms": 1e3 * percentile(latencies, 50),
        "op_p90_ms": 1e3 * percentile(latencies, 90),
        "ok_frac": (attempted - failed) / attempted,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}


def per_layer(spans: list[list], failure_ops: list[dict], overhead_s: float) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced run, and the names no span was found for."""
    selfs: dict[tuple[str, str], list[float]] = {}
    for span, self_time in zip(spans, self_times(spans)):
        selfs.setdefault((span[0], span[1]), []).append(self_time)
    out, missing = {}, []
    for metric, unit, name, tag in SPAN_METRICS:
        found = selfs.get((name, tag))
        if not found:
            missing.append(metric)
        value = statistics.median(found) * UNIT_SCALE[unit] if found else 0.0
        out[metric] = {"value": value, "unit": unit}
    for form in FORMS:
        count = sum(1 for op in failure_ops if op["layer"] == f"riskmeasures.{form}_risk" and op["error"])
        out[f"riskmeasures.{form}_failed"] = {"value": count, "unit": "count"}
    checks = sum(1 for op in failure_ops
                 if op["layer"].startswith("riskmeasures.") and (op["error"] or "").startswith("wrong"))
    out["riskmeasures.check_failed"] = {"value": checks, "unit": "count"}
    out["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    out["trace.spans"] = {"value": len(spans), "unit": "count"}
    return out, missing
