"""Command-line front end: parse specs, dispatch computations, render results.

Exit codes: 0 success, 1 I/O or parse errors, 2 domain errors (non-convex
spectrum requests, counterexamples of convex distortions, out-of-range
parameters, undecided numerics).
"""

from __future__ import annotations

import argparse
import csv
import io as _stdio
import json
import sys

from .distortions import is_convex, spectral_of
from .errors import ParameterError, ParseError, QuantRiskError
from .io import (
    distortion_from_json,
    distribution_from_json,
    load_distortion,
    load_distribution,
    render_table,
    risk_record,
    spectral_density_to_json,
)
from .riskmeasures import (
    CLASSIFY_METHODS,
    INFIMUM_TOL,
    QUAD_TOL,
    DomainClass,
    choquet_risk,
    classify_membership,
    compare_domains,
    expected_shortfall,
    expected_shortfall_higher_order,
    expected_shortfall_infimum,
    mixture_risk,
    quantile_risk,
    value_at_risk,
)
from .subadditivity import build_counterexample
from .suite import SuiteConfig, default_config, run_suite

_REPRESENTATIONS = {
    "quantile": quantile_risk,
    "choquet": choquet_risk,
    "mixture": mixture_risk,
}

def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantrisk",
        description="Quantile/distortion risk measures over exact distribution algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("table", "json", "csv"), default="table")
        p.set_defaults(handler=handler)
        return p

    p = add("eval", _cmd_eval, "evaluate a distortion risk measure")
    p.add_argument("--dist", required=True, help="distribution file (.csv samples or .json spec)")
    p.add_argument("--distortion", required=True, help="distortion JSON (inline or @file)")
    p.add_argument("--representation", choices=sorted(_REPRESENTATIONS), default="quantile")
    p.add_argument("--quad-tol", type=_positive, default=QUAD_TOL, help="quadrature tolerance")

    p = add("es", _cmd_es, "expected shortfall (closed form, higher order, or infimum)")
    p.add_argument("--dist", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--order", type=int, default=1)
    p.add_argument("--infimum", action="store_true", help="use the minimization form")

    p = add("var", _cmd_var, "value at risk (lower quantile)")
    p.add_argument("--dist", required=True)
    p.add_argument("--alpha", type=float, required=True)

    p = add("spectrum", _cmd_spectrum, "spectral density of a convex distortion")
    p.add_argument("--distortion", required=True)

    p = add("check-convexity", _cmd_check_convexity, "exact convexity decision with witness")
    p.add_argument("--distortion", required=True)

    p = add("counterexample", _cmd_counterexample, "subadditivity counterexample for a non-convex distortion")
    p.add_argument("--distortion", required=True)
    p.add_argument("--a", type=_positive, default=1.0, help="loss size parameter")

    p = add("classify", _cmd_classify, "membership in the three integrability classes")
    p.add_argument("--dist", required=True)
    p.add_argument("--distortion", required=True)
    p.add_argument("--domain-class", choices=[*(c.value for c in DomainClass), "all"], default="all")
    p.add_argument("--method", choices=CLASSIFY_METHODS, default="auto")

    p = add("compare", _cmd_compare, "pointwise domain ordering of two distortions, decided exactly")
    p.add_argument("--d1", required=True)
    p.add_argument("--d2", required=True)
    p.add_argument("--delta", type=float, default=0.25)

    p = add("suite", _cmd_suite, "run the verification matrix")
    p.add_argument("--config", help="JSON matrix config; default built-in matrix")
    p.add_argument("--trials", type=int, help=f"search trials; default the config's, else {SuiteConfig.trials}")
    p.add_argument("--seed", type=int, help=f"search seed; default the config's, else {SuiteConfig.seed}")
    return parser


def _emit(rows, fmt: str, columns=None) -> str:
    if fmt == "json":
        payload = rows if len(rows) != 1 else rows[0]
        return json.dumps(payload, sort_keys=True, indent=2)
    if fmt == "csv":
        columns = columns or list(rows[0].keys())
        buf = _stdio.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows({c: row.get(c, "") for c in columns} for row in rows)
        return buf.getvalue().rstrip("\n")
    return render_table(rows, columns)


def _cmd_eval(args) -> str:
    dist = load_distribution(args.dist)
    distortion = load_distortion(args.distortion)
    fn = _REPRESENTATIONS[args.representation]
    value = fn(dist, distortion, epsabs=args.quad_tol)
    rec = risk_record(dist.label(), distortion.label(), value, args.representation, args.quad_tol)
    return _emit([rec], args.format)


def _cmd_es(args) -> str:
    if args.infimum and args.order != 1:
        raise ParameterError(f"--infimum computes the order-1 shortfall only, got --order {args.order}")
    dist = load_distribution(args.dist)
    if args.infimum:
        result = expected_shortfall_infimum(dist, args.alpha)
        rec = risk_record(dist.label(), f"es({args.alpha:g})", result.value, "infimum", INFIMUM_TOL)
        rec["minimizer"] = result.minimizer
        return _emit([rec], args.format)
    if args.order == 1:
        value = expected_shortfall(dist, args.alpha)
        label = f"es({args.alpha:g})"
    else:
        value = expected_shortfall_higher_order(dist, args.order, args.alpha)
        label = f"es_n({args.order},{args.alpha:g})"
    return _emit([risk_record(dist.label(), label, value, "closed-form", 0.0)], args.format)


def _cmd_var(args) -> str:
    dist = load_distribution(args.dist)
    value = value_at_risk(dist, args.alpha)
    return _emit(
        [risk_record(dist.label(), f"var({args.alpha:g})", value, "quantile", 0.0)], args.format
    )


def _cmd_spectrum(args) -> str:
    distortion = load_distortion(args.distortion)
    spectrum = spectral_of(distortion)  # NotSpectralError -> exit 2 with witness
    rows = spectral_density_to_json(spectrum)["pieces"]
    return _emit(rows, args.format)


def _cmd_check_convexity(args) -> str:
    distortion = load_distortion(args.distortion)
    res = is_convex(distortion)
    row = {
        "distortion": distortion.label(),
        "convex": res.convex,
        "witness_u": "" if res.witness is None else res.witness[0],
        "witness_eps": "" if res.witness is None else res.witness[1],
    }
    return _emit([row], args.format)


def _cmd_counterexample(args) -> str:
    distortion = load_distortion(args.distortion)
    rep = build_counterexample(distortion, a=args.a)  # NoCounterexampleError -> exit 2
    if args.format == "json":
        return json.dumps(rep.to_json(), sort_keys=True, indent=2)
    rows = [
        {"quantity": "witness u", "value": rep.u},
        {"quantity": "witness eps", "value": rep.eps},
        {"quantity": "a", "value": rep.a},
        {"quantity": "risk[X]", "value": rep.risk_x},
        {"quantity": "risk[Y]", "value": rep.risk_y},
        {"quantity": "risk[X+Y]", "value": rep.risk_sum},
        {"quantity": "gap", "value": rep.gap},
        {"quantity": "predicted gap", "value": rep.predicted_gap},
    ]
    summary = _emit(rows, args.format)
    if args.format == "csv":
        return summary
    table = rep.table
    grid = [
        {"x \\ y": f"{x:g}", **{f"{y:g}": p for y, p in zip(table.y_values, row)}}
        for x, row in zip(table.x_values, table.probs)
    ]
    joint = render_table(grid, ["x \\ y"] + [f"{y:g}" for y in table.y_values])
    return f"{summary}\n\njoint law P[X=x, Y=y]:\n{joint}"


def _cmd_classify(args) -> str:
    dist = load_distribution(args.dist)
    distortion = load_distortion(args.distortion)
    classes = (
        list(DomainClass) if args.domain_class == "all" else [DomainClass(args.domain_class)]
    )
    rows = []
    for cls in classes:
        verdict = classify_membership(dist, distortion, cls, method=args.method)
        rows.append(
            {
                "class": cls.value,
                "verdict": verdict.verdict.value,
                "method": verdict.method,
                "probe_levels": len(verdict.partials),
            }
        )
    return _emit(rows, args.format)


def _cmd_compare(args) -> str:
    d1 = load_distortion(args.d1)
    d2 = load_distortion(args.d2)
    cmp = compare_domains(d1, d2, args.delta)
    row = {
        "d1": d1.label(),
        "d2": d2.label(),
        "delta": cmp.delta,
        "relation": cmp.relation,
        "d1_le_d2": cmp.d1_le_d2,
        "d2_le_d1": cmp.d2_le_d1,
        "d1_domain_equals_expectation": cmp.domain_equals_expectation_1,
        "d2_domain_equals_expectation": cmp.domain_equals_expectation_2,
    }
    return _emit([row], args.format)


def _labelled_entries(entries, parse) -> list:
    """(label, object) pairs from config entries: a bare spec or {"spec": ..., "label": ...}."""
    out = []
    for entry in entries:
        body = entry.get("spec", entry) if isinstance(entry, dict) else entry
        obj = parse(body)
        label = entry.get("label") if isinstance(entry, dict) else None
        out.append((label or obj.label(), obj))
    return out


def _suite_config_from_json(path: str) -> SuiteConfig:
    try:
        with open(path) as f:
            spec = json.loads(f.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}", line=exc.lineno) from exc
    if not isinstance(spec, dict):
        raise ParseError(f"{path}: the config must be a JSON object")
    dists = _labelled_entries(_config_list(spec, "distributions"), distribution_from_json)
    distortions = _labelled_entries(_config_list(spec, "distortions"), distortion_from_json)
    if not dists or not distortions:
        raise ParseError("no cases: config must list distributions and distortions")
    config = SuiteConfig(distributions=dists, distortions=distortions)
    if "checks" in spec:
        config.checks = tuple(_config_list(spec, "checks", str))
    for key in ("trials", "seed"):
        if key in spec:
            setattr(config, key, _config_int(spec, key))
    return config


def _config_list(spec: dict, key: str, item=object) -> list:
    value = spec.get(key, [])
    if not isinstance(value, list) or not all(isinstance(v, item) for v in value):
        raise ParseError(f"config field {key!r} must be a list, got {value!r}")
    return value


def _config_int(spec: dict, key: str) -> int:
    """An integer as written; a float such as 2.5 or 1e400 is an error, never truncated."""
    value = spec[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"config field {key!r} must be an integer, got {value!r}")
    return value


def _cmd_suite(args) -> str:
    if args.config:
        config = _suite_config_from_json(args.config)
    else:
        config = default_config()
    if args.trials is not None:
        config.trials = args.trials
    if args.seed is not None:
        config.seed = args.seed
    report = run_suite(config)
    if args.format == "json":
        text = json.dumps(report.to_json(), sort_keys=True, indent=2)
    elif args.format == "csv":
        text = _emit([r.to_json() for r in report.results], "csv", ["group", "name", "status", "detail"])
    else:
        text = report.render_summary()
    if not report.ok:
        raise _SuiteFailure(text)
    return text


class _SuiteFailure(QuantRiskError):
    pass


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        print(args.handler(args))
        return 0
    except _SuiteFailure as exc:
        print(str(exc))
        print("error: verification suite reported failing checks", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except QuantRiskError as exc:
        detail = getattr(exc, "witness", None)
        suffix = f" (witness u={detail[0]:g}, eps={detail[1]:g})" if detail else ""
        print(f"error: {exc}{suffix}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
