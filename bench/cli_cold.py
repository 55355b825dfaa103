"""cli-cold: one fresh interpreter per `python -m quantrisk.cli` invocation.

This is the only workload where the ``cli`` and ``io`` layers and the import
cost show.  Each invocation must exit 0, and the value in its JSON output
must equal the in-process library result on the same input files.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from quantrisk import (
    build_counterexample,
    classify_membership,
    DomainClass,
    expected_shortfall,
    is_convex,
    make_named,
    mixture_risk,
    quantile_risk,
    spectral_of,
    value_at_risk,
)
from quantrisk.cli import main as cli_main
from quantrisk.io import (
    distribution_from_csv_text,
    distribution_from_json,
    load_distribution,
    spectral_density_to_json,
)

NAME = "cli-cold"

ROWS = {"n1e4": 10_000, "n1e5": 100_000}
QUICK_ROWS = {"n1e4": 50, "n1e5": 100}
PARETO = {"kind": "pareto_negative", "beta": 1.0, "theta": 2.0}
ES = '{"kind": "es", "alpha": 0.9}'
ES_N = '{"kind": "es_n", "n": 3, "alpha": 0.2}'
THRESHOLD = '{"kind": "threshold", "delta": 0.5}'
VAR = '{"kind": "var", "alpha": 0.5}'
SQRT = '{"kind": "sqrt_example"}'


def setup(seed: int, quick: bool, workdir: Path) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    files = {}
    for tag, rows in (QUICK_ROWS if quick else ROWS).items():
        rng = np.random.default_rng([seed, rows])
        values = rng.normal(100.0, 15.0, rows)
        path = workdir / f"samples_{tag}.csv"
        if tag == "n1e4":  # value,weight rows with a header
            weights = rng.integers(1, 5, rows)
            lines = ["value,weight"] + [f"{v:.4f},{w}" for v, w in zip(values, weights)]
        else:
            lines = [f"{v:.4f}" for v in values]
        path.write_text("\n".join(lines) + "\n")
        files[tag] = str(path)
    files["pareto"] = str(workdir / "pareto.json")
    Path(files["pareto"]).write_text(json.dumps(PARETO))
    return {"files": files, "quick": quick}


def _invocations(files: dict) -> list[tuple[str, list[str], object]]:
    """(name, argv, in-process reference) for each invocation of a pass."""
    csv4 = load_distribution(files["n1e4"])
    csv5 = load_distribution(files["n1e5"])
    pareto = load_distribution(files["pareto"])
    sqrt = make_named("sqrt_example")
    convexity = is_convex(make_named("threshold", delta=0.5))
    return [
        ("var", ["var", "--dist", files["n1e4"], "--alpha", "0.5"],
         {"value": value_at_risk(csv4, 0.5)}),
        ("es", ["es", "--dist", files["n1e4"], "--alpha", "0.9"],
         {"value": expected_shortfall(csv4, 0.9).json_value()}),
        ("eval", ["eval", "--dist", files["n1e5"], "--distortion", ES],
         {"value": quantile_risk(csv5, make_named("es", alpha=0.9)).json_value()}),
        ("eval-mixture", ["eval", "--dist", files["pareto"], "--distortion", ES_N,
                          "--representation", "mixture"],
         {"value": mixture_risk(pareto, make_named("es_n", n=3, alpha=0.2)).json_value()}),
        ("check-convexity", ["check-convexity", "--distortion", THRESHOLD],
         {"convex": convexity.convex, "witness_u": convexity.witness[0],
          "witness_eps": convexity.witness[1]}),
        ("spectrum", ["spectrum", "--distortion", ES_N],
         spectral_density_to_json(spectral_of(make_named("es_n", n=3, alpha=0.2)))["pieces"]),
        ("counterexample", ["counterexample", "--distortion", VAR],
         build_counterexample(make_named("var", alpha=0.5)).to_json()),
        ("classify", ["classify", "--dist", files["pareto"], "--distortion", SQRT],
         [{"class": c.value, "verdict": v.verdict.value, "method": v.method}
          for c, v in ((c, classify_membership(pareto, sqrt, c)) for c in DomainClass)]),
    ]


def prepare(inputs: dict) -> None:
    """In-process reference results; computed once, outside the timed passes."""
    runs = _invocations(inputs["files"])
    inputs["invocations"] = runs[:1] if inputs["quick"] else runs


def _same(got, want) -> bool:
    """Equal JSON values; floats within 1e-12 relative, extra keys in ``got`` allowed."""
    if isinstance(want, dict):
        return isinstance(got, dict) and all(k in got and _same(got[k], v) for k, v in want.items())
    if isinstance(want, (list, tuple)):
        return isinstance(got, list) and len(got) == len(want) and all(map(_same, got, want))
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return abs(got - want) <= 1e-12 * max(1.0, abs(want))
    return got == want


def _run(argv: list[str]) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "quantrisk.cli", *argv, "--format", "json"]
    return subprocess.run(cmd, capture_output=True, text=True)


def _cli_check(want):
    def check(proc) -> str | None:
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
        try:
            got = json.loads(proc.stdout)
        except json.JSONDecodeError as exc:
            return f"output is not JSON: {exc}"
        want_json = json.loads(json.dumps(want))
        return None if _same(got, want_json) else f"output {proc.stdout.strip()[:200]} vs {want_json}"

    return check


def run_pass(inputs: dict, r, index: int) -> None:
    for name, argv, want in inputs["invocations"]:
        r.call(name, "cli.process", _run, argv, tag=name, check=_cli_check(want))


def _main_quiet(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_main([*argv, "--format", "json"])


def probes(inputs: dict, r) -> None:
    """In-process io and cli calls, and the import cost of a fresh interpreter."""
    files = inputs["files"]
    text = Path(files["n1e5"]).read_text()
    for _ in range(3):
        r.call("probe/csv_parse", "io.distribution_from_csv_text", distribution_from_csv_text, text,
               tag="n1e5")
    spec = Path(files["pareto"]).read_text()
    for _ in range(50):
        r.call("probe/json_spec", "io.distribution_from_json", distribution_from_json, spec)
    name, argv, want = inputs["invocations"][0]
    for tag in ("cold", "warm", "warm", "warm", "warm"):
        r.call(f"probe/main-{name}", "cli.main", _main_quiet, argv, tag=tag,
               check=lambda code: None if code == 0 else f"exit {code}")
    for _ in range(1 if inputs["quick"] else 3):
        r.call("probe/import", "cli.import", subprocess.run,
               [sys.executable, "-c", "import quantrisk.cli"],
               check=lambda proc: None if proc.returncode == 0 else f"exit {proc.returncode}")
