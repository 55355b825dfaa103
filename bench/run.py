"""quantrisk benchmark: four checked workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload discrete-exact --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, one after another
    python3 bench/run.py --selftest                   # tiny inputs, checks metric names

Each workload runs in its own fresh interpreter (bench/worker.py) that imports
quantrisk from this tree's ``src/``, with BLAS and OpenMP pools limited to one
thread.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a
separate traced run and prints the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The full result, with machine facts and every failing cell, is written to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("discrete-exact", "tail-quadrature", "suite-verify", "cli-cold")
# workloads whose peak memory is that of their child processes
RSS_OF_CHILDREN = ("cli-cold",)
SETUP_SAMPLES = 3  # fresh processes whose set-up times give the median setup_s
RUN_BUDGET_S = 170.0  # every process of one workload run ends within this


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args: list[str], budget_end: float) -> dict:
    """Run bench/worker.py to completion and return the JSON it wrote."""
    OUT.mkdir(exist_ok=True)
    out = OUT / f"raw-{os.getpid()}.json"
    out.unlink(missing_ok=True)
    left = budget_end - time.monotonic()
    cmd = [sys.executable, str(BENCH / "worker.py"), *args, "--deadline", f"{left - 5.0:.1f}",
           "--out", str(out)]
    try:
        subprocess.run(cmd, env=_child_env(), cwd=ROOT, stdout=sys.stderr, timeout=left, check=True)
        return json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)


def _known_failures() -> dict:
    return json.loads((BENCH / "known_failures.json").read_text())


def _failing_cells(workload: str, ops: list[dict]) -> list[dict]:
    """Each failing cell once, with how often it failed and whether it failed at the seed commit."""
    known, cells = _known_failures(), {}
    for op in ops:
        for name, why in op["failed_items"]:
            cell = f"{workload}:{name}"
            entry = cells.setdefault(cell, {"cell": cell, "reason": why, "known": cell in known, "times": 0})
            entry["times"] += 1
    return list(cells.values())


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    budget_end = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        raw = _worker(common + ["--trace", "1"], budget_end)
        values = raw["layer"]
        ops = raw["ops"]
        # failing cells of the traced passes, listed under the workload that owns them
        failing = []
        for wname in WORKLOADS:
            failing += _failing_cells(wname, [op for op in ops if op.get("workload") == wname])
    else:
        setups = [_worker(common + ["--setup-only"], budget_end)["setup_s"][name]
                  for _ in range(SETUP_SAMPLES - 1)]
        raw = _worker(common, budget_end)
        setups.append(raw["setup_s"][name])
        passes = raw["passes"][name]
        rss = raw["peak_rss_children_mb" if name in RSS_OF_CHILDREN else "peak_rss_mb"]
        values = metrics.end_to_end(passes, setups, rss)
        ops = [op for p in passes for op in p["ops"]]
        failing = _failing_cells(name, ops)
    attempted = sum(op["items"] for op in ops)
    failed = sum(len(op["failed_items"]) for op in ops)
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": all(f["known"] for f in failing),
        "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted if attempted else 1.0,
        "checked_ops": sum(1 for op in ops if op.get("checked")),
        "metrics": values, "failing_cells": failing, "facts": raw["facts"],
    }
    if trace:
        result.update({k: raw[k] for k in ("missing", "untraced_wall_s", "traced_wall_s")})
        spans_file = OUT / f"spans-{name}-seed{seed}.json"
        spans_file.write_text(json.dumps(raw["spans"]))
    else:
        result["setup_samples_s"] = setups
        result["pass_seconds"] = [p["seconds"] for p in passes]  # measured, not scaled
        result["op_seconds"] = [None if op["error"] else op["seconds"] for op in ops]
        result["op_scaled_seconds"] = [None if op["error"] else op["scaled_seconds"] for op in ops]
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(result, indent=1))
    return result


def print_summary(result: dict) -> None:
    new = [f for f in result["failing_cells"] if not f["known"]]
    print(f"{result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"{result['attempted']} ops attempted, {result['failed']} failed in "
          f"{len(result['failing_cells'])} cells ({len(new)} cells not failing at the seed commit), "
          f"fail_frac {result['fail_frac']:.6f}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    for f in result["failing_cells"]:
        print(f"  FAILED{'' if f['known'] else ' (new)'} x{f['times']} {f['cell']}: {f['reason']}")


def selftest() -> int:
    """Tiny inputs through every workload, timed and traced; check names, units and checks."""
    budget_end = time.monotonic() + RUN_BUDGET_S
    raw = _worker(["--workload", "all", "--seed", "1", "--quick"], budget_end)
    traced = _worker(["--workload", "discrete-exact", "--seed", "1", "--quick", "--trace", "1"], budget_end)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    want_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if want_e2e != {n: u for n, u, _ in metrics.END_TO_END}:
        problems.append("BENCHMARK.json end_to_end differs from metrics.END_TO_END")
    if want_layer != {n: u for n, u, _ in metrics.PER_LAYER}:
        problems.append("BENCHMARK.json per_layer differs from metrics.PER_LAYER")
    for name in WORKLOADS:
        passes = raw["passes"][name]
        got = metrics.end_to_end(passes, [raw["setup_s"][name]], raw["peak_rss_mb"])
        if {n: m["unit"] for n, m in got.items()} != want_e2e:
            problems.append(f"{name}: end-to-end metrics {sorted(got)}")
        ops = [op for p in passes for op in p["ops"]]
        if not any(op["checked"] for op in ops):
            problems.append(f"{name}: no op was checked")
    if {n: m["unit"] for n, m in traced["layer"].items()} != want_layer:
        problems.append(f"per-layer metrics {sorted(traced['layer'])}")
    if traced["missing"]:
        problems.append(f"no spans for {traced['missing']}")
    for p in problems:
        print(f"selftest: {p}", file=sys.stderr)
    print(f"selftest {'failed' if problems else 'ok'}: {len(want_e2e)} end-to-end and "
          f"{len(want_layer)} per-layer metrics over {len(WORKLOADS)} workloads")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time of a timed run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "quantrisk" / "__init__.py").is_file():
        print(f"error: no quantrisk package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
        except (subprocess.SubprocessError, OSError, ValueError) as exc:
            print(f"error: workload {name} did not complete: {exc}", file=sys.stderr)
            return 1
        print_summary(results[-1])
    if len(results) == 1:
        values = results[0]["metrics"]
    else:
        values = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": values,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
