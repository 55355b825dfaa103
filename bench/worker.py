"""Run one workload in a fresh process and write its raw measurements as JSON.

Started by run.py with ``PYTHONPATH`` pointing at the working tree's
``src/``.  Set-up time is taken from the start of this process, before
quantrisk is imported, to the end of the workload's input generation.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import quantrisk  # noqa: E402,F401  (its import is part of set-up)

import cli_cold  # noqa: E402
import discrete_exact  # noqa: E402
import metrics  # noqa: E402
import suite_verify  # noqa: E402
import tail_quadrature  # noqa: E402
from harness import Runner, Tracer  # noqa: E402

IMPORT_S = time.perf_counter() - T0
WORKLOADS = {m.NAME: m for m in (discrete_exact, tail_quadrature, suite_verify, cli_cold)}


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def _facts() -> dict:
    import numpy
    import scipy

    facts = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
             "numpy": numpy.__version__, "scipy": scipy.__version__}
    try:
        facts["blas"] = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["openblas configuration"]
    except (KeyError, TypeError):
        facts["blas"] = "unknown"
    with open("/proc/cpuinfo") as fh:
        facts["cpu"] = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "unknown")
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        caches.append(f"L{level} {kind} {size}")
    facts["caches"] = caches
    return facts


def _setup(module, seed: int, quick: bool, workdir: Path) -> tuple[dict, float]:
    """The workload's inputs, and its set-up time: the imports plus input generation."""
    t0 = time.perf_counter()
    inputs = module.setup(seed, quick, workdir / module.NAME)
    return inputs, IMPORT_S + time.perf_counter() - t0


def _warm_up(module, seed: int, workdir: Path) -> None:
    """One untimed pass on the quick inputs, so first-call costs stay out of the timed ops."""
    inputs, _ = _setup(module, seed, True, workdir / "warm-up")
    if hasattr(module, "prepare"):
        module.prepare(inputs)
    module.run_pass(inputs, Runner(), 0)


def _timed(module, inputs: dict, seconds: float, runner: Runner) -> list[dict]:
    """Passes over the op list until the next one would end after ``seconds``."""
    start, passes = time.perf_counter(), []
    while True:
        first = len(runner.ops)
        p0 = time.perf_counter()
        module.run_pass(inputs, runner, len(passes))
        p1 = time.perf_counter()
        passes.append({"seconds": p1 - p0, "ops": runner.ops[first:]})
        if p1 - start + (p1 - p0) > seconds or p1 + (p1 - p0) > runner.deadline:
            return passes


def _traced(name: str, all_inputs: dict, runner: Runner) -> dict:
    """One untraced pass of ``name``, then one traced pass of every workload and the layer probes.

    The tracing overhead compares the two passes of ``name``, each scaled to
    the reference host speed like the op times.
    """
    tracer = runner.tracer
    plain = Runner(deadline=runner.deadline)
    p0 = time.perf_counter()
    WORKLOADS[name].run_pass(all_inputs[name], plain, 0)
    untraced = plain.scaled_since(time.perf_counter() - p0, 0)
    walls, pass_ops = {}, {}
    for wname in [name] + [w for w in WORKLOADS if w != name]:
        wmod, first, mark = WORKLOADS[wname], len(runner.ops), runner.kernel_mark
        with tracer.span("pass", wname):
            p0 = time.perf_counter()
            wmod.run_pass(all_inputs[wname], runner, 1)
            walls[wname] = runner.scaled_since(time.perf_counter() - p0, mark)
        pass_ops[wname] = runner.ops[first:]
    for wname, wmod in WORKLOADS.items():
        if hasattr(wmod, "probes"):
            first = len(runner.ops)
            with tracer.span("probes", wname):
                wmod.probes(all_inputs[wname], runner)
            pass_ops[wname] += runner.ops[first:]
    for wname, ops in pass_ops.items():
        for op in ops:
            op["workload"] = wname
    failure_ops = [op for w in ("discrete-exact", "tail-quadrature") for op in pass_ops[w]]
    layer, missing = metrics.per_layer(tracer.spans, failure_ops, walls[name] - untraced)
    return {"layer": layer, "missing": missing, "untraced_wall_s": untraced, "traced_wall_s": walls}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--deadline", type=float, required=True, help="seconds this process may run")
    parser.add_argument("--quick", action="store_true", help="tiny inputs, one pass")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    workdir = Path(args.out).with_suffix(".inputs")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        setup_s, all_inputs = {}, {}
        # a traced run replays every workload, so it needs all their inputs
        for name in (list(WORKLOADS) if args.trace else names):
            all_inputs[name], setup_s[name] = _setup(WORKLOADS[name], args.seed, args.quick, workdir)
        result = {"setup_s": setup_s}
        if not args.setup_only:
            for name, inputs in all_inputs.items():
                if hasattr(WORKLOADS[name], "prepare"):
                    WORKLOADS[name].prepare(inputs)
            if not args.quick:
                for name in all_inputs:
                    _warm_up(WORKLOADS[name], args.seed, workdir)
            runner = Runner(Tracer() if args.trace else None, deadline=T0 + args.deadline)
            if args.trace:
                result.update(_traced(names[0], all_inputs, runner))
                result["spans"] = runner.tracer.to_json()
                result["ops"] = runner.ops
            else:
                seconds = 0.0 if args.quick else args.seconds  # quick mode makes one pass
                result["passes"] = {name: _timed(WORKLOADS[name], all_inputs[name], seconds, runner)
                                    for name in names}
            result["peak_rss_mb"] = _rss_mb(resource.RUSAGE_SELF)
            result["peak_rss_children_mb"] = _rss_mb(resource.RUSAGE_CHILDREN)
            result["facts"] = _facts()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
