"""CLI golden transcript: closed-form commands give byte-identical output.

Every case runs one command line through ``cli.main`` in a directory holding
the input files below, and compares stdout, stderr and the exit code with
``golden/cli_transcript.json``.  Only commands that need no quadrature are
covered, so the transcript does not depend on scipy's ``quad``.

To record the transcript again after an intended change of output:

    PYTHONPATH=src python tests/test_cli_golden.py --record

It prints the index, argv and old and new output of every case whose
output changed from the file on disk, then how many changed.
"""

import contextlib
import functools
import io
import json
import os
import sys
from pathlib import Path

import pytest

from quantrisk.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_transcript.json"

FILES = {
    "plain.csv": "1\n2\n3\n4\n",
    "weighted.csv": "value,weight\n1.5,1\n2,3\n-0.25,2\n4,1\n-3,0.5\n",
    "pareto.json": '{"kind": "pareto_negative", "beta": 1.0, "theta": 2.0}\n',
    "pareto_t1.json": '{"kind": "pareto_negative", "beta": 2.0, "theta": 1.0}\n',
}

CONVEX_NAMED = [
    '{"kind": "expectation"}',
    '{"kind": "es", "alpha": 0.25}',
    '{"kind": "es", "alpha": 0.5}',
    '{"kind": "es", "alpha": 0.9}',
    '{"kind": "es_n", "n": 2, "alpha": 0}',
    '{"kind": "es_n", "n": 3, "alpha": 0.2}',
    '{"kind": "es_n", "n": 5, "alpha": 0.5}',
]
NON_CONVEX_NAMED = [
    '{"kind": "var", "alpha": 0.25}',
    '{"kind": "var", "alpha": 0.5}',
    '{"kind": "threshold", "delta": 0.5}',
    '{"kind": "sqrt_example"}',
]
# flat, then a quadratic ramp, then a steeper line: convex with a kink at 0.6
CUSTOM_CONVEX = json.dumps({
    "kind": "piecewise",
    "name": "custom_convex",
    "pieces": [
        {"form": "constant", "lo": 0, "hi": 0.2, "level": 0},
        {"form": "power", "lo": 0.2, "hi": 0.6, "coef": 0.8, "expo": 2},
        {"form": "linear", "lo": 0.6, "hi": 1, "slope": 2, "intercept": -1},
    ],
})
# a concave root, then a jump at 0.4 onto the identity
CUSTOM_JUMP = json.dumps({
    "kind": "piecewise",
    "pieces": [
        {"form": "power", "lo": 0, "hi": 0.4, "coef": 0.2, "origin": 0, "width": 1, "expo": 0.5},
        {"form": "linear", "lo": 0.4, "hi": 1, "slope": 1},
    ],
})
DISTORTIONS = CONVEX_NAMED + NON_CONVEX_NAMED + [CUSTOM_CONVEX, CUSTOM_JUMP]


def _cases():
    lines = []
    for csv in ("plain.csv", "weighted.csv"):
        for alpha in ("0.25", "0.5", "0.9"):
            lines.append(["var", "--dist", csv, "--alpha", alpha])
            lines.append(["es", "--dist", csv, "--alpha", alpha])
            lines.append(["es", "--dist", csv, "--alpha", alpha, "--infimum"])
        lines.append(["es", "--dist", csv, "--alpha", "0"])
        lines.append(["es", "--dist", csv, "--alpha", "0.2", "--order", "3"])
        lines.append(["es", "--dist", csv, "--alpha", "0.5", "--order", "2"])
        for distortion in DISTORTIONS:
            for rep in ("quantile", "choquet", "mixture"):
                lines.append(["eval", "--dist", csv, "--distortion", distortion,
                              "--representation", rep])
    lines.append(["var", "--dist", "pareto.json", "--alpha", "0.5"])
    lines.append(["es", "--dist", "pareto.json", "--alpha", "0.9"])
    lines.append(["es", "--dist", "pareto_t1.json", "--alpha", "0.9"])
    lines.append(["es", "--dist", "plain.csv", "--alpha", "1.5"])
    # a non-convex distortion fails before any domain check or quadrature
    for distortion in NON_CONVEX_NAMED + [CUSTOM_JUMP]:
        lines.append(["eval", "--dist", "pareto.json", "--distortion", distortion,
                      "--representation", "mixture"])
    for distortion in DISTORTIONS:
        lines.append(["check-convexity", "--distortion", distortion])
        lines.append(["spectrum", "--distortion", distortion])
        lines.append(["counterexample", "--distortion", distortion])
    lines.append(["counterexample", "--distortion", '{"kind": "var", "alpha": 0.5}', "--a", "3"])
    for d1, d2, delta in [
        ('{"kind": "es", "alpha": 0.5}', '{"kind": "expectation"}', "0.01"),
        ('{"kind": "var", "alpha": 0.5}', '{"kind": "es", "alpha": 0.5}', "0.25"),
        ('{"kind": "sqrt_example"}', '{"kind": "expectation"}', "0.25"),
        ('{"kind": "es_n", "n": 3, "alpha": 0.2}', CUSTOM_CONVEX, "0.1"),
        ('{"kind": "threshold", "delta": 0.5}', CUSTOM_JUMP, "0.5"),
    ]:
        lines.append(["compare", "--d1", d1, "--d2", d2, "--delta", delta])
    for dist in ("pareto.json", "pareto_t1.json", "plain.csv"):
        for distortion in ['{"kind": "sqrt_example"}', '{"kind": "expectation"}',
                           '{"kind": "es", "alpha": 0.5}', '{"kind": "var", "alpha": 0.5}']:
            lines.append(["classify", "--dist", dist, "--distortion", distortion])
    lines.append(["classify", "--dist", "pareto.json", "--distortion", '{"kind": "sqrt_example"}',
                  "--domain-class", "acerbi", "--method", "analytic"])
    return [[*argv, "--format", fmt] for argv in lines for fmt in ("table", "json", "csv")]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _write_files(directory: Path):
    for name, text in FILES.items():
        (directory / name).write_text(text)


@functools.cache
def _load():
    return json.loads(GOLDEN.read_text())


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    _write_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_transcript_covers_the_cases():
    assert [case["argv"] for case in _load()] == _cases()


@pytest.mark.parametrize(
    "index", range(len(_cases())), ids=[f"{i:03d}-{argv[0]}" for i, argv in enumerate(_cases())]
)
def test_golden(workdir, index):
    case = _load()[index]
    assert _run(case["argv"]) == case


def _record():
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _write_files(Path(tmp))
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            transcript = [_run(argv) for argv in _cases()]
        finally:
            os.chdir(cwd)
    loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    if loaded:
        raise SystemExit(f"a recorded command used quadrature (loaded {loaded[0]})")
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []
    changed = 0
    for index, case in enumerate(transcript):
        before = old[index] if index < len(old) and old[index]["argv"] == case["argv"] else {}
        if case == before:
            continue
        changed += 1
        print(f"{index:03d} {json.dumps(case['argv'])}")
        for field in ("stdout", "stderr", "code"):
            if before.get(field) != case[field]:
                print(f"  old {field}: {before.get(field)!r}\n  new {field}: {case[field]!r}")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(transcript, indent=1) + "\n")
    print(f"recorded {len(transcript)} cases in {GOLDEN}")
    print(f"{changed} of {len(transcript)} cases changed")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python tests/test_cli_golden.py --record")
    _record()
