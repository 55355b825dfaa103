"""Mutated specs, configs and CSV bodies end in an exit code, never a traceback.

Each JSON example takes a valid distribution spec, suite config or
distortion spec, picks one field at any depth and deletes it or replaces it
with null, a string, NaN, a nested list, a negative number or the
out-of-range literal 1e400.  Each CSV example replaces a field or a line of
a valid sample file, or inserts or deletes a line, one to three times.  The
CLI runs in-process; a mutation may leave the input valid, so exit 0 is
allowed too.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantrisk.cli import main

DISTRIBUTIONS = [
    {"kind": "empirical", "values": [1, 2, 2, 3], "weights": [1, 1, 1, 2]},
    {"kind": "discrete", "values": [-1.25, 0.0], "probs": [0.25, 0.75]},
    {"kind": "point_mass", "value": 7},
    {"kind": "pareto_negative", "beta": 1.0, "theta": 2.0},
    {"kind": "pareto_positive", "beta": 1.0, "theta": 2.0},
    {"kind": "transformed", "base": {"kind": "empirical", "values": [-2, 5]}, "op": {"kind": "scale", "factor": 2}},
    {"kind": "comonotone_sum", "terms": [{"kind": "empirical", "values": [1, 2]}, {"kind": "discrete", "values": [10, 20], "probs": [0.5, 0.5]}]},
]

_BIG = "__1e400__"  # written into the JSON text as the literal 1e400
_DELETE = object()
MUTATIONS = [_DELETE, None, "abc", float("nan"), [[1]], -1, _BIG]


DISTORTIONS = [
    {"kind": "es", "alpha": 0.9},
    {"kind": "var", "alpha": 0.5},
    {"kind": "es_n", "n": 2, "alpha": 0.5},
    {"kind": "threshold", "delta": 0.5},
    {"kind": "sqrt_example"},
    {
        "kind": "piecewise",
        "name": "fuzz",
        "pieces": [
            {"form": "constant", "lo": 0, "hi": 0.25, "level": 0},
            {"form": "linear", "lo": 0.25, "hi": 0.5, "slope": 0.5, "intercept": -0.125},
            {"form": "power", "lo": 0.5, "hi": 1, "base": 0.015625, "coef": 0.984375, "origin": 0.25, "width": 0.75,
             "expo": 2},
        ],
    },
]

CSV = "value,weight\n-2.5,1\n0,2\n# comment\n\n1.5,0.5\n4,1\n"
CSV_TOKENS = ["", "abc", "nan", "inf", "-inf", "1e400", "-1", "0", "1e-320", "1e308", "1,1e308", "1,2,3", ",", "#",
              "value"]


def _paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated(draw, specs):
    spec = copy.deepcopy(draw(st.sampled_from(specs)))
    *parents, key = draw(st.sampled_from(list(_paths(spec))))
    node = spec
    for p in parents:
        node = node[p]
    mutation = draw(st.sampled_from(MUTATIONS))
    if mutation is _DELETE:
        del node[key]
    else:
        node[key] = mutation
    return json.dumps(spec).replace(json.dumps(_BIG), "1e400")


@st.composite
def mutated_csv(draw):
    lines = CSV.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines)))
        token = draw(st.sampled_from(CSV_TOKENS))
        how = draw(st.sampled_from(["field", "line", "delete", "insert"] if i < len(lines) else ["insert"]))
        if how == "field":
            fields = lines[i].split(",")
            fields[draw(st.integers(0, len(fields) - 1))] = token
            lines[i] = ",".join(fields)
        elif how == "line":
            lines[i] = token
        elif how == "delete":
            del lines[i]
        else:
            lines.insert(i, token)
    return "\n".join(lines) + "\n"


def _suite_configs():
    return [
        {
            "distributions": [dist],
            "distortions": [
                {"kind": "es", "alpha": 0.5},
                {"kind": "piecewise", "pieces": [{"form": "linear", "lo": 0, "hi": 1, "slope": 1}]},
            ],
            "checks": ["finiteness"],
            "trials": 10,
            "seed": 3,
        }
        for dist in DISTRIBUTIONS
    ]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _csv_commands(path):
    return [
        ["eval", "--dist", path, "--distortion", '{"kind":"es","alpha":0.5}'],
        ["var", "--dist", path, "--alpha", "0.5"],
        ["es", "--dist", path, "--alpha", "0.9"],
        ["es", "--dist", path, "--alpha", "0.9", "--infimum"],
    ]


def _distortion_commands(text, dist_path):
    return [
        ["check-convexity", "--distortion", text],
        ["spectrum", "--distortion", text],
        ["eval", "--dist", dist_path, "--distortion", text],
    ]


def test_templates_are_valid(workdir):
    path = workdir / "spec.json"
    for dist in DISTRIBUTIONS:
        path.write_text(json.dumps(dist))
        assert _run(["eval", "--dist", str(path), "--distortion", '{"kind":"es","alpha":0.5}'])[0] == 0
    path.write_text(json.dumps(DISTRIBUTIONS[0]))
    for distortion in DISTORTIONS:
        for argv in _distortion_commands(json.dumps(distortion), str(path)):
            # a non-convex distortion has no spectrum
            no_spectrum = argv[0] == "spectrum" and distortion["kind"] in ("var", "threshold", "sqrt_example")
            assert _run(argv)[0] == (2 if no_spectrum else 0)
    csv_path = workdir / "sample.csv"
    csv_path.write_text(CSV)
    for argv in _csv_commands(str(csv_path)):
        assert _run(argv)[0] == 0
    for config in _suite_configs():
        path.write_text(json.dumps(config))
        assert _run(["suite", "--config", str(path)])[0] == 0


@given(text=mutated(DISTRIBUTIONS))
@settings(max_examples=50, deadline=None)
def test_eval_of_a_mutated_distribution(workdir, text):
    path = workdir / "dist.json"
    path.write_text(text)
    code, err = _run(["eval", "--dist", str(path), "--distortion", '{"kind":"es","alpha":0.5}'])
    assert code in (0, 1, 2)
    assert "Traceback" not in err


@given(text=mutated(_suite_configs()))
@settings(max_examples=50, deadline=None)
def test_suite_of_a_mutated_config(workdir, text):
    path = workdir / "config.json"
    path.write_text(text)
    code, err = _run(["suite", "--config", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err


@given(text=mutated(DISTORTIONS))
@settings(max_examples=50, deadline=None)
def test_commands_on_a_mutated_distortion(workdir, text):
    path = workdir / "dist.json"
    path.write_text(json.dumps(DISTRIBUTIONS[0]))
    for argv in _distortion_commands(text, str(path)):
        code, err = _run(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err


@given(text=mutated_csv())
@settings(max_examples=50, deadline=None)
def test_commands_on_a_mutated_csv_body(workdir, text):
    path = workdir / "sample.csv"
    path.write_text(text)
    for argv in _csv_commands(str(path)):
        code, err = _run(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
