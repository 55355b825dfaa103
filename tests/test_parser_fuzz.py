"""Mutated JSON distribution specs and suite configs end in an exit code, never a traceback.

Each example takes a valid spec, picks one field at any depth and deletes it
or replaces it with null, a string, NaN, a nested list, a negative number or
the out-of-range literal 1e400, then runs the CLI in-process.
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


def test_templates_are_valid(workdir):
    path = workdir / "spec.json"
    for dist in DISTRIBUTIONS:
        path.write_text(json.dumps(dist))
        assert _run(["eval", "--dist", str(path), "--distortion", '{"kind":"es","alpha":0.5}'])[0] == 0
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
