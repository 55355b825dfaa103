"""The export lists: every exported name exists, and the package re-exports only exported names."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import quantrisk

MODULES = sorted(m.name for m in pkgutil.iter_modules(quantrisk.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"quantrisk.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


# every name the package gives, whether imported with it or on first access
EXPORTS = [
    "ComonotoneAdditivityReport", "ConvexityResult", "CounterexampleReport", "Discrete", "Distortion",
    "DistortionMeasure", "Distribution", "DomainClass", "DomainComparison", "InconclusiveError", "InfimumResult",
    "JointTable", "MembershipVerdict", "NoCounterexampleError", "NotSpectralError", "ParameterError", "ParetoNegative",
    "ParetoPositive", "ParseError", "Piece", "QuantRiskError", "RiskValue", "SpectralDensity", "SubadditivityViolation",
    "SuiteConfig", "SuiteReport", "Verdict", "build_counterexample", "choquet_risk", "classify_membership",
    "comonotone_additivity_check", "comonotone_sum", "compare_domains", "default_config", "distortion_of",
    "expectation", "expected_shortfall", "expected_shortfall_distortion", "expected_shortfall_higher_order",
    "expected_shortfall_infimum", "higher_order_es_distortion", "is_convex", "make_named", "mixture_risk",
    "point_mass", "quantile_risk", "run_suite", "spectral_of", "sqrt_example_distortion",
    "subadditivity_search", "threshold_distortion", "value_at_risk", "value_at_risk_distortion",
]


def test_the_package_imports_only_exported_names():
    tree = ast.parse(Path(quantrisk.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    eager = []
    for node in imports:
        module = importlib.import_module(f"quantrisk.{node.module}")
        exported = getattr(module, "__all__", None)
        assert exported is not None, node.module
        assert [a.name for a in node.names if a.name not in exported] == [], node.module
        eager += [a.name for a in node.names]
    for name, module in quantrisk._LAZY.items():
        assert name in importlib.import_module(f"quantrisk.{module}").__all__, name
    assert sorted(eager + list(quantrisk._LAZY)) == EXPORTS
    assert not set(eager) & set(quantrisk._LAZY)


class TestLazyExports:
    """The subadditivity search and the suite are loaded on first use, not with the package."""

    def test_a_lazy_name_is_resolved_once_and_kept(self, monkeypatch):
        from quantrisk import subadditivity, suite

        for name in ("run_suite", "build_counterexample"):
            monkeypatch.delitem(vars(quantrisk), name, raising=False)
        from quantrisk import build_counterexample, run_suite

        assert (run_suite, build_counterexample) == (suite.run_suite, subadditivity.build_counterexample)
        assert vars(quantrisk)["run_suite"] is suite.run_suite

    def test_a_star_import_gives_every_export(self):
        names = {}
        exec("from quantrisk import *", names)
        assert set(EXPORTS) <= set(names)

    def test_an_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="module 'quantrisk' has no attribute 'no_such_name'"):
            quantrisk.no_such_name
        with pytest.raises(ImportError):
            from quantrisk import no_such_name  # noqa: F401

    def test_the_cli_loads_neither_module_until_its_command_runs(self):
        script = (
            "import json, sys\n"
            "import quantrisk.cli\n"
            "quantrisk.cli.build_parser()\n"
            "loaded = lambda: sorted(m for m in sys.modules if m.startswith('quantrisk'))\n"
            "steps = [loaded()]\n"
            "from quantrisk import build_counterexample\n"
            "steps.append(loaded())\n"
            "from quantrisk import run_suite\n"
            "steps.append(loaded())\n"
            "print(json.dumps(steps))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(quantrisk.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
        parser_built, counterexample, suite = json.loads(proc.stdout)
        assert parser_built == [
            "quantrisk", "quantrisk.cli", "quantrisk.distortions", "quantrisk.distributions", "quantrisk.errors",
            "quantrisk.io", "quantrisk.riskmeasures",
        ]
        assert counterexample == sorted(parser_built + ["quantrisk.subadditivity"])
        assert suite == sorted(counterexample + ["quantrisk.suite"])
