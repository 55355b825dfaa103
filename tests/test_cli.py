"""CLI behaviour: subcommands, exit codes, output determinism."""

import argparse
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import quantrisk
from quantrisk import ParetoNegative, choquet_risk, make_named
from quantrisk.cli import build_parser, main
from quantrisk.riskmeasures import CLASSIFY_METHODS, DomainClass
from quantrisk.suite import CheckResult, SuiteReport


@pytest.fixture()
def samples(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text("1\n2\n3\n4\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    def test_es_value(self, capsys, samples):
        code, out, _ = run(
            capsys, "eval", "--dist", samples, "--distortion", '{"kind":"es","alpha":0.5}'
        )
        assert code == 0
        assert "3.5" in out

    def test_representations_agree(self, capsys, samples):
        values = {}
        for rep in ("quantile", "choquet", "mixture"):
            code, out, _ = run(
                capsys,
                "eval",
                "--dist",
                samples,
                "--distortion",
                '{"kind":"es","alpha":0.5}',
                "--representation",
                rep,
                "--format",
                "json",
            )
            assert code == 0
            values[rep] = json.loads(out)["value"]
        assert abs(values["quantile"] - values["choquet"]) < 1e-8
        assert abs(values["quantile"] - values["mixture"]) < 1e-6

    @pytest.mark.parametrize("argv", [
        ["eval", "--dist", "x.csv", "--distortion", '{"kind":"expectation"}', "--quad-tol", "0"],
        ["counterexample", "--distortion", '{"kind":"var","alpha":0.5}', "--a", "-1"],
    ], ids=["quad-tol", "a"])
    def test_a_non_positive_size_is_refused_by_the_parser(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be positive, got" in capsys.readouterr().err

    def test_missing_file_is_io_error(self, capsys):
        code, _, err = run(
            capsys, "eval", "--dist", "/no/such/file.csv", "--distortion", '{"kind":"expectation"}'
        )
        assert code == 1
        assert "error" in err

    def test_bad_parameter_is_domain_error(self, capsys, samples):
        code, _, err = run(
            capsys, "eval", "--dist", samples, "--distortion", '{"kind":"es","alpha":1.5}'
        )
        assert code == 2

    def test_unknown_flag_rejected(self, capsys, samples):
        with pytest.raises(SystemExit):
            main(["eval", "--dist", samples, "--distortion", "{}", "--bogus"])


class TestOutput:
    def test_an_unwritable_output_is_an_io_error(self, capsys, monkeypatch, samples):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["var", "--dist", samples, "--alpha", "0.5"]) == 1
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


class TestShortfallAndVar:
    def test_es_closed_form(self, capsys, samples):
        code, out, _ = run(capsys, "es", "--dist", samples, "--alpha", "0.75", "--format", "json")
        assert code == 0 and json.loads(out)["value"] == 4.0

    def test_es_infimum(self, capsys, samples):
        code, out, _ = run(
            capsys, "es", "--dist", samples, "--alpha", "0.5", "--infimum", "--format", "json"
        )
        payload = json.loads(out)
        assert code == 0 and abs(payload["value"] - 3.5) < 1e-8
        assert "minimizer" in payload

    def test_es_infimum_refuses_a_higher_order(self, capsys, samples):
        # the infimum form is the order-1 shortfall's: an order it would ignore is refused
        code, out, err = run(capsys, "es", "--dist", samples, "--alpha", "0.5", "--order", "3", "--infimum")
        assert (code, out) == (2, "")
        assert err == "error: --infimum computes the order-1 shortfall only, got --order 3\n"

    def test_var(self, capsys, samples):
        code, out, _ = run(capsys, "var", "--dist", samples, "--alpha", "0.5", "--format", "json")
        assert code == 0 and json.loads(out)["value"] == 2.0

    def test_var_of_a_reflected_tail_below_the_last_float_under_1(self, capsys, tmp_path):
        # |X| of a left tail is its reflection, which reads the base at 1 - alpha: 1.0 in floats
        path = tmp_path / "absp.json"
        path.write_text('{"kind":"transformed","base":{"kind":"pareto_negative","beta":1,"theta":2},'
                        '"op":{"kind":"abs"}}')
        code, out, _ = run(capsys, "var", "--dist", str(path), "--alpha", "1e-20", "--format", "json")
        assert code == 0 and abs(json.loads(out)["value"] - 1.0) <= 1e-15

    def test_var_of_a_reflected_unbounded_tail_below_the_last_float_under_1(self, capsys, tmp_path):
        # the negative part of a right tail shifted by -50 is 0 at 1e-20; 1 - 1e-20 has no float level
        path = tmp_path / "negp.json"
        path.write_text('{"kind":"transformed","op":{"kind":"neg_part"},"base":{"kind":"transformed",'
                        '"base":{"kind":"pareto_positive","beta":1,"theta":10},"op":{"kind":"shift","offset":-50}}}')
        code, out, err = run(capsys, "var", "--dist", str(path), "--alpha", "1e-20", "--format", "json")
        assert code == 2 and out == "" and "unbounded above" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--distortion", '{"kind":"es","alpha":0.9}'],
            ["eval", "--distortion", '{"kind":"es","alpha":0.9}', "--representation", "mixture"],
            ["eval", "--distortion", '{"kind":"es","alpha":0.9}', "--representation", "choquet"],
            ["es", "--alpha", "0.9"],
            ["es", "--alpha", "0.9", "--order", "2"],
            ["var", "--alpha", "0.9"],
        ],
        ids=["quantile", "mixture", "choquet", "es", "es-order-2", "var"],
    )
    def test_a_value_beyond_the_float_range_is_inconclusive(self, capsys, tmp_path, argv):
        # 3 (1.7e308 - u**-0.5) overflows at every level: never a traceback, 0.0 or Infinity
        path = tmp_path / "huge.json"
        path.write_text('{"kind":"transformed","op":{"kind":"scale","factor":3},"base":{"kind":"transformed",'
                        '"op":{"kind":"shift","offset":1.7e308},"base":{"kind":"pareto_negative","beta":1}}}')
        code, out, err = run(capsys, *argv, "--dist", str(path), "--format", "json")
        assert code == 2 and out == "" and "float range" in err


class TestSpectrum:
    def test_convex_lists_pieces(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--distortion", '{"kind":"es","alpha":0.5}', "--format", "json"
        )
        assert code == 0
        pieces = json.loads(out)
        assert any(abs(p["coef"] - 2.0) < 1e-12 for p in pieces)

    def test_non_convex_exits_2_with_witness(self, capsys):
        code, _, err = run(capsys, "spectrum", "--distortion", '{"kind":"var","alpha":0.5}')
        assert code == 2
        assert "witness" in err and "0.5" in err


class TestEdgeDistortions:
    TINY_BEND = (
        '{"kind":"piecewise","pieces":[{"form":"power","lo":0,"hi":0.5,"coef":1e-300,"origin":0,'
        '"width":1,"expo":0.5},{"form":"linear","lo":0.5,"hi":1,"slope":2,"intercept":-1}]}'
    )

    @pytest.mark.parametrize("command", ["check-convexity", "spectrum", "counterexample"])
    def test_bend_below_the_margin_never_ends_in_a_traceback(self, capsys, command):
        code, _, err = run(capsys, command, "--distortion", self.TINY_BEND)
        assert code in (0, 2)
        assert "Traceback" not in err

    # u, then a bend of 1e-300 on [.5, .75), then slope 2: the slope drops
    # from 1 to about 0 at 0.5, though the root's derivative there is +inf
    SLOPE_DROP = (
        '{"kind":"piecewise","pieces":[{"form":"linear","lo":0,"hi":0.5,"slope":1},'
        '{"form":"power","lo":0.5,"hi":0.75,"base":0.5,"coef":1e-300,"origin":0.5,"width":0.25,"expo":0.5},'
        '{"form":"power","lo":0.75,"hi":1,"base":0.5,"coef":0.5,"origin":0.75,"width":0.25,"expo":1}]}'
    )

    def test_bend_below_the_margin_is_convex(self, capsys):
        code, out, _ = run(capsys, "check-convexity", "--distortion", self.TINY_BEND, "--format", "json")
        assert code == 0
        assert json.loads(out)["convex"] is True

    def test_bend_below_the_margin_has_its_chord_as_spectrum(self, capsys, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(capsys, "spectrum", "--distortion", self.TINY_BEND, "--format", "json")
            assert code == 0
            pieces = [(p["lo"], p["hi"], p["coef"], p["expo"]) for p in json.loads(out)]
            assert pieces == [(0.0, 0.5, 1e-300 * 2**0.5, 0.0), (0.5, 1.0, 2.0, 0.0)]
            path = tmp_path / "three.csv"
            path.write_text("1\n2\n3\n")
            values = []
            for rep in ("quantile", "choquet", "mixture"):
                code, out, _ = run(capsys, "eval", "--dist", str(path), "--distortion", self.TINY_BEND,
                                   "--representation", rep, "--format", "json")
                assert code == 0
                values.append(json.loads(out)["value"])
        assert max(values) - min(values) <= 1e-12
        assert abs(values[0] - 8.0 / 3.0) <= 1e-12

    def test_a_slope_drop_into_a_concave_piece_is_not_convex(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(capsys, "check-convexity", "--distortion", self.SLOPE_DROP, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["convex"] is False
        assert (payload["witness_u"], payload["witness_eps"]) == (0.5, 0.25)
        code, out, _ = run(capsys, "counterexample", "--distortion", self.SLOPE_DROP, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["gap"] > 0 and abs(payload["gap"] - payload["predicted_gap"]) <= 1e-10
        assert abs(payload["gap"] - 0.28125) <= 1e-12
        code, _, err = run(capsys, "spectrum", "--distortion", self.SLOPE_DROP)
        assert code == 2 and "witness u=0.5, eps=0.25" in err

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400])
    @pytest.mark.parametrize("command", ["check-convexity", "spectrum"])
    def test_non_finite_numbers_are_parse_errors(self, capsys, command, value):
        spec = (
            '{"kind":"piecewise","pieces":[{"form":"power","lo":0,"hi":1,"coef":1,"origin":0,'
            f'"width":1,"expo":{value}}}]}}'
        )
        code, out, err = run(capsys, command, "--distortion", spec)
        assert code == 1
        assert out == ""
        assert "field 'expo' must be finite" in err


class TestCounterexample:
    def test_var_gap(self, capsys):
        code, out, _ = run(
            capsys,
            "counterexample",
            "--distortion",
            '{"kind":"var","alpha":0.5}',
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["gap"] - 1.125) < 1e-12
        assert payload["witness"] == {"u": 0.5, "eps": 0.25}

    def test_convex_exits_2(self, capsys):
        code, _, err = run(capsys, "counterexample", "--distortion", '{"kind":"es","alpha":0.3}')
        assert code == 2
        assert "convex" in err

    def test_a_loss_size_too_large_for_the_witness_exits_2(self, capsys):
        code, out, err = run(
            capsys, "counterexample", "--distortion", '{"kind":"var","alpha":0.5}', "--a", "1e16"
        )
        assert code == 2
        assert out == ""
        assert "the loss size a = 1e+16 is too large for the witness eps = 0.25" in err


class TestClassify:
    def test_separation(self, capsys, tmp_path):
        spec = tmp_path / "pareto.json"
        spec.write_text('{"kind": "pareto_negative", "beta": 1}')
        code, out, _ = run(
            capsys,
            "classify",
            "--dist",
            str(spec),
            "--distortion",
            '{"kind":"sqrt_example"}',
            "--format",
            "json",
        )
        assert code == 0
        verdicts = {row["class"]: row["verdict"] for row in json.loads(out)}
        assert verdicts == {"quantile": "member", "pichler": "member", "acerbi": "non-member"}

    def test_choices_are_the_library_lists(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        choices = {a.dest: a.choices for a in sub.choices["classify"]._actions}
        assert list(choices["domain_class"]) == [*(c.value for c in DomainClass), "all"]
        assert tuple(choices["method"]) == CLASSIFY_METHODS


class TestCompare:
    def test_es_has_the_expectations_domain(self, capsys):
        code, out, _ = run(
            capsys,
            "compare",
            "--d1",
            '{"kind":"es","alpha":0.5}',
            "--d2",
            '{"kind":"expectation"}',
            "--delta",
            "0.01",
            "--format",
            "json",
        )
        assert code == 0
        row = json.loads(out)
        assert row["relation"] == "equal" and row["d1_le_d2"] and not row["d2_le_d1"]


class TestSuite:
    def test_small_config_passes(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "distributions": [{"kind": "empirical", "values": [1, 2, 3, 4]}],
                    "distortions": [{"kind": "es", "alpha": 0.5}, {"kind": "var", "alpha": 0.5}],
                    "checks": ["agreement", "shortfall"],
                }
            )
        )
        code, out, _ = run(capsys, "suite", "--config", str(config), "--trials", "50")
        assert code == 0
        assert "SUITE OK" in out

    def test_a_config_without_checks_prints_the_csv_header(self, capsys, tmp_path):
        # no row to take the columns from, so the suite's CSV keeps its own column list
        code, out, _ = run(capsys, "suite", "--config", _write_config(tmp_path, checks="[]"), "--format", "csv")
        assert code == 0 and out == "group,name,status,detail\n"

    @pytest.mark.filterwarnings("error")
    def test_config_file_is_closed(self, capsys, tmp_path):
        # read by open(path).read(), the file was left to the collector: a
        # ResourceWarning, an error when warnings are errors
        config = tmp_path / "config.json"
        config.write_text('{"distributions": [{"kind": "point_mass", "value": 1}], "distortions": '
                          '[{"kind": "expectation"}], "checks": ["finiteness"]}')
        assert run(capsys, "suite", "--config", str(config))[0] == 0

    def test_config_trials_and_seed_are_honoured(self, capsys, tmp_path, monkeypatch):
        import quantrisk.suite as suite

        seen = []
        real_run_suite = suite.run_suite

        def spy(config):
            seen.append((config.trials, config.seed))
            return real_run_suite(config)

        monkeypatch.setattr(suite, "run_suite", spy)
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "distributions": [{"kind": "empirical", "values": [1, 2, 3, 4]}],
                    "distortions": [{"kind": "es", "alpha": 0.5}],
                    "checks": ["agreement"],
                    "trials": 5,
                    "seed": 7,
                }
            )
        )
        assert run(capsys, "suite", "--config", str(config))[0] == 0
        assert run(capsys, "suite", "--config", str(config), "--seed", "9")[0] == 0
        assert run(capsys, "suite", "--config", str(config), "--trials", "6")[0] == 0
        assert seen == [(5, 7), (5, 9), (6, 7)]

    def test_empty_matrix_exits_1(self, capsys, tmp_path):
        config = tmp_path / "empty.json"
        config.write_text('{"distributions": [], "distortions": []}')
        code, _, err = run(capsys, "suite", "--config", str(config))
        assert code == 1
        assert "no cases" in err

    def test_unreadable_config_exits_1(self, capsys, tmp_path):
        code, out, err = run(capsys, "suite", "--config", str(tmp_path / "absent.json"))
        assert (code, out) == (1, "")
        assert "cannot read" in err and "absent.json" in err

    def test_invalid_json_config_exits_1(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text('{"distributions": [')
        code, out, err = run(capsys, "suite", "--config", str(config))
        assert (code, out) == (1, "")
        assert "invalid JSON in" in err and "Traceback" not in err

    @pytest.mark.parametrize("fmt, failing", [
        ("table", "SUITE FAILED (1 failing checks)"),
        ("csv", "agreement,quantile-vs-choquet x x y,fail,|1 - 2| > 1e-08"),
    ])
    def test_failing_checks_print_the_report_and_exit_2(self, capsys, monkeypatch, fmt, failing):
        import quantrisk.suite as suite

        report = SuiteReport([
            CheckResult("agreement", "quantile-vs-choquet x x y", "fail", "|1 - 2| > 1e-08"),
            CheckResult("agreement", "quantile-vs-choquet x x z", "pass"),
        ])
        monkeypatch.setattr(suite, "run_suite", lambda config: report)
        code, out, err = run(capsys, "suite", "--format", fmt)
        assert code == 2
        assert failing in out and "> 1e-08" in out
        assert err == "error: verification suite reported failing checks\n"

    def test_deterministic_output(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "distributions": [{"kind": "empirical", "values": [1, 2, 3, 4]}],
                    "distortions": [{"kind": "var", "alpha": 0.5}],
                    "checks": ["agreement", "subadditivity"],
                }
            )
        )
        args = ("suite", "--config", str(config), "--trials", "300", "--seed", "11", "--format", "json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize("flag", ["--tol-quantile-choquet", "--tol-mixture", "--tol-shortfall",
                                      "--tol-axiom", "--tol-shift", "--tol-gap", "--search-slack"])
    def test_the_bounds_are_not_options(self, capsys, flag):
        # the suite's bounds are fixed: SUITE OK must not depend on the command line
        with pytest.raises(SystemExit) as exc:
            main(["suite", flag, "1e-9"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1e-9" in capsys.readouterr().err


def _write_config(tmp_path, **fields):
    config = tmp_path / "config.json"
    spec = {
        "distributions": [{"kind": "empirical", "values": [1, 2, 3, 4]}],
        "distortions": [{"kind": "es", "alpha": 0.5}],
        "checks": ["finiteness"],
    }
    # JSON text, so that literals such as 1e400 reach the parser as written
    body = ", ".join(f"{json.dumps(k)}: {v}" for k, v in fields.items())
    config.write_text(json.dumps(spec)[:-1] + (", " + body if body else "") + "}")
    return str(config)


class TestSeedsAndTrials:
    @pytest.mark.parametrize("flag", ["--seed", "--trials"])
    def test_negative_flag_is_domain_error(self, capsys, flag):
        code, out, err = run(capsys, "suite", flag, "-1")
        assert code == 2 and out == ""
        assert "must be a non-negative integer" in err and "Traceback" not in err

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_too_many_trials_are_refused_before_any_draw(self, capsys, tmp_path, monkeypatch, where):
        import quantrisk.subadditivity as subadditivity

        def no_pack(trials, seed):
            raise AssertionError(f"a pack of {trials} trials was drawn")

        monkeypatch.setattr(subadditivity, "_trial_pack", no_pack)
        if where == "flag":
            argv = ["--config", _write_config(tmp_path, checks='["subadditivity"]'), "--trials", "1000001"]
        else:
            argv = ["--config", _write_config(tmp_path, checks='["subadditivity"]', trials="1000001")]
        code, out, err = run(capsys, "suite", *argv)
        assert (code, out) == (2, "")
        assert err == "error: trials must be at most 1000000, got 1000001\n"

    @pytest.mark.parametrize("key", ["seed", "trials"])
    def test_negative_config_value_is_domain_error(self, capsys, tmp_path, key):
        code, _, err = run(capsys, "suite", "--config", _write_config(tmp_path, **{key: "-1"}))
        assert code == 2
        assert "must be a non-negative integer" in err and "Traceback" not in err

    @pytest.mark.parametrize("value", ['"abc"', "null", "1e400", "2.5", "1.7", "2.0", "true", "[3]"])
    @pytest.mark.parametrize("key", ["seed", "trials"])
    def test_non_integer_config_value_is_parse_error(self, capsys, tmp_path, key, value):
        code, out, err = run(capsys, "suite", "--config", _write_config(tmp_path, **{key: value}))
        assert code == 1 and out == ""
        assert f"config field {key!r} must be an integer" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "fields",
        [{"checks": '"finiteness"'}, {"checks": "[1]"}, {"checks": "null"}, {"distributions": "{}"}],
    )
    def test_malformed_config_lists_are_parse_errors(self, capsys, tmp_path, fields):
        code, _, err = run(capsys, "suite", "--config", _write_config(tmp_path, **fields))
        assert code == 1
        assert "must be a list" in err and "Traceback" not in err

    def test_config_must_be_an_object(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("[1, 2]")
        code, _, err = run(capsys, "suite", "--config", str(config))
        assert code == 1 and "Traceback" not in err


class TestJsonDistributionFields:
    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"kind": "discrete", "values": [1, 2]}, "missing list field 'probs'"),
            ({"kind": "empirical"}, "missing list field 'values'"),
            ({"kind": "transformed", "op": {"kind": "abs"}}, "missing field 'base'"),
            ({"kind": "empirical", "values": "abc"}, "field 'values' must be a list"),
            ({"kind": "empirical", "values": [1, "x"]}, "field 'values' must be numeric"),
            ({"kind": "empirical", "values": [1, 2], "weights": "w"}, "field 'weights' must be a list"),
            ({"kind": "discrete", "values": [1, 2], "probs": [0.5, None]}, "field 'probs' must be numeric"),
            ({"kind": "comonotone_sum", "terms": 5}, "at least two terms"),
        ],
    )
    def test_malformed_fields_are_parse_errors(self, capsys, tmp_path, spec, message):
        path = tmp_path / "dist.json"
        path.write_text(json.dumps(spec))
        code, out, err = run(capsys, "eval", "--dist", str(path), "--distortion", '{"kind":"expectation"}')
        assert code == 1 and out == ""
        assert message in err and "Traceback" not in err

    def test_null_weights_mean_equal_weights(self, capsys, tmp_path):
        path = tmp_path / "dist.json"
        path.write_text('{"kind": "empirical", "values": [1, 2, 3, 4], "weights": null}')
        code, out, _ = run(
            capsys, "eval", "--dist", str(path), "--distortion", '{"kind":"es","alpha":0.5}', "--format", "json"
        )
        assert code == 0 and json.loads(out)["value"] == 3.5

    @pytest.mark.parametrize("op", [{"kind": "scale", "factor": 1e308}, {"kind": "shift", "offset": 1.7e308}])
    def test_atoms_moved_past_the_float_range_are_a_domain_error(self, capsys, tmp_path, op):
        path = tmp_path / "dist.json"
        path.write_text(json.dumps({"kind": "transformed", "base": {"kind": "empirical", "values": [1, 1e308]},
                                    "op": op}))
        code, out, err = run(capsys, "var", "--dist", str(path), "--alpha", "0.5")
        assert (code, out, err) == (2, "", "error: atom values must be finite\n")

    @pytest.mark.parametrize(
        "name, body, want",
        [
            ("dist.csv", "value,weight\n1,1e308\n2,1e308\n", (1, "total weight must be finite")),
            ("dist.json", '{"kind": "empirical", "values": [1, 2], "weights": [1e308, 1e308]}', (2, "total weight")),
            ("dist.json", '{"kind": "empirical", "values": [1, 1], "weights": [1e308, 1e308]}', (2, "total weight")),
            ("dist.json", '{"kind": "discrete", "values": [1, 2], "probs": [1e308, 1e308]}', (2, "got inf")),
        ],
    )
    def test_masses_summing_beyond_the_float_range(self, capsys, tmp_path, name, body, want):
        # found by the CSV fuzz: an OverflowError from fsum, or a NaN mass
        # when equal values merged into an infinite one
        path = tmp_path / name
        path.write_text(body)
        for argv in (["var", "--dist", str(path), "--alpha", "0.5"], ["es", "--dist", str(path), "--alpha", "0.9"]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (want[0], "")
            assert want[1] in err and "Traceback" not in err

# Runs CLI invocations in one fresh interpreter; prints their exit codes and
# outputs, and the scipy modules loaded afterwards.
_FRESH = """
import contextlib, io, json, sys
import quantrisk
from quantrisk.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        runs.append([main(argv), buf.getvalue()])
scipy = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
print(json.dumps({"runs": runs, "scipy": scipy}))
"""

# Imports scipy.integrate before quantrisk or after its first quadrature, in a
# fresh interpreter; prints a Choquet value's hex, a quad integral's hex, and
# whether quantrisk and scipy.integrate hold one _quadpack module.
_AROUND = """
import sys
if sys.argv[1] == "before":
    import scipy.integrate
from quantrisk import ParetoNegative, choquet_risk, make_named, riskmeasures
value = choquet_risk(ParetoNegative(1.0, 2.0), make_named("es_n", n=3, alpha=0.2)).as_float()
import scipy.integrate
shared = sys.modules["scipy.integrate._quadpack"] is riskmeasures._quadpack is scipy.integrate._quadpack_py._quadpack
print(value.hex(), scipy.integrate.quad(lambda x: x * x, 0.0, 3.0)[0].hex(), shared)
"""


class TestScipyImport:
    """scipy's QUADPACK extension is loaded by the first quadrature call, not by importing quantrisk."""

    @pytest.fixture()
    def files(self, tmp_path):
        csv = tmp_path / "samples.csv"
        csv.write_text("value,weight\n1.5,1\n2,3\n-0.25,2\n4,1\n")
        pareto = tmp_path / "pareto.json"
        pareto.write_text('{"kind": "pareto_negative", "beta": 1.0, "theta": 2.0}')
        return str(csv), str(pareto)

    def fresh(self, *argvs):
        env = dict(os.environ, PYTHONPATH=str(Path(quantrisk.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", _FRESH, json.dumps(argvs)],
            capture_output=True, text=True, env=env, check=True,
        )
        return json.loads(proc.stdout)

    def in_process(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        return [code, out]

    def test_closed_form_commands_do_not_load_scipy(self, capsys, files):
        csv, pareto = files
        argvs = [
            ["var", "--dist", csv, "--alpha", "0.5"],
            ["es", "--dist", csv, "--alpha", "0.9"],
            ["eval", "--dist", csv, "--distortion", '{"kind": "es", "alpha": 0.9}'],
            ["check-convexity", "--distortion", '{"kind": "threshold", "delta": 0.5}'],
            ["spectrum", "--distortion", '{"kind": "es_n", "n": 3, "alpha": 0.2}'],
            ["counterexample", "--distortion", '{"kind": "var", "alpha": 0.5}'],
            ["classify", "--dist", pareto, "--distortion", '{"kind": "sqrt_example"}'],
            # quantile moments: the quantile and mixture forms and the probe on a Pareto
            ["eval", "--dist", pareto, "--distortion", '{"kind": "es_n", "n": 3, "alpha": 0.2}',
             "--representation", "mixture"],
            ["eval", "--dist", pareto, "--distortion", '{"kind": "es_n", "n": 3, "alpha": 0.2}'],
            ["classify", "--dist", pareto, "--distortion", '{"kind": "sqrt_example"}', "--method", "probe"],
        ]
        argvs = [[*argv, "--format", "json"] for argv in argvs]
        got = self.fresh(*argvs)
        assert got["scipy"] == []
        assert got["runs"] == [self.in_process(capsys, argv) for argv in argvs]

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--dist", "PARETO", "--distortion", '{"kind": "es_n", "n": 3, "alpha": 0.2}',
             "--representation", "choquet"],
            # |X - 2| straddles 0: its moments other than k = 0 are integrated numerically
            ["classify", "--dist", "SHIFTED", "--distortion", '{"kind": "es_n", "n": 2, "alpha": 0.5}',
             "--domain-class", "pichler", "--method", "probe"],
        ],
        ids=["eval-choquet", "classify-probe-abs"],
    )
    def test_quadrature_commands_load_quadpack_without_scipy_integrate(self, capsys, files, tmp_path, argv):
        shifted = tmp_path / "shifted.json"
        shifted.write_text('{"kind": "transformed", "base": {"kind": "pareto_negative", "beta": 1.0, "theta": 2.0},'
                           ' "op": {"kind": "shift", "offset": 2.0}}')
        paths = {"PARETO": files[1], "SHIFTED": str(shifted)}
        argv = [paths.get(a, a) for a in argv] + ["--format", "json"]
        got = self.fresh(argv)
        # the extension alone: neither its package nor the packages that package imports
        packages = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.linalg")
        assert [m for m in got["scipy"] if m.startswith(packages)] == ["scipy.integrate._quadpack"]
        assert got["runs"] == [self.in_process(capsys, argv)]

    @pytest.mark.parametrize("when", ["before", "after"])
    def test_scipy_integrate_imported_around_quantrisk_shares_its_quadpack(self, when):
        env = dict(os.environ, PYTHONPATH=str(Path(quantrisk.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", _AROUND, when], capture_output=True, text=True, env=env,
                              check=True)
        value, integral, shared = proc.stdout.split()
        from scipy.integrate import quad

        assert value == choquet_risk(ParetoNegative(1.0, 2.0), make_named("es_n", n=3, alpha=0.2)).as_float().hex()
        assert integral == quad(lambda x: x * x, 0.0, 3.0)[0].hex()
        assert shared == "True"
