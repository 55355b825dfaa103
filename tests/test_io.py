"""CSV/JSON ingestion, schema round trips, rendering."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantrisk.distortions import make_named
from quantrisk.distributions import Discrete
from quantrisk.errors import ParameterError, ParseError
from quantrisk.io import (
    _csv_arrays,
    _csv_walk,
    distortion_from_json,
    distribution_from_csv_text,
    distribution_from_json,
    load_distortion,
    load_distribution,
    render_table,
    risk_record,
)
from quantrisk.riskmeasures import RiskValue, quantile_risk


def _outcome(parse):
    """The discrete ``parse()`` gives, its values and levels as hex; or its error's message and line."""
    try:
        d = parse()
    except (ParseError, ParameterError) as exc:
        return str(exc), getattr(exc, "line", None)
    return [v.hex() for v in d.values.tolist()], [c.hex() for c in d.cum.tolist()]


CLEAN_VALUES = ["0", "-0", "-0.0", "1", "1", "1.5", "-2.25", " 3 ", "1_000", "1e-320", "7"]
CLEAN_WEIGHTS = ["1", "0", "-0", "2", "0.5", " 3 ", "1_0", "1e-300"]
BAD_VALUES = ["nan", "inf", "-inf", "1e400", "bogus", "", "1.5\x00"]
BAD_WEIGHTS = ["", "nan", "inf", "1e400", "-1", "heavy"]


@st.composite
def csv_bodies(draw):
    """CSV bodies: headers, comments, blank lines, rows of one to three fields, good and bad fields."""
    regular = draw(st.booleans())  # clean fields, every row of one width: the array pass's input
    width = draw(st.sampled_from([1, 2]))
    values = st.sampled_from(CLEAN_VALUES) if regular else st.sampled_from(CLEAN_VALUES + BAD_VALUES)
    weights = st.sampled_from(CLEAN_WEIGHTS) if regular else st.sampled_from(CLEAN_WEIGHTS + BAD_WEIGHTS)
    widths = st.just(width) if regular else st.sampled_from([1, 2, 2, 3])
    lines = [draw(st.sampled_from(["value", "value,weight", "x, y", "a,b,c", "# v,w"]))
             for _ in range(draw(st.integers(0, 2)))]
    for _ in range(draw(st.integers(0, 30))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", "   ", "# a, comment, line", "#"])))
            continue
        fields = [draw(values)] + [draw(weights) for _ in range(draw(widths) - 1)]
        lines.append(",".join(fields))
    if regular and draw(st.booleans()):  # a long regular body with runs of ties
        lines += [",".join(["1.25", "2"][:width])] * draw(st.integers(1, 300))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


class TestCsv:
    def test_plain_values(self):
        d = distribution_from_csv_text("1\n2\n3\n4\n")
        assert list(d.values) == [1.0, 2.0, 3.0, 4.0]
        assert list(d.probs) == [0.25] * 4

    def test_weighted_rows(self):
        d = distribution_from_csv_text("1,1\n2,3\n")
        assert list(d.probs) == [0.25, 0.75]

    def test_header_and_blank_lines_skipped(self):
        d = distribution_from_csv_text("value,weight\n\n1,1\n2,1\n")
        assert list(d.values) == [1.0, 2.0]

    def test_duplicates_merged(self):
        d = distribution_from_csv_text("1\n1\n2\n")
        assert list(d.values) == [1.0, 2.0]
        assert abs(d.probs[0] - 2 / 3) < 1e-15

    def test_nan_rejected_with_line_number(self):
        with pytest.raises(ParseError) as err:
            distribution_from_csv_text("1\nnan\n")
        assert err.value.line == 2

    def test_non_numeric_mid_file(self):
        with pytest.raises(ParseError) as err:
            distribution_from_csv_text("1\nbogus\n")
        assert err.value.line == 2

    def test_too_many_columns(self):
        with pytest.raises(ParseError) as err:
            distribution_from_csv_text("1,2,3\n")
        assert err.value.line == 1

    def test_non_numeric_weight(self):
        with pytest.raises(ParseError, match="non-numeric weight 'heavy'") as err:
            distribution_from_csv_text("1,1\n2,heavy\n")
        assert err.value.line == 2

    def test_negative_weight(self):
        with pytest.raises(ParseError) as err:
            distribution_from_csv_text("1,-1\n")
        assert err.value.line == 1

    def test_empty_input(self):
        with pytest.raises(ParseError):
            distribution_from_csv_text("")

    def test_irregular_bodies_are_walked(self):
        # each is declined by the array pass and accepted by the walk
        for text, values, probs in [
            ("1\n2,3\n", [1.0, 2.0], [0.25, 0.75]),  # one and two fields
            ("1,\n2,3\n", [1.0, 2.0], [0.25, 0.75]),  # an empty weight is 1
            ("value\n1,1\n2,3\n", [1.0, 2.0], [0.25, 0.75]),  # a header narrower than its rows
            ("x,y\n1\n2\n", [1.0, 2.0], [0.5, 0.5]),  # and one wider
        ]:
            with pytest.raises(ValueError):
                _csv_arrays(text)
            d = distribution_from_csv_text(text)
            assert (list(d.values), list(d.probs)) == (values, probs)

    def test_a_value_only_body_has_no_weight_column(self):
        # so it takes from_samples' equal-weights route
        values, weights = _csv_arrays("# samples\nvalue\n\n2\n1\n")
        assert (values.tolist(), weights) == ([2.0, 1.0], None)
        values, weights = _csv_arrays("value,weight\n2,1\n1,3\n")
        assert (values.tolist(), weights.tolist()) == ([2.0, 1.0], [1.0, 3.0])

    def test_fields_are_read_by_float_grammar(self):
        d = distribution_from_csv_text("1_000\n 3 \n\u00a02\u00a0\n")
        assert list(d.values) == [2.0, 3.0, 1000.0]
        d = distribution_from_csv_text("1_000 , 3_0\n3,1_0\n")
        assert (list(d.values), list(d.probs)) == ([3.0, 1000.0], [0.25, 0.75])
        for text in ("1\n1e400\n", "1\n-inf\n", "1,1\n2,1e400\n"):
            with pytest.raises(ParseError, match="NaN/Inf entries are not allowed") as err:
                distribution_from_csv_text(text)
            assert err.value.line == 2

    def test_a_str_array_cast_would_read_another_grammar(self):
        # numpy's cast of a str array drops trailing NULs; float() and a list of str refuse them
        assert np.array(["1.5\x00"]).astype(float)[0] == 1.5
        with pytest.raises(ValueError):
            np.array(["1.5\x00"], dtype=float)
        with pytest.raises(ParseError) as err:
            distribution_from_csv_text("2\n1.5\x00\n")
        assert str(err.value) == "line 2: non-numeric value '1.5\\x00'"

    @given(text=csv_bodies())
    @settings(max_examples=300, deadline=None)
    def test_the_array_pass_gives_the_walks_discrete_or_error(self, text):
        walked = _outcome(lambda: Discrete.from_samples(*_csv_walk(text)))
        try:
            arrays = _csv_arrays(text)
        except ValueError:
            pass  # declined: the walk parses it
        else:
            assert _outcome(lambda: Discrete.from_samples(*arrays)) == walked
        assert _outcome(lambda: distribution_from_csv_text(text)) == walked


class TestDistributionJson:
    def test_empirical(self):
        d = distribution_from_json({"kind": "empirical", "values": [1, 2, 2, 3]})
        assert list(d.values) == [1.0, 2.0, 3.0]

    def test_discrete_atoms(self):
        d = distribution_from_json({"kind": "discrete", "values": [-1.25, 0.0], "probs": [0.25, 0.75]})
        assert d.cdf(-1.25) == 0.25

    def test_parametric(self):
        d = distribution_from_json({"kind": "pareto_negative", "beta": 1})
        assert d.cdf(-2.0) == 0.25
        d = distribution_from_json({"kind": "pareto_positive", "beta": 1, "theta": 2})
        assert d.cdf(2.0) == 0.75

    def test_transformed_chain(self):
        spec = {
            "kind": "transformed",
            "base": {"kind": "empirical", "values": [-2, 5]},
            "op": {"kind": "pos_part"},
        }
        d = distribution_from_json(spec)
        assert d.quantile_lower(0.3) == 0.0

    def test_comonotone_sum(self):
        spec = {
            "kind": "comonotone_sum",
            "terms": [
                {"kind": "empirical", "values": [1, 2]},
                {"kind": "empirical", "values": [10, 20]},
            ],
        }
        d = distribution_from_json(spec)
        assert list(d.values) == [11.0, 22.0]

    def test_json_string_accepted(self):
        d = distribution_from_json('{"kind": "point_mass", "value": 7}')
        assert d.quantile_lower(0.5) == 7.0

    def test_unknown_kind(self):
        with pytest.raises(ParseError):
            distribution_from_json({"kind": "mystery"})
        with pytest.raises(ParseError):
            distribution_from_json({"values": [1]})


    def test_unknown_transform_op(self):
        with pytest.raises(ParseError, match="unknown transform op 'negate'"):
            distribution_from_json({"kind": "transformed", "base": {"kind": "pareto_negative", "beta": 1},
                                    "op": {"kind": "negate"}})


class TestDistortionJson:
    def test_named(self):
        d = distortion_from_json({"kind": "es", "alpha": 0.5})
        assert d.eval(0.75) == 0.5

    def test_custom_piecewise(self):
        spec = {
            "kind": "piecewise",
            "pieces": [
                {"form": "linear", "lo": 0.0, "hi": 0.5, "slope": 0.5},
                {"form": "power", "lo": 0.5, "hi": 1.0, "base": 0.25, "coef": 0.75, "origin": 0.5, "width": 0.5, "expo": 2.0},
            ],
        }
        d = distortion_from_json(spec)
        assert d.eval(0.25) == 0.125
        assert abs(d.eval(0.75) - (0.25 + 0.75 * 0.25)) < 1e-15

    def test_at_file_reference(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text('{"kind": "var", "alpha": 0.5}')
        d = load_distortion(f"@{path}")
        assert d.eval(0.5) == 1.0

    def test_bad_params(self):
        with pytest.raises(ParseError):
            distortion_from_json({"kind": "es"})  # missing alpha
        with pytest.raises(ParseError):
            distortion_from_json('{"kind":')

    def test_missing_at_file(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read .*absent.json"):
            load_distortion(f"@{tmp_path / 'absent.json'}")

    @pytest.mark.parametrize("pieces", [None, "abc", [5], [None]])
    def test_pieces_must_be_a_list_of_objects(self, pieces):
        with pytest.raises(ParseError, match="'pieces' must be a list of objects"):
            distortion_from_json({"kind": "piecewise", "pieces": pieces})


class TestLoadDistribution:
    def test_csv_file(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("1\n2\n")
        d = load_distribution(p)
        assert list(d.values) == [1.0, 2.0]

    def test_json_file(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text('{"kind": "pareto_negative", "beta": 2}')
        d = load_distribution(p)
        assert d.cdf(-4.0) == 0.25

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_distribution(tmp_path / "absent.csv")


class TestRendering:
    def test_risk_record_schema(self):
        val = quantile_risk(
            distribution_from_json({"kind": "empirical", "values": [1, 2, 3, 4]}),
            make_named("es", alpha=0.5),
        )
        rec = risk_record("demo", "es(0.5)", val, "quantile", 1e-9)
        assert rec == {
            "measure": "demo",
            "distortion": "es(0.5)",
            "value": 3.5,
            "representation": "quantile",
            "tolerance": 1e-9,
        }
        json.dumps(rec)  # serializable

    def test_flag_values_serialize(self):
        assert RiskValue.neg_inf().json_value() == "-inf"
        assert RiskValue.not_in_domain().json_value() == "not-in-domain"

    def test_render_table_alignment(self):
        text = render_table([{"a": 1.0, "b": "xy"}, {"a": 22.5, "b": "z"}])
        lines = text.splitlines()
        assert lines[0].startswith("a") and "b" in lines[0]
        assert len(lines) == 4
