"""CSV/JSON ingestion, schema round trips, rendering."""

import json

import pytest

from quantrisk.distortions import make_named
from quantrisk.errors import ParseError
from quantrisk.io import (
    distortion_from_json,
    distribution_from_csv_text,
    distribution_from_json,
    load_distortion,
    load_distribution,
    render_table,
    risk_record,
)
from quantrisk.riskmeasures import RiskValue, quantile_risk


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
