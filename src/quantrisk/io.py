"""Parsing of distribution/distortion specs and rendering of results.

CSV samples: one numeric value per line, or ``value,weight`` rows; an
optional header line is recognized by its non-numeric first field.  JSON
schemas are documented in the README; parse failures carry 1-based line
numbers where applicable.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .distortions import Distortion, Piece, SpectralDensity, make_named
from .distributions import Discrete, Distribution, ParetoNegative, ParetoPositive, comonotone_sum, point_mass
from .errors import ParameterError, ParseError

__all__ = [
    "distribution_from_csv_text",
    "distribution_from_json",
    "distortion_from_json",
    "spectral_density_to_json",
    "load_distribution",
    "load_distortion",
    "risk_record",
    "render_table",
]


def distribution_from_csv_text(text: str) -> Discrete:
    values: list[float] = []
    weights: list[float] = []
    saw_data = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) > 2:
            raise ParseError("expected 'value' or 'value,weight'", line=lineno)
        try:
            value = float(fields[0])
        except ValueError:
            if not saw_data:
                continue  # header row
            raise ParseError(f"non-numeric value {fields[0]!r}", line=lineno) from None
        weight = 1.0
        if len(fields) == 2 and fields[1]:
            try:
                weight = float(fields[1])
            except ValueError:
                raise ParseError(f"non-numeric weight {fields[1]!r}", line=lineno) from None
        if not math.isfinite(value) or not math.isfinite(weight):
            raise ParseError("NaN/Inf entries are not allowed", line=lineno)
        if weight < 0:
            raise ParseError("weights must be non-negative", line=lineno)
        values.append(value)
        weights.append(weight)
        saw_data = True
    if not values:
        raise ParseError("no sample rows found")
    try:
        return Discrete.from_samples(values, weights)
    except ParameterError as exc:
        raise ParseError(str(exc)) from exc


_TRANSFORM_OPS = {
    "scale": lambda dist, spec: dist.scale(_num(spec, "factor")),
    "shift": lambda dist, spec: dist.shift(_num(spec, "offset")),
    "pos_part": lambda dist, spec: dist.pos_part(),
    "neg_part": lambda dist, spec: dist.neg_part(),
    "abs": lambda dist, spec: dist.abs(),
}


def distribution_from_json(spec) -> Distribution:
    """Build a distribution from its JSON object (or JSON string)."""
    if isinstance(spec, str):
        spec = _loads(spec)
    kind = _kind(spec)
    if kind == "empirical":
        return Discrete.from_samples(_nums(spec, "values"), _nums(spec, "weights", required=False))
    if kind == "discrete":
        return Discrete(_nums(spec, "values"), _nums(spec, "probs"))
    if kind == "point_mass":
        return point_mass(_num(spec, "value"))
    if kind == "pareto_negative":
        return ParetoNegative(_num(spec, "beta"), _num(spec, "theta", 2.0))
    if kind == "pareto_positive":
        return ParetoPositive(_num(spec, "beta"), _num(spec, "theta"))
    if kind == "transformed":
        if "base" not in spec:
            raise ParseError("missing field 'base'")
        base = distribution_from_json(spec["base"])
        op_spec = spec.get("op", {})
        op_kind = _kind(op_spec)
        if op_kind not in _TRANSFORM_OPS:
            raise ParseError(f"unknown transform op {op_kind!r}")
        return _TRANSFORM_OPS[op_kind](base, op_spec)
    if kind == "comonotone_sum":
        terms = spec.get("terms", [])
        if not isinstance(terms, list) or len(terms) < 2:
            raise ParseError("comonotone_sum needs at least two terms")
        out = distribution_from_json(terms[0])
        for term in terms[1:]:
            out = comonotone_sum(out, distribution_from_json(term))
        return out
    raise ParseError(f"unknown distribution kind {kind!r}")


def distortion_from_json(spec) -> Distortion:
    """Build a distortion from its JSON object (or JSON string)."""
    if isinstance(spec, str):
        spec = _loads(spec)
    kind = _kind(spec)
    if kind == "piecewise":
        pieces = spec.get("pieces", [])
        if not isinstance(pieces, list) or not all(isinstance(p, dict) for p in pieces):
            raise ParseError(f"field 'pieces' must be a list of objects, got {pieces!r}")
        return Distortion([_piece_from_json(p) for p in pieces], name=spec.get("name"))
    params = {k: v for k, v in spec.items() if k != "kind"}
    try:
        return make_named(kind, **params)
    except TypeError as exc:
        raise ParseError(f"bad parameters for {kind!r}: {exc}") from exc


def _piece_from_json(p) -> Piece:
    form = p.get("form", "power")
    lo, hi = _num(p, "lo"), _num(p, "hi")
    if form == "linear":
        slope = _num(p, "slope")
        intercept = _num(p, "intercept", 0.0)
        return Piece(lo=lo, hi=hi, base=intercept, coef=slope, origin=0.0, width=1.0, expo=1.0)
    if form == "constant":
        return Piece(lo=lo, hi=hi, base=_num(p, "level"), coef=0.0, origin=0.0, width=1.0, expo=0.0)
    if form == "power":
        return Piece(
            lo=lo,
            hi=hi,
            base=_num(p, "base", 0.0),
            coef=_num(p, "coef"),
            origin=_num(p, "origin", lo),
            width=_num(p, "width", 1.0 - _num(p, "origin", lo)),
            expo=_num(p, "expo"),
        )
    raise ParseError(f"unknown piece form {form!r}")


def spectral_density_to_json(spectrum: SpectralDensity) -> dict:
    return {
        "pieces": [
            {
                "lo": p.lo,
                "hi": p.hi,
                "coef": p.coef,
                "origin": p.origin,
                "width": p.width,
                "expo": p.expo,
            }
            for p in spectrum.pieces
        ]
    }


def load_distribution(path: str | Path) -> Distribution:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if path.suffix.lower() == ".json":
        return distribution_from_json(text)
    return distribution_from_csv_text(text)


def load_distortion(arg: str) -> Distortion:
    """Inline JSON, or @path to a JSON file."""
    if arg.startswith("@"):
        path = Path(arg[1:])
        try:
            arg = path.read_text()
        except OSError as exc:
            raise ParseError(f"cannot read {path}: {exc}") from exc
    return distortion_from_json(arg)


def _loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", line=exc.lineno) from exc


def _kind(spec) -> str:
    if not isinstance(spec, dict):
        raise ParseError(f"expected a JSON object, got {type(spec).__name__}")
    kind = spec.get("kind")
    if not isinstance(kind, str):
        raise ParseError("missing 'kind' field")
    return kind


def _num(spec, key: str, default=None) -> float:
    if key not in spec:
        if default is None:
            raise ParseError(f"missing numeric field {key!r}")
        return float(default)
    return _finite(key, spec[key])


def _nums(spec, key: str, required: bool = True) -> list[float] | None:
    """The list of finite numbers under ``key``, each read by the rules of :func:`_num`."""
    if not required and spec.get(key) is None:  # absent or null: no list
        return None
    if key not in spec:
        raise ParseError(f"missing list field {key!r}")
    values = spec[key]
    if not isinstance(values, list):
        raise ParseError(f"field {key!r} must be a list of numbers, got {values!r}")
    return [_finite(key, value) for value in values]


def _finite(key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"field {key!r} must be numeric, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer literal beyond the float range
        value = math.inf
    if not math.isfinite(value):  # NaN and Infinity parse as floats, as does 1e400
        raise ParseError(f"field {key!r} must be finite, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# result rendering


def risk_record(measure: str, distortion: str, value, representation: str, tolerance: float) -> dict:
    """The JSON record emitted for a single risk evaluation."""
    return {
        "measure": measure,
        "distortion": distortion,
        "value": value.json_value() if hasattr(value, "json_value") else value,
        "representation": representation,
        "tolerance": tolerance,
    }


def render_table(rows: list[dict], columns: list[str] | None = None) -> str:
    """Aligned-column text table; column order is taken from the first row."""
    if not rows:
        return "(empty)"
    columns = columns or list(rows[0].keys())
    cells = [[_fmt(row.get(c, "")) for c in columns] for row in rows]
    widths = [max(len(c), *(len(r[i]) for r in cells)) for i, c in enumerate(columns)]
    lines = [
        "  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for r in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)
