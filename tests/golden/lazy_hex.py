"""Print float.hex of every |X| quantile, two-operand lazy-sum CDF and affine-node result on fixed points.

Run by hand, not by pytest:

    PYTHONPATH=src python tests/golden/lazy_hex.py > lazy_hex.txt

Each line is ``node<TAB>method<TAB>argument<TAB>value``, arguments and values
as ``float.hex``.  The results of these searches are fixed by their
contract (the least or largest float where a monotone test holds), so two
trees that keep it print identical files: diff one against the other.
The affine nodes (a scale, a shift, and both orders of the two) add their
quantiles, CDFs, quantile integrals and quantile moments, with several
arguments joined by commas; an inconclusive moment prints the error's name.
Then come the |X| quantiles at the forced probe's band ends 2**-k and
1 - 2**-k, k = 1..41, method ``probe_level``.  Last, the right Pareto tail
(a negation node) at levels where 1 - u rounds to 1 or nearly so, its CDF,
quantile integrals and moments, and a negated shifted left tail at those
levels.
"""

import math
import sys

from quantrisk.distributions import ParetoNegative, ParetoPositive, comonotone_sum
from quantrisk.errors import InconclusiveError

COMO_TAILS = comonotone_sum(ParetoNegative(1.0, 3.0), ParetoPositive(1.0, 3.0))
ABS = {
    "abs_shift2": ParetoNegative(1.0, 2.0).shift(2.0).abs(),
    "abs_shift5": ParetoNegative(1.0, 3.0).shift(5.0).abs(),
    "abs_como_tails": COMO_TAILS.abs(),
}
SUMS = {
    "como_tails": COMO_TAILS,
    "pn1_pp0.8": comonotone_sum(ParetoNegative(1.0, 1.0), ParetoPositive(2.0, 0.8)),
    "flat_start": comonotone_sum(
        ParetoNegative(1.0, 2.0).shift(1.5).pos_part(), ParetoNegative(1.0, 3.0).shift(1.2).pos_part()
    ),
}
AFFINE_BASES = {"pn1_2": ParetoNegative(1.0, 2.0), "pp1_3": ParetoPositive(1.0, 3.0), "como_tails": COMO_TAILS}
AFFINE = {
    f"{op}_{name}": make(base)
    for name, base in AFFINE_BASES.items()
    for op, make in (
        ("scale", lambda d: d.scale(0.5)),
        ("shift", lambda d: d.shift(3.0)),
        ("shift_scale", lambda d: d.scale(0.5).shift(3.0)),
        ("scale_shift", lambda d: d.shift(3.0).scale(0.5)),
    )
}
RANGES = [(0.0, 1.0), (0.0, 0.5), (0.5, 1.0), (0.1, 0.9)]
MOMENT_KS = [-0.5, 1.0, 2.5]
# the level set of tests/test_distributions.py::TestAbsQuantileSearch
LEVELS = sorted(
    {(k + 0.5) / 500 for k in range(500)}
    | {t for k in range(1, 16) for t in (10.0**-k, 1.0 - 10.0**-k)}
    | {t for k in range(1, 54) for t in (2.0**-k, 1.0 - 2.0**-k)}
    | {t for j in range(2, 301, 2) for t in (10.0 ** (-j / 20), 1.0 - 10.0 ** (-j / 20))}
    | {math.nextafter(1.0, 0.0)}
)
# the forced probe's band ends, where the probe of an |X| makes its only searches
PROBE_LEVELS = sorted({t for k in range(1, 42) for t in (2.0**-k, 1.0 - 2.0**-k)})
PARETO_POSITIVE = {f"pp1_{theta:g}": ParetoPositive(1.0, theta) for theta in (0.05, 0.5, 3.0)}
NEGATED_SHIFT = {"pn1_0.05_shift0.5_neg": ParetoNegative(1.0, 0.05).shift(0.5).neg_part()}
EDGE_LEVELS = [1e-20, 2.0**-54, 2.0**-53, 1.0 - 2.0**-53]
SPECIAL_X = [0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e20, -1e20, 1e30, -1e30, 1e300, -1e300]


def sum_points(s):
    """x at the lower quantile of each level and at its two float neighbours, and SPECIAL_X."""
    xs = set(SPECIAL_X)
    for u in LEVELS:
        x = s.quantile_lower(u)
        xs.update(t for t in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)) if math.isfinite(t))
    return sorted(xs)


def _hex(*xs):
    return ",".join(float(x).hex() for x in xs)


def quantile_lines(name, d, levels):
    for u in levels:
        for method in ("quantile_lower", "quantile_upper"):
            yield name, method, _hex(u), _hex(getattr(d, method)(u))


def affine_lines(name, d):
    yield from quantile_lines(name, d, LEVELS)
    for x in sum_points(d):
        for method in ("cdf", "cdf_left"):
            yield name, method, _hex(x), _hex(getattr(d, method)(x))
    for a, b in RANGES:
        yield name, "quantile_integral", _hex(a, b), _hex(d.quantile_integral(a, b))
        for k in MOMENT_KS:
            for origin in (a, b):
                try:
                    value = _hex(d.quantile_moment(a, b, k, origin))
                except InconclusiveError as exc:
                    value = type(exc).__name__
                yield name, "quantile_moment", _hex(a, b, k, origin), value


def pareto_positive_lines(name, d):
    yield from quantile_lines(name, d, EDGE_LEVELS)
    for x in (d.beta, 1.5 * d.beta, 1e300):
        for method in ("cdf", "cdf_left"):
            yield name, method, _hex(x), _hex(getattr(d, method)(x))
    for a, b in RANGES:
        yield name, "quantile_integral", _hex(a, b), _hex(d.quantile_integral(a, b))
        for k in MOMENT_KS:
            for origin in (a, b):
                yield name, "quantile_moment", _hex(a, b, k, origin), _hex(d.quantile_moment(a, b, k, origin))


def main(out=sys.stdout):
    for name, m in ABS.items():
        for u in LEVELS:
            for method in ("quantile_lower", "quantile_upper"):
                out.write(f"{name}\t{method}\t{u.hex()}\t{getattr(m, method)(u).hex()}\n")
    for name, s in SUMS.items():
        for x in sum_points(s):
            for method in ("cdf", "cdf_left"):
                out.write(f"{name}\t{method}\t{x.hex()}\t{getattr(s, method)(x).hex()}\n")
    for name, d in AFFINE.items():
        for line in affine_lines(name, d):
            out.write("\t".join(line) + "\n")
    for name, m in ABS.items():
        for u in PROBE_LEVELS:
            out.write(f"{name}\tprobe_level\t{u.hex()}\t{m.quantile_lower(u).hex()}\n")
    for name, d in PARETO_POSITIVE.items():
        for line in pareto_positive_lines(name, d):
            out.write("\t".join(line) + "\n")
    for name, d in NEGATED_SHIFT.items():
        for line in quantile_lines(name, d, EDGE_LEVELS):
            out.write("\t".join(line) + "\n")


if __name__ == "__main__":
    main()
