"""Print a sha256 digest of risk values on 200 seeded discretes, fresh and with the prefix table built.

Run by hand, not by pytest:

    PYTHONPATH=src python tests/golden/discrete_values.py

Two hundred seeded inputs of 256 to 3,000 atoms (a normal sample, or one
divided by U(0.02, 1) draws for a heavy tail; equal weights or U(0.5, 2)
ones), each moved to lie left of 0, right of 0 or across it.  The digest
takes the ``float.hex`` of the quantile and Choquet forms, and of the
mixture form where D is convex, under six distortions with linear pieces
only (``expectation``, ``es(0.9)``, ``es(0.5)``, ``var(0.5)``,
``var(0.99)``, ``threshold(0.3)``), and of ``expected_shortfall`` and
``expected_shortfall_infimum`` at 0.9.  No libm power enters, so two hosts
with the same numpy print the same digest.  Every value is taken twice:
on a fresh discrete, built again from its samples, and on one whose k = 0
moments already read the prefix table (two means build it).  The k = 0
moments of a discrete are the same bits before and after its table
exists (README "Numerical contract"), so both passes give the same values,
and the second line counts the ones that differ.  Standard library, numpy
and quantrisk only.
"""

import hashlib

import numpy as np

from quantrisk import (
    Discrete,
    choquet_risk,
    expected_shortfall,
    expected_shortfall_infimum,
    is_convex,
    make_named,
    mixture_risk,
    quantile_risk,
)

CASES = 200
DISTORTIONS = [make_named("expectation"), make_named("es", alpha=0.9), make_named("es", alpha=0.5),
               make_named("var", alpha=0.5), make_named("var", alpha=0.99), make_named("threshold", delta=0.3)]
CONVEX = [is_convex(D).convex for D in DISTORTIONS]


def sample_input(rng):
    """Samples, weights or None, and the side of 0 they lie on."""
    n = int(rng.integers(256, 3001))
    samples = rng.normal(size=n)
    if rng.integers(2):  # a heavy tail from arithmetic alone
        samples /= rng.uniform(0.02, 1.0, n)
    side = int(rng.integers(3))
    if side == 0:  # left of 0
        samples = samples - samples.max() - 0.5
    elif side == 1:  # right of 0
        samples = samples - samples.min() + 0.5
    weights = rng.uniform(0.5, 2.0, n) if rng.integers(2) else None
    return samples, weights


def values(d):
    """The float.hex of every value taken on ``d``, in a fixed order."""
    out = []
    for D, convex in zip(DISTORTIONS, CONVEX):
        forms = (quantile_risk, choquet_risk, mixture_risk) if convex else (quantile_risk, choquet_risk)
        out += [form(d, D).as_float() for form in forms]
    out.append(expected_shortfall(d, 0.9).as_float())
    out.append(expected_shortfall_infimum(d, 0.9).value)
    return [v.hex() for v in out]


def main():
    rng = np.random.default_rng(3807)
    digest = hashlib.sha256()
    count = differ = 0
    for _ in range(CASES):
        samples, weights = sample_input(rng)
        fresh = values(Discrete.from_samples(samples, weights))
        built = Discrete.from_samples(samples, weights)
        built.mean()
        built.mean()
        assert "_prefix" in built.__dict__, "two means must build the prefix table"
        table = values(built)
        differ += sum(a != b for a, b in zip(fresh, table))
        for value in fresh + table:
            digest.update(value.encode() + b"\n")
        count += len(fresh) + len(table)
    print(f"values\t{count}")
    print(f"fresh differs from table\t{differ}")
    print(f"sha256\t{digest.hexdigest()}")


if __name__ == "__main__":
    main()
