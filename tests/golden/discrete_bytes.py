"""Print a sha256 digest of the atoms and levels of 2,100 derived discretes.

Run by hand, not by pytest:

    PYTHONPATH=src python tests/golden/discrete_bytes.py

Three hundred seeded ``Discrete.from_samples`` inputs, rounded to a grid
so that they repeat values; many mix -0.0 and 0.0 or are one value
repeated, and two in three carry weights drawn from 0, 1e-300, 1e20 and
uniform masses.  An input that is refused (every weight 0) is drawn
again.  From each input come seven discretes: the input itself, a shift,
a scale, the negation, the positive part, ``abs`` and the comonotone sum
with the next input.  Every discrete adds ``values.tobytes()`` and
``cum.tobytes()`` to the digest, and so does the error's name for each
refused input.  The derived atoms and levels are fixed by their contract
(README "Numerical contract", the discrete levels), so two trees that
keep it print the same lines.  Standard library and numpy only.
"""

import hashlib

import numpy as np

from quantrisk.distributions import Discrete, comonotone_sum
from quantrisk.errors import QuantRiskError

CASES = 300
WEIGHT_KINDS = (0.0, 1e-300, 1e20)


def sample_input(rng):
    """Samples, and weights or None, with duplicates by construction."""
    n = int(rng.choice((1, 2, 3, 10, 100, 300, 1000, 3000)))
    grid = rng.choice((0.25, 1e-3, 1e-6))
    samples = np.round(rng.normal(size=n) / grid) * grid
    kind = rng.integers(4)
    if kind == 1:  # a run of mixed signed zeros
        samples[rng.random(n) < 0.3] = 0.0
        samples[rng.random(n) < 0.3] = -0.0
    elif kind == 2:
        samples[:] = samples[0]
    if rng.integers(3) == 0:
        return samples, None
    weights = rng.random(n)
    pick = rng.integers(4, size=n)
    for k, w in enumerate(WEIGHT_KINDS):
        weights[pick == k] = w
    return samples, weights


def derived(base, other):
    """The seven discretes drawn from one input, by name."""
    return {
        "from_samples": base,
        "shift": base.shift(0.7),
        "scale": base.scale(3.3),
        "negation": base._reflect(),
        "pos_part": base.pos_part(),
        "abs": base.abs(),
        "comonotone_sum": comonotone_sum(base, other),
    }


def main():
    rng = np.random.default_rng(20240)
    digest = hashlib.sha256()
    bases = []
    refused = 0
    while len(bases) < CASES:
        try:
            bases.append(Discrete.from_samples(*sample_input(rng)))
        except QuantRiskError as exc:
            digest.update(type(exc).__name__.encode())
            refused += 1
    count = atoms = 0
    for i, base in enumerate(bases):
        for name, d in derived(base, bases[(i + 1) % CASES]).items():
            digest.update(name.encode() + d.values.tobytes() + d.cum.tobytes())
            count += 1
            atoms += len(d.values)
    print(f"discretes\t{count}")
    print(f"atoms\t{atoms}")
    print(f"refused inputs\t{refused}")
    print(f"sha256\t{digest.hexdigest()}")


if __name__ == "__main__":
    main()
