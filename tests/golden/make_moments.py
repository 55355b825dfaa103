"""Print the oracle tables of tests/test_moments.py: quantile moments and risk forms on power tails.

Run by hand, not by pytest (mpmath is not a test dependency: install the
``oracle`` extra, ``pip install -e .[oracle]``), and paste the output over
the four tables of that file:

    PYTHONPATH=src python tests/golden/make_moments.py > tables.txt

Every value is a closed form in mpmath at 60 digits, printed to 30, of the
problem posed by the float inputs: power integrals, the binomial expansion
of an integer power, and mpmath's incomplete beta for a half-integer power
whose origin is not at the tail's anchored end.  No quadrature: ``mp.quad``
across a singular weight misses in the eighth digit.
"""

import mpmath as mp

mp.mp.dps = 60

THETAS = (1.01, 1.05, 1.2, 2.0, 3.0)
ORIGINS = (0.0, 0.2, 0.5, 0.9)
# the anchored origin of each tail, with a half-integer power on (a, b)
ANCHORED = {"pareto_negative": (0.2, 1.0, -0.5, 0.0), "pareto_positive": (0.0, 0.8, -0.5, 1.0)}
NODES = ("raw", "negated", "scaled_shifted", "pos_part")
SHIFT = {"pareto_negative": 3.0, "pareto_positive": -3.0}  # moves the support across 0 for pos_part
DISTORTIONS = ("expectation", "es(0.9)", "es_n(2,0.5)", "es_n(3,0.2)")
# left tails steep enough that u**(-1/theta) about an origin right of 0 is a series that cancels
STEEP_THETAS = (0.05, 0.02)
STEEP_DISTORTIONS = ("es_n(2,0.5)", "es_n(3,0.2)")


def cells():
    """(tail, theta, node, a, b, k, origin) of every moment cell."""
    for tail in ("pareto_negative", "pareto_positive"):
        for theta in THETAS:
            grid = [(o, 1.0, float(k), o) for k in range(4) for o in ORIGINS] + [ANCHORED[tail]]
            for node in NODES:
                for a, b, k, o in grid:
                    yield tail, theta, node, a, b, k, o


def power_moment(a, b, r, k, o):
    """Integral of t**r |t - o|**k over (a, b), o outside (a, b), 0 <= a."""
    a, b, r, k, o = map(mp.mpf, (a, b, r, k, o))
    if a == b:
        return mp.mpf(0)
    if o == 0:
        p = r + k + 1
        return (b**p - a**p) / p if p != 0 else mp.log(b / a)
    if k == int(k):  # (t - o)**k = sum_j C(k, j) t**j (-o)**(k-j); (o - t)**k is (-1)**k times it
        k = int(k)
        sign = 1 if o <= a else (-1) ** k
        return sign * mp.fsum(
            mp.binomial(k, j) * (-o) ** (k - j) * (b ** (r + j + 1) - a ** (r + j + 1)) / (r + j + 1)
            for j in range(k + 1)
        )
    if o >= b:  # t = o s, s in (a/o, b/o) within (0, 1)
        return o ** (r + k + 1) * mp.betainc(r + 1, k + 1, a / o, b / o)
    # t = o / w, w in (o/b, o/a) within (0, 1)
    return o ** (r + k + 1) * mp.betainc(-r - k - 1, k + 1, o / b, o / a)


def weight(a, b, k, o):
    """Integral of |u - o|**k over (a, b)."""
    a, b, k, o = map(mp.mpf, (a, b, k, o))
    lo, hi = (a - o, b - o) if o <= a else (o - b, o - a)
    return (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)


def tail_moment(tail, theta, a, b, k, o):
    """The moment of ParetoNegative(1, theta), q = -u**r, or ParetoPositive(1, theta), q = (1-u)**r."""
    r = -1 / mp.mpf(theta)
    if tail == "pareto_negative":
        return -power_moment(a, b, r, k, o)
    a, b, o = mp.mpf(a), mp.mpf(b), mp.mpf(o)
    return power_moment(1 - b, 1 - a, r, k, 1 - o)


def node_moment(tail, theta, node, a, b, k, o):
    a, b, o = mp.mpf(a), mp.mpf(b), mp.mpf(o)
    if node == "raw":
        return tail_moment(tail, theta, a, b, k, o)
    if node == "negated":  # q(u) = -q_base(1 - u)
        return -tail_moment(tail, theta, 1 - b, 1 - a, k, 1 - o)
    if node == "scaled_shifted":
        return mp.mpf(0.5) * tail_moment(tail, theta, a, b, k, o) + mp.mpf(2.5) * weight(a, b, k, o)
    # pos_part of the tail shifted by c: q + c is positive above the level where it crosses 0
    c = mp.mpf(SHIFT[tail])
    split = (1 / c) ** theta if tail == "pareto_negative" else 1 - (-1 / c) ** theta
    lo = max(a, split)
    if lo >= b:
        return mp.mpf(0)
    return tail_moment(tail, theta, lo, b, k, o) + c * weight(lo, b, k, o)


def form_value(tail, theta, label):
    """rho_D = integral of q dD for the named distortions, each one weight of D's density."""
    if label == "expectation":
        return tail_moment(tail, theta, 0.0, 1.0, 0.0, 0.0)
    n, alpha = {"es(0.9)": (1, 0.9), "es_n(2,0.5)": (2, 0.5), "es_n(3,0.2)": (3, 0.2)}[label]
    width = mp.mpf(1.0 - alpha)  # the float width of D's ramp ((u - alpha)/width)**n
    return n / width**n * tail_moment(tail, theta, alpha, 1.0, float(n - 1), alpha)


# abs(shift(2, pareto_negative(1, 2))) under es_n(2,0.5): for u >= 8/9 its quantile is
# (1 - u)**-0.5 - 2 and D(u) = (2u - 1)**2, so in v = 1 - u the probe band
# (1 - 2**-k, 1 - 2**-(k+1)) is the integral of (v**-0.5 - 2) 4 (1 - 2v) over (2**-(k+1), 2**-k)
ABS_BAND_KS = range(4, 41)


def abs_band(k):
    prim = lambda v: 4 * (2 * mp.sqrt(v) - 2 * v - mp.mpf(4) / 3 * v * mp.sqrt(v) + 2 * v**2)
    return prim(mp.ldexp(1, -k)) - prim(mp.ldexp(1, -k - 1))


def main():
    print("MOMENTS = {")
    for cell in cells():
        print(f"    {cell!r}: {mp.nstr(node_moment(*cell), 30)!r},")
    print("}")
    print("FORMS = {")
    for tail in ("pareto_negative", "pareto_positive"):
        for theta in THETAS:
            for label in DISTORTIONS:
                print(f"    {(tail, theta, label)!r}: {mp.nstr(form_value(tail, theta, label), 30)!r},")
    print("}")
    print("STEEP_FORMS = {")
    for theta in STEEP_THETAS:
        for label in STEEP_DISTORTIONS:
            print(f"    {(theta, label)!r}: {mp.nstr(form_value('pareto_negative', theta, label), 30)!r},")
    print("}")
    print("ABS_BANDS = {")
    for k in ABS_BAND_KS:
        print(f"    {k}: {mp.nstr(abs_band(k), 30)!r},")
    print("}")


if __name__ == "__main__":
    main()
