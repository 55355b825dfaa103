"""Subadditivity of distortion risk: explicit counterexamples and random search.

For a non-convex distortion a two-asset joint table built from a midpoint
witness makes the risk of the sum exceed the summed risks by an exact,
closed-form gap.  For convex distortions a seeded randomized search over
small integer-valued joint tables acts as a falsification harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .distortions import Distortion, is_convex
from .distributions import Discrete, Distribution, comonotone_sum
from .errors import NoCounterexampleError, ParameterError
from .riskmeasures import quantile_risk

__all__ = [
    "JointTable",
    "CounterexampleReport",
    "SubadditivityViolation",
    "ComonotoneAdditivityReport",
    "build_counterexample",
    "subadditivity_search",
    "comonotone_additivity_check",
]

_TABLE_TOL = 1e-12
SEARCH_SLACK = 1e-9


class JointTable:
    """Joint law of (X, Y) on a finite grid of value pairs.

    Rows index x-values, columns y-values.  Marginals and the exact atom
    list of X+Y are derived from the table.
    """

    def __init__(self, x_values, y_values, probs):
        self.x_values = np.asarray(x_values, dtype=float)
        self.y_values = np.asarray(y_values, dtype=float)
        self.probs = np.asarray(probs, dtype=float)
        if self.probs.shape != (len(self.x_values), len(self.y_values)):
            raise ParameterError("probability matrix shape must match the value grids")
        if np.any(np.diff(self.x_values) <= 0) or np.any(np.diff(self.y_values) <= 0):
            raise ParameterError("value grids must be strictly increasing")
        if np.any(self.probs < 0):
            raise ParameterError("joint probabilities must be non-negative")
        total = math.fsum(self.probs.ravel().tolist())
        if abs(total - 1.0) > _TABLE_TOL:
            raise ParameterError(f"joint probabilities must sum to 1 within {_TABLE_TOL}, got {total!r}")

    def marginal_x(self) -> Discrete:
        return Discrete.from_samples(self.x_values, self.probs.sum(axis=1))

    def marginal_y(self) -> Discrete:
        return Discrete.from_samples(self.y_values, self.probs.sum(axis=0))

    def sum_distribution(self) -> Discrete:
        """Atoms x_i + y_j with aggregated joint mass, merged exactly."""
        sums = (self.x_values[:, None] + self.y_values[None, :]).ravel()
        return Discrete.from_samples(sums, self.probs.ravel())

    def to_json(self) -> dict:
        return {
            "x_values": self.x_values.tolist(),
            "y_values": self.y_values.tolist(),
            "probs": self.probs.tolist(),
        }


@dataclass(frozen=True)
class CounterexampleReport:
    """A certified subadditivity violation from a midpoint witness."""

    distortion_label: str
    u: float
    eps: float
    a: float
    risk_x: float
    risk_y: float
    risk_sum: float
    gap: float
    predicted_gap: float  # (a + eps/2) * (2 D(u) - D(u-eps) - D(u+eps))
    table: JointTable

    def to_json(self) -> dict:
        return {
            "distortion": self.distortion_label,
            "witness": {"u": self.u, "eps": self.eps},
            "a": self.a,
            "risk_x": self.risk_x,
            "risk_y": self.risk_y,
            "risk_sum": self.risk_sum,
            "gap": self.gap,
            "predicted_gap": self.predicted_gap,
            "table": self.table.to_json(),
        }


def build_counterexample(distortion: Distortion, a: float = 1.0) -> CounterexampleReport:
    """Construct the two-asset table that breaks subadditivity.

    Uses the convexity witness (u, eps): X takes -(a+eps) with probability u,
    Y additionally takes -(a+eps/2) on an eps-sliver, coupled so that the sum
    stacks the big losses.  Raises NoCounterexampleError for convex input.
    """
    if not a > 0:
        raise ParameterError(f"the loss size a must be positive, got {a!r}")
    res = is_convex(distortion)
    if res.convex:
        raise NoCounterexampleError(
            f"{distortion.label()} is convex: its risk functional is subadditive"
        )
    u, eps = res.witness
    big = a + eps
    mid = a + eps / 2.0
    table = JointTable(
        x_values=[-big, 0.0],
        y_values=[-big, -mid, 0.0],
        probs=[[u - eps, 0.0, eps], [0.0, eps, 1.0 - u - eps]],
    )
    rx = quantile_risk(table.marginal_x(), distortion).as_float()
    ry = quantile_risk(table.marginal_y(), distortion).as_float()
    rs = quantile_risk(table.sum_distribution(), distortion).as_float()
    du, dlo, dhi = distortion.eval(u), distortion.eval(u - eps), distortion.eval(u + eps)
    predicted = mid * (2.0 * du - dlo - dhi)
    return CounterexampleReport(
        distortion_label=distortion.label(),
        u=u,
        eps=eps,
        a=a,
        risk_x=rx,
        risk_y=ry,
        risk_sum=rs,
        gap=rs - rx - ry,
        predicted_gap=predicted,
        table=table,
    )


@dataclass(frozen=True)
class SubadditivityViolation:
    gap: float
    risk_x: float
    risk_y: float
    risk_sum: float
    trial: int  # -1 marks the constructed counterexample
    table: JointTable


def subadditivity_search(
    distortion: Distortion,
    trials: int = 10_000,
    seed: int = 0,
    *,
    slack: float = SEARCH_SLACK,
):
    """Hunt for risk-of-sum exceeding summed risks over random joint tables.

    Tables have at most 8x8 atoms on the integer grid [-10, 10] with integer
    weights, so every risk evaluation stays on the exact code path.  Returns
    the worst :class:`SubadditivityViolation` beyond ``slack``, or None.
    Deterministic for a fixed seed.  When the distortion is not convex the
    constructed counterexample is evaluated as an extra seeded trial.
    """
    if trials < 0:
        raise ParameterError("trials must be non-negative")
    best: SubadditivityViolation | None = None
    if not is_convex(distortion).convex:
        report = build_counterexample(distortion)
        best = SubadditivityViolation(
            gap=report.gap,
            risk_x=report.risk_x,
            risk_y=report.risk_y,
            risk_sum=report.risk_sum,
            trial=-1,
            table=report.table,
        )
    if trials:
        pack = _trial_pack(trials, seed)
        rho = {role: _stieltjes_batch(distortion, *pack.roles[role]) for role in ("x", "y", "s")}
        gaps = rho["s"] - rho["x"] - rho["y"]
        idx = int(np.argmax(gaps))
        if gaps[idx] > slack and (best is None or gaps[idx] > best.gap):
            xv, yv, w, total = pack.tables[idx]
            best = SubadditivityViolation(
                gap=float(gaps[idx]),
                risk_x=float(rho["x"][idx]),
                risk_y=float(rho["y"][idx]),
                risk_sum=float(rho["s"][idx]),
                trial=idx,
                table=JointTable(xv, yv, w / total),
            )
    return best


class _TrialPack:
    __slots__ = ("tables", "roles")

    def __init__(self, tables, roles):
        self.tables = tables
        self.roles = roles


@lru_cache(maxsize=4)
def _trial_pack(trials: int, seed: int) -> _TrialPack:
    """Random joint tables packed into flat arrays for batched evaluation.

    Cumulative levels are integer counts divided by the integer total, so a
    level shared by a marginal and the sum distribution is bit-identical and
    distortion jumps cannot fire inconsistently.
    """
    rng = np.random.default_rng(seed)
    tables = []
    role_values = {"x": [], "y": [], "s": []}
    role_levels = {"x": [], "y": [], "s": []}
    for _ in range(trials):
        m = int(rng.integers(1, 9))
        k = int(rng.integers(1, 9))
        xv = np.sort(rng.choice(21, size=m, replace=False) - 10).astype(float)
        yv = np.sort(rng.choice(21, size=k, replace=False) - 10).astype(float)
        w = rng.integers(0, 5, size=(m, k))
        if not w.any():
            w[int(rng.integers(m)), int(rng.integers(k))] = 1
        total = int(w.sum())
        tables.append((xv, yv, w.astype(float), float(total)))
        for role, values, masses in (
            ("x", xv, w.sum(axis=1)),
            ("y", yv, w.sum(axis=0)),
            ("s", (xv[:, None] + yv[None, :]).ravel(), w.ravel()),
        ):
            values = np.asarray(values, dtype=float)
            uniq, inverse = np.unique(values, return_inverse=True)
            merged = np.zeros(len(uniq), dtype=np.int64)
            np.add.at(merged, inverse, masses)
            keep = merged > 0
            role_values[role].append(uniq[keep])
            role_levels[role].append(np.cumsum(merged[keep]) / total)
    roles = {}
    for role in ("x", "y", "s"):
        lengths = np.array([len(v) for v in role_values[role]])
        starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        roles[role] = (
            np.concatenate(role_values[role]),
            np.concatenate(role_levels[role]),
            starts,
        )
    return _TrialPack(tables, roles)


def _stieltjes_batch(distortion: Distortion, values, levels, starts) -> np.ndarray:
    """Per-trial risk values: sum of value * increment of D at the levels."""
    w = np.asarray(distortion.eval(levels), dtype=float)
    prev = np.empty_like(w)
    prev[1:] = w[:-1]
    prev[starts] = 0.0
    return np.add.reduceat(values * (w - prev), starts)


@dataclass(frozen=True)
class ComonotoneAdditivityReport:
    risk_sum: float
    risk_1: float
    risk_2: float
    tol: float

    @property
    def deviation(self) -> float:
        return abs(self.risk_sum - self.risk_1 - self.risk_2)

    @property
    def additive(self) -> bool:
        return self.deviation <= self.tol


def comonotone_additivity_check(
    distortion: Distortion,
    d1: Distribution,
    d2: Distribution,
    *,
    tol: float = 1e-9,
) -> ComonotoneAdditivityReport:
    """Risk of the comonotone sum against the sum of risks."""
    rs = quantile_risk(comonotone_sum(d1, d2), distortion).as_float()
    r1 = quantile_risk(d1, distortion).as_float()
    r2 = quantile_risk(d2, distortion).as_float()
    return ComonotoneAdditivityReport(risk_sum=rs, risk_1=r1, risk_2=r2, tol=tol)
