"""Subadditivity of distortion risk: explicit counterexamples and random search.

For a non-convex distortion a two-asset joint table built from a midpoint
witness makes the risk of the sum exceed the summed risks by an exact,
closed-form gap.  For convex distortions a seeded randomized search over
small integer-valued joint tables acts as a falsification harness.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .distortions import MASS_TOL, Distortion, is_convex
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

SEARCH_SLACK = 1e-9  # a search reports a gap only above this
AXIOM_TOL = 1e-9  # the slack of an axiom check: comonotone additivity, monotonicity, ordering
MAX_TRIALS = 1_000_000  # a search's trials; a pack is kept at about 290 B a trial and built one block at a time


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
        if not (np.all(np.isfinite(self.x_values)) and np.all(np.isfinite(self.y_values))):
            raise ParameterError("value grids must be finite")
        if not (np.all(np.diff(self.x_values) > 0) and np.all(np.diff(self.y_values) > 0)):
            raise ParameterError("value grids must be strictly increasing")
        if not np.all(self.probs >= 0):  # written so that NaN fails
            raise ParameterError("joint probabilities must be non-negative")
        total = math.fsum(self.probs.ravel().tolist())
        if not abs(total - 1.0) <= MASS_TOL:
            raise ParameterError(f"joint probabilities must sum to 1 within {MASS_TOL}, got {total!r}")

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
    stacks the big losses.  Raises NoCounterexampleError for convex input,
    and ParameterError when a is so large that a + eps/2 and a + eps round to one float.
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
    if not big > mid:
        raise ParameterError(
            f"the loss size a = {a!r} is too large for the witness eps = {eps!r}: "
            "a + eps/2 and a + eps round to the same float"
        )
    table = JointTable(
        x_values=[-big, 0.0],
        y_values=[-big, -mid, 0.0],
        probs=[[u - eps, 0.0, eps], [0.0, eps, 1.0 - u - eps]],
    )
    rx = quantile_risk(table.marginal_x(), distortion).as_float()
    ry = quantile_risk(table.marginal_y(), distortion).as_float()
    rs = quantile_risk(table.sum_distribution(), distortion).as_float()
    du, dlo, dhi = distortion.eval(np.array([u, u - eps, u + eps])).tolist()
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


def subadditivity_search(distortion: Distortion, *, trials: int, seed: int):
    """Hunt for risk-of-sum exceeding summed risks over random joint tables.

    Tables have at most 8x8 atoms on the integer grid [-10, 10] with integer
    weights.  D is evaluated once, on the fixed table of every possible
    level (:func:`_fractions`), and the pack is searched block by block:
    each role gathers its levels' D from that table and a block's risks are
    summed in one batch by :func:`_stieltjes_batch`, the counterexample's by
    :func:`quantile_risk`.  A level's float is the same wherever it occurs,
    so the risks are bitwise those of evaluating D at every level, and the
    first trial of the worst gap is reported, as one ``argmax`` would.
    Returns the worst :class:`SubadditivityViolation` beyond ``SEARCH_SLACK``, or None.
    Deterministic for a fixed seed: the tables are drawn in blocks of 1,024
    trials from ``default_rng([seed, block])``, so the first n trials are
    the same whatever ``trials`` is.  When the distortion is not convex the
    constructed counterexample is evaluated as an extra seeded trial, with
    the largest power of two a <= 1 at which a + eps/2 and a + eps differ.
    """
    trials, seed = _trials(trials), _count("seed", seed)
    best: SubadditivityViolation | None = None
    res = is_convex(distortion)
    if not res.convex:
        a, eps = 1.0, res.witness[1]
        while not a + eps / 2.0 < a + eps:  # halve a until the two losses are two floats
            a /= 2.0
        report = build_counterexample(distortion, a)
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
        at = distortion.eval(_fractions()[0])
        worst, first = None, 0
        for block in pack:
            # take gathers by the uint16 index about twice as fast as indexing with [] does
            rho = {
                role: _stieltjes_batch(at.take(index), values, starts)
                for role, (values, index, starts) in block.roles.items()
            }
            gaps = rho["s"] - rho["x"] - rho["y"]
            i = int(np.argmax(gaps))
            if worst is None or gaps[i] > worst[0]:  # strict, so the first worst trial is kept
                worst = (gaps[i], first, block, i, rho)
            first += len(block)
        gap, first, block, i, rho = worst
        if gap > SEARCH_SLACK and (best is None or gap > best.gap):
            xv, yv, w, total = block.tables[i]
            best = SubadditivityViolation(
                gap=float(gap),
                risk_x=float(rho["x"][i]),
                risk_y=float(rho["y"][i]),
                risk_sum=float(rho["s"][i]),
                trial=first + i,
                table=JointTable(xv, yv, w / total),
            )
    return best


def _count(name: str, value) -> int:
    """A non-negative integer argument; bools and floats such as 2.0 are refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ParameterError(f"{name} must be a non-negative integer, got {value!r}")
    return int(value)


def _trials(value) -> int:
    """A trial count: a non-negative integer of at most ``MAX_TRIALS``, refused before any draw."""
    trials = _count("trials", value)
    if trials > MAX_TRIALS:
        raise ParameterError(f"trials must be at most {MAX_TRIALS}, got {trials}")
    return trials


_SLOTS = 41  # integer sum values -20..20; the x and y grids use the slots 0..20
_KEY = 4 * 64 + 1  # a trial's total is at most 4 * 64, so count * 257 + total keys the level count / total


@lru_cache(maxsize=1)
def _fractions():
    """The sorted distinct floats c / t, 1 <= c <= t <= 256, and their uint16 lookup by c * 257 + t.

    Every level of a trial is such a fraction.  Division rounds correctly,
    so equal fractions such as 1/2 and 2/4 are one float and share one
    entry: there are 19,948.  Built on the first search, not at import.
    """
    count, total = np.divmod(np.arange(_KEY * _KEY), _KEY)
    key = np.flatnonzero((count >= 1) & (count <= total))
    fractions, at = np.unique(count[key] / total[key], return_inverse=True)
    lookup = np.zeros(_KEY * _KEY, dtype=np.uint16)
    lookup[key] = at
    return fractions, lookup


@dataclass(frozen=True, eq=False, slots=True)
class _Tables:
    """The trials' tables ``(xv, yv, w, total)``, rebuilt one at a time from the int8 draws.

    ``xi``/``yi`` hold the sorted grid indices (value + 10) and ``w`` the
    row-major integer weights of all trials; ``*_at`` are their offsets.
    """

    xi: np.ndarray
    yi: np.ndarray
    w: np.ndarray
    x_at: np.ndarray
    y_at: np.ndarray
    w_at: np.ndarray

    def __len__(self) -> int:
        return len(self.x_at) - 1

    def __getitem__(self, i: int):
        i = range(len(self))[i]
        xv = self.xi[self.x_at[i] : self.x_at[i + 1]].astype(float) - 10.0
        yv = self.yi[self.y_at[i] : self.y_at[i + 1]].astype(float) - 10.0
        w = self.w[self.w_at[i] : self.w_at[i + 1]].astype(float).reshape(len(xv), len(yv))
        return xv, yv, w, float(w.sum())


class _Block:
    """One block's trials: their tables and, per role (x, y and the sum s), ``(values, index, starts)``.

    ``index`` holds each level's uint16 position in the fraction table and
    ``starts`` each trial's first level.
    """

    __slots__ = ("tables", "roles")

    def __init__(self, tables: _Tables, roles: dict):
        self.tables = tables
        self.roles = roles

    def __len__(self) -> int:
        return len(self.tables)

    def head(self, n: int) -> _Block:
        """The first ``n`` < ``len(self)`` trials, as views."""
        t = self.tables
        tables = _Tables(t.xi, t.yi, t.w, t.x_at[: n + 1], t.y_at[: n + 1], t.w_at[: n + 1])
        roles = {
            role: (values[: starts[n]], index[: starts[n]], starts[:n])
            for role, (values, index, starts) in self.roles.items()
        }
        return _Block(tables, roles)


def _offsets(lengths) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(lengths)))


_BLOCK = 1024  # trials per generator; every block is drawn in full


def _draw_block(seed: int, block: int):
    """Block ``block`` of the trials, drawn from ``default_rng([seed, block])``.

    Returns the sizes, grid masks, weights and the mask of used weights.
    The order of the whole-array draws is the seeded contract: the sizes m
    and k, 21 uniform keys per trial for x and then for y (the m, or k,
    smallest keys pick the grid points), 64 int8 weights in 0..4 per trial
    (the first m*k are used), and a cell in 0..m*k-1 that is set to 1 where
    the used weights are all 0.
    """
    rng = np.random.default_rng([seed, block])
    m, k = rng.integers(1, 9, size=(2, _BLOCK))
    x_mask = rng.random((_BLOCK, 21)).argsort(axis=1).argsort(axis=1) < m[:, None]
    y_mask = rng.random((_BLOCK, 21)).argsort(axis=1).argsort(axis=1) < k[:, None]
    w = rng.integers(0, 5, size=(_BLOCK, 64), dtype=np.int8)
    cell = rng.integers(0, m * k)
    used = np.arange(64) < (m * k)[:, None]
    empty = ~(w * used).any(axis=1)
    w[empty, cell[empty]] = 1
    return m, k, x_mask, y_mask, w, used


_EXTEND = threading.Lock()  # one thread at a time extends the cached blocks


@lru_cache(maxsize=1)
def _seed_blocks(seed: int) -> list:
    """The blocks of one seed built so far, in order; :func:`_trial_pack` appends to the list."""
    return []


def _trial_pack(trials: int, seed: int) -> list[_Block]:
    """The first ``trials`` random joint tables, as blocks packed for batched evaluation.

    Block b holds trials b*1024 .. b*1024+1023, drawn in full by
    :func:`_draw_block`, so a shorter pack is an exact prefix of a longer
    one.  The blocks of the last seed asked for are cached and extended one
    block at a time, so a build peaks at the cached blocks plus one block's
    temporaries; a pack that ends inside a block gets a view of its head.
    """
    with _EXTEND:
        blocks = _seed_blocks(seed)
        while len(blocks) * _BLOCK < trials:
            blocks.append(_build_block(seed, len(blocks)))
        full, rest = divmod(trials, _BLOCK)
        return blocks[:full] + [blocks[full].head(rest)] if rest else blocks[:full]


def _build_block(seed: int, block: int) -> _Block:
    """Block ``block`` of a seed's trials: their tables and merged roles.

    ``np.nonzero`` of the grid masks, in row-major order, gives each trial's
    sorted grid indices already concatenated.  Each role merges masses with
    one ``bincount`` over ``trial * 41 + slot``, where a slot is an integer
    value plus its offset.  A level is the integer count over the trial's
    integer total, kept as its index in the table of :func:`_fractions`, so
    a level shared by a marginal and the sum distribution is one float and
    distortion jumps cannot fire inconsistently.
    """
    m, k, x_mask, y_mask, w, used = _draw_block(seed, block)
    tables = _Tables(
        np.nonzero(x_mask)[1].astype(np.int8),
        np.nonzero(y_mask)[1].astype(np.int8),
        w[used],
        _offsets(m),
        _offsets(k),
        _offsets(m * k),
    )
    del x_mask, y_mask, w, used  # free the draws before the per-cell work below
    # row r of a trial repeats its x slot once a column; each cell's column is index arithmetic
    x_slot = np.repeat(tables.xi, np.repeat(k, m))
    trial = np.repeat(np.arange(_BLOCK), m * k)
    col = (np.arange(len(tables.w)) - tables.w_at[trial]) % k[trial]
    y_slot = tables.yi[tables.y_at[trial] + col]
    del col
    trial *= _SLOTS  # now each cell's key base, in place
    roles = {
        role: _merged_role(trial + slot, tables.w, offset)
        for role, slot, offset in (("x", x_slot, 10), ("y", y_slot, 10), ("s", x_slot + y_slot, 20))
    }
    return _Block(tables, roles)


def _merged_role(cell_key, w, offset: int):
    """(values, index, starts) of one role from its cells' ``trial * 41 + slot`` keys."""
    counts = np.bincount(cell_key, weights=w, minlength=_BLOCK * _SLOTS)  # whole floats up to 256
    hit = np.flatnonzero(counts)
    counts = counts[hit].astype(np.int64)
    trial, slot = np.divmod(hit, _SLOTS)
    values = (slot - offset).astype(float)
    starts = _offsets(np.bincount(trial, minlength=_BLOCK))
    count = np.cumsum(counts)
    before = count[starts[:-1]] - counts[starts[:-1]]
    total = (count[starts[1:] - 1] - before)[trial]
    count -= before[trial]
    count *= _KEY  # now the key count * 257 + total, in place
    count += total
    return values, _fractions()[1][count], starts[:-1]


def _stieltjes_batch(w, values, starts) -> np.ndarray:
    """Per-trial risk values: sum of value * increment of D, where ``w`` is D at each level.

    A trial's first increment, at ``starts``, is D itself.  The increments,
    their products with the values and the sums share one temporary.
    """
    step = np.empty_like(w)
    np.subtract(w[1:], w[:-1], out=step[1:])
    step[starts] = w[starts]
    step *= values
    return np.add.reduceat(step, starts)


@dataclass(frozen=True)
class ComonotoneAdditivityReport:
    risk_sum: float
    risk_1: float
    risk_2: float

    @property
    def deviation(self) -> float:
        return abs(self.risk_sum - self.risk_1 - self.risk_2)

    @property
    def additive(self) -> bool:
        return self.deviation <= AXIOM_TOL


def comonotone_additivity_check(
    distortion: Distortion, d1: Distribution, d2: Distribution
) -> ComonotoneAdditivityReport:
    """Risk of the comonotone sum against the sum of risks."""
    rs = quantile_risk(comonotone_sum(d1, d2), distortion).as_float()
    r1 = quantile_risk(d1, distortion).as_float()
    r2 = quantile_risk(d2, distortion).as_float()
    return ComonotoneAdditivityReport(risk_sum=rs, risk_1=r1, risk_2=r2)
