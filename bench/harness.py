"""Timing, checking and tracing of single calls into quantrisk.

A :class:`Runner` makes every call of a workload: it times the call, stops it
after a time limit, runs the call's check on the returned value and records
the outcome.  A call that raises, times out or returns a value failing its
check is a failed op.  With a :class:`Tracer` attached, each call is also
recorded as a span.

Each op's time is also recorded scaled to a reference host speed.  The
runner times a small fixed calibration kernel before an op, and every
CALIBRATE_EVERY_S of CPU time during it (from a SIGPROF handler, whose time
is taken out of the op's time).  An op's scaled time is its time multiplied
by CALIBRATION_REF_S over the median of the last three kernel times before
it and those taken while it ran.  On a shared
host the speed of the same code drifts by 20-40% within a minute, and the
kernel drifts with it.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from contextlib import contextmanager, nullcontext

# A call still running after this long counts as a timed-out failure.  The
# slowest passing call of the seed commit takes about 15 s.
OP_LIMIT_S = 30.0
CALIBRATE_EVERY_S = 0.25
# the calibration kernel's time on an idle 2.1 GHz Xeon core
CALIBRATION_REF_S = 0.0015


class OpTimeout(Exception):
    pass


def _raise_timeout(signum, frame):
    raise OpTimeout()


class Tracer:
    """Spans kept in memory: name, tag, start, end, parent span and op id."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: int | None = None

    @contextmanager
    def span(self, name: str, tag: str = ""):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, tag, time.perf_counter(), None, parent, self.op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def to_json(self) -> list[dict]:
        keys = ("name", "tag", "start", "end", "parent", "op")
        return [dict(zip(keys, s)) for s in self.spans]


def calibration_kernel() -> float:
    """Seconds taken by a fixed mix of interpreted and numpy work."""
    import numpy as np

    t0 = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    a = np.arange(20_000.0)
    for _ in range(2):
        a = np.sort(a[::-1])
    return time.perf_counter() - t0


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, tag, start, end, parent, op in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, tag, start, end, parent, op) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


class Runner:
    """Makes the calls of one run and records each as an op.

    ``deadline`` is a ``time.perf_counter`` value: ops due after it are not
    started and count as failed, so a run always ends in bounded time.
    """

    def __init__(self, tracer: Tracer | None = None, deadline: float = math.inf):
        self.tracer = tracer
        self.deadline = deadline
        self.ops: list[dict] = []
        self._kernel_s: list[float] = []  # calibration kernel times, in order
        self._kernel_at = -math.inf
        signal.signal(signal.SIGALRM, _raise_timeout)
        signal.signal(signal.SIGPROF, self._calibrate)

    def _calibrate(self, signum=None, frame=None) -> None:
        self._kernel_s.append(calibration_kernel())
        self._kernel_at = time.perf_counter()

    def scaled_since(self, seconds: float, mark: int) -> float:
        """``seconds`` scaled by the median kernel time from the one before ``mark`` on."""
        kernel = self._kernel_s[max(0, mark - 1):]
        return seconds * CALIBRATION_REF_S / statistics.median(kernel) if kernel else seconds

    @property
    def kernel_mark(self) -> int:
        return len(self._kernel_s)

    def call(self, cell: str, layer: str, fn, *args, tag: str = "", needs=(), check=None,
             items=None, **kwargs):
        """Time ``fn(*args, **kwargs)``; return its value, or None if the op failed.

        ``needs`` lists values from earlier ops; if one of them is None the
        call is not made.  ``check(value)`` returns None when the value is
        right, else the reason it is wrong.  ``items(value)`` splits one call
        into several checked items, as ``[(name, reason or None), ...]``.
        """
        record = {"cell": cell, "layer": layer, "tag": tag, "seconds": 0.0, "scaled_seconds": 0.0,
                  "error": None, "items": 1, "failed_items": [], "checked": False}
        self.ops.append(record)
        remaining = self.deadline - time.perf_counter()
        if any(v is None for v in needs):
            record["error"] = "skipped: an input op failed"
        elif remaining <= 0:
            record["error"] = "skipped: run deadline passed"
        if record["error"]:
            record["failed_items"].append((cell, record["error"]))
            return None
        limit = min(OP_LIMIT_S, remaining)
        if time.perf_counter() - self._kernel_at > CALIBRATE_EVERY_S:
            self._calibrate()
        first = len(self._kernel_s) - 1  # the kernel time just before the op
        if self.tracer is not None:
            self.tracer.op = len(self.ops) - 1
        scope = self.tracer.span(layer, tag) if self.tracer is not None else nullcontext()
        value = None
        with scope:
            t0 = time.perf_counter()
            try:
                try:
                    signal.setitimer(signal.ITIMER_REAL, limit)
                    signal.setitimer(signal.ITIMER_PROF, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
                    value = fn(*args, **kwargs)
                finally:
                    signal.setitimer(signal.ITIMER_PROF, 0)
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except OpTimeout:
                record["error"] = f"timed out after {limit:.0f} s"
            except Exception as exc:  # any raise is a failed op, recorded by type
                record["error"] = f"raised {type(exc).__name__}: {_short(str(exc))}"
            t1 = time.perf_counter()
        if self.tracer is not None:
            self.tracer.op = None
        during = self._kernel_s[first + 1:]
        record["seconds"] = t1 - t0 - sum(during)
        if not during and record["seconds"] > CALIBRATE_EVERY_S:
            self._calibrate()  # an op that waited on a child process used no CPU time here
        kernel = statistics.median(self._kernel_s[max(0, first - 2):])
        record["scaled_seconds"] = record["seconds"] * CALIBRATION_REF_S / kernel
        if record["error"] is None and items is not None:
            parts = items(value)
            record["items"] = len(parts)
            record["failed_items"] = [(name, why) for name, why in parts if why]
            record["checked"] = True
            return value
        if record["error"] is None and check is not None:
            why = check(value)
            record["checked"] = True
            if why:
                record["error"] = f"wrong: {_short(why)}"
        if record["error"]:
            record["failed_items"].append((cell, record["error"]))
            return None
        return value


def _short(text: str, width: int = 160) -> str:
    text = " ".join(text.split())
    return text if len(text) <= width else text[: width - 3] + "..."


# ---------------------------------------------------------------------------
# checks shared by the workloads


def near(got: float, want: float, tol: float, relative: bool = False) -> str | None:
    """None when |got - want| <= tol (times max(1, |want|) if relative)."""
    scale = max(1.0, abs(want)) if relative else 1.0
    if math.isfinite(got) and math.isfinite(want) and abs(got - want) <= tol * scale:
        return None
    return f"{got!r} vs {want!r} (tol {tol:g}{' relative' if relative else ''})"


def agrees_with(ref, tol: float, ref_name: str):
    """Check that a RiskValue matches the reference RiskValue within ``tol``."""

    def check(value) -> str | None:
        if ref is None:
            return f"no reference: the {ref_name} op failed"
        if value.kind != ref.kind:
            return f"kind {value.kind} vs {ref_name} {ref.kind}"
        if value.is_finite:
            return near(value.value, ref.value, tol)
        return None

    return check
