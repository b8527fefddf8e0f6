"""Arithmetic shared by the end-to-end benchmark, its compare tool and tests.

Nothing here opens a socket or starts a process: percentiles under the
ten-samples-beyond rule, span self times, the residual that closes a
traced latency budget, open-loop timing, and the verdicts ``compare.py``
prints.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from typing import Iterable, NamedTuple

# A percentile is trusted only with this many samples beyond it.
MIN_BEYOND = 10


class Span(NamedTuple):
    """One recorded call into a layer (times in seconds, one clock)."""

    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    rid: str | None = None
    value: float | str | None = None


def percentile(values: Iterable[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default rule).

    ``inf`` entries (failed requests) sort last, so a percentile that
    reaches them reads ``inf`` instead of an interpolated guess.

    Raises
    ------
    ValueError
        For an empty sample.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    a, b = ordered[lo], ordered[hi]
    if lo == hi or math.isinf(b):
        return b if math.isinf(b) else a
    return a + (b - a) * (rank - lo)


def beyond(n: int, pct: int) -> int:
    """Samples lying beyond the ``pct`` percentile of ``n`` samples,
    ``n - ceil(pct * n / 100)`` in exact integer arithmetic."""
    return n - (-(-pct * n // 100))


def eligible(n: int, pct: int) -> bool:
    """Whether ``n`` samples support the ``pct`` percentile."""
    return beyond(n, pct) >= MIN_BEYOND


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals.

    Children may run on other threads and overlap each other; the
    parent is charged only for the part of its interval that no child
    covers.  Child intervals are clipped to the parent's.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out: dict[int, float] = {}
    for s in spans:
        clipped = [
            (max(a, s.start), min(b, s.end))
            for a, b in children.get(s.sid, ())
            if min(b, s.end) > max(a, s.start)
        ]
        out[s.sid] = (s.end - s.start) - union_length(clipped)
    return out


def attribute(spans: Iterable[Span]) -> dict[str, dict[str, float]]:
    """Calls and summed self seconds per span name."""
    spans = list(spans)
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        entry = out.setdefault(s.name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own[s.sid]
    return out


def residual(client_total: float, layers: dict[str, dict[str, float]]) -> float:
    """Client latency the spans do not explain: the client total minus
    every layer's self time (network, accept queue, client overhead)."""
    return client_total - sum(entry["self_s"] for entry in layers.values())


def from_due(dues: list[float], times: list[float]) -> list[float]:
    """Open-loop timing: each event's time minus when it was *due*, so
    a stall that delays later sends is charged to them too."""
    return [t - due for due, t in zip(dues, times)]


def tick_to_view(
    dues: list[float], views: list[tuple[int, float]]
) -> list[float]:
    """Open-loop freshness: per tick, seconds from its *due* time until
    the first view covering it completed.

    ``views`` holds ``(highest tick covered, completion time)`` in
    completion order.  Ticks no view covered are left out.
    """
    out: list[float] = []
    for tick, due in enumerate(dues):
        for covered, done in views:
            if covered >= tick:
                out.append(done - due)
                break
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them; a single run is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf


def worse_by(a: list[float], b: list[float], better: str) -> float:
    """How much worse B's median is than A's, as a share of A's
    (negative when B is better)."""
    med_a = statistics.median(a)
    med_b = statistics.median(b)
    if med_a == 0:
        return 0.0 if med_b == med_a else math.inf
    change = (med_b - med_a) / abs(med_a)
    return change if better == "lower" else -change


def every_run_wins(a: list[float], b: list[float], better: str) -> bool:
    """Whether every run of B reads better than every run of A."""
    if better == "lower":
        return max(b) < min(a)
    return min(b) > max(a)


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """``regression`` when B's median is worse than A's by more than
    ``bound``; otherwise ``unresolved`` when either side's quartile
    spread exceeds ``bound``, unless every B run beats every A run;
    otherwise ``ok``."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if worse_by(a, b, better) > bound:
        return "regression"
    noisy = max(relative_spread(a), relative_spread(b)) > bound
    if noisy and not every_run_wins(a, b, better):
        return "unresolved"
    return "ok"
