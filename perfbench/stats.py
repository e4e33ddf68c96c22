"""Order statistics and span arithmetic used by the benchmark and its self-tests."""

from __future__ import annotations

from typing import Iterable, Sequence

# The tail percentile is the highest one with at least this many samples above it.
TAIL_BEYOND = 10


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """Highest percentile of ``values`` that has at least ``beyond`` samples above it.

    Returns (value, percentile, samples strictly above the value). For n
    distinct samples this is the (n - beyond)-th smallest, the
    100 (n - beyond) / n percentile. With n <= beyond no percentile qualifies;
    the maximum is returned as percentile 100 with the true count above it
    (0), so a short run is visible as such instead of posing as a tail.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("tail of an empty sample")
    n = len(xs)
    for rank in range(n - beyond, 0, -1):
        value = xs[rank - 1]
        above = sum(1 for x in xs if x > value)
        if above >= beyond:
            return value, 100.0 * rank / n, above
    return xs[-1], 100.0, 0


def self_time(start: float, end: float, children: Iterable[tuple[float, float]]) -> float:
    """Duration of [start, end] minus the part of it that child spans cover.

    Overlapping children are counted once and the parts of a child outside
    the parent are ignored, so the result never exceeds the duration and is
    never negative.
    """
    covered = 0.0
    cursor = start
    for c_start, c_end in sorted(children):
        lo = max(c_start, cursor)
        hi = min(c_end, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return (end - start) - covered
