"""Statistics helpers for the benchmark: percentile summaries, span self
time and the computed MMD work counts.

Pure Python so the self-tests run without numpy or divsat.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence

# Tail percentiles considered above the median, in tenths of a percent so
# the "ten samples beyond" test stays in integer arithmetic.
TAIL_LADDER_PERMILLE = (900, 990, 999)
MIN_BEYOND = 10


def nearest_rank(samples: Sequence[float], permille: int) -> float:
    """The ceil(p * n)-th smallest sample (nearest-rank percentile)."""
    ordered = sorted(samples)
    rank = max(1, -(-permille * len(ordered) // 1000))
    return ordered[rank - 1]


def tail_permille(n: int) -> int | None:
    """Highest ladder percentile with at least ten of n samples beyond it."""
    best = None
    for permille in TAIL_LADDER_PERMILLE:
        if n * (1000 - permille) >= MIN_BEYOND * 1000:
            best = permille
    return best


def summarize(samples: Sequence[float]) -> dict:
    """Median, sample count and the tail percentile the count supports."""
    if not samples:
        raise ValueError("no samples to summarize")
    out = {"n": len(samples), "p50": statistics.median(samples), "tail": None}
    permille = tail_permille(len(samples))
    if permille is not None:
        out["tail"] = {"p": permille / 10, "value": nearest_rank(samples, permille)}
    return out


def describe(summary: dict, unit: str) -> str:
    text = f"{summary['p50']:.4f} {unit} median, n={summary['n']}"
    tail = summary["tail"]
    if tail is None:
        return text + f"; no tail percentile (p90 needs >= {MIN_BEYOND * 10} samples)"
    return text + f"; p{tail['p']:g} {tail['value']:.4f} {unit}"


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(start: float, end: float, children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the part of it that its child spans cover."""
    return (end - start) - covered(children, start, end)


def mmd_counts(n_a: int, n_b: int, repetitions: int, distinct: int,
               median_heuristic: bool) -> dict:
    """Work one MMD estimate does, computed from the input sizes.

    - ``kernel_entries``: Gaussian-kernel entries evaluated, 3 * R * n_large^2
      (the three n_large x n_large blocks per repetition; equal sizes score
      once, so R counts as 1), plus the pooled ``pdist`` pairs P(P-1)/2 when
      the bandwidth comes from the median heuristic.
    - ``useful_entries``: distinct off-diagonal pairs d(d-1)/2 among the d
      distinct pooled points; every other entry repeats one of these or is
      a diagonal entry, which is exactly 1.
    - ``temp_bytes``: the largest float64 temporary, an n_large^2 kernel
      block or the pooled distance vector.
    """
    n_large = max(n_a, n_b)
    reps = 1 if n_a == n_b else repetitions
    pooled = n_a + n_b
    pdist_pairs = pooled * (pooled - 1) // 2 if median_heuristic else 0
    return {
        "kernel_entries": 3 * reps * n_large * n_large + pdist_pairs,
        "useful_entries": distinct * (distinct - 1) // 2,
        "temp_bytes": 8 * max(n_large * n_large, pdist_pairs),
    }


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
