"""Absolute diversity metrics for a single embedding set, and the change in
them between two sets.

Two scalar summaries of spread:

* std diversity, the geometric mean of the per-axis population standard
  deviations, in the units of the embedding space;
* centroid diversity, the mean squared Euclidean distance from the set
  centroid, in squared units.

Both are translation invariant and independent of record order, and both
are exactly zero only when every vector is identical (the std metric also
collapses to zero whenever any single axis is constant).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedset import EmbeddingSet, _same_dimension

# rows per block of squared deviations in diversity_report
_BLOCK = 1024


@dataclass(frozen=True, eq=False)
class AxisStats:
    """Per-coordinate mean and population standard deviation (divisor n)."""

    means: np.ndarray
    stddevs: np.ndarray


@dataclass(frozen=True, eq=False)
class DiversityScore:
    """Both scalar metrics plus the centroid and per-axis stats behind them."""

    std_metric: float
    centroid_metric: float
    centroid: np.ndarray
    n: int
    k: int
    axis: AxisStats


@dataclass(frozen=True, eq=False)
class DiversityImpactReport:
    """Absolute diversity on both sets plus signed after-minus-before deltas."""

    before: DiversityScore
    after: DiversityScore
    delta_std: float
    delta_centroid: float


def diversity_report(embeddings: EmbeddingSet) -> DiversityScore:
    """Both metrics with the centroid and axis stats, from one pass over the set.

    The squared deviations from the axis means are taken in blocks of
    _BLOCK rows: their row sums give the centroid metric and their column
    sums the variances. Each block's first row carries the running column
    sums, so the columns are summed row after row as numpy sums a whole
    (n, k) array along axis 0, bit for bit; a single column (k == 1) is one
    block, since numpy sums it pairwise. The k-fold product of the std
    metric is taken in log space so long products of small sigmas cannot
    underflow; an exactly-zero sigma on any axis short circuits to 0.0
    before the log.
    """
    values = embeddings.vectors
    n = len(values)
    block_rows = _BLOCK if values.shape[1] > 1 else n
    # Sums or squares that overflow leave an infinity or NaN in the report,
    # which callers reject as non-finite; numpy is not to warn on stderr too.
    with np.errstate(over="ignore", invalid="ignore"):
        means = values.mean(axis=0)
        row_sums = np.empty(n)
        column_sums = np.zeros(values.shape[1])
        block = np.empty((min(block_rows, n), values.shape[1]))
        for start in range(0, n, block_rows):
            rows = values[start:start + block_rows]
            squares = np.subtract(rows, means, out=block[:len(rows)])
            squares *= squares
            row_sums[start:start + len(squares)] = squares.sum(axis=1)
            squares[0] += column_sums  # squares are never -0.0, so adding 0.0 keeps bits
            column_sums = squares.sum(axis=0)
        stddevs = np.sqrt(column_sums / n)
        # A constant axis must report sigma exactly 0 (and its constant as the
        # mean); summing n identical floats can otherwise leave an ulp of noise.
        constant = values.max(axis=0) == values.min(axis=0)
        centroid_metric = 0.0 if constant.all() else float(row_sums.mean())
        if constant.any():
            means = np.where(constant, values[0], means)
            stddevs = np.where(constant, 0.0, stddevs)
        std_metric = 0.0 if np.any(stddevs == 0.0) else float(np.exp(np.mean(np.log(stddevs))))
    return DiversityScore(
        std_metric=std_metric,
        centroid_metric=centroid_metric,
        centroid=means,
        n=embeddings.size,
        k=embeddings.dimension,
        axis=AxisStats(means=means, stddevs=stddevs),
    )


def diversity_impact(before: EmbeddingSet, after: EmbeddingSet) -> DiversityImpactReport:
    """Diversity of both sets and the signed change a filter caused."""
    _same_dimension(before, after)
    b = diversity_report(before)
    a = diversity_report(after)
    return DiversityImpactReport(
        before=b,
        after=a,
        delta_std=a.std_metric - b.std_metric,
        delta_centroid=a.centroid_metric - b.centroid_metric,
    )
