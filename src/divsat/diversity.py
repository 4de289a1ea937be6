"""Absolute diversity metrics for a single embedding set.

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

from .embedset import EmbeddingSet


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


def axis_stats(embeddings: EmbeddingSet) -> AxisStats:
    return diversity_report(embeddings).axis


def std_diversity(embeddings: EmbeddingSet) -> float:
    """Geometric mean of the per-axis standard deviations."""
    return diversity_report(embeddings).std_metric


def centroid_diversity(embeddings: EmbeddingSet) -> float:
    """Mean squared Euclidean distance of every vector from the set centroid."""
    return diversity_report(embeddings).centroid_metric


def diversity_report(embeddings: EmbeddingSet) -> DiversityScore:
    """Both metrics with the centroid and axis stats, from one pass over the set.

    The squared deviations from the axis means are the one n x k temporary:
    their column sums give the variances and their row sums the centroid
    metric. The k-fold product of the std metric is taken in log space so
    long products of small sigmas cannot underflow; an exactly-zero sigma on
    any axis short circuits to 0.0 before the log.
    """
    values = embeddings.vectors
    # Sums or squares that overflow leave an infinity or NaN in the report,
    # which callers reject as non-finite; numpy is not to warn on stderr too.
    with np.errstate(over="ignore", invalid="ignore"):
        means = values.mean(axis=0)
        squares = values - means
        squares *= squares
        stddevs = np.sqrt(squares.sum(axis=0) / len(values))
        # A constant axis must report sigma exactly 0 (and its constant as the
        # mean); summing n identical floats can otherwise leave an ulp of noise.
        constant = values.max(axis=0) == values.min(axis=0)
        centroid_metric = 0.0 if constant.all() else float(squares.sum(axis=1).mean())
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
