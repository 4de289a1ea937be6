"""Gaussian-kernel maximum mean discrepancy between two embedding sets.

The statistic is the biased V form: all three double sums keep their
diagonal terms, so mmd(X, X) is exactly zero and the value is never
negative up to rounding. The raw three-sum total is divided by N^2 by
default, which keeps scores on a stable scale as sets grow; pass
``normalized=False`` to recover the raw sums.

Unequal sizes are handled by :func:`mmd_calculator`, which resamples the
smaller set with replacement up to the larger size, scores each repetition,
and reports the mean and spread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .embedset import EmbeddingSet, _same_dimension
from .errors import DimensionMismatch, InvalidRepetitions, SizeMismatch
from .rng import make_rng

MEDIAN_HEURISTIC = "median-heuristic"

# rounding residue below which a negative score is treated as zero
NEGATIVE_CLAMP = -1e-9


@dataclass(frozen=True)
class KernelConfig:
    """Gaussian kernel length scale; the default defers to the data at hand."""

    bandwidth: float | str = MEDIAN_HEURISTIC

    def __post_init__(self) -> None:
        bw = self.bandwidth
        if isinstance(bw, str):
            if bw != MEDIAN_HEURISTIC:
                raise ValueError(f"unknown bandwidth mode {bw!r}")
        elif not (isinstance(bw, (int, float)) and math.isfinite(bw) and bw > 0):
            raise ValueError("bandwidth must be a finite positive number")


@dataclass(frozen=True)
class MmdEstimate:
    """Resampling summary: mean score, spread, and how it was computed."""

    mean: float
    stddev: float
    repetitions: int
    bandwidth_used: float
    sizes: tuple[int, int]


def gaussian_kernel(x, y, bandwidth: float) -> float:
    """exp(-||x - y||^2 / (2 bandwidth^2)); 1.0 exactly when x equals y."""
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if xv.shape != yv.shape:
        raise DimensionMismatch(f"points have shapes {xv.shape} and {yv.shape}")
    if not (math.isfinite(bandwidth) and bandwidth > 0):
        raise ValueError("bandwidth must be a finite positive number")
    delta = xv - yv
    return float(np.exp(-float(delta @ delta) / (2.0 * bandwidth * bandwidth)))


def median_heuristic(x_set: EmbeddingSet, y_set: EmbeddingSet) -> float:
    """Median pairwise Euclidean distance over the pooled records.

    Zero-distance pairs are excluded; if every pairwise distance is zero the
    heuristic has nothing to measure and falls back to 1.0.
    """
    _same_dimension(x_set, y_set)
    pooled = np.vstack([x_set.vectors, y_set.vectors])
    distances = pdist(pooled)
    positive = distances[distances > 0]
    if positive.size == 0:
        return 1.0
    return float(np.median(positive))


def resolve_bandwidth(cfg: KernelConfig, x_set: EmbeddingSet, y_set: EmbeddingSet) -> float:
    if cfg.bandwidth == MEDIAN_HEURISTIC:
        return median_heuristic(x_set, y_set)
    return float(cfg.bandwidth)


def _kernel_total(xv: np.ndarray, yv: np.ndarray, bandwidth: float) -> float:
    """Sum K(x,x') + sum K(y,y') - 2 sum K(x,y), diagonals included."""
    inv = 1.0 / (2.0 * bandwidth * bandwidth)
    kxx = float(np.exp(-cdist(xv, xv, "sqeuclidean") * inv).sum())
    kyy = float(np.exp(-cdist(yv, yv, "sqeuclidean") * inv).sum())
    # The cross matrix is summed with its operands in a canonical order so
    # that swapping the arguments cannot change the reduction order and the
    # statistic stays symmetric to the last bit.
    if xv.tobytes() <= yv.tobytes():
        cross = float(np.exp(-cdist(xv, yv, "sqeuclidean") * inv).sum())
    else:
        cross = float(np.exp(-cdist(yv, xv, "sqeuclidean") * inv).sum())
    return kxx + kyy - 2.0 * cross


def _clamp(score: float) -> float:
    if NEGATIVE_CLAMP <= score < 0.0:
        return 0.0
    return score


def mmd(
    x_set: EmbeddingSet,
    y_set: EmbeddingSet,
    cfg: KernelConfig = KernelConfig(),
    *,
    normalized: bool = True,
) -> float:
    """Gaussian-kernel MMD between two equal-size sets.

    Args:
        x_set, y_set: sets of identical dimension and identical size.
        cfg: kernel bandwidth, explicit or resolved by the median heuristic
            over the pooled inputs.
        normalized: divide the three-sum total by N^2 (default). The raw
            total is recoverable as N^2 times the normalized score.

    Returns:
        A non-negative score; tiny negative rounding residues in
        [-1e-9, 0) are clamped to zero.

    Raises:
        SizeMismatch: the sets differ in size (use :func:`mmd_calculator`).
        DimensionMismatch: the sets differ in dimension.
    """
    _same_dimension(x_set, y_set)
    if x_set.size != y_set.size:
        raise SizeMismatch(
            f"sets have sizes {x_set.size} and {y_set.size}; "
            "mmd_calculator resamples the smaller set to compare unequal sizes"
        )
    bandwidth = resolve_bandwidth(cfg, x_set, y_set)
    n = x_set.size
    score = _clamp(_kernel_total(x_set.vectors, y_set.vectors, bandwidth) / (n * n))
    if not normalized:
        return score * (n * n)
    return score


def mmd_calculator(
    a_set: EmbeddingSet,
    b_set: EmbeddingSet,
    cfg: KernelConfig = KernelConfig(),
    repetitions: int = 10,
    seed: int = 0,
    *,
    normalized: bool = True,
) -> MmdEstimate:
    """MMD between sets of possibly different sizes, via resampling.

    Equal-size inputs are scored once and reported with stddev 0.0 and
    repetitions recorded as 1. Otherwise the smaller set is resampled
    uniformly with replacement up to the larger size (full i.i.d. draws, so
    originals are not guaranteed to be retained), once per repetition, and
    the estimate is the mean and population standard deviation of the
    per-repetition scores.

    A median-heuristic bandwidth is resolved once from the original,
    pre-resampling pooled sets and held fixed across repetitions.
    Repetition r draws from generator seed ``seed + r``, so the estimate is
    reproducible and repetitions are independent.
    """
    if repetitions < 1:
        raise InvalidRepetitions(f"repetitions must be >= 1, got {repetitions}")
    _same_dimension(a_set, b_set)
    bandwidth = resolve_bandwidth(cfg, a_set, b_set)
    sizes = (a_set.size, b_set.size)
    fixed = KernelConfig(bandwidth=bandwidth)
    if a_set.size == b_set.size:
        score = mmd(a_set, b_set, fixed, normalized=normalized)
        return MmdEstimate(
            mean=score, stddev=0.0, repetitions=1,
            bandwidth_used=bandwidth, sizes=sizes,
        )
    small, large = (a_set, b_set) if a_set.size < b_set.size else (b_set, a_set)
    target = large.size
    small_values = small.vectors
    large_values = large.vectors
    scores = np.empty(repetitions, dtype=np.float64)
    for r in range(repetitions):
        rng = make_rng(seed + r)
        idx = rng.integers(0, small.size, size=target)
        raw = _kernel_total(small_values[idx], large_values, bandwidth) / (target * target)
        scores[r] = _clamp(raw)
    mean = float(scores.mean())
    stddev = float(scores.std())
    if not normalized:
        scale = float(target * target)
        mean *= scale
        stddev *= scale
    return MmdEstimate(
        mean=mean, stddev=stddev, repetitions=repetitions,
        bandwidth_used=bandwidth, sizes=sizes,
    )
