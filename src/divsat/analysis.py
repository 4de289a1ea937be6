"""Correlation analytics and before/after diversity impact.

Pearson r between paired series, its two-tailed p-value under the exact-t
null with n - 2 degrees of freedom, a three-way report relating text-side
diversity, motion-side diversity, and downstream score change, and the
signed diversity deltas a relevance filter causes.

Constant series are an error, not r = 0: a correlation against something
that never moves is undefined, and silently reporting zero would launder
that into "no relationship".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _correlation, _float_integer
from .diversity import DiversityScore, diversity_report
from .embedset import EmbeddingSet, _same_dimension
from .errors import (
    DegenerateSeries,
    InsufficientSamples,
    LengthMismatch,
    NonFiniteValue,
)


@dataclass(frozen=True, eq=False)
class PairedSeries:
    """Two aligned, finite, equal-length float64 series (length >= 2)."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs, dtype=np.float64).ravel()
        ys = np.asarray(self.ys, dtype=np.float64).ravel()
        if xs.shape[0] != ys.shape[0]:
            raise LengthMismatch(
                f"series have lengths {xs.shape[0]} and {ys.shape[0]}"
            )
        if xs.shape[0] < 2:
            raise InsufficientSamples("paired series need at least 2 points")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise NonFiniteValue("series values must be finite")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @property
    def n(self) -> int:
        return int(self.xs.shape[0])


@dataclass(frozen=True)
class CorrelationResult:
    r: float
    p: float
    n: int


@dataclass(frozen=True)
class CorrelationReport:
    """The three pairwise correlations between the input series."""

    text_vs_motion: CorrelationResult
    text_vs_f1: CorrelationResult
    motion_vs_f1: CorrelationResult


@dataclass(frozen=True, eq=False)
class DiversityImpactReport:
    """Absolute diversity on both sets plus signed after-minus-before deltas."""

    before: DiversityScore
    after: DiversityScore
    delta_std: float
    delta_centroid: float


def pearson_r(series: PairedSeries) -> float:
    """Sample Pearson correlation coefficient, clamped into [-1, 1].

    Raises DegenerateSeries when either side has zero variance.
    """
    dx = series.xs - series.xs.mean()
    dy = series.ys - series.ys.mean()
    ssx = float(dx @ dx)
    ssy = float(dy @ dy)
    if ssx == 0.0:
        raise DegenerateSeries("xs is constant; correlation is undefined")
    if ssy == 0.0:
        raise DegenerateSeries("ys is constant; correlation is undefined")
    r = float(dx @ dy) / np.sqrt(ssx * ssy)
    return float(min(1.0, max(-1.0, r)))


def pearson_p(r: float, n: int) -> float:
    """Two-tailed p-value for an observed r over n pairs.

    Uses the exact-t null: t = r * sqrt((n - 2) / (1 - r^2)) with n - 2
    degrees of freedom, evaluated through the regularized incomplete beta
    identity, so p(0, n) = 1 and p(+/-1, n) = 0 exactly.
    """
    _float_integer("n", n)
    if n < 3:
        raise InsufficientSamples(f"p-value needs n >= 3, got {n}")
    _correlation("r", r)
    if abs(r) == 1.0:
        return 0.0
    # scipy is imported here, not at module level, so that `import divsat`
    # loads numpy only
    from scipy.special import betainc

    df = n - 2
    t_squared = r * r * df / (1.0 - r * r)
    x = df / (df + t_squared)
    return float(betainc(df / 2.0, 0.5, x))


def correlate(xs, ys) -> CorrelationResult:
    """r, two-tailed p, and n for one pair of series (needs n >= 3 for p)."""
    series = PairedSeries(xs, ys)
    if series.n < 3:
        raise InsufficientSamples("correlation with a p-value needs n >= 3")
    r = pearson_r(series)
    return CorrelationResult(r=r, p=pearson_p(r, series.n), n=series.n)


def correlation_report(text_mmd, motion_mmd, delta_f1) -> CorrelationReport:
    """Correlate per-step text diversity, motion diversity, and score change.

    All three series must be aligned (same length, >= 3); unequal lengths
    raise LengthMismatch, whatever the lengths.
    """
    text = np.asarray(text_mmd, dtype=np.float64).ravel()
    motion = np.asarray(motion_mmd, dtype=np.float64).ravel()
    f1 = np.asarray(delta_f1, dtype=np.float64).ravel()
    if not text.size == motion.size == f1.size:
        raise LengthMismatch(f"series have lengths {text.size}, {motion.size}, {f1.size}")
    return CorrelationReport(
        text_vs_motion=correlate(text, motion),
        text_vs_f1=correlate(text, f1),
        motion_vs_f1=correlate(motion, f1),
    )


def aggregate_r(rs, method: str = "raw") -> float:
    """Average correlation values across series.

    "raw" is the arithmetic mean; "fisher-z" averages atanh-transformed
    values and maps back, which weights strong correlations less linearly.
    Neither is asserted as canonical; the caller picks.
    """
    arr = np.asarray(rs, dtype=np.float64)
    if arr.size == 0:
        raise InsufficientSamples("nothing to aggregate")
    if method == "raw":
        return float(arr.mean())
    if method == "fisher-z":
        clipped = np.clip(arr, -1.0 + 1e-15, 1.0 - 1e-15)
        return float(np.tanh(np.arctanh(clipped).mean()))
    raise ValueError(f"unknown aggregation method {method!r}")


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
