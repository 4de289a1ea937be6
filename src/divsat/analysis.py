"""Correlation analytics.

Pearson r between paired series, its two-tailed p-value under the exact-t
null with n - 2 degrees of freedom, a three-way report relating text-side
diversity, motion-side diversity, and downstream score change, and the
average of several r values.

Constant series are an error, not r = 0: a correlation against something
that never moves is undefined, and silently reporting zero would launder
that into "no relationship".

The arithmetic is plain ``math``: sums are ``math.fsum``, which is
correctly rounded, so no summation order or BLAS thread count can change
a bit, and the module loads neither numpy nor scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

from . import _correlation, _float_integer, _series
from .errors import (
    DegenerateSeries,
    InsufficientSamples,
    LengthMismatch,
    NonFiniteValue,
)


@dataclass(frozen=True, eq=False)
class PairedSeries:
    """Two aligned, finite, equal-length series of floats (length >= 2).

    Each series must be a flat sequence of real numbers; a bool, a string or
    a nested entry is a ValueError naming the series.
    """

    xs: tuple[float, ...]
    ys: tuple[float, ...]

    def __post_init__(self) -> None:
        xs = _series("xs", self.xs)
        ys = _series("ys", self.ys)
        if len(xs) != len(ys):
            raise LengthMismatch(f"series have lengths {len(xs)} and {len(ys)}")
        if len(xs) < 2:
            raise InsufficientSamples("paired series need at least 2 points")
        if not all(map(math.isfinite, xs + ys)):
            raise NonFiniteValue("series values must be finite")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @property
    def n(self) -> int:
        return len(self.xs)


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


def _deviations(name: str, values: tuple[float, ...]) -> list[float]:
    """The values minus their mean, after scaling by the power of two that
    brings the largest magnitude into [1/2, 1). Scaling by a power of two is
    exact, so r keeps its bits, and no sum or square can overflow."""
    if min(values) == max(values):
        raise DegenerateSeries(f"{name} is constant; correlation is undefined")
    shift = -math.frexp(max(map(abs, values)))[1]
    scaled = [math.ldexp(v, shift) for v in values]
    mean = math.fsum(scaled) / len(scaled)
    return [v - mean for v in scaled]


def pearson_r(series: PairedSeries) -> float:
    """Sample Pearson correlation coefficient, clamped into [-1, 1].

    Raises DegenerateSeries when either side is constant.
    """
    dx = _deviations("xs", series.xs)
    dy = _deviations("ys", series.ys)
    ssx = math.fsum(map(mul, dx, dx))
    ssy = math.fsum(map(mul, dy, dy))
    r = math.fsum(map(mul, dx, dy)) / math.sqrt(ssx * ssy)
    return min(1.0, max(-1.0, r))


# Stopping rule for both expansions below: the last factor or term moved the
# result by at most one unit in the last place.
_EPS = 2.0**-52
_MAX_TERMS = 1000
_SQRT_PI = math.sqrt(math.pi)
# where the large-a expansion takes over from the continued fraction; a
# continued fraction near x = 1 cancels, losing about a units in the last place
_LARGE_A = 50.0


def _stirling_half(a: float) -> float:
    """lgamma(a + 1/2) - lgamma(a) - log(a)/2 for a >= 20, by the Stirling
    series; the first term left out is below 2e-17 there."""
    z = 1.0 / (a * a)
    return (-1 / 8 + z * (1 / 192 + z * (-1 / 640 + z * (17 / 14336 - z * 31 / 18432)))) / a


def _log_beta_half(a: float) -> float:
    """log B(a, 1/2), subtracting no large lgamma values."""
    if a < 20.0:
        return math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5)
    return 0.5 * math.log(math.pi / a) - _stirling_half(a)


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b), by Lentz's method (as in
    Numerical Recipes' betacf). It converges fast for x < (a+1)/(a+b+2)."""

    def nonzero(v: float) -> float:
        return v if abs(v) > 1e-300 else 1e-300

    c = 1.0
    d = 1.0 / nonzero(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, _MAX_TERMS + 1):
        for coef in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                     -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 / nonzero(1.0 + coef * d)
            c = nonzero(1.0 + coef / c)
            h *= d * c
        if abs(d * c - 1.0) <= _EPS:
            return h
    raise ArithmeticError(f"the continued fraction of I_{x}({a}, {b}) did not converge")


def _root_coefficients(count: int) -> tuple[float, ...]:
    """Taylor coefficients of sqrt(s / (1 - exp(-s))), which is h(s)**-1/2 with
    h(s) = (1 - exp(-s)) / s = sum_j (-s)**j / (j + 1)!, by J. C. P. Miller's
    recurrence for a power of a series."""
    h = [1.0]
    for j in range(1, count):
        h.append(-h[-1] / (j + 1))
    f = [1.0]
    for k in range(1, count):
        f.append(math.fsum((0.5 * j - k) * h[j] * f[k - j] for j in range(1, k + 1)) / k)
    return tuple(f)


_ROOT = _root_coefficients(40)


def _large_a(a: float, s: float) -> float:
    """I_x(a, 1/2) for a >= 50 and s = -log(x) <= log 2, by Watson's lemma.

    With x = exp(-s), B(a, 1/2) I_x(a, 1/2) is the integral over (s, inf) of
    exp(-a u) u**-1/2 f(u), where f(u) = sqrt(u / (1 - exp(-u))) =
    sum_k c_k u**k. Term by term that is sum_k c_k a**-(k+1/2)
    Gamma(k + 1/2, a s), and Gamma(1/2, y) = sqrt(pi) erfc(sqrt(y)) starts an
    upward recurrence of positive terms. The terms fall like (s / 2 pi)**k
    or like k! / (2 pi a)**k, whichever is larger.
    """
    y = a * s
    g = _SQRT_PI * math.erfc(math.sqrt(y))  # Gamma(k + 1/2, y) / a**k, for k = 0
    e = math.sqrt(y) * math.exp(-y)  # y**(k + 1/2) exp(-y) / a**k
    total = g
    for k in range(1, len(_ROOT)):
        g = ((k - 0.5) * g + e) / a
        e *= s
        term = _ROOT[k] * g
        total += term
        if abs(term) <= _EPS * total:
            # sqrt(a) B(a, 1/2) = sqrt(pi) exp(-_stirling_half(a))
            return total * math.exp(_stirling_half(a)) / _SQRT_PI
    raise ArithmeticError(f"the expansion of I_x({a}, 1/2) at -log x = {s} did not converge")


def _beta_half(a: float, x: float, y: float) -> float:
    """The regularized incomplete beta I_x(a, 1/2), given x and y = 1 - x
    each to full relative precision."""
    if y == 0.0:
        return 1.0
    if x == 0.0:
        return 0.0
    log_x = math.log1p(-y) if y < 0.5 else math.log(x)
    if a >= _LARGE_A and y <= 0.5:
        return _large_a(a, -log_x)
    scale = math.exp(a * log_x + 0.5 * math.log(y) - _log_beta_half(a))
    if x < (a + 1.0) / (a + 2.5):
        if scale == 0.0:  # so a huge a cannot overflow the fraction's terms
            return 0.0
        return scale * _beta_fraction(a, 0.5, x) / a
    return 1.0 - scale * _beta_fraction(0.5, a, y) / 0.5


def pearson_p(r: float, n: int) -> float:
    """Two-tailed p-value for an observed r over n pairs.

    Uses the exact-t null: t = r * sqrt((n - 2) / (1 - r^2)) with n - 2
    degrees of freedom. Then p = I_x((n - 2)/2, 1/2), the regularized
    incomplete beta at x = (n - 2) / (n - 2 + t^2) = 1 - r^2, so
    p(0, n) = 1 and p(+/-1, n) = 0 exactly.
    """
    _float_integer("n", n)
    if n < 3:
        raise InsufficientSamples(f"p-value needs n >= 3, got {n}")
    _correlation("r", r)
    r = abs(float(r))
    return _beta_half((n - 2) / 2.0, (1.0 - r) * (1.0 + r), r * r)


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
    text = _series("text_mmd", text_mmd)
    motion = _series("motion_mmd", motion_mmd)
    f1 = _series("delta_f1", delta_f1)
    if not len(text) == len(motion) == len(f1):
        raise LengthMismatch(f"series have lengths {len(text)}, {len(motion)}, {len(f1)}")
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
    values = _series("rs", rs)
    if not values:
        raise InsufficientSamples("nothing to aggregate")
    if method == "raw":
        return math.fsum(values) / len(values)
    if method == "fisher-z":
        clipped = [min(1.0 - 1e-15, max(-1.0 + 1e-15, r)) for r in values]
        return math.tanh(math.fsum(map(math.atanh, clipped)) / len(clipped))
    raise ValueError(f"unknown aggregation method {method!r}")
