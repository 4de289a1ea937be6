"""Seed handling.

All stochastic behavior in the package flows through :func:`make_rng`, a
single construction point for numpy's PCG64 generator; every resampling
draw is :func:`resample`. PCG64 streams are stable for a fixed seed across
numpy releases, which is what makes every seeded operation bit-reproducible.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def as_uint64(seed: int) -> int:
    """Map an arbitrary Python int (negatives included) onto the uint64 seed space."""
    return int(seed) & _MASK64


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(as_uint64(seed)))


def resample(seed: int, r: int, n: int, size: int) -> np.ndarray:
    """Repetition ``r`` of a resample seeded ``seed``: ``size`` draws from ``range(n)``."""
    return make_rng(seed + r).integers(0, n, size=size)
