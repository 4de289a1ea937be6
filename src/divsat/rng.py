"""Seed handling.

All stochastic behavior in the package flows through :func:`make_rng`, a
single construction point for numpy's PCG64 generator; every resampling
draw is :func:`resample`. A seed makes every operation bit-reproducible on
one numpy release. Across releases NEP 19 keeps the PCG64 bit stream
stable, but not the algorithms of ``Generator`` methods such as
``integers`` and ``standard_normal``; the bit-pinned tests would catch such
a change. The pinned bits also hold only at the SIMD dispatch level they
were recorded on: numpy's ``exp`` and ``log`` differ in their last bits
with and without AVX-512 (ROADMAP item 11 plans the fix).
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
