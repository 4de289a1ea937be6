"""Seeded synthetic embedding sources.

Everything here is driven by one PCG64 stream per source, so a seed pins
the full output: two sources built from the same spec emit identical token
streams and identical draws. Normal variates come from numpy's ziggurat
sampler over that pinned generator.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .embedset import EmbeddingSet
from .errors import EmptySet, NonFiniteValue
from .rng import make_rng


@dataclass(frozen=True)
class GaussianSpec:
    """Isotropic Gaussian N(mean, sigma^2 I) in k dimensions, with a fixed seed."""

    k: int
    sigma: float = 1.0
    mean: tuple[float, ...] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError("sigma must be a finite positive number")
        mean = self.mean
        if mean is None:
            mean = (0.0,) * self.k
        else:
            mean = tuple(float(v) for v in mean)
            if len(mean) != self.k:
                raise ValueError(f"mean has {len(mean)} entries, expected {self.k}")
            if not all(math.isfinite(v) for v in mean):
                raise ValueError("mean entries must be finite")
        object.__setattr__(self, "mean", mean)

    def mean_vector(self) -> np.ndarray:
        return np.array(self.mean, dtype=np.float64)


@dataclass(frozen=True)
class DriftSpec:
    """A Gaussian source whose mean advances by ``drift`` after every batch."""

    base: GaussianSpec
    drift: tuple[float, ...]

    def __post_init__(self) -> None:
        drift = tuple(float(v) for v in self.drift)
        if len(drift) != self.base.k:
            raise ValueError(f"drift has {len(drift)} entries, expected {self.base.k}")
        object.__setattr__(self, "drift", drift)


def gaussian_set(spec: GaussianSpec, n: int) -> EmbeddingSet:
    """n i.i.d. draws from ``spec``'s Gaussian, ids ``g0`` .. ``g{n-1}``: the
    first batch a ``SyntheticSource`` over ``spec`` embeds."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return SyntheticSource(spec).embed(range(n))


class SyntheticSource:
    """In-process batch provider and embedder backed by one Gaussian stream.

    ``next_batch`` hands out opaque tokens (consuming no randomness);
    ``embed`` turns a token batch into fresh draws at the current mean, then
    advances the mean by the drift vector, which is zero for a stationary
    source. Drifting with drift 0 is therefore bit-identical to stationary.
    """

    def __init__(self, spec: GaussianSpec, drift: Sequence[float] | None = None):
        self._spec = spec
        self._rng = make_rng(spec.seed)
        self._mean = spec.mean_vector()
        if drift is None:
            self._drift = np.zeros(spec.k)
        else:
            self._drift = np.asarray(drift, dtype=np.float64)
            if self._drift.shape != (spec.k,):
                raise ValueError(f"drift must have {spec.k} entries")
        self._token_counter = 0
        self._draw_counter = 0

    def next_batch(self, count: int, context: Mapping[str, str] | None = None) -> list[str]:
        if count < 0:
            raise ValueError("count must be >= 0")
        tokens = [f"tok{self._token_counter + i}" for i in range(count)]
        self._token_counter += count
        return tokens

    def embed(self, items: Sequence[str]) -> EmbeddingSet:
        n = len(items)
        if n == 0:
            raise EmptySet("cannot embed an empty batch")
        z = self._rng.standard_normal((n, self._spec.k))
        values = self._mean + self._spec.sigma * z
        ids = [f"g{self._draw_counter + i}" for i in range(n)]
        self._draw_counter += n
        self._mean = self._mean + self._drift
        return EmbeddingSet.from_array(values, ids=ids)


def stationary_provider(spec: GaussianSpec) -> SyntheticSource:
    """Provider-plus-embedder pair drawing from a fixed Gaussian."""
    return SyntheticSource(spec)


def drifting_provider(spec: DriftSpec) -> SyntheticSource:
    """Provider-plus-embedder pair whose mean moves by ``drift`` per batch."""
    return SyntheticSource(spec.base, drift=spec.drift)


def token_vector(text: str, spec: GaussianSpec, offset: Sequence[float] | None = None) -> np.ndarray:
    """Deterministic embedding of one token: a Gaussian draw keyed by (seed, text).

    Lets a stateless subprocess embed tokens reproducibly; distinct tokens
    get independent draws, identical tokens always get the same vector.
    A draw that overflows to infinity (a huge sigma, mean or offset) raises
    NonFiniteValue.
    """
    digest = hashlib.blake2b(
        f"{spec.seed}|{text}".encode("utf-8"), digest_size=8
    ).digest()
    rng = make_rng(int.from_bytes(digest, "big"))
    with np.errstate(over="ignore", invalid="ignore"):
        value = spec.mean_vector() + spec.sigma * rng.standard_normal(spec.k)
        if offset is not None:
            value = value + np.asarray(offset, dtype=np.float64)
    if not np.isfinite(value).all():
        raise NonFiniteValue(f"the draw for token {text!r} is not finite")
    return value
