"""Seeded synthetic embedding sources.

Everything here is driven by one PCG64 stream per source, so a seed pins
the full output: two sources built from the same spec emit identical token
streams and identical draws. Normal variates come from numpy's ziggurat
sampler over that pinned generator.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import _count, _integer, _positive, _positive_int, _vector
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
        _positive_int("k", self.k)
        _positive("sigma", self.sigma)
        _integer("seed", self.seed)
        mean = (0.0,) * self.k if self.mean is None else _vector("mean", self.mean, self.k)
        object.__setattr__(self, "mean", mean)

    def mean_vector(self) -> np.ndarray:
        return np.array(self.mean, dtype=np.float64)


def gaussian_set(spec: GaussianSpec, n: int) -> EmbeddingSet:
    """n i.i.d. draws from ``spec``'s Gaussian, ids ``g0`` .. ``g{n-1}``: the
    first batch a ``SyntheticSource`` over ``spec`` embeds."""
    _positive_int("n", n)
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
        drift = (0.0,) * spec.k if drift is None else drift
        self._drift = np.array(_vector("drift", drift, spec.k))
        self._token_counter = 0
        self._draw_counter = 0

    def next_batch(self, count: int, context: Mapping[str, str] | None = None) -> list[str]:
        _count("count", count)
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


def token_vector(text: str, spec: GaussianSpec, offset: Sequence[float] | None = None) -> np.ndarray:
    """Deterministic embedding of one token: a Gaussian draw keyed by (seed, text).

    Lets a stateless subprocess embed tokens reproducibly; distinct tokens
    get independent draws, identical tokens always get the same vector.
    ``offset``, added to the draw, must be k finite numbers. A draw that
    overflows to infinity (a huge sigma, mean or offset) raises NonFiniteValue.
    """
    digest = hashlib.blake2b(
        f"{spec.seed}|{text}".encode("utf-8"), digest_size=8
    ).digest()
    rng = make_rng(int.from_bytes(digest, "big"))
    with np.errstate(over="ignore", invalid="ignore"):
        value = spec.mean_vector() + spec.sigma * rng.standard_normal(spec.k)
        if offset is not None:
            value = value + np.array(_vector("offset", offset, spec.k))
    if not np.isfinite(value).all():
        raise NonFiniteValue(f"the draw for token {text!r} is not finite")
    return value
