"""Gaussian-kernel maximum mean discrepancy between two embedding sets.

The statistic is the biased V form: all three double sums keep their
diagonal terms, so mmd(X, X) is exactly zero and the value is never
negative up to rounding. The raw three-sum total is divided by N^2 by
default, which keeps scores on a stable scale as sets grow; pass
``normalized=False`` to recover the raw sums.

Unequal sizes are handled by :func:`mmd_calculator`, which resamples the
smaller set with replacement up to the larger size, scores each repetition,
and reports the mean and spread.

Every score goes through one engine, :class:`_Pairs`. It computes the
pair distances once per call, tile by tile (a tile on the diagonal also
holds each pair's mirror image), and reduces the resampling to count
vectors: repetition r draws counts c_r over the small set S, and its three
kernel sums are c_r' K_SS c_r, c_r . rowsum(K_SL) and sum K_LL. Distances
are summed coordinate by coordinate from each pair's own difference vector,
in the order scipy's ``cdist``/``pdist`` use, so a point's distance to
itself is exactly 0, every distance equals scipy's to the bit, and no BLAS
routine touches a value that reaches an output.

The median-heuristic bandwidth stores the tiles for the kernel sums and
selects the median from them: a weighted histogram of each distance's top
16 bits finds the buckets of the two middle ranks, and only the distances
in those buckets are copied and sorted. So the call holds the tiles plus
one bucket, and in the worst case, every distance in one bucket, no more
than one copy of the distances.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from . import _bandwidth, _integer, _positive_int
from .embedset import EmbeddingSet, _same_dimension
from .errors import DimensionMismatch, InvalidRepetitions, NonFiniteValue, SizeMismatch
from .rng import resample

MEDIAN_HEURISTIC = "median-heuristic"

# rounding residue below which a negative score is treated as zero
NEGATIVE_CLAMP = -1e-9

# rows and columns per tile; every per-tile temporary is bounded by it
_TILE = 128

# A distance's median bucket is its top 16 bits: the sign bit (always 0),
# the 11 exponent bits and 4 mantissa bits. +inf alone fills the last bucket,
# since no distance is negative or NaN.
_BUCKET_SHIFT = 48
_INF_BUCKET = 0x7FF0


@dataclass(frozen=True)
class KernelConfig:
    """Gaussian kernel length scale; the default defers to the data at hand."""

    bandwidth: float | str = MEDIAN_HEURISTIC

    def __post_init__(self) -> None:
        if not isinstance(self.bandwidth, str):
            _bandwidth("bandwidth", self.bandwidth)
        elif self.bandwidth != MEDIAN_HEURISTIC:
            raise ValueError(f"unknown bandwidth mode {self.bandwidth!r}")


@dataclass(frozen=True)
class MmdEstimate:
    """Resampling summary: mean score, spread, and how it was computed."""

    mean: float
    stddev: float
    repetitions: int
    bandwidth_used: float
    sizes: tuple[int, int]


def gaussian_kernel(x, y, bandwidth: float) -> float:
    """exp(-||x - y||^2 / (2 bandwidth^2)); 1.0 exactly when x equals y.

    A point with a non-finite entry raises NonFiniteValue, as a set holding
    one would.
    """
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if xv.shape != yv.shape:
        raise DimensionMismatch(f"points have shapes {xv.shape} and {yv.shape}")
    if not (np.isfinite(xv).all() and np.isfinite(yv).all()):
        raise NonFiniteValue("points must be finite")
    # a Python float, as mmd_calculator uses: 2 b^2 of a numpy float32 b
    # stays float32, which overflows inside the bandwidth rule's range
    bandwidth = float(_bandwidth("bandwidth", bandwidth))
    # summed in coordinate order, like every distance in this module
    d2 = 0.0
    for delta in (xv - yv).ravel().tolist():
        d2 += delta * delta
    return float(np.exp(-d2 / (2.0 * bandwidth * bandwidth)))


class _Pairs:
    """The distinct pairs of two sets, the smaller S and the larger L.

    The constructor decides everything once. It orders the operands by size,
    and by their bytes only on a tie, so swapping them cannot change any
    reduction. The distinct points are L alone when S is a row prefix of L
    (the saturation case: the current set against itself plus a batch), else
    S stacked on L; either way S is rows [0, n_s) of the one C-ordered
    ``coords``. Rows are cut into blocks of at most _TILE, none straddling
    n_s, and each block pair p <= q is one plain rows x cols tile, so a
    diagonal tile holds its block's whole square. With ``store`` the tiles
    are computed and kept here for :meth:`median` and :meth:`sums`; without,
    :meth:`sums` streams them.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, store: bool):
        if len(a) > len(b) or (len(a) == len(b) and a.tobytes() > b.tobytes()):
            a, b = b, a
        self.n_s = n_s = len(a)
        self.prefix = np.array_equal(b[:n_s], a)
        self.l_start = 0 if self.prefix else n_s  # L is rows [l_start, D)
        d = self.l_start + len(b)
        # one C-ordered layout, written in place: a contiguous row of all D points per coordinate
        self.coords = np.empty((a.shape[1], d))
        np.concatenate([b.T] if self.prefix else [a.T, b.T], axis=1, out=self.coords)
        blocks = [(i, min(i + _TILE, n_s)) for i in range(0, n_s, _TILE)]
        blocks += [(i, min(i + _TILE, d)) for i in range(n_s, d, _TILE)]
        self.tiles = [(rows, cols) for p, rows in enumerate(blocks) for cols in blocks[p:]]
        self.stored = [self._sqdist(*tile) for tile in self.tiles] if store else None

    def _sqdist(self, rows, cols) -> np.ndarray:
        """Squared distances of one tile, summed one coordinate at a time."""
        (i0, i1), (j0, j1) = rows, cols
        out = np.zeros((i1 - i0, j1 - j0))
        diff = np.empty_like(out)
        # An overflow leaves an infinite distance: a zero kernel entry, and a
        # median() that raises NonFiniteValue.
        with np.errstate(over="ignore"):
            for coord in self.coords:
                np.subtract(coord[i0:i1, None], coord[None, j0:j1], out=diff)
                np.multiply(diff, diff, out=diff)
                out += diff
        return out

    def _counted(self):
        """(distances, group) per stored tile, each distinct pair counted once.

        A diagonal tile counts its strict upper triangle. The groups are
        S-S, S-rest and rest-rest.
        """
        upper = np.triu(np.ones((_TILE, _TILE), dtype=bool), 1)
        for (rows, cols), d2 in zip(self.tiles, self.stored):
            if rows == cols:
                d2 = d2[upper[:len(d2), :len(d2)]]
            yield d2.ravel(), (rows[0] >= self.n_s) + (cols[0] >= self.n_s)

    def median(self) -> float:
        """np.median of the positive pair distances of vstack(S, L), bit for bit.

        It reads the stored tiles. In the prefix case each S-S pair occurs 4
        times in that pooled stack and each S-rest pair twice, so every point
        of S counts twice. Positive floats sort as their bit patterns do, so a
        histogram of each distance's top 16 bits finds the buckets of the two
        middle ranks, and only the values in those buckets are collected and
        searched.
        """
        hists = np.zeros((3, _INF_BUCKET + 1), dtype=np.int64)  # one per group
        for d2, group in self._counted():
            if d2.size:
                keys = d2.view(np.int64) >> _BUCKET_SHIFT
                low = int(keys.min())
                keys -= low
                counts = np.bincount(keys)
                if low == 0:  # zeros are not counted; bucket 0 also holds tiny subnormals
                    counts[0] -= np.count_nonzero(d2 == 0.0)
                hists[group, low:low + counts.size] += counts
        weights = (4, 2, 1) if self.prefix else (1, 1, 1)
        below = np.cumsum(sum(w * hist for w, hist in zip(weights, hists)))
        count = int(below[-1])
        if count == 0:
            return 1.0
        ranks = ((count - 1) // 2, count // 2)
        first, last = (int(b) for b in np.searchsorted(below, ranks, "right"))
        if last == _INF_BUCKET:
            raise NonFiniteValue("the median pair distance overflows to infinity")
        # the smallest positive value of bucket ``first`` and the largest of
        # ``last``; no bucket between them holds a value
        bits = (max(first << _BUCKET_SHIFT, 1), ((last + 1) << _BUCKET_SHIFT) - 1)
        lo, hi = np.array(bits, dtype=np.int64).view(np.float64)
        runs = [np.empty(size) for size in hists[:, first:last + 1].sum(axis=1)]
        filled = [0, 0, 0]
        for d2, group in self._counted():
            picked = d2[(d2 >= lo) & (d2 <= hi)]
            runs[group][filled[group]:filled[group] + picked.size] = picked
            filled[group] += picked.size
        for run in runs:
            run.sort()
        offset = int(below[first - 1]) if first else 0
        middle = [_weighted_rank(runs, weights, rank - offset, bits) for rank in ranks]
        return float(np.mean(np.sqrt(np.array(middle, dtype=np.int64).view(np.float64))))

    def sums(self, bandwidth: float, counts: np.ndarray):
        """Kernel sums for each row c of ``counts`` (one weight per S point).

        Returns (T, Q, X): T = sum K_LL, Q[r] = c_r' K_SS c_r and
        X[r] = c_r . rowsum(K_SL).
        """
        reps, n_s, lo = counts.shape[0], self.n_s, self.l_start
        # row r < reps weights S points by c_r; row reps marks the points of L
        weights = np.zeros((reps + 1, self.coords.shape[1]))
        weights[:reps, :n_s] = counts
        weights[reps, lo:] = 1.0
        # Every row goes through the same arithmetic, so when S equals L and
        # c = 1 the three sums agree to the bit and mmd(X, X) is exactly 0.
        acc = weights.copy()  # the diagonal: K(x, x) = 1
        inv = 1.0 / (2.0 * bandwidth * bandwidth)

        def add(rows, cols, kern, other_in_l):
            # acc[m, i] += sum_j K(i, j) weights[m, j] for i in rows, j in cols
            first = 0 if cols[1] <= n_s and rows[1] <= n_s else reps
            last = reps + 1 if other_in_l else reps
            for m in range(first, last):
                acc[m, rows[0]:rows[1]] += (kern * weights[m, cols[0]:cols[1]]).sum(axis=1)

        stored = self.stored or (self._sqdist(*tile) for tile in self.tiles)
        for (rows, cols), d2 in zip(self.tiles, stored):
            kern = np.exp(-d2 * inv)
            if rows == cols:
                np.fill_diagonal(kern, 0.0)  # already counted in acc
                add(rows, rows, kern, rows[0] >= lo)
            else:
                add(rows, cols, kern, cols[0] >= lo)
                add(cols, rows, kern.T, rows[0] >= lo)
        q = (counts * acc[:reps, :n_s]).sum(axis=1)
        x = (counts * acc[reps, :n_s]).sum(axis=1)
        t = float(acc[reps, lo:].sum())
        return t, q, x


def _weighted_rank(runs: list, weights: tuple, rank: int, bits: tuple) -> int:
    """The bit pattern of the value of 0-based ``rank`` in a multiset of sorted runs.

    Run g stands for each of its values ``weights[g]`` times, and every value
    is a positive float whose bit pattern lies in ``bits`` (inclusive). Such
    floats sort as their bit patterns do, so one bisection over the patterns
    finds the value: the smallest with more than ``rank`` items at or below it.
    """
    def covers(pattern: int) -> bool:
        v = np.int64(pattern).view(np.float64)
        return sum(w * int(np.searchsorted(run, v, "right"))
                   for w, run in zip(weights, runs)) > rank

    return bits[0] + bisect.bisect_left(range(bits[0], bits[1] + 1), True, key=covers)


def median_heuristic(x_set: EmbeddingSet, y_set: EmbeddingSet) -> float:
    """Median pairwise Euclidean distance over the pooled records.

    Zero-distance pairs are excluded; if every pairwise distance is zero the
    heuristic has nothing to measure and falls back to 1.0. A median that
    overflows to infinity raises NonFiniteValue.
    """
    _same_dimension(x_set, y_set)
    return _Pairs(x_set.vectors, y_set.vectors, True).median()


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
        NonFiniteValue: the median-heuristic bandwidth overflows to infinity,
            or is too small or too large for the kernel to scale distances by.
    """
    _same_dimension(x_set, y_set)
    if x_set.size != y_set.size:
        raise SizeMismatch(
            f"sets have sizes {x_set.size} and {y_set.size}; "
            "mmd_calculator resamples the smaller set to compare unequal sizes"
        )
    return mmd_calculator(x_set, y_set, cfg, normalized=normalized).mean


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
    pre-resampling pooled sets and held fixed across repetitions. The pool
    is the two sets stacked, so when the smaller set is a prefix of the
    larger one (as in saturation) each of its points counts twice; this is
    the long-standing definition and is kept on purpose. The estimate is
    the same bit for bit whether the bandwidth is resolved here or passed
    in explicitly; a median outside the bandwidth rule's range raises
    NonFiniteValue, as one that overflows does. Repetition r is
    ``resample(seed, r, ...)``, so the estimate is reproducible and the
    repetitions of one call are independent.
    """
    if not isinstance(cfg, KernelConfig):
        raise ValueError(f"cfg must be a KernelConfig, got {cfg!r}")
    _positive_int("repetitions", repetitions, InvalidRepetitions)
    _integer("seed", seed)
    _same_dimension(a_set, b_set)
    sizes = (a_set.size, b_set.size)
    n_s, target = min(sizes), max(sizes)
    if n_s == target:
        # scored once; the engine orders the operands canonically, so the
        # score is symmetric to the bit
        counts = np.ones((1, n_s))
        repetitions = 1
    else:
        # repetition r resamples the small set as counts: how often each point is drawn
        counts = np.array([
            np.bincount(resample(seed, r, n_s, target), minlength=n_s)
            for r in range(repetitions)
        ], dtype=np.float64)
    store = cfg.bandwidth == MEDIAN_HEURISTIC  # the median reads the stored tiles
    pairs = _Pairs(a_set.vectors, b_set.vectors, store)
    if store:
        # a median the kernel cannot scale distances by raises NonFiniteValue,
        # as one that overflows does
        bandwidth = _bandwidth("the median-heuristic bandwidth", pairs.median(), NonFiniteValue)
    else:
        bandwidth = float(cfg.bandwidth)
    t, q, x = pairs.sums(bandwidth, counts)
    raw = (q + t - 2.0 * x) / (target * target)
    scores = np.where((NEGATIVE_CLAMP <= raw) & (raw < 0.0), 0.0, raw)
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
