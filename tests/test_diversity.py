import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from divsat import EmbeddingSet, diversity_report

SQUARE = EmbeddingSet.from_array(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]]))


def oracle_axis_stats(rows):
    """Two-pass per-axis mean and population stddev, plain python."""
    n = len(rows)
    k = len(rows[0])
    means = [sum(r[j] for r in rows) / n for j in range(k)]
    stds = [math.sqrt(sum((r[j] - means[j]) ** 2 for r in rows) / n) for j in range(k)]
    return means, stds


def oracle_std(rows):
    # Naive product-then-root; fine at small k.
    _, stds = oracle_axis_stats(rows)
    prod = 1.0
    for s in stds:
        prod *= s
    return prod ** (1.0 / len(stds))


def oracle_centroid(rows):
    means, _ = oracle_axis_stats(rows)
    n = len(rows)
    total = 0.0
    for r in rows:
        d = math.sqrt(sum((r[j] - means[j]) ** 2 for j in range(len(r))))
        total += d * d
    return total / n


def as_set(rows):
    return EmbeddingSet.from_array(np.asarray(rows, dtype=np.float64))


def metrics(embeddings):
    """(std metric, centroid metric) of one report."""
    rep = diversity_report(embeddings)
    return rep.std_metric, rep.centroid_metric


class TestFrozenValues:
    def test_square_axis_stats(self):
        st_ = diversity_report(SQUARE).axis
        assert np.allclose(st_.means, [1.0, 1.0])
        assert np.allclose(st_.stddevs, [1.0, 1.0])

    def test_square_metrics(self):
        assert metrics(SQUARE) == pytest.approx((1.0, 2.0), abs=1e-12)

    def test_single_vector(self):
        s = as_set([[3.0, 4.0]])
        rep = diversity_report(s)
        assert np.allclose(rep.axis.means, [3.0, 4.0])
        assert np.allclose(rep.axis.stddevs, [0.0, 0.0])
        assert (rep.std_metric, rep.centroid_metric) == (0.0, 0.0)

    def test_identical_vectors(self):
        s = as_set([[1.0, 2.0]] * 5)
        assert metrics(s) == (0.0, 0.0)

    def test_constant_coordinate_zeroes_std_only(self):
        # One flat axis collapses the geometric mean but not the centroid metric.
        s = as_set([[0.0, 5.0], [2.0, 5.0], [4.0, 5.0]])
        std, centroid = metrics(s)
        assert std == 0.0
        assert centroid > 0.0

    def test_report_bundles(self):
        rep = diversity_report(SQUARE)
        assert rep.std_metric == pytest.approx(1.0)
        assert rep.centroid_metric == pytest.approx(2.0)
        assert np.allclose(rep.centroid, [1.0, 1.0])
        assert rep.n == 4 and rep.k == 2


class TestOracleEquivalence:
    def test_random_sets_match_oracles(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(2, 60))
            k = int(rng.integers(1, 9))
            rows = (rng.normal(size=(n, k)) * 3.0).tolist()
            s = as_set(rows)
            means, stds = oracle_axis_stats(rows)
            rep = diversity_report(s)
            assert np.allclose(rep.axis.means, means, rtol=1e-12, atol=1e-12)
            assert np.allclose(rep.axis.stddevs, stds, rtol=1e-12, atol=1e-12)
            assert rep.std_metric == pytest.approx(oracle_std(rows), rel=1e-9)
            assert rep.centroid_metric == pytest.approx(oracle_centroid(rows), rel=1e-9)


vectors = hnp.arrays(
    np.float64,
    st.tuples(st.integers(2, 12), st.integers(1, 5)),
    elements=st.floats(-50, 50, allow_nan=False),
)


# Entries on a 2**-30 grid and shifts on a 2**-10 grid, both well inside
# 53 bits, so ``arr + shift`` is an exact translation. With arbitrary floats
# the sum itself rounds: shifting a column of [0, 1e-9, 1e-9] by 1.0 moves
# its spread by ~1e-7 relative, which no implementation can hide.
grid_vectors = hnp.arrays(
    np.float64,
    st.tuples(st.integers(2, 12), st.integers(1, 5)),
    elements=st.integers(-50 * 2**30, 50 * 2**30).map(lambda i: i * 2.0**-30),
)
grid_shifts = st.integers(-20 * 2**10, 20 * 2**10).map(lambda i: i * 2.0**-10)


def exact_metrics(arr):
    """(std metric, centroid metric) of ``arr``'s exact float values, to 40 digits."""
    rows = [[Fraction(float(v)) for v in row] for row in arr]
    n = len(rows)
    means = [sum(col) / n for col in zip(*rows)]
    variances = [sum((v - m) ** 2 for v in col) / n for col, m in zip(zip(*rows), means)]
    with mpmath.workdps(40):
        sigmas = [mpmath.sqrt(mpmath.mpf(var.numerator) / var.denominator) for var in variances]
        std = mpmath.exp(mpmath.fsum(mpmath.log(x) for x in sigmas) / len(sigmas))
        return float(std), float(sum(variances))


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(grid_vectors, grid_shifts)
    def test_translation_invariance(self, arr, shift):
        s = as_set(arr)
        t = as_set(arr + shift)
        assert np.array_equal(t.vectors - shift, arr)
        assert metrics(t) == pytest.approx(metrics(s), rel=1e-9, abs=1e-9)

    def test_rounded_translation_matches_exact_oracle(self):
        # A stored falsifying example of the float-grid version of the test
        # above: the shift rounds the last column's entries, so the exact
        # metrics of the two sets differ; each set still matches its own.
        arr = np.array([
            [0.0, 2.0, 16.0, 28.0, 1e-9],
            [1e-9, 1e-9, 1e-9, 1e-9, 1e-9],
            [1e-9, 1e-9, 1e-9, 1e-9, 39.0],
        ])
        shifted = arr + 1.0
        for values in (arr, shifted):
            assert metrics(as_set(values)) == pytest.approx(exact_metrics(values), rel=1e-12)
        assert exact_metrics(shifted)[0] != pytest.approx(exact_metrics(arr)[0], rel=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(vectors, st.floats(-8, 8, allow_nan=False).filter(lambda c: abs(c) > 1e-3))
    def test_scaling(self, arr, c):
        s = as_set(arr)
        sc = as_set(arr * c)
        std, centroid = metrics(s)
        assert metrics(sc) == pytest.approx((abs(c) * std, c * c * centroid), rel=1e-9, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(vectors, st.randoms(use_true_random=False))
    def test_permutation_invariance(self, arr, rnd):
        order = list(range(arr.shape[0]))
        rnd.shuffle(order)
        s = as_set(arr)
        p = as_set(arr[order])
        assert metrics(p) == pytest.approx(metrics(s), rel=1e-12, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(vectors, st.floats(0.05, 0.95))
    def test_monotone_concentration(self, arr, alpha):
        s = as_set(arr)
        cent = np.mean(arr, axis=0)
        shrunk = as_set(cent + alpha * (arr - cent))
        std, centroid = metrics(s)
        assert metrics(shrunk) == pytest.approx(
            (alpha * std, alpha * alpha * centroid), rel=1e-9, abs=1e-9
        )

    def test_zero_iff_identical(self):
        rng = np.random.default_rng(3)
        arr = rng.normal(size=(6, 3))
        assert diversity_report(as_set(arr)).centroid_metric > 0
        assert diversity_report(as_set(np.tile(arr[0], (6, 1)))).centroid_metric == 0.0


def test_gaussian_centroid_expectation():
    # E[M_cent] for an isotropic normal cloud tends to k * sigma^2.
    rng = np.random.default_rng(11)
    k, sigma = 6, 1.5
    arr = rng.normal(scale=sigma, size=(10_000, k))
    centroid = diversity_report(as_set(arr)).centroid_metric
    assert centroid == pytest.approx(k * sigma * sigma, rel=0.05)


def test_report_peak_is_one_set_sized_temporary():
    import tracemalloc

    n, k = 20000, 64
    embeddings = as_set(np.random.default_rng(3).normal(size=(n, k)))
    tracemalloc.start()
    try:
        diversity_report(embeddings)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n * k * 8


def whole_array_report(values):
    """Per-axis sigmas and centroid metric from one n x k temporary, as numpy sums it."""
    with np.errstate(over="ignore", invalid="ignore"):
        squares = values - values.mean(axis=0)
        squares *= squares
        return np.sqrt(squares.sum(axis=0) / len(values)), float(squares.sum(axis=1).mean())


class TestRowBlocks:
    """The report sums squared deviations in row blocks; its bits match the whole array's."""

    @pytest.mark.parametrize("k", [1, 2, 3, 64])
    @pytest.mark.parametrize("n", [1, 2, 1023, 1024, 1025, 2048, 3000, 8191, 8193, 20000])
    def test_blocks_match_the_whole_array(self, n, k):
        rng = np.random.default_rng(n * 100 + k)
        values = rng.normal(loc=rng.uniform(-1e3, 1e3), scale=rng.uniform(0.1, 100), size=(n, k))
        report = diversity_report(as_set(values))
        stddevs, centroid = whole_array_report(values)
        assert report.axis.stddevs.tobytes() == stddevs.tobytes()
        if n > 1:
            assert report.centroid_metric.hex() == centroid.hex()

    @pytest.mark.parametrize("n", [5, 1500])
    def test_constant_axes_across_blocks(self, n):
        values = np.random.default_rng(n).normal(size=(n, 4))
        values[:, 1] = 0.1
        values[:, 3] = -7.0
        report = diversity_report(as_set(values))
        stddevs, centroid = whole_array_report(values)
        assert report.axis.stddevs.tolist() == [stddevs[0], 0.0, stddevs[2], 0.0]
        assert report.axis.means.tolist()[1::2] == [0.1, -7.0]
        assert report.centroid_metric.hex() == centroid.hex()
        assert report.std_metric == 0.0

    @pytest.mark.parametrize("n", [3, 2000])
    def test_overflowing_squares_match_the_whole_array(self, n):
        values = np.random.default_rng(n).normal(size=(n, 3))
        values[::2, 0] = 1e200
        values[1::2, 0] = -1e200
        values[-1, 2] = 3e200
        report = diversity_report(as_set(values))
        stddevs, centroid = whole_array_report(values)
        assert report.axis.stddevs.tobytes() == stddevs.tobytes()
        assert math.isinf(stddevs[0]) and math.isinf(centroid)
        assert report.centroid_metric == centroid


def test_report_holds_no_set_sized_temporary():
    import tracemalloc

    n, k = 20000, 64
    embeddings = as_set(np.random.default_rng(3).normal(size=(n, k)))
    tracemalloc.start()
    try:
        diversity_report(embeddings)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one block of 1024 rows plus the n row sums
    assert peak < 0.1 * n * k * 8
