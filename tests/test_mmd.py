import math
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from divsat import (
    MEDIAN_HEURISTIC,
    DimensionMismatch,
    EmbeddingSet,
    InvalidRepetitions,
    KernelConfig,
    NonFiniteValue,
    SizeMismatch,
    gaussian_kernel,
    median_heuristic,
    mmd,
    mmd_calculator,
)


def as_set(rows, prefix=""):
    return EmbeddingSet.from_array(np.asarray(rows, dtype=np.float64), id_prefix=prefix)


def oracle_kernel(x, y, bw):
    d2 = sum((a - b) ** 2 for a, b in zip(x, y))
    return math.exp(-d2 / (2.0 * bw * bw))


def oracle_mmd(X, Y, bw):
    """Triple-loop normalized V-statistic, diagonals included."""
    n = len(X)
    m = len(Y)
    xx = sum(oracle_kernel(a, b, bw) for a in X for b in X) / (n * n)
    yy = sum(oracle_kernel(a, b, bw) for a in Y for b in Y) / (m * m)
    xy = sum(oracle_kernel(a, b, bw) for a in X for b in Y) / (n * m)
    return xx + yy - 2.0 * xy


def oracle_median(rows):
    dists = []
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            d = math.dist(rows[i], rows[j])
            if d > 0:
                dists.append(d)
    if not dists:
        return 1.0
    dists.sort()
    mid = len(dists) // 2
    if len(dists) % 2:
        return dists[mid]
    return 0.5 * (dists[mid - 1] + dists[mid])


class TestKernel:
    def test_self_kernel_is_one(self):
        v = np.array([3.0, -1.0, 2.0])
        assert gaussian_kernel(v, v, 0.7) == 1.0

    def test_frozen_value(self):
        got = gaussian_kernel(np.array([0.0, 0.0]), np.array([0.0, 2.0]), 1.0)
        assert got == pytest.approx(math.exp(-2.0), abs=1e-15)

    def test_matches_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.normal(size=5)
            y = rng.normal(size=5)
            bw = float(rng.uniform(0.1, 3.0))
            assert gaussian_kernel(x, y, bw) == pytest.approx(
                oracle_kernel(x, y, bw), abs=1e-12
            )

    def test_dimension_checked(self):
        with pytest.raises(DimensionMismatch):
            gaussian_kernel(np.array([1.0]), np.array([1.0, 2.0]), 1.0)

    def test_difference_past_float_range_scores_zero_without_a_warning(self):
        # the MMD engine scores such a pair 0 too
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gaussian_kernel([1e308], [-1e308], 1.0) == 0.0
            assert gaussian_kernel([0.0, 1e308], [0.0, -1e308], 1.0) == 0.0

    def test_range(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            k = gaussian_kernel(rng.normal(size=4), rng.normal(size=4), 0.5)
            assert 0.0 < k <= 1.0


class TestMedianHeuristic:
    def test_single_pair(self):
        assert median_heuristic(as_set([[0.0, 0.0]]), as_set([[0.0, 2.0]], prefix="y")) == 2.0

    def test_identical_pool_fallback(self):
        s = as_set([[1.0, 1.0]] * 3)
        t = as_set([[1.0, 1.0]] * 2, prefix="y")
        assert median_heuristic(s, t) == 1.0

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(20, 3)).tolist()
        x = as_set(rows[:8])
        y = as_set(rows[8:], prefix="y")
        assert median_heuristic(x, y) == pytest.approx(oracle_median(rows), abs=1e-12)

    def test_overflowing_distances_are_non_finite(self):
        # finite rows whose squared distance overflows to infinity
        x = as_set([[1e200, 1.0], [-1e200, 2.0]])
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteValue):
                median_heuristic(x, x)
            with pytest.raises(NonFiniteValue):
                mmd(x, x)

    def test_kernel_config_validation(self):
        with pytest.raises(ValueError):
            KernelConfig(bandwidth=0.0)
        with pytest.raises(ValueError):
            KernelConfig(bandwidth=-1.0)
        with pytest.raises(ValueError):
            KernelConfig(bandwidth="nonsense")
        with pytest.raises(ValueError, match="finite positive number"):
            KernelConfig(bandwidth=True)

    def test_bandwidth_rule_bounds(self):
        # inside the bounds 1 / (2 b^2) is finite and positive, so repeated
        # rows score 0 * 1 / (2 b^2) = 0 and not NaN; just outside, no config
        rows = as_set([[0.0, 0.0], [0.0, 0.0], [1e-154, 0.0]])
        other = as_set([[0.0, 1e-154]], prefix="y")
        for bandwidth in (5.3e-155, 9.4e153):
            assert 0.0 < 1.0 / (2.0 * bandwidth * bandwidth) < math.inf
            assert math.isfinite(mmd_calculator(rows, other, KernelConfig(bandwidth)).mean)
        for bandwidth in (5.2e-155, 9.5e153):
            with pytest.raises(ValueError, match=r"^bandwidth must be in \["):
                KernelConfig(bandwidth)


class TestMmd:
    def test_self_is_exact_zero(self):
        rng = np.random.default_rng(9)
        x = as_set(rng.normal(size=(17, 4)))
        assert mmd(x, x, KernelConfig(bandwidth=0.8)) == 0.0

    def test_frozen_singletons(self):
        x = as_set([[0.0, 0.0]])
        y = as_set([[0.0, 2.0]], prefix="y")
        got = mmd(x, y, KernelConfig(bandwidth=1.0))
        assert got == pytest.approx(2.0 - 2.0 * math.exp(-2.0), abs=1e-12)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(8):
            rows_x = rng.normal(size=(25, 8)).tolist()
            rows_y = (rng.normal(size=(25, 8)) + 0.3).tolist()
            x = as_set(rows_x)
            y = as_set(rows_y, prefix="y")
            bw = float(rng.uniform(0.5, 2.5))
            got = mmd(x, y, KernelConfig(bandwidth=bw))
            assert got == pytest.approx(oracle_mmd(rows_x, rows_y, bw), rel=1e-9, abs=1e-12)

    def test_symmetry_bit_exact(self):
        rng = np.random.default_rng(21)
        x = as_set(rng.normal(size=(12, 3)))
        y = as_set(rng.normal(size=(12, 3)) + 1.0, prefix="y")
        cfg = KernelConfig(bandwidth=1.3)
        assert mmd(x, y, cfg) == mmd(y, x, cfg)

    def test_size_mismatch_hints_at_calculator(self):
        x = as_set([[0.0]] * 3)
        y = as_set([[1.0]] * 4, prefix="y")
        with pytest.raises(SizeMismatch) as ei:
            mmd(x, y, KernelConfig(bandwidth=1.0))
        assert "mmd_calculator" in str(ei.value)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mmd(as_set([[0.0]]), as_set([[0.0, 1.0]], prefix="y"), KernelConfig(bandwidth=1.0))

    def test_unnormalized_scales_by_n_squared(self):
        rng = np.random.default_rng(4)
        x = as_set(rng.normal(size=(9, 2)))
        y = as_set(rng.normal(size=(9, 2)) + 0.5, prefix="y")
        cfg = KernelConfig(bandwidth=1.0)
        norm = mmd(x, y, cfg)
        raw = mmd(x, y, cfg, normalized=False)
        assert raw == pytest.approx(norm * 81.0, rel=1e-12)

    def test_monotone_separation(self):
        # Shift one operand along the first axis; score must rise with the gap.
        rng = np.random.default_rng(31)
        base_x = rng.normal(size=(200, 4))
        base_y = rng.normal(size=(200, 4))
        x = as_set(base_x)
        bw = median_heuristic(x, as_set(base_y, prefix="y"))
        cfg = KernelConfig(bandwidth=bw)
        scores = []
        for delta in (0.0, 1.0, 2.0, 4.0):
            shifted = base_y.copy()
            shifted[:, 0] += delta
            scores.append(mmd(x, as_set(shifted, prefix="y"), cfg))
        assert scores == sorted(scores)
        assert len(set(scores)) == 4


class TestCalculator:
    def test_equal_sizes_single_pass(self):
        rng = np.random.default_rng(17)
        a = as_set(rng.normal(size=(10, 3)))
        b = as_set(rng.normal(size=(10, 3)), prefix="y")
        est = mmd_calculator(a, b, KernelConfig(bandwidth=1.0), repetitions=10, seed=0)
        assert est.repetitions == 1
        assert est.stddev == 0.0
        assert est.mean == mmd(a, b, KernelConfig(bandwidth=1.0))
        assert est.sizes == (10, 10)

    def test_identical_equal_sets(self):
        a = as_set([[1.0, 2.0], [3.0, 4.0]])
        est = mmd_calculator(a, a, KernelConfig(bandwidth=1.0), repetitions=5, seed=1)
        assert est.mean == 0.0 and est.stddev == 0.0

    def test_degenerate_resampling(self):
        # Singleton equal to every point of the larger set: resampling changes nothing.
        a = as_set([[2.0, 2.0]])
        b = as_set([[2.0, 2.0]] * 3, prefix="y")
        est = mmd_calculator(a, b, KernelConfig(bandwidth=1.0), repetitions=7, seed=3)
        assert est.mean == 0.0
        assert est.stddev == 0.0
        assert est.repetitions == 7
        assert est.sizes == (1, 3)

    def test_deterministic_and_seed_sensitive(self):
        rng = np.random.default_rng(23)
        a = as_set(rng.normal(size=(20, 4)))
        b = as_set(rng.normal(size=(30, 4)) + 0.4, prefix="y")
        cfg = KernelConfig(bandwidth=MEDIAN_HEURISTIC)
        e1 = mmd_calculator(a, b, cfg, repetitions=10, seed=42)
        e2 = mmd_calculator(a, b, cfg, repetitions=10, seed=42)
        e3 = mmd_calculator(a, b, cfg, repetitions=10, seed=43)
        assert (e1.mean, e1.stddev) == (e2.mean, e2.stddev)
        assert (e1.mean, e1.stddev) != (e3.mean, e3.stddev)
        assert e1.sizes == (20, 30)
        assert e1.repetitions == 10

    def test_reference_resampling_oracle(self):
        """Re-derive the estimate with an external loop over the per-rep draws."""
        from divsat.rng import resample

        rng = np.random.default_rng(29)
        rows_a = rng.normal(size=(6, 2))
        rows_b = rng.normal(size=(9, 2)) + 1.0
        a = as_set(rows_a)
        b = as_set(rows_b, prefix="y")
        bw = oracle_median(np.vstack([rows_a, rows_b]).tolist())
        scores = []
        for r in range(4):
            boosted = rows_a[resample(100, r, 6, 9)]
            scores.append(oracle_mmd(boosted.tolist(), rows_b.tolist(), bw))
        est = mmd_calculator(a, b, KernelConfig(bandwidth=MEDIAN_HEURISTIC), repetitions=4, seed=100)
        assert est.bandwidth_used == pytest.approx(bw, abs=1e-12)
        assert est.mean == pytest.approx(float(np.mean(scores)), rel=1e-9)
        assert est.stddev == pytest.approx(float(np.std(scores)), rel=1e-9, abs=1e-12)

    def test_zero_repetitions_rejected(self):
        a = as_set([[1.0]])
        b = as_set([[1.0], [2.0]], prefix="y")
        # True would be recorded as repetitions=True
        for repetitions in (0, 2.5, True):
            with pytest.raises(InvalidRepetitions):
                mmd_calculator(a, b, KernelConfig(bandwidth=1.0), repetitions=repetitions, seed=0)

    def test_unnormalized_estimate(self):
        rng = np.random.default_rng(37)
        a = as_set(rng.normal(size=(5, 2)))
        b = as_set(rng.normal(size=(8, 2)), prefix="y")
        cfg = KernelConfig(bandwidth=1.0)
        n_est = mmd_calculator(a, b, cfg, repetitions=6, seed=9)
        r_est = mmd_calculator(a, b, cfg, repetitions=6, seed=9, normalized=False)
        assert r_est.mean == pytest.approx(n_est.mean * 64.0, rel=1e-12)
        assert r_est.stddev == pytest.approx(n_est.stddev * 64.0, rel=1e-12)


sets_3d = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 12), st.just(3)),
    elements=st.floats(-10, 10, allow_nan=False),
)


@settings(max_examples=50, deadline=None)
@given(sets_3d, sets_3d, st.floats(0.05, 5.0))
def test_mmd_nonnegative_property(xa, ya, bw):
    n = min(len(xa), len(ya))
    x = as_set(xa[:n])
    y = as_set(ya[:n], prefix="y")
    score = mmd(x, y, KernelConfig(bandwidth=float(bw)))
    assert score >= 0.0


def resampled_oracle(small, large, bw, repetitions, seed, normalized=True):
    """Mean and stddev from explicit resampled matrices, scored by oracle_mmd."""
    from divsat.rng import resample

    n = len(large)
    scores = []
    for r in range(repetitions):
        idx = resample(seed, r, len(small), n)
        score = oracle_mmd(small[idx].tolist(), large.tolist(), bw)
        scores.append(score if normalized else score * n * n)
    return float(np.mean(scores)), float(np.std(scores))


def pooled_pdist_median(small, large):
    """np.median of the positive pdist distances of the stacked sets."""
    from scipy.spatial.distance import pdist

    distances = pdist(np.vstack([small, large]))
    positive = distances[distances > 0]
    return float(np.median(positive)) if positive.size else 1.0


def engine_pair(n_s, n_l, k, prefix, duplicates, seed):
    """A (small, large) pair of arrays; small is large's leading rows when prefix."""
    rng = np.random.default_rng(seed)
    large = rng.normal(size=(n_l, k))
    if duplicates:
        large[1::3] = large[0]
    small = large[:n_s].copy() if prefix else rng.normal(size=(n_s, k)) + 0.3
    if duplicates and not prefix:
        small[-1] = large[-1]
    return small, large


class TestEngine:
    @pytest.mark.parametrize("prefix", [True, False], ids=["prefix", "separate"])
    @pytest.mark.parametrize("n_s", [1, 2, 7])
    @pytest.mark.parametrize("duplicates", [False, True], ids=["distinct", "duplicates"])
    @pytest.mark.parametrize("normalized", [True, False], ids=["normalized", "raw"])
    def test_count_vectors_match_resampled_oracle(self, prefix, n_s, duplicates, normalized):
        small, large = engine_pair(n_s, 11, 3, prefix, duplicates, seed=n_s)
        est = mmd_calculator(as_set(small), as_set(large, prefix="y"),
                             repetitions=5, seed=40, normalized=normalized)
        bw = pooled_pdist_median(small, large)
        assert est.bandwidth_used == bw
        mean, stddev = resampled_oracle(small, large, bw, 5, 40, normalized)
        assert est.mean == pytest.approx(mean, rel=1e-9, abs=1e-12)
        assert est.stddev == pytest.approx(stddev, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("n_s", [7, 130])
    @pytest.mark.parametrize("prefix", [True, False], ids=["prefix", "separate"])
    def test_tiled_sets_match_resampled_oracle(self, n_s, prefix):
        # more than one tile on a side, so partial sums cross tile edges
        small, large = engine_pair(n_s, 140, 2, prefix, duplicates=True, seed=3)
        cfg = KernelConfig(bandwidth=0.9)
        est = mmd_calculator(as_set(small), as_set(large, prefix="y"), cfg,
                             repetitions=2, seed=5)
        mean, stddev = resampled_oracle(small, large, 0.9, 2, 5)
        assert est.mean == pytest.approx(mean, rel=1e-9, abs=1e-12)
        assert est.stddev == pytest.approx(stddev, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("sizes", [(300, 340), (340, 300), (300, 300)])
    @pytest.mark.parametrize("prefix", [True, False], ids=["prefix", "separate"])
    def test_explicit_median_bandwidth_gives_identical_estimate(self, sizes, prefix):
        n_a, n_b = sizes
        small, large = engine_pair(min(sizes), max(sizes), 5, prefix, duplicates=True, seed=8)
        a, b = (small, large) if n_a <= n_b else (large, small)
        a_set, b_set = as_set(a), as_set(b, prefix="y")
        resolved = mmd_calculator(a_set, b_set, repetitions=4, seed=2)
        explicit = mmd_calculator(a_set, b_set, KernelConfig(bandwidth=resolved.bandwidth_used),
                                  repetitions=4, seed=2)
        assert explicit == resolved
        assert resolved.bandwidth_used == median_heuristic(a_set, b_set)

    @pytest.mark.parametrize("prefix", [True, False], ids=["prefix", "separate"])
    def test_tiled_median_is_pooled_pdist_median(self, prefix):
        small, large = engine_pair(150, 290, 4, prefix, duplicates=True, seed=11)
        got = median_heuristic(as_set(small), as_set(large, prefix="y"))
        assert got == pooled_pdist_median(small, large)

    def test_tiled_self_score_is_exact_zero_and_symmetric(self):
        rng = np.random.default_rng(12)
        x = as_set(rng.normal(size=(300, 6)))
        y = as_set(rng.normal(size=(300, 6)) + 0.2, prefix="y")
        assert mmd(x, x) == 0.0
        assert mmd(x, y) == mmd(y, x)
        assert mmd_calculator(x, x).mean == 0.0


grid_sets = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 9), st.just(2)),
    elements=st.sampled_from([0.0, 0.5, 1.0, -2.0]),
)


@settings(max_examples=150, deadline=None)
@given(grid_sets, grid_sets, st.booleans())
def test_median_heuristic_is_pooled_pdist_median(first, second, prefix):
    # grid values give duplicate rows, and all-zero sets fall back to 1.0
    large = np.vstack([first, second]) if prefix else second
    small = first
    if len(small) == len(large):
        large = np.vstack([large, large[:1]])
    want = pooled_pdist_median(small, large)
    s_set, l_set = as_set(small), as_set(large, prefix="y")
    assert median_heuristic(s_set, l_set) == want
    assert median_heuristic(l_set, s_set) == want
    assert mmd_calculator(s_set, l_set, repetitions=2).bandwidth_used == want


def bucket(distance):
    """The top 16 bits of a squared distance, where the median is selected."""
    return int(np.float64(distance * distance).view(np.int64)) >> 48


def middle_buckets(small, large):
    """Buckets of the two middle order statistics of the oracle's pooled distances."""
    from scipy.spatial.distance import pdist

    distances = np.sort(pdist(np.vstack([small, large])))
    positive = distances[distances > 0]
    count = positive.size
    return count, bucket(positive[(count - 1) // 2]), bucket(positive[count // 2])


def assert_median_is_oracle(small, large):
    want = pooled_pdist_median(small, large)
    s_set, l_set = as_set(small), as_set(large, prefix="y")
    assert median_heuristic(s_set, l_set).hex() == want.hex()
    assert median_heuristic(l_set, s_set).hex() == want.hex()


class TestMedianSelection:
    """The median is selected from a histogram of the distances' top bits."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 140), st.integers(1, 140), st.sampled_from([1, 2, 5]),
           st.booleans(), st.integers(0, 2**32 - 1))
    def test_matches_pooled_pdist_median_across_the_tile_edge(self, n_s, extra, k, prefix, seed):
        # one decimal place gives ties, duplicate rows and equal distances
        rng = np.random.default_rng(seed)
        large = np.round(rng.normal(size=(n_s + extra, k)), 1)
        small = large[:n_s].copy() if prefix else np.round(rng.normal(size=(n_s, k)), 1)
        assert_median_is_oracle(small, large)

    @pytest.mark.parametrize("prefix", [True, False], ids=["prefix", "separate"])
    def test_every_distance_in_one_bucket(self, prefix):
        # rows of c * I are all sqrt(2 c^2) apart
        rows = 3.0 * np.eye(140)
        small, large = (rows[:60], rows) if prefix else (rows[:60], rows[60:])
        count, first, last = middle_buckets(small, large)
        assert count > 0 and first == last
        assert_median_is_oracle(small, large)
        assert median_heuristic(as_set(small), as_set(large, prefix="y")) == math.sqrt(18.0)

    @pytest.mark.parametrize("small, large", [
        ([[0.0], [1.0]], [[0.0], [1.0], [2.0], [3.0], [8.0], [20.0]]),
        ([[0.0], [1.0]], [[10.0], [11.0]]),
    ], ids=["prefix", "separate"])
    def test_middle_values_in_different_buckets(self, small, large):
        small, large = np.array(small), np.array(large)
        count, first, last = middle_buckets(small, large)
        assert count % 2 == 0 and first != last
        assert_median_is_oracle(small, large)

    @pytest.mark.parametrize("prefix", [True, False], ids=["prefix", "separate"])
    def test_zeros_next_to_subnormal_distances(self, prefix):
        # squared distances of about 1e-320 are subnormal and share bucket 0
        # with the zero distances of the duplicate rows, which are not counted
        rng = np.random.default_rng(4)
        large = rng.integers(0, 6, size=(150, 2)) * 1e-160
        large[::4] = large[0]
        small = large[:40].copy() if prefix else rng.integers(0, 6, size=(40, 2)) * 1e-160
        count, first, last = middle_buckets(small, large)
        assert first == last == 0
        assert_median_is_oracle(small, large)

    @pytest.mark.parametrize("prefix", [True, False], ids=["prefix", "separate"])
    def test_duplicate_rows_and_all_zero_sets(self, prefix):
        rows = np.zeros((140, 3))
        rows[::2] = [1.0, 2.0, 3.0]
        small = rows[:50].copy() if prefix else rows[50:].copy()
        assert_median_is_oracle(small, rows)
        zeros = np.zeros((130, 3))
        assert median_heuristic(as_set(zeros[:40]), as_set(zeros, prefix="y")) == 1.0

    @pytest.mark.parametrize("prefix", [True, False], ids=["prefix", "separate"])
    def test_overflow_past_the_middle_is_non_finite(self, prefix):
        # rows moved to +-1e200 overflow their distances to the other rows: a
        # tenth of them leaves the median finite, nine tenths make it infinite
        rng = np.random.default_rng(6)
        for far_share, finite in [(0.1, True), (0.9, False)]:
            large = rng.normal(size=(140, 2))
            far = rng.random(140) < far_share
            large[far, 0] = np.where(rng.random(far.sum()) < 0.5, 1e200, -1e200)
            small = large[:50].copy() if prefix else large[50:].copy() + 0.5
            want = pooled_pdist_median(small, large)
            assert math.isfinite(want) == finite
            s_set, l_set = as_set(small), as_set(large, prefix="y")
            if finite:
                assert median_heuristic(s_set, l_set) == want
            else:
                with pytest.raises(NonFiniteValue):
                    median_heuristic(s_set, l_set)

    def test_median_too_small_to_scale_is_non_finite(self):
        # the median of test_zeros_next_to_subnormal_distances is about 3e-160:
        # 1 / (2 b^2) is infinite, and a repeated row would score 0 * inf = NaN
        rng = np.random.default_rng(4)
        large = rng.integers(0, 6, size=(150, 2)) * 1e-160
        large[::4] = large[0]
        s_set, l_set = as_set(large[:40]), as_set(large, prefix="y")
        assert 0.0 < median_heuristic(s_set, l_set) < 1e-155
        with pytest.raises(NonFiniteValue, match="median-heuristic bandwidth"):
            mmd_calculator(s_set, l_set, repetitions=3)


def pinned_estimate(n_s, prefix, bandwidth, normalized):
    """The estimate whose bits are pinned: n_s small rows against n_s + 131 large."""
    small, large = engine_pair(n_s, n_s + 131, 4, prefix, duplicates=True, seed=n_s)
    return mmd_calculator(as_set(small), as_set(large, prefix="y"), KernelConfig(bandwidth),
                          repetitions=10, seed=3, normalized=normalized)


# float.hex of (mean, stddev, bandwidth_used), recorded from the engine as it
# stood before its tiles changed shape, at sizes around the 128-row tile edge
PINNED_BITS = [
    (1, True, MEDIAN_HEURISTIC, True,
     ('0x1.40581683d62f0p-3', '0x0.0p+0', '0x1.304aca37bf274p+1')),
    (1, False, 1.5, False,
     ('0x1.4ade026303943p+14', '0x1.1040000000000p-38', '0x1.8000000000000p+0')),
    (127, True, MEDIAN_HEURISTIC, False,
     ('0x1.17821802de633p+7', '0x1.9d33862f28b8cp+5', '0x1.6685d823bfa0fp+1')),
    (127, False, MEDIAN_HEURISTIC, True,
     ('0x1.ea23e715b93fbp-4', '0x1.bb0a300b8efebp-8', '0x1.6426fac5f5ef7p+1')),
    (128, True, 1.5, True,
     ('0x1.3a23e9f60b17ep-8', '0x1.8e2de1cdc2a4bp-10', '0x1.8000000000000p+0')),
    (128, False, MEDIAN_HEURISTIC, False,
     ('0x1.09950bee86d6bp+13', '0x1.460b244b0bfd1p+9', '0x1.5bb29abe607fep+1')),
    (128, False, 1.5, True,
     ('0x1.6cfcc255894a3p-3', '0x1.655577875312ep-7', '0x1.8000000000000p+0')),
    (129, True, MEDIAN_HEURISTIC, True,
     ('0x1.9ffd84792603ep-9', '0x1.86e4f0219b2fap-10', '0x1.49c44f2a8aba8p+1')),
    (129, False, 1.5, False,
     ('0x1.08eaa66564ac3p+13', '0x1.41b7b890c1bfap+9', '0x1.8000000000000p+0')),
    (257, True, MEDIAN_HEURISTIC, True,
     ('0x1.6e104df5fa86ap-10', '0x1.46e6790b042c4p-11', '0x1.685614a86c73cp+1')),
    (257, False, MEDIAN_HEURISTIC, False,
     ('0x1.e2c334ed08f66p+12', '0x1.fee2c581627dcp+8', '0x1.669ada00ba884p+1')),
    (257, True, 1.5, False,
     ('0x1.5892fd0e4aa33p+8', '0x1.bf6a8bb1b60e2p+6', '0x1.8000000000000p+0')),
]


@pytest.mark.parametrize("n_s, prefix, bandwidth, normalized, bits", PINNED_BITS)
def test_estimate_bits_are_pinned(n_s, prefix, bandwidth, normalized, bits):
    est = pinned_estimate(n_s, prefix, bandwidth, normalized)
    assert (est.mean.hex(), est.stddev.hex(), est.bandwidth_used.hex()) == bits


def saturation_shaped(n, batch=40, k=64, seed=0):
    """(current, combined) as one saturation iteration scores them."""
    values = np.random.default_rng(seed).normal(size=(n + batch, k))
    return as_set(values[:n]), as_set(values, prefix="y")


def traced_peak(call):
    import tracemalloc

    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestEngineResources:
    def test_median_heuristic_peak_is_bounded_by_the_distances(self):
        current, combined = saturation_shaped(800)
        d = combined.size  # current is a prefix, so the distinct points are combined
        peak = traced_peak(lambda: mmd_calculator(current, combined, repetitions=10, seed=1))
        assert peak <= 1.5 * d * d * 8
        # two separate files, as the one-shot mmd command scores them
        rng = np.random.default_rng(1)
        first = as_set(rng.normal(size=(500, 64)))
        second = as_set(rng.normal(size=(550, 64)), prefix="y")
        d = first.size + second.size
        peak = traced_peak(lambda: mmd_calculator(first, second, repetitions=10, seed=1))
        assert peak <= 1.5 * d * d * 8

    @pytest.mark.parametrize("sizes, prefix", [((2000, 2100), True), ((1000, 1100), False)],
                             ids=["prefix", "separate"])
    def test_median_heuristic_peak_is_the_tiles_plus_the_median_bucket(self, sizes, prefix):
        # the stored tiles take about D^2 * 8 / 2 bytes; no sorted copy of
        # every distance is made next to them
        n_s, n_l = sizes
        small, large = engine_pair(n_s, n_l, 64, prefix, duplicates=False, seed=2)
        s_set, l_set = as_set(small), as_set(large, prefix="y")
        d = n_l if prefix else n_s + n_l
        peak = traced_peak(lambda: median_heuristic(s_set, l_set))
        assert peak <= 0.75 * d * d * 8

    def test_explicit_bandwidth_peak_does_not_grow_quadratically(self):
        cfg = KernelConfig(bandwidth=11.0)
        peaks = []
        for n in (800, 1600):
            current, combined = saturation_shaped(n)
            peaks.append(traced_peak(
                lambda: mmd_calculator(current, combined, cfg, repetitions=10, seed=1)))
        assert peaks[1] <= 2.5 * peaks[0]

    def test_estimate_is_independent_of_blas_threads(self):
        import subprocess
        import sys

        from conftest import _child_env

        script = textwrap.dedent("""\
            import numpy as np
            from divsat import EmbeddingSet, mmd_calculator
            values = np.random.default_rng(4).normal(size=(540, 64))
            current = EmbeddingSet.from_array(values[:500])
            combined = EmbeddingSet.from_array(values, id_prefix="y")
            other = EmbeddingSet.from_array(values[::-1][:520], id_prefix="z")
            print(repr(mmd_calculator(current, combined, repetitions=10, seed=3)))
            print(repr(mmd_calculator(other, combined, repetitions=10, seed=3)))
            """)
        outputs = []
        for threads in ("1", "4"):
            env = _child_env({name: threads for name in
                              ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})
            proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                  text=True, env=env, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].count("MmdEstimate(") == 2
