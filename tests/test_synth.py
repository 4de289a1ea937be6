import re

import numpy as np
import pytest

from divsat import (
    GaussianSpec,
    NonFiniteValue,
    SyntheticSource,
    diversity_report,
    gaussian_set,
    stationary_provider,
    token_vector,
)


class TestGaussianSet:
    def test_single_record(self):
        s = gaussian_set(GaussianSpec(k=3, seed=0), 1)
        assert len(s) == 1
        assert s.dimension == 3
        assert s.ids() == ("g0",)

    def test_deterministic(self):
        spec = GaussianSpec(k=4, sigma=2.0, seed=99)
        assert gaussian_set(spec, 20) == gaussian_set(spec, 20)

    def test_seed_sensitivity(self):
        a = gaussian_set(GaussianSpec(k=4, seed=1), 20)
        b = gaussian_set(GaussianSpec(k=4, seed=2), 20)
        assert a != b

    def test_clt_mean_bound(self):
        # Per-axis sample mean stays within 4 sigma / sqrt(n) of the configured mean.
        n = 10_000
        spec = GaussianSpec(k=4, sigma=1.5, mean=(1.0, -2.0, 0.0, 3.0), seed=5)
        s = gaussian_set(spec, n)
        bound = 4.0 * spec.sigma / np.sqrt(n)
        assert np.all(np.abs(s.vectors.mean(axis=0) - np.array(spec.mean)) < bound)

    def test_centroid_diversity_expectation(self):
        spec = GaussianSpec(k=5, sigma=0.8, seed=7)
        s = gaussian_set(spec, 10_000)
        assert diversity_report(s).centroid_metric == pytest.approx(5 * 0.8 * 0.8, rel=0.05)

    def test_sigma_validated(self):
        with pytest.raises(ValueError):
            GaussianSpec(k=2, sigma=0.0)
        with pytest.raises(ValueError):
            GaussianSpec(k=2, sigma=-1.0)
        for value in (float("inf"), float("nan")):
            with pytest.raises(ValueError):
                GaussianSpec(k=2, sigma=value)
            with pytest.raises(ValueError):
                GaussianSpec(k=2, mean=(0.0, value))

    def test_mean_dimension_validated(self):
        with pytest.raises(ValueError):
            GaussianSpec(k=3, mean=(1.0, 2.0))


class TestProviders:
    def test_same_seed_identical_streams(self):
        spec = GaussianSpec(k=3, sigma=0.5, seed=14)
        a = stationary_provider(spec)
        b = stationary_provider(spec)
        batch_a = a.next_batch(6)
        batch_b = b.next_batch(6)
        assert batch_a == batch_b
        assert a.embed(batch_a) == b.embed(batch_b)

    def test_zero_count_gives_empty_batch(self):
        src = stationary_provider(GaussianSpec(k=2, seed=0))
        assert src.next_batch(0) == []

    def test_stationary_batches_share_distribution(self):
        src = stationary_provider(GaussianSpec(k=2, sigma=1.0, seed=3))
        first = src.embed(src.next_batch(4000))
        second = src.embed(src.next_batch(4000))
        gap = first.vectors.mean(axis=0) - second.vectors.mean(axis=0)
        assert np.linalg.norm(gap) < 0.15

    def test_non_finite_drift_is_rejected_when_constructed(self):
        # caught where the drift is given, not at the first batch drawn with it
        for drift in ((float("nan"), 0.0), (0.0, float("inf"))):
            message = f"^drift must be 2 finite numbers, got {re.escape(repr(drift))}$"
            with pytest.raises(ValueError, match=message):
                SyntheticSource(GaussianSpec(k=2), drift)
        with pytest.raises(ValueError,
                           match=r"^drift must be 2 finite numbers, got \(0.0, 0.0, 0.0\)$"):
            SyntheticSource(GaussianSpec(k=2), (0.0, 0.0, 0.0))

    def test_drift_zero_reduces_to_stationary(self):
        spec = GaussianSpec(k=3, sigma=0.7, seed=21)
        stat = stationary_provider(spec)
        drft = SyntheticSource(spec, drift=(0.0, 0.0, 0.0))
        for _ in range(3):
            bs = stat.next_batch(5)
            bd = drft.next_batch(5)
            assert bs == bd
            assert stat.embed(bs) == drft.embed(bd)

    def test_batch_means_advance_by_drift(self):
        drift = (0.5, -0.25)
        drft = SyntheticSource(GaussianSpec(k=2, sigma=0.05, seed=8), drift=drift)
        means = []
        for _ in range(4):
            emb = drft.embed(drft.next_batch(2000))
            means.append(emb.vectors.mean(axis=0))
        steps = np.diff(np.array(means), axis=0)
        assert np.allclose(steps, np.tile(drift, (3, 1)), atol=0.01)

    def test_negative_drift_symmetric(self):
        down = SyntheticSource(GaussianSpec(k=1, sigma=0.01, seed=2), drift=(-1.0,))
        m0 = down.embed(down.next_batch(500)).vectors.mean()
        down.embed(down.next_batch(500))
        m2 = down.embed(down.next_batch(500)).vectors.mean()
        assert m2 - m0 == pytest.approx(-2.0, abs=0.05)

    def test_drift_dimension_validated(self):
        with pytest.raises(ValueError):
            SyntheticSource(GaussianSpec(k=3, seed=0), drift=(1.0,))

    def test_unique_ids_across_batches(self):
        src = stationary_provider(GaussianSpec(k=2, seed=11))
        e1 = src.embed(src.next_batch(3))
        e2 = src.embed(src.next_batch(3))
        assert set(e1.ids()).isdisjoint(e2.ids())


class TestTokenVector:
    def test_deterministic_per_token(self):
        spec = GaussianSpec(k=4, sigma=1.0, seed=9)
        assert np.array_equal(token_vector("tok1", spec), token_vector("tok1", spec))

    def test_token_and_seed_sensitivity(self):
        spec = GaussianSpec(k=4, sigma=1.0, seed=9)
        base = token_vector("tok1", spec)
        assert not np.array_equal(base, token_vector("tok2", spec))
        assert not np.array_equal(base, token_vector("tok1", GaussianSpec(k=4, sigma=1.0, seed=10)))

    def test_offset_shifts_mean(self):
        spec = GaussianSpec(k=2, sigma=0.5, seed=1)
        plain = token_vector("t", spec)
        moved = token_vector("t", spec, offset=(10.0, -3.0))
        assert np.allclose(moved - plain, [10.0, -3.0])

    def test_overflowing_draw_is_rejected(self):
        # finite specs whose draws overflow: a huge sigma, or mean plus offset
        with pytest.raises(NonFiniteValue, match="tok3"):
            token_vector("tok3", GaussianSpec(k=3, sigma=1e308))
        spec = GaussianSpec(k=2, sigma=1.0, mean=(1.5e308, 0.0))
        assert np.isfinite(token_vector("t", spec)).all()
        with pytest.raises(NonFiniteValue):
            token_vector("t", spec, offset=(1.5e308, 0.0))
