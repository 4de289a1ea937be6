import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divsat import (
    DegenerateSeries,
    EmbeddingSet,
    GaussianSpec,
    InsufficientSamples,
    LengthMismatch,
    NonFiniteValue,
    PairedSeries,
    aggregate_r,
    correlate,
    correlation_report,
    diversity_impact,
    gaussian_set,
    pearson_p,
    pearson_r,
)


def oracle_r(xs, ys):
    """Covariance over stddev product, plain python."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    return cov / math.sqrt(vx * vy)


def oracle_p(r, n):
    """Two-tailed tail mass of the t density, by numerical quadrature."""
    df = n - 2
    t = abs(r) * math.sqrt(df / (1.0 - r * r))
    norm = mpmath.gamma((df + 1) / 2) / (mpmath.sqrt(df * mpmath.pi) * mpmath.gamma(df / 2))

    def density(u):
        return norm * (1 + u * u / df) ** (-(df + 1) / 2)

    return float(2 * mpmath.quad(density, [t, mpmath.inf]))


class TestPearsonR:
    def test_exact_linear(self):
        assert pearson_r(PairedSeries([1, 2, 3], [2, 4, 6])) == 1.0
        assert pearson_r(PairedSeries([1, 2, 3], [3, 2, 1])) == -1.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            xs = rng.normal(size=50).tolist()
            ys = (rng.normal(size=50) + 0.3 * np.array(xs)).tolist()
            assert pearson_r(PairedSeries(xs, ys)) == pytest.approx(
                oracle_r(xs, ys), abs=1e-12
            )

    def test_constant_series_is_an_error(self):
        with pytest.raises(DegenerateSeries):
            pearson_r(PairedSeries([1.0, 1.0, 1.0], [1, 2, 3]))
        with pytest.raises(DegenerateSeries):
            pearson_r(PairedSeries([1, 2, 3], [5.0, 5.0, 5.0]))

    def test_length_mismatch_and_nan(self):
        with pytest.raises(LengthMismatch):
            PairedSeries([1, 2], [1, 2, 3])
        with pytest.raises(NonFiniteValue):
            PairedSeries([1, float("nan")], [1, 2])
        with pytest.raises(InsufficientSamples):
            PairedSeries([1], [2])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(-100, 100), min_size=3, max_size=30).filter(
            lambda v: max(v) - min(v) >= 1.0
        ),
        st.floats(0.1, 50),
        st.floats(-100, 100),
    )
    def test_affine_invariance(self, xs, a, b):
        ys = [2.0 * x + math.sin(x) for x in xs]
        try:
            base = pearson_r(PairedSeries(xs, ys))
            scaled = pearson_r(PairedSeries([a * x + b for x in xs], ys))
            flipped = pearson_r(PairedSeries([-a * x + b for x in xs], ys))
        except DegenerateSeries:
            # constant xs, or a*x+b collapsing distinct xs to one float
            return
        assert scaled == pytest.approx(base, abs=1e-12)
        assert flipped == pytest.approx(-base, abs=1e-12)


class TestPearsonP:
    def test_frozen_values(self):
        assert pearson_p(0.0, 10) == 1.0
        assert pearson_p(1.0, 10) == 0.0
        assert pearson_p(-1.0, 10) == 0.0
        assert pearson_p(0.5, 20) == pytest.approx(0.0249, abs=1e-3)
        assert pearson_p(0.5, 20) == pytest.approx(oracle_p(0.5, 20), abs=1e-10)

    def test_matches_quadrature_oracle(self):
        for r in (0.1, 0.3, 0.5, 0.7, 0.9, -0.4, -0.85):
            for n in (5, 12, 40, 150):
                assert pearson_p(r, n) == pytest.approx(oracle_p(r, n), abs=1e-10)

    def test_monotone_in_abs_r(self):
        ps = [pearson_p(r, 25) for r in np.linspace(0.0, 0.99, 40)]
        assert all(a > b for a, b in zip(ps, ps[1:]))

    def test_monotone_in_n(self):
        ps = [pearson_p(0.4, n) for n in range(3, 60)]
        assert all(a > b for a, b in zip(ps, ps[1:]))

    def test_symmetric_in_sign(self):
        assert pearson_p(0.6, 18) == pearson_p(-0.6, 18)

    def test_small_n_rejected(self):
        with pytest.raises(InsufficientSamples):
            pearson_p(0.5, 2)

    def test_r_out_of_range(self):
        with pytest.raises(ValueError):
            pearson_p(1.01, 10)


class TestCorrelationReport:
    def test_unequal_lengths_are_rejected(self):
        with pytest.raises(LengthMismatch):
            correlation_report([1, 2, 3, 4], [4, 1, 3, 2], [1, 2, 3])
        # the first pair agrees and is too short for a p-value; the lengths still come first
        with pytest.raises(LengthMismatch, match="^series have lengths 2, 2, 3$"):
            correlation_report([1, 2], [2, 1], [1, 2, 3])

    def test_self_correlation_row(self):
        rng = np.random.default_rng(14)
        xs = rng.normal(size=30)
        ys = rng.normal(size=30)
        rep = correlation_report(xs, xs, ys)
        assert rep.text_vs_motion.r == 1.0
        assert rep.text_vs_motion.p == 0.0

    def test_independent_series_low_r(self):
        rng = np.random.default_rng(15)
        a, b, c = rng.normal(size=(3, 200))
        rep = correlation_report(a, b, c)
        for res in (rep.text_vs_motion, rep.text_vs_f1, rep.motion_vs_f1):
            assert abs(res.r) < 0.2
            assert res.n == 200

    def test_anticorrelated_sign(self):
        rng = np.random.default_rng(16)
        xs = rng.normal(size=60)
        noisy_neg = -xs + rng.normal(scale=0.05, size=60)
        res = correlate(xs, noisy_neg)
        assert res.r < -0.99

    def test_needs_three_points(self):
        with pytest.raises(InsufficientSamples):
            correlate([1.0, 2.0], [2.0, 1.0])


class TestAggregate:
    def test_raw_mean(self):
        assert aggregate_r([0.2, 0.4, 0.9]) == pytest.approx(0.5)

    def test_fisher_z(self):
        rs = [0.2, 0.4, 0.9]
        expected = math.tanh(sum(math.atanh(r) for r in rs) / 3)
        assert aggregate_r(rs, method="fisher-z") == pytest.approx(expected, abs=1e-12)

    def test_fisher_z_handles_unit_r(self):
        # atanh(1) diverges; the implementation must clip, not crash.
        got = aggregate_r([1.0, 0.0], method="fisher-z")
        assert 0.9 < got <= 1.0

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            aggregate_r([0.5], method="median")


class TestDiversityImpact:
    def test_identity_zero_deltas(self):
        s = gaussian_set(GaussianSpec(k=3, seed=0), 40)
        rep = diversity_impact(s, s)
        assert rep.delta_std == 0.0
        assert rep.delta_centroid == 0.0

    def test_concentration_negative_deltas(self):
        s = gaussian_set(GaussianSpec(k=3, sigma=1.0, seed=1), 500)
        radii = np.linalg.norm(s.vectors - s.vectors.mean(axis=0), axis=1)
        keep = [record_id for record_id, radius in zip(s.ids(), radii) if radius <= 1.0]
        from divsat import subset

        inner = subset(s, keep)
        rep = diversity_impact(s, inner)
        assert rep.delta_std < 0
        assert rep.delta_centroid < 0
        assert rep.before.n == 500
        assert rep.after.n == len(keep)

    def test_disjoint_sets_allowed(self):
        a = gaussian_set(GaussianSpec(k=2, seed=2), 20)
        b = gaussian_set(GaussianSpec(k=2, sigma=3.0, seed=3), 10)
        rep = diversity_impact(a, b)
        assert rep.delta_centroid == pytest.approx(
            rep.after.centroid_metric - rep.before.centroid_metric
        )
