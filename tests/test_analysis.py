import ast
import json
import math
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SRC, _child_env
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
from divsat import analysis


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

    def test_constant_series_whose_mean_rounds_is_an_error(self):
        # three 0.1s sum to a float whose third is not 0.1
        assert math.fsum([0.1] * 3) / 3 != 0.1
        with pytest.raises(DegenerateSeries, match="^xs is constant"):
            pearson_r(PairedSeries([0.1] * 3, [1, 2, 3]))

    @pytest.mark.parametrize("exponent", [1000, -1000])
    def test_power_of_two_scale_keeps_the_bits(self, exponent):
        # no sum or square overflows or underflows, whatever the magnitudes
        rng = np.random.default_rng(9)
        xs = rng.normal(size=40).tolist()
        ys = (rng.normal(size=40) + np.asarray(xs)).tolist()
        base = pearson_r(PairedSeries(xs, ys))
        scaled = pearson_r(PairedSeries([math.ldexp(v, exponent) for v in xs], ys))
        assert scaled.hex() == base.hex()

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


class TestPairedSeriesInput:
    def test_fields_are_tuples_of_floats(self):
        series = PairedSeries(np.arange(3), [4, 5.5, np.float32(6)])
        assert series.xs == (0.0, 1.0, 2.0)
        assert series.ys == (4.0, 5.5, 6.0)
        assert all(type(v) is float for v in series.xs + series.ys)
        assert series.n == 3

    @pytest.mark.parametrize("bad", [
        [1.0, True, 3.0],
        [1.0, "1.5", 3.0],
        [[1.0, 2.0], [3.0, 4.0]],
        np.ones((3, 2)),
        [1.0, None, 3.0],
    ], ids=["bool", "string-entry", "nested", "2d-array", "none"])
    @pytest.mark.parametrize("side", ["xs", "ys"])
    def test_entries_that_are_not_real_numbers_are_rejected(self, bad, side):
        good = [1.0, 2.0, 3.0]
        args = (bad, good) if side == "xs" else (good, bad)
        with pytest.raises(ValueError, match=f"^each entry of {side} must be a real number"):
            PairedSeries(*args)

    @pytest.mark.parametrize("bad", ["123", b"123", 3.0, None], ids=["str", "bytes", "scalar", "none"])
    def test_a_series_that_is_not_a_sequence_is_rejected(self, bad):
        with pytest.raises(ValueError, match="^ys must be a flat sequence of real numbers"):
            PairedSeries([1.0, 2.0, 3.0], bad)

    def test_errors_other_than_the_type_are_unchanged(self):
        with pytest.raises(LengthMismatch, match="^series have lengths 2 and 3$"):
            PairedSeries([1, 2], [1, 2, 3])
        with pytest.raises(InsufficientSamples, match="^paired series need at least 2 points$"):
            PairedSeries([1], [2])
        for bad in (float("nan"), float("inf"), 10**400):
            with pytest.raises(NonFiniteValue, match="^series values must be finite$"):
                PairedSeries([1.0, bad], [1.0, 2.0])

    def test_report_and_aggregate_name_their_input(self):
        with pytest.raises(ValueError, match="^each entry of motion_mmd must be a real number"):
            correlation_report([1, 2, 3], [1, "2", 3], [3, 2, 1])
        with pytest.raises(ValueError, match="^each entry of rs must be a real number"):
            aggregate_r([0.5, True])


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


def mp_p(r, n):
    """The exact two-tailed p of the double r over n pairs, I_{1 - r^2}((n - 2)/2, 1/2),
    from mpmath at 40 digits."""
    with mpmath.workdps(40):
        a = mpmath.mpf(n - 2) / 2
        r2 = mpmath.mpf(r) ** 2
        if r2 < 0.5:
            return float(1 - mpmath.betainc(0.5, a, 0, r2, regularized=True))
        return float(mpmath.betainc(a, 0.5, 0, 1 - r2, regularized=True))


# r = m / 4096: r^2 and 1 - r^2 are exact doubles, so pearson_p and betainc see
# the same x. At a = 5e5 one unit in the last place of x moves p by about
# 5e-11 relative, so a comparison through a rounded x would measure the rounding.
DYADIC_R = sorted({int(m) for m in np.geomspace(1, 4095, 40)} | {2048, 4000, 4094})
P_GRID_N = sorted({3, 4, 5, 6, 7, 10, 20, 39, 40, 41, 99, 100, 101, 102, 103, 104, 500,
                   2000, 20000})


class TestPearsonPAccuracy:
    def test_mpmath_grid_within_1e14_absolute(self):
        worst = 0.0
        for n in P_GRID_N:
            for r in [m / 4096 for m in DYADIC_R] + [1e-8, 1e-4, 0.1, 0.3, 0.7, 0.99, 0.999999]:
                worst = max(worst, abs(pearson_p(r, n) - mp_p(r, n)))
                assert pearson_p(-r, n) == pearson_p(r, n)
        assert worst <= 1e-14

    def test_scipy_betainc_grid_within_1e12_relative(self):
        from scipy.special import betainc

        ns = sorted(set(P_GRID_N) | {int(n) for n in np.geomspace(3, 10**6, 25)} | {10**6})
        checked = 0
        for n in ns:
            for m in DYADIC_R:
                r = m / 4096
                want = float(betainc((n - 2) / 2, 0.5, 1.0 - r * r))
                if want < 1e-300:
                    continue
                checked += 1
                assert pearson_p(r, n) == pytest.approx(want, rel=1e-12, abs=0), (n, m)
        assert checked > 1000

    @pytest.mark.parametrize("n", [10**9, 10**15, 10**300])
    def test_huge_n_stays_a_probability(self, n):
        ps = [pearson_p(r, n) for r in (0.0, 1e-160, 1e-150, 1e-12, 1e-6, 0.3, 1.0)]
        assert ps[0] == 1.0 and ps[-1] == 0.0
        assert all(0.0 <= p <= 1.0 for p in ps)
        assert all(a >= b for a, b in zip(ps, ps[1:]))

    def test_large_n_matches_the_normal_limit(self):
        # t = r sqrt(n - 2) stays 2, and p tends to erfc(2 / sqrt 2)
        n = 10**12
        assert pearson_p(2 / math.sqrt(n - 2), n) == pytest.approx(math.erfc(math.sqrt(2)),
                                                                    rel=1e-10)

    def test_an_expansion_that_does_not_converge_raises(self, monkeypatch):
        # the continued fraction (small a) and the large-a series each stop
        # after a bounded number of terms, and say so rather than return
        monkeypatch.setattr(analysis, "_MAX_TERMS", 1)
        with pytest.raises(ArithmeticError, match="did not converge"):
            pearson_p(0.5, 20)
        monkeypatch.setattr(analysis, "_ROOT", analysis._ROOT[:2])
        with pytest.raises(ArithmeticError, match="did not converge"):
            pearson_p(0.1, 1000)


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
    def test_raw_mean_is_correctly_rounded(self):
        assert aggregate_r([0.1] * 10) == math.fsum([0.1] * 10) / 10 == 0.1

    def test_empty_input(self):
        with pytest.raises(InsufficientSamples):
            aggregate_r([])

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


BLAS_NAMES = {"dot", "vdot", "matmul", "einsum", "linalg", "tensordot"}


@pytest.mark.parametrize("path", sorted((SRC / "divsat").glob("*.py")), ids=lambda p: p.name)
def test_no_blas_call_in_src(path):
    # a BLAS product sums in an order that depends on the thread count, and
    # every output of divsat is to be the same bytes on any thread count
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            offenders.append(f"line {node.lineno}: @")
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if name in BLAS_NAMES:
            offenders.append(f"line {node.lineno}: {name}")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            names = modules + [alias.name for alias in node.names]
            offenders += [f"line {node.lineno}: import {n}" for n in names
                          if BLAS_NAMES & set(n.split("."))]
    assert offenders == []


def test_correlate_bytes_do_not_depend_on_blas_threads(tmp_path):
    # three flat 20,000-point series: at this size, BLAS dot products summed
    # in a thread-dependent order move r in its last digits
    rng = np.random.default_rng(19)
    text = rng.normal(size=20_000)
    series = {"text": text, "motion": 0.3 * text + rng.normal(size=20_000),
              "f1": rng.normal(size=20_000)}
    argv = [sys.executable, "-m", "divsat", "correlate"]
    for name, values in series.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(values.tolist()))
        argv += [f"--{name}", str(path)]
    outputs = []
    for threads in ("1", "2"):
        env = _child_env({name: threads for name in
                          ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        report.pop("duration_s")
        outputs.append(json.dumps(report, sort_keys=True))
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["result"]["text_vs_motion"]["n"] == 20_000
