"""Acceptance gate: one test per shipped criterion.

Each test prints exactly one ``[criterion NN] label: PASS|FAIL`` line on the
real stdout (outside pytest capture) and then asserts, so a full run always
shows the per-criterion verdict lines. Oracles here are written from
scratch in plain Python and do not touch the library internals they check.
"""

import functools
import json
import math
import shlex
import sys
import time

import mpmath as mp
import numpy as np
import pytest

from divsat import (
    CaptionItem,
    FilterVerdict,
    GaussianSpec,
    KernelConfig,
    MmdEstimate,
    PairedSeries,
    SaturationConfig,
    StopReason,
    SyntheticSource,
    build_filter_prompts,
    diversity_impact,
    diversity_report,
    evaluate_filter,
    gaussian_set,
    load_set,
    mmd,
    pearson_p,
    pearson_r,
    run_filter,
    run_saturation,
    stationary_provider,
    subset,
)
from divsat.embedset import EmbeddingSet


@pytest.fixture
def announce(capfd):
    """Print the one-line verdict for a criterion, then enforce it."""

    def _announce(num, label, failures, detail=""):
        status = "PASS" if not failures else "FAIL"
        line = f"[criterion {num:02d}] {label}: {status}"
        if detail:
            line += f"  ({detail})"
        with capfd.disabled():
            print(line, flush=True)
        assert not failures, f"criterion {num}: " + "; ".join(failures[:5])

    return _announce


# ---------------------------------------------------------------- oracles


def brute_std(rows):
    n, k = len(rows), len(rows[0])
    sigmas = []
    for j in range(k):
        col = [row[j] for row in rows]
        mean = sum(col) / n
        sigmas.append(math.sqrt(sum((v - mean) ** 2 for v in col) / n))
    if any(s == 0.0 for s in sigmas):
        return 0.0
    product = 1.0
    for s in sigmas:
        product *= s
    return product ** (1.0 / k)


def brute_centroid(rows):
    n, k = len(rows), len(rows[0])
    centroid = [sum(row[j] for row in rows) / n for j in range(k)]
    total = 0.0
    for row in rows:
        total += sum((row[j] - centroid[j]) ** 2 for j in range(k))
    return total / n


def brute_median_bandwidth(xs, ys):
    pooled = xs + ys
    distances = []
    for i in range(len(pooled)):
        for j in range(i + 1, len(pooled)):
            d = math.sqrt(
                sum((a - b) ** 2 for a, b in zip(pooled[i], pooled[j]))
            )
            if d > 0.0:
                distances.append(d)
    if not distances:
        return 1.0
    distances.sort()
    m = len(distances)
    if m % 2:
        return distances[m // 2]
    return 0.5 * (distances[m // 2 - 1] + distances[m // 2])


def brute_mmd(xs, ys, bandwidth):
    def kernel(a, b):
        d2 = sum((ai - bi) ** 2 for ai, bi in zip(a, b))
        return math.exp(-d2 / (2.0 * bandwidth * bandwidth))

    def block(rows_a, rows_b):
        return sum(kernel(a, b) for a in rows_a for b in rows_b)

    nx, ny = len(xs), len(ys)
    return (
        block(xs, xs) / nx**2
        + block(ys, ys) / ny**2
        - 2.0 * block(xs, ys) / (nx * ny)
    )


def pure_step(window, stop, score, sd):
    lo, hi = window
    if lo < score < hi:
        return (min(score - sd, lo), max(score + sd, hi)), stop + 1
    return (score - sd, score + sd), 0


def brute_pearson(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    return cov / math.sqrt(vx * vy)


def quadrature_p(r, n):
    df = n - 2
    t = abs(r) * math.sqrt(df / (1.0 - r * r))
    mp.mp.dps = 40
    norm = mp.gamma((df + 1) / 2) / (mp.sqrt(df * mp.pi) * mp.gamma(df / 2))

    def pdf(u):
        return norm * (1 + u * u / df) ** (-(df + 1) / 2)

    return float(2 * mp.quad(pdf, [t, mp.inf]))


def as_set(values):
    return EmbeddingSet.from_array(np.asarray(values, dtype=np.float64))


# ---------------------------------------------------- shared slow fixtures

SOURCE_SPEC = dict(k=4, sigma=0.15)


@functools.lru_cache(maxsize=1)
def stationary_default_runs():
    """100 seeded growth runs at default knobs; shared by criteria 6 and 7."""
    results = []
    for seed in range(100):
        initial = gaussian_set(GaussianSpec(seed=seed, **SOURCE_SPEC), 50)
        source = stationary_provider(GaussianSpec(seed=10_000 + seed, **SOURCE_SPEC))
        cfg = SaturationConfig(seed=seed, max_iterations=200)
        final, trace = run_saturation(initial, source, source, cfg)
        results.append((trace.reason, trace.iterations, final.size))
    return tuple(results)


def quoted(*parts):
    return " ".join(shlex.quote(str(p)) for p in parts)


# -------------------------------------------------------------- criteria


def test_criterion_01_metric_oracle_equivalence(announce):
    rng = np.random.default_rng(101)
    failures = []
    worst = 0.0
    start = time.perf_counter()
    for i in range(1000):
        n = int(rng.integers(2, 201))
        k = int(rng.integers(1, 33))
        scale = float(rng.uniform(0.1, 10.0))
        shift = float(rng.uniform(-5.0, 5.0))
        values = rng.standard_normal((n, k)) * scale + shift
        rows = values.tolist()
        embeddings = as_set(values)
        for impl, oracle in (
            (diversity_report(embeddings).std_metric, brute_std(rows)),
            (diversity_report(embeddings).centroid_metric, brute_centroid(rows)),
        ):
            rel = abs(impl - oracle) / max(abs(oracle), 1e-300)
            worst = max(worst, rel)
            if rel > 1e-9:
                failures.append(f"set {i}: rel err {rel:.3g}")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    announce(
        1, "metric oracle equivalence", failures,
        f"1000 sets, max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_hand_values(announce):
    square = as_set([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
    failures = []
    m_std = diversity_report(square).std_metric
    m_cent = diversity_report(square).centroid_metric
    if abs(m_std - 1.0) > 1e-12:
        failures.append(f"std metric {m_std!r} != 1.0")
    if abs(m_cent - 2.0) > 1e-12:
        failures.append(f"centroid metric {m_cent!r} != 2.0")
    announce(2, "hand-computed anchor values", failures,
             f"std={m_std}, centroid={m_cent}")


def test_criterion_03_mmd_correctness(announce):
    rng = np.random.default_rng(103)
    failures = []
    start = time.perf_counter()
    for i in range(100):
        x = as_set(rng.standard_normal((int(rng.integers(2, 40)), int(rng.integers(1, 8)))))
        value = mmd(x, x)
        if not abs(value) <= 1e-9:
            failures.append(f"self-mmd {i}: {value!r}")
    for i in range(1000):
        n = int(rng.integers(2, 31))
        k = int(rng.integers(1, 9))
        x = as_set(rng.standard_normal((n, k)))
        y = as_set(rng.standard_normal((n, k)) + rng.uniform(-1, 1))
        forward = mmd(x, y)
        backward = mmd(y, x)
        if forward != backward:
            failures.append(f"pair {i}: asymmetric {forward!r} vs {backward!r}")
        if forward < 0.0:
            failures.append(f"pair {i}: negative {forward!r}")
    worst = 0.0
    for i in range(60):
        n = int(rng.integers(1, 26))
        k = int(rng.integers(1, 9))
        xs = (rng.standard_normal((n, k)) * rng.uniform(0.5, 2.0)).tolist()
        ys = (rng.standard_normal((n, k)) + rng.uniform(-1, 1)).tolist()
        oracle_bw = brute_median_bandwidth(xs, ys)
        oracle = brute_mmd(xs, ys, oracle_bw)
        impl = mmd(as_set(xs), as_set(ys), KernelConfig())
        rel = abs(impl - oracle) / max(1.0, abs(oracle))
        worst = max(worst, rel)
        if rel > 1e-9:
            failures.append(f"oracle pair {i}: rel err {rel:.3g}")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    announce(
        3, "mmd identity, symmetry, oracle equivalence", failures,
        f"max oracle rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_04_mmd_separation(announce):
    x = gaussian_set(GaussianSpec(k=4, seed=40), 200)
    values = []
    for delta in (0, 1, 2, 4):
        y = gaussian_set(
            GaussianSpec(k=4, mean=(float(delta), 0.0, 0.0, 0.0), seed=41), 200
        )
        values.append(mmd(x, y, KernelConfig()))
    failures = []
    for a, b in zip(values, values[1:]):
        if not a < b:
            failures.append(f"not increasing: {values}")
            break
    announce(4, "mmd separates growing mean shifts", failures,
             "deltas 0,1,2,4 -> " + ", ".join(f"{v:.4f}" for v in values))


def scripted_estimates(values):
    scores = iter(values)

    def fn(current, combined, cfg, seed):
        mean, sd = next(scores)
        return MmdEstimate(mean=mean, stddev=sd, repetitions=1,
                           bandwidth_used=1.0, sizes=(current.size, combined.size))

    return fn


def test_criterion_05_trace_fidelity(announce):
    failures = []

    # half one: the hand-scripted three-step run against the pure-step oracle
    script = [(0.50, 0.10), (0.55, 0.05), (0.45, 0.01)]
    initial = gaussian_set(GaussianSpec(k=2, seed=50), 10)
    source = stationary_provider(GaussianSpec(k=2, seed=51))
    cfg = SaturationConfig(early_stop=1, seed=0)
    _, trace = run_saturation(initial, source, source, cfg,
                              mmd_fn=scripted_estimates(script))
    if trace.reason is not StopReason.SATURATED or trace.iterations != 3:
        failures.append(f"hand trace ended {trace.reason} at {trace.iterations}")
    window, stop = (-1.0, -1.0), 0
    for step, (score, sd) in zip(trace.steps, script):
        window, new_stop = pure_step(window, stop, score, sd)
        if (step.range_min, step.range_max) != window or step.stop_condition != new_stop:
            failures.append(f"hand trace step {step.iteration} diverged")
        if step.in_window != (new_stop == stop + 1):
            failures.append(f"hand trace step {step.iteration} in_window wrong")
        stop = new_stop

    # half two: 200 random scripts, run_saturation against the pure-step oracle
    rng = np.random.default_rng(105)
    for case in range(200):
        length = int(rng.integers(1, 25))
        script = [
            (float(rng.uniform(0, 1)), float(rng.uniform(0, 0.25)))
            for _ in range(length)
        ]
        early = int(rng.integers(0, 4))
        initial = gaussian_set(GaussianSpec(k=2, seed=500 + case), 6)
        source = stationary_provider(GaussianSpec(k=2, seed=600 + case))
        cfg = SaturationConfig(early_stop=early, seed=case, max_iterations=length)
        _, trace = run_saturation(initial, source, source, cfg,
                                  mmd_fn=scripted_estimates(script))
        # the oracle's steps up to the first saturating one, exactly
        window, stop, replay = (-1.0, -1.0), 0, []
        for score, sd in script:
            window, new_stop = pure_step(window, stop, score, sd)
            replay.append((*window, new_stop, new_stop == stop + 1))
            stop = new_stop
            if stop > early:
                break
        got = [(s.range_min, s.range_max, s.stop_condition, s.in_window) for s in trace.steps]
        if got != replay:
            failures.append(f"case {case}: {len(got)} steps {got} != {len(replay)} {replay}")
        expected = StopReason.SATURATED if stop > early else StopReason.MAX_ITERATIONS
        if trace.reason is not expected:
            failures.append(f"case {case}: ended {trace.reason}, oracle {expected}")
    announce(5, "growth-loop trace matches the pure step", failures,
             "3-step hand trace + 200 random scripts")


def test_criterion_06_saturation_behavior(announce):
    failures = []
    start = time.perf_counter()

    saturated = sum(
        1 for reason, _, _ in stationary_default_runs()
        if reason is StopReason.SATURATED
    )
    if saturated < 95:
        failures.append(f"only {saturated}/100 stationary runs saturated")

    wins = 0
    for seed in range(100):
        initial = gaussian_set(GaussianSpec(seed=seed, **SOURCE_SPEC), 50)
        cfg = SaturationConfig(seed=seed, perc=0.2, mmd_repetitions=16,
                               max_iterations=30)
        stationary = stationary_provider(
            GaussianSpec(seed=10_000 + seed, **SOURCE_SPEC)
        )
        _, stat_trace = run_saturation(initial, stationary, stationary, cfg)
        drifting = SyntheticSource(
            GaussianSpec(seed=10_000 + seed, **SOURCE_SPEC),
            drift=(0.5, 0.0, 0.0, 0.0),
        )
        _, drift_trace = run_saturation(initial, drifting, drifting, cfg)
        if drift_trace.iterations > stat_trace.iterations:
            wins += 1
    if wins < 90:
        failures.append(f"drift ran longer in only {wins}/100 paired runs")
    elapsed = time.perf_counter() - start
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s >= 120s")
    announce(
        6, "stationary saturates, drift delays stopping", failures,
        f"saturated {saturated}/100, drift longer {wins}/100, {elapsed:.1f}s",
    )


def test_criterion_07_data_reduction(announce, run_cli, tmp_path):
    failures = []
    below_budget = sum(
        1 for _, _, final_size in stationary_default_runs() if final_size < 1000
    )
    if below_budget < 95:
        failures.append(f"only {below_budget}/100 runs stayed under 1000 items")
    sizes = [final_size for _, _, final_size in stationary_default_runs()]

    provider = quoted(
        sys.executable, "-m", "divsat", "synth-provider", "--role", "provider",
        "--k", 4, "--state", tmp_path / "prov.state",
    )
    embedder = quoted(
        sys.executable, "-m", "divsat", "synth-provider", "--role", "embedder",
        "--k", 4, "--sigma", 0.15, "--seed", 7,
    )
    code, stdout, stderr = run_cli(
        "saturate", "--init-count", 12, "--provider", provider,
        "--embedder", embedder, "--perc", 0.25, "--reps", 2,
        "--early-stop", 1, "--max-iter", 4, "--seed", 7,
        "--out", tmp_path / "final.jsonl", timeout=300,
    )
    if code != 0:
        failures.append(f"cli run failed: {stderr}")
    else:
        result = json.loads(stdout)["result"]
        if "savings_pct" not in result:
            failures.append("run report lacks savings_pct")
        else:
            expected = round(100.0 * (1.0 - result["final_size"] / 1000), 2)
            if result["savings_pct"] != expected:
                failures.append(f"savings_pct {result['savings_pct']} != {expected}")
    announce(
        7, "saturation stops well under the fixed budget", failures,
        f"{below_budget}/100 under 1000 items "
        f"(sizes {min(sizes)}..{max(sizes)}), report carries savings_pct",
    )


def confusion(tp, fp, fn, tn):
    verdicts, truth = [], {}
    index = 0
    for count, keep, relevant in (
        (tp, True, True), (fp, True, False), (fn, False, True), (tn, False, False)
    ):
        for _ in range(count):
            cid = f"i{index}"
            index += 1
            verdicts.append(FilterVerdict(id=cid, keep=keep))
            truth[cid] = relevant
    return evaluate_filter(verdicts, truth)


def test_criterion_08_precision_identity(announce):
    rng = np.random.default_rng(108)
    failures = []
    for i in range(300):
        tp, fp, fn, tn = (int(v) for v in rng.integers(0, 400, size=4))
        if tp + fp == 0:
            tp = 1
        metrics = confusion(tp, fp, fn, tn)
        expected = 100.0 * (1.0 - metrics.precision)
        if abs(metrics.pct_after - expected) > 1e-9:
            failures.append(f"counts {(tp, fp, fn, tn)}: pct_after off identity")
    gpt4 = confusion(9008, 992, 0, 0)
    if abs(gpt4.precision - 0.9008) > 1e-12 or abs(gpt4.pct_after - 9.92) > 0.01:
        failures.append(f"precision 90.08% gave pct_after {gpt4.pct_after}")
    gpt35 = confusion(7056, 2944, 0, 0)
    if abs(gpt35.pct_after - 29.44) > 0.01:
        failures.append(f"precision 70.56% gave pct_after {gpt35.pct_after}")
    announce(
        8, "kept-share identity pct_after = 100(1-precision)", failures,
        f"300 random counts; published rows -> {gpt4.pct_after}, {gpt35.pct_after}",
    )


class TruthfulJudge:
    def __init__(self, truth):
        self.truth = truth

    def judge(self, prompt):
        return "\n".join(
            f"{i + 1}. {'yes' if self.truth[item.id] else 'no'}"
            for i, item in enumerate(prompt.batch)
        )


def test_criterion_09_filter_round_trip(announce):
    rng = np.random.default_rng(109)
    failures = []
    sizes = [int(rng.integers(1, 11)) for _ in range(99)] + [25]
    for case, size in enumerate(sizes):
        captions = [
            CaptionItem(id=f"b{case}c{i}", caption=f"clip {case}-{i}", activity="walking")
            for i in range(size)
        ]
        truth = {item.id: bool(rng.integers(0, 2)) for item in captions}
        verdicts = run_filter("walking", captions, TruthfulJudge(truth))
        recovered = {v.id: v.keep for v in verdicts}
        if recovered != truth:
            failures.append(f"batch {case} (size {size}) misaligned")
        if [v.id for v in verdicts] != [c.id for c in captions]:
            failures.append(f"batch {case} order changed")
    chunks = [len(p.batch) for p in build_filter_prompts(
        "walking",
        [CaptionItem(id=f"x{i}", caption="c", activity="walking") for i in range(25)],
    )]
    if chunks != [10, 10, 5]:
        failures.append(f"25 captions chunked as {chunks}")
    announce(9, "judge protocol round-trips every verdict", failures,
             "100 batches incl. the 10/10/5 split")


def test_criterion_10_correlation(announce):
    rng = np.random.default_rng(110)
    failures = []
    worst = 0.0
    for i in range(1000):
        n = int(rng.integers(3, 50))
        xs = rng.standard_normal(n).tolist()
        ys = (np.asarray(xs) * rng.uniform(-2, 2) + rng.standard_normal(n)).tolist()
        impl = pearson_r(PairedSeries(xs, ys))
        oracle = brute_pearson(xs, ys)
        diff = abs(impl - oracle)
        worst = max(worst, diff)
        if diff > 1e-12:
            failures.append(f"pair {i}: |r - oracle| = {diff:.3g}")
    p_ref = pearson_p(0.5, 20)
    if abs(p_ref - 0.0249) > 1e-3:
        failures.append(f"p(0.5, 20) = {p_ref}")
    if abs(p_ref - quadrature_p(0.5, 20)) > 1e-9:
        failures.append("p(0.5, 20) disagrees with the quadrature oracle")
    xs = [1.0, 2.0, 3.0, 4.0]
    if pearson_r(PairedSeries(xs, [2 * v + 1 for v in xs])) != 1.0:
        failures.append("perfect positive correlation is not exactly 1")
    if pearson_r(PairedSeries(xs, [-v for v in xs])) != -1.0:
        failures.append("perfect negative correlation is not exactly -1")
    if pearson_p(1.0, 10) != 0.0 or pearson_p(-1.0, 10) != 0.0:
        failures.append("|r|=1 does not give p=0 exactly")
    if pearson_p(0.0, 10) != 1.0:
        failures.append("r=0 does not give p=1 exactly")
    announce(10, "correlation matches oracles and limits", failures,
             f"1000 pairs, max |dr| {worst:.2e}, p(0.5,20)={p_ref:.6f}")


def test_criterion_11_filtering_reduces_diversity(announce):
    spec = GaussianSpec(k=8, sigma=1.0, seed=111)
    before = gaussian_set(spec, 2000)
    centroid = before.vectors.mean(axis=0)
    radius = spec.sigma * math.sqrt(spec.k)
    keep = [
        record_id
        for record_id, row in zip(before.ids(), before.vectors)
        if float(np.linalg.norm(row - centroid)) <= radius
    ]
    after = subset(before, keep)
    report = diversity_impact(before, after)
    failures = []
    if not report.delta_std < 0:
        failures.append(f"delta_std {report.delta_std} not negative")
    if not report.delta_centroid < 0:
        failures.append(f"delta_centroid {report.delta_centroid} not negative")
    announce(
        11, "inner-radius filtering lowers both metrics", failures,
        f"kept {after.size}/2000, delta_std {report.delta_std:.4f}, "
        f"delta_centroid {report.delta_centroid:.4f}",
    )


def test_criterion_12_cli_determinism(announce, run_cli, tmp_path, stub_script, write_jsonl):
    failures = []
    rng = np.random.default_rng(112)

    square = write_jsonl("square.jsonl", [
        {"id": "a", "vector": [0.0, 0.0]},
        {"id": "b", "vector": [2.0, 0.0]},
        {"id": "c", "vector": [0.0, 2.0]},
        {"id": "d", "vector": [2.0, 2.0]},
    ])
    x_path = write_jsonl("x.jsonl", [
        {"id": f"x{i}", "vector": list(map(float, rng.standard_normal(3)))}
        for i in range(9)
    ])
    y_path = write_jsonl("y.jsonl", [
        {"id": f"y{i}", "vector": list(map(float, rng.standard_normal(3) + 0.5))}
        for i in range(6)
    ])
    wide = tmp_path / "wide.jsonl"
    narrow = tmp_path / "narrow.jsonl"
    run_cli("synth", "--k", 3, "--n", 60, "--sigma", 1.0, "--seed", 1, "--out", wide)
    run_cli("synth", "--k", 3, "--n", 60, "--sigma", 0.3, "--seed", 1, "--out", narrow)
    captions = write_jsonl("captions.jsonl", [
        {"id": f"c{i}", "caption": f"clip {i}", "activity": "walking"}
        for i in range(12)
    ])
    judge = stub_script(
        """\
        import json, sys
        prompt = json.load(sys.stdin)
        for i in range(len(prompt["captions"])):
            print(f"{i + 1}. {'yes' if i % 3 else 'no'}")
        """
    )
    verdict_path = write_jsonl("verdicts.jsonl", [
        {"id": f"c{i}", "keep": bool(i % 2)} for i in range(10)
    ])
    truth_path = write_jsonl("truth.jsonl", [
        {"id": f"c{i}", "relevant": bool(i % 3)} for i in range(10)
    ])
    nested = [[float(v) for v in rng.standard_normal(6)] for _ in range(3)]
    series = {}
    for name in ("text", "motion", "f1"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(
            [[v + float(rng.standard_normal()) * 0.3 for v in group] for group in nested]
        ))
        series[name] = path
    state = tmp_path / "sat.state"
    sat_out = tmp_path / "sat-final.jsonl"
    sat_trace = tmp_path / "sat-trace.jsonl"
    filter_out = tmp_path / "filter-verdicts.jsonl"
    synth_out = tmp_path / "synth-out.jsonl"
    provider = quoted(
        sys.executable, "-m", "divsat", "synth-provider", "--role", "provider",
        "--k", 4, "--state", state,
    )
    embedder = quoted(
        sys.executable, "-m", "divsat", "synth-provider", "--role", "embedder",
        "--k", 4, "--sigma", 0.15, "--seed", 5,
    )

    def reset_saturate():
        for path in (state, sat_out, sat_trace):
            path.unlink(missing_ok=True)

    def reset_filter():
        filter_out.unlink(missing_ok=True)

    # name -> (argv, raw stdout?, stdin, per-run reset, files whose bytes must match)
    cases = {
        "diversity": (("diversity", square), False, None, None, ()),
        "mmd": (("mmd", x_path, y_path, "--reps", 6, "--seed", 3), False, None, None, ()),
        "synth": (
            ("synth", "--k", 3, "--n", 40, "--seed", 9, "--out", synth_out),
            False, None, None, (synth_out,),
        ),
        "synth-provider(provider)": (
            ("synth-provider", "--role", "provider", "--k", 2, "--count", 4),
            True, None, None, (),
        ),
        "synth-provider(embedder)": (
            ("synth-provider", "--role", "embedder", "--k", 3, "--seed", 2),
            True, '{"id": "a", "text": "alpha"}\n{"id": "b", "text": "beta"}\n',
            None, (),
        ),
        "saturate": (
            ("saturate", "--init-count", 16, "--provider", provider,
             "--embedder", embedder, "--perc", 0.25, "--reps", 3,
             "--early-stop", 1, "--max-iter", 3, "--seed", 5,
             "--out", sat_out, "--trace", sat_trace),
            False, None, reset_saturate, (sat_out, sat_trace),
        ),
        "filter run": (
            ("filter", "run", "--activity", "walking", "--captions", captions,
             "--judge", quoted(*judge), "--out", filter_out),
            False, None, reset_filter, (filter_out,),
        ),
        "filter eval": (
            ("filter", "eval", "--verdicts", verdict_path, "--truth", truth_path),
            False, None, None, (),
        ),
        "correlate": (
            ("correlate", "--text", series["text"], "--motion", series["motion"],
             "--f1", series["f1"], "--fisher-z"),
            False, None, None, (),
        ),
        "impact": (("impact", wide, narrow), False, None, None, ()),
    }

    thread_envs = (
        {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"},
        {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"},
        {"OMP_NUM_THREADS": "4", "OPENBLAS_NUM_THREADS": "4", "MKL_NUM_THREADS": "4"},
    )
    for name, (argv, raw, stdin, reset, artifacts) in cases.items():
        observed = []
        for env in thread_envs:
            if reset:
                reset()
            code, stdout, stderr = run_cli(*argv, stdin=stdin, env=env, timeout=300)
            if code != 0:
                failures.append(f"{name}: exit {code}: {stderr.strip()[:100]}")
                break
            if raw:
                key = stdout
            else:
                payload = json.loads(stdout)
                payload.pop("duration_s")  # wall clock, excluded by contract
                key = json.dumps(payload, sort_keys=True)
            observed.append((key, tuple(p.read_bytes() for p in artifacts)))
        if len(set(observed)) > 1:
            failures.append(f"{name}: runs differ across repeats/thread counts")
    announce(
        12, "cli output is byte-stable across runs and threads", failures,
        f"{len(cases)} subcommands x 3 runs",
    )
