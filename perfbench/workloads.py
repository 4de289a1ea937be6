"""The benchmark's three workloads.

Each workload has an untraced unit of work, timed for the end-to-end
metrics, a traced in-process form that yields the per-layer metrics, and
correctness checks that any correct implementation passes. Every
operation (command, iteration, check) is counted in a Ledger.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import resource
import shlex
import shutil
import signal
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from divsat import (
    MEDIAN_HEURISTIC,
    EmbeddingSet,
    GaussianSpec,
    KernelConfig,
    SaturationConfig,
    aggregate_r,
    build_filter_prompts,
    correlation_report,
    diversity_impact,
    diversity_report,
    evaluate_filter,
    external_embedder,
    external_judge,
    external_provider,
    load_captions,
    load_set,
    load_truth,
    load_verdicts,
    median_heuristic,
    mmd,
    mmd_calculator,
    run_filter,
    run_saturation,
    stationary_provider,
    token_vector,
    write_set,
    write_trace,
    write_verdicts,
)

import inputs
import judge_stub
import refs
import stats
from spans import NullTracer, Tracer

ITERATION_LINE = re.compile(r"divsat\.saturation: iteration (\d+):")
SETUP_RUNS = 5
PROBE_REPEATS = 3
COMMANDS = ("diversity", "impact", "mmd", "filter_eval", "filter_run", "correlate")


class CheckFailed(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Ledger:
    """Operations attempted and failed; error_rate is failed / attempted."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"{name}: {detail}")
        return ok

    @contextlib.contextmanager
    def check(self, name: str):
        """One operation: fails if the block raises."""
        try:
            yield
        except Exception as exc:  # a failed check must not stop the run
            self.record(name, False, f"{type(exc).__name__}: {exc}")
        else:
            self.record(name, True)


@dataclass
class Context:
    root: Path
    work: Path
    env: dict
    seconds: float
    deadline: float  # time.monotonic() by which every child must be done
    p: dict
    python: str
    ledger: Ledger = field(default_factory=Ledger)
    inputs: Path | None = None
    child_rss_kb: int = 0
    tracer: Tracer | None = None  # the traced run's spans, written at the end

    def cli(self, *args) -> list[str]:
        return [self.python, "-m", "divsat", *map(str, args)]

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def fresh_dir(self, name: str) -> Path:
        path = self.work / name
        path.mkdir(parents=True)
        return path


@dataclass
class Child:
    returncode: int
    wall_s: float
    stdout: str
    stderr_lines: list[tuple[float, str]]


def run_child(ctx: Context, argv: list[str], name: str, count_rss: bool = True) -> Child:
    """Run one child to completion, one at a time, with its own peak RSS.

    stdout goes to a file and stderr lines are stamped as they arrive.
    os.wait4 reaps the child so its rusage covers it and the children it
    waited for. Only a child run with ``count_rss`` adds to peak_rss_mb;
    set-up children do not.
    """
    out_path = ctx.work / f"{name}.stdout"
    with open(out_path, "w", encoding="utf-8") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.PIPE,
            text=True, env=ctx.env, cwd=ctx.work, start_new_session=True,
        )
        timer = threading.Timer(max(1.0, ctx.remaining()), os.killpg,
                                (proc.pid, signal.SIGKILL))
        timer.start()
        lines: list[tuple[float, str]] = []
        reaped = False
        try:
            for line in proc.stderr:
                lines.append((time.perf_counter(), line))
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            reaped = True
        finally:
            timer.cancel()
            proc.stderr.close()
            if not reaped:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if count_rss:
        ctx.child_rss_kb = max(ctx.child_rss_kb, usage.ru_maxrss)
    return Child(proc.returncode, wall, out_path.read_text(encoding="utf-8"), lines)


def stderr_tail(child: Child) -> str:
    return " | ".join(line.strip() for _, line in child.stderr_lines[-3:])


def timed_setup(ctx: Context, workload: str, seed: int) -> float:
    """Median wall time of SETUP_RUNS fresh set-up processes; the last one's inputs are used.

    Set-up children are left out of peak_rss_mb.
    """
    warm = run_child(ctx, [ctx.python, "-c", "import divsat"], "warmup", count_rss=False)
    ctx.ledger.record("setup.warmup", warm.returncode == 0, stderr_tail(warm))
    script = str(ctx.root / "perfbench" / "inputs.py")
    walls: list[float] = []
    for r in range(SETUP_RUNS):
        out = ctx.work / f"inputs{r}"
        child = run_child(ctx, [ctx.python, script, "--workload", workload,
                                "--seed", str(seed), "--out", str(out)], f"setup{r}",
                          count_rss=False)
        if ctx.ledger.record("setup", child.returncode == 0, stderr_tail(child)):
            walls.append(child.wall_s)
            if ctx.inputs is not None:
                shutil.rmtree(ctx.inputs)
            ctx.inputs = out
    if not walls:
        raise RuntimeError("set-up failed: " + "; ".join(ctx.ledger.problems))
    return statistics.median(walls)


def self_peak_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def keep_running(ctx: Context, started: float, walls: list[float]) -> bool:
    """Another unit is expected to end within the window and the hard deadline."""
    if not walls:
        return True
    elapsed = time.perf_counter() - started
    typical = statistics.median(walls)
    return elapsed + typical <= ctx.seconds and ctx.remaining() > 2 * max(walls) + 5


# ---------------------------------------------------------------- MMD ----


def timed_mmd(tracer, a: EmbeddingSet, b: EmbeddingSet, kernel: KernelConfig,
              reps: int, seed: int, calls: list):
    """mmd_calculator, split into bandwidth and resampling spans when traced.

    Resolving the median heuristic first and passing it as a fixed
    bandwidth gives the same estimate bit for bit. A traced call is noted
    in ``calls``; add_mmd_counts turns the notes into the computed mmd.*
    counts once the timed work is over, so that work is in no span.
    """
    if not tracer.recording:
        return mmd_calculator(a, b, kernel, repetitions=reps, seed=seed)
    heuristic = kernel.bandwidth == MEDIAN_HEURISTIC
    with tracer.span("mmd.fn"):
        if heuristic:
            with tracer.span("mmd.bandwidth"):
                kernel = KernelConfig(bandwidth=median_heuristic(a, b))
        with tracer.span("mmd.resample"):
            estimate = mmd_calculator(a, b, kernel, repetitions=reps, seed=seed)
    calls.append((a, b, reps, heuristic))
    return estimate


def add_mmd_counts(tracer, calls: list) -> None:
    """The computed mmd.* counts of the noted calls, for the current run."""
    for a, b, reps, heuristic in calls:
        distinct = np.unique(np.vstack([a.vectors, b.vectors]), axis=0).shape[0]
        counts = stats.mmd_counts(a.size, b.size, reps, distinct, heuristic)
        tracer.add("mmd.kernel_entries", counts["kernel_entries"])
        tracer.add("mmd.useful_entries", counts["useful_entries"])
        tracer.peak("mmd.temp_bytes", counts["temp_bytes"])
    calls.clear()


def mmd_hook(tracer, calls: list):
    """The run_saturation ``mmd_fn`` hook, timed through timed_mmd."""
    def hook(current, combined, cfg, seed):
        return timed_mmd(tracer, current, combined, cfg.kernel, cfg.mmd_repetitions,
                         seed, calls)
    return hook


def check_mmd_reference(ctx: Context, k: int) -> None:
    """Every workload: divsat's MMD against the numpy V-statistic reference."""
    x, y = inputs.check_sets(ctx.p, k)
    xs = EmbeddingSet.from_array(x, id_prefix="x")
    ys = EmbeddingSet.from_array(y, id_prefix="y")
    bandwidth = refs.median_bandwidth(x, y)
    ledger = ctx.ledger
    with ledger.check("mmd.median_heuristic"):
        got = median_heuristic(xs, ys)
        expect(refs.close(got, bandwidth), f"{got} vs reference {bandwidth}")
    score = mmd(xs, ys)
    with ledger.check("mmd.v_statistic"):
        want = refs.mmd_v(x, y, bandwidth)
        expect(refs.close(score, want), f"{score} vs reference {want}")
        fixed = mmd(xs, ys, KernelConfig(bandwidth=1.5))
        want = refs.mmd_v(x, y, 1.5)
        expect(refs.close(fixed, want), f"bandwidth 1.5: {fixed} vs reference {want}")
    with ledger.check("mmd.symmetric"):
        expect(mmd(ys, xs) == score, "mmd(y, x) != mmd(x, y)")
    with ledger.check("mmd.nonnegative"):
        expect(score >= 0 and mmd(xs, xs) >= 0, "negative score")
    with ledger.check("mmd.calculator_equal_size"):
        est = mmd_calculator(xs, ys, repetitions=5, seed=ctx.p["check_seed"])
        expect(refs.close(est.mean, score) and est.stddev == 0.0,
               f"mmd_calculator {est.mean} +/- {est.stddev} vs mmd {score}")


# ---------------------------------------------------------- saturation ----


def saturation_config(p: dict, seed: int) -> SaturationConfig:
    # early_stop above the iteration cap: every run does exactly p["iters"]
    # iterations, so a change to stopping cannot shrink the work.
    return SaturationConfig(perc=p["perc"], early_stop=p["iters"] + 1,
                            mmd_repetitions=p["reps"], seed=seed,
                            max_iterations=p["iters"])


def check_trace_steps(ctx: Context, name: str, steps: list[dict], n0: int) -> None:
    """Iteration count, batch sizes and score ranges of one saturation trace."""
    sizes = [n0] + inputs.expected_sizes(n0, ctx.p["perc"], ctx.p["iters"])
    for i in range(ctx.p["iters"]):
        with ctx.ledger.check(f"{name}.iteration"):
            expect(i < len(steps), f"iteration {i + 1} missing")
            step = steps[i]
            expect(step["iteration"] == i + 1, f"step {i} is iteration {step['iteration']}")
            expect(step["batch_size"] == sizes[i + 1] - sizes[i],
                   f"batch {step['batch_size']}, expected {sizes[i + 1] - sizes[i]}")
            # normalized Gaussian-kernel MMD lies in [0, 2]
            expect(0.0 <= step["mmd_mean"] <= 2.0 and step["mmd_stddev"] >= 0.0,
                   f"score {step['mmd_mean']} +/- {step['mmd_stddev']}")
    with ctx.ledger.check(f"{name}.iterations"):
        expect(len(steps) == ctx.p["iters"], f"{len(steps)} iterations")


def iteration_durations(starts: list[float], end: float) -> list[float]:
    edges = starts + [end]
    return [b - a for a, b in zip(edges, edges[1:])]


class _Stamped:
    """Provider proxy that notes when each iteration asks for its batch."""

    def __init__(self, inner, stamps: list[float]):
        self._inner = inner
        self._stamps = stamps

    def next_batch(self, count, context=None):
        self._stamps.append(time.perf_counter())
        return self._inner.next_batch(count, context)


def spawn_commands(ctx: Context, unit: Path) -> tuple[str, str]:
    """synth-provider as both roles, each with a fresh --state file."""
    base = [ctx.python, "-m", "divsat", "synth-provider", "--k", str(ctx.p["k"])]
    provider = base + ["--role", "provider", "--state", str(unit / "provider.state")]
    embedder = base + ["--role", "embedder", "--seed", str(ctx.p["embed_seed"]),
                       "--state", str(unit / "embedder.state")]
    return shlex.join(provider), shlex.join(embedder)


def spawn_cli_unit(ctx: Context, tag: str) -> dict:
    p = ctx.p
    unit = ctx.fresh_dir(tag)
    provider, embedder = spawn_commands(ctx, unit)
    child = run_child(ctx, ctx.cli(
        "saturate", "--init-count", p["init"], "--provider", provider,
        "--embedder", embedder, "--reps", p["reps"], "--perc", p["perc"],
        "--early-stop", p["iters"] + 1, "--max-iter", p["iters"],
        "--seed", p["cli_seed"], "--out", unit / "final.jsonl",
        "--trace", unit / "trace.jsonl", "-vv",
    ), tag)
    report = None
    with ctx.ledger.check("saturate"):
        expect(child.returncode == 0, f"exit {child.returncode}: {stderr_tail(child)}")
        report = json.loads(child.stdout)
    # Iteration ends are the -vv log lines; the first iteration starts after
    # the bootstrap, which logs nothing, so a unit yields iters - 1 samples.
    ends = [t for t, line in child.stderr_lines if ITERATION_LINE.search(line)]
    return {"dir": unit, "ok": report is not None, "wall": child.wall_s,
            "iters": [b - a for a, b in zip(ends, ends[1:])], "report": report}


def spawn_inprocess_unit(ctx: Context, tag: str, tracer) -> dict:
    """The saturate command's steps, called in-process with the same commands."""
    p = ctx.p
    unit = ctx.fresh_dir(tag)
    provider_cmd, embedder_cmd = spawn_commands(ctx, unit)
    tracer.run_id = tag
    provider = tracer.wrap(external_provider(provider_cmd, ctx.remaining()),
                           "next_batch", "proc.provider")
    embedder = tracer.wrap(external_embedder(embedder_cmd, ctx.remaining()),
                           "embed", "proc.embedder")
    calls: list = []
    hook = mmd_hook(tracer, calls) if tracer.recording else None
    start = time.perf_counter()
    with ctx.ledger.check("saturate.inprocess"):
        with tracer.span("saturation.run"):
            final, trace = run_saturation(p["init"], provider, embedder,
                                          saturation_config(p, p["cli_seed"]), mmd_fn=hook)
        with tracer.span("embedset.write") as span:
            write_set(final, unit / "final.jsonl")
            span.count = final.size
        write_trace(trace, unit / "trace.jsonl")
        tracer.add("sat.iterations", trace.iterations)
        tracer.add("sat.final_n", final.size)
    wall = time.perf_counter() - start
    add_mmd_counts(tracer, calls)
    return {"dir": unit, "wall": wall}


def check_spawn_unit(ctx: Context, unit: dict) -> None:
    p = ctx.p
    name = "sat-spawn"
    final_size = inputs.expected_sizes(p["init"], p["perc"], p["iters"])[-1]
    report = unit.get("report")
    if report is not None:
        with ctx.ledger.check(f"{name}.report"):
            result = report["result"]
            expect(result["reason"] == "max_iterations", f"reason {result['reason']}")
            expect(result["iterations"] == p["iters"], f"{result['iterations']} iterations")
            expect(result["initial_size"] == p["init"], f"initial {result['initial_size']}")
            expect(result["final_size"] == final_size,
                   f"final {result['final_size']}, expected {final_size}")
    with ctx.ledger.check(f"{name}.output"):
        final = load_set(unit["dir"] / "final.jsonl")
        expect(final.size == final_size, f"{final.size} records, expected {final_size}")
        spec = GaussianSpec(k=p["k"], seed=p["embed_seed"])
        want = np.stack([token_vector(f"tok{i}", spec) for i in range(p["init"])])
        expect(list(final.ids()[:p["init"]]) == [str(i) for i in range(p["init"])],
               "bootstrap ids are not a prefix of the output")
        expect(np.array_equal(final.vectors[:p["init"]], want),
               "bootstrap vectors are not a prefix of the output")
    steps = []
    with ctx.ledger.check(f"{name}.trace_file"):
        text = (unit["dir"] / "trace.jsonl").read_text(encoding="utf-8")
        steps = [json.loads(line) for line in text.splitlines() if line.strip()]
    check_trace_steps(ctx, name, steps, p["init"])


def same_bytes(a: Path, b: Path) -> bool:
    return a.read_bytes() == b.read_bytes()


def check_identical_outputs(ctx: Context, name: str, first: dict, units: list[dict]) -> None:
    for unit in units:
        with ctx.ledger.check(name):
            for out in ("final.jsonl", "trace.jsonl"):
                expect(same_bytes(first["dir"] / out, unit["dir"] / out),
                       f"{unit['dir'].name}/{out} differs from {first['dir'].name}/{out}")


def kernel_initial_set(ctx: Context) -> EmbeddingSet:
    return EmbeddingSet.from_array(np.load(ctx.inputs / "initial.npy"), id_prefix="i")


def kernel_unit(ctx: Context, initial: EmbeddingSet, tag: str, tracer) -> dict:
    p = ctx.p
    source = stationary_provider(GaussianSpec(k=p["k"], seed=p["source_seed"]))
    stamps: list[float] = []
    tracer.run_id = tag
    provider = _Stamped(tracer.wrap(source, "next_batch", "synth.provider"), stamps)
    embedder = tracer.wrap(source, "embed", "synth.embed")
    calls: list = []
    hook = mmd_hook(tracer, calls) if tracer.recording else None
    start = time.perf_counter()
    with tracer.span("saturation.run"):
        final, trace = run_saturation(initial, provider, embedder,
                                      saturation_config(p, p["cfg_seed"]), mmd_fn=hook)
    end = time.perf_counter()
    add_mmd_counts(tracer, calls)
    tracer.add("sat.iterations", trace.iterations)
    tracer.add("sat.final_n", final.size)
    return {"wall": end - start, "iters": iteration_durations(stamps, end),
            "final": final, "trace": trace}


def check_kernel_unit(ctx: Context, initial: EmbeddingSet, unit: dict, first: dict) -> None:
    p = ctx.p
    final, trace = unit["final"], unit["trace"]
    with ctx.ledger.check("sat-kernel.output"):
        expect(trace.reason.value == "max_iterations", f"reason {trace.reason.value}")
        want = inputs.expected_sizes(p["n0"], p["perc"], p["iters"])[-1]
        expect(final.size == want, f"final size {final.size}, expected {want}")
        expect(final.ids()[:initial.size] == initial.ids()
               and np.array_equal(final.vectors[:initial.size], initial.vectors),
               "the initial set is not a prefix of the output")
    check_trace_steps(ctx, "sat-kernel", [s.to_json_dict() for s in trace.steps], p["n0"])
    if unit is not first:
        with ctx.ledger.check("sat-kernel.deterministic"):
            expect(trace.steps == first["trace"].steps and final == first["final"],
                   "a rerun with the same seed gave a different result")


# ------------------------------------------------------------ one-shot ----


def oneshot_paths(ctx: Context, out: Path) -> dict:
    d = ctx.inputs
    return {
        "big": d / "big.jsonl", "filtered": d / "filtered.jsonl",
        "x": d / "mmd_x.jsonl", "y": d / "mmd_y.jsonl",
        "verdicts": d / "verdicts.jsonl", "truth": d / "truth.jsonl",
        "captions": d / "captions.jsonl", "out": out,
        "text": d / "text.json", "motion": d / "motion.json", "f1": d / "f1.json",
        "judge": shlex.join([ctx.python, "-S",
                             str(ctx.root / "perfbench" / "judge_stub.py")]),
    }


def oneshot_cli_unit(ctx: Context, tag: str) -> dict:
    p = ctx.p
    unit = ctx.fresh_dir(tag)
    f = oneshot_paths(ctx, unit / "verdicts_out.jsonl")
    script = {
        "diversity": ("diversity", f["big"]),
        "impact": ("impact", f["big"], f["filtered"]),
        "mmd": ("mmd", f["x"], f["y"], "--reps", p["mmd_reps"], "--seed", p["mmd_seed"]),
        "filter_eval": ("filter", "eval", "--verdicts", f["verdicts"], "--truth", f["truth"]),
        "filter_run": ("filter", "run", "--activity", p["activity"], "--captions",
                       f["captions"], "--judge", f["judge"], "--out", f["out"]),
        "correlate": ("correlate", "--text", f["text"], "--motion", f["motion"],
                      "--f1", f["f1"], "--fisher-z"),
    }
    start = time.perf_counter()
    walls, results = {}, {}
    for name in COMMANDS:
        child = run_child(ctx, ctx.cli(*script[name]), f"{tag}-{name}")
        with ctx.ledger.check(f"cmd.{name}"):
            expect(child.returncode == 0, f"exit {child.returncode}: {stderr_tail(child)}")
            results[name] = json.loads(child.stdout)["result"]
            walls[name] = child.wall_s
    return {"wall": time.perf_counter() - start, "cmd": walls, "results": results,
            "verdicts": f["out"], "ok": len(walls) == len(COMMANDS)}


def score_dict(score) -> dict:
    return {"std_metric": score.std_metric, "centroid_metric": score.centroid_metric,
            "n": score.n, "k": score.k}


def oneshot_inprocess_unit(ctx: Context, tag: str, tracer) -> dict:
    """The public functions each one-shot command calls, in the same order."""
    p = ctx.p
    unit = ctx.fresh_dir(tag)
    f = oneshot_paths(ctx, unit / "verdicts_out.jsonl")
    tracer.run_id = tag
    results, items, calls = {}, [], []

    def load(path):
        with tracer.span("embedset.load") as span:
            loaded = load_set(path)
            span.count = loaded.size
        return loaded

    start = time.perf_counter()
    with ctx.ledger.check("oneshot.inprocess"):
        with tracer.span("cmd.diversity"):
            big = load(f["big"])
            with tracer.span("diversity.report"):
                results["diversity"] = score_dict(diversity_report(big))
        with tracer.span("cmd.impact"):
            before, after = load(f["big"]), load(f["filtered"])
            with tracer.span("analysis.impact"):
                impact = diversity_impact(before, after)
            results["impact"] = {"before": score_dict(impact.before),
                                 "after": score_dict(impact.after),
                                 "delta_std": impact.delta_std,
                                 "delta_centroid": impact.delta_centroid}
        with tracer.span("cmd.mmd"):
            x, y = load(f["x"]), load(f["y"])
            est = timed_mmd(tracer, x, y, KernelConfig(), p["mmd_reps"], p["mmd_seed"],
                            calls)
            results["mmd"] = {"mean": est.mean, "stddev": est.stddev,
                              "repetitions": est.repetitions,
                              "bandwidth_used": est.bandwidth_used,
                              "sizes": list(est.sizes), "normalized": True}
        with tracer.span("cmd.filter_eval"):
            with tracer.span("filter.eval"):
                m = evaluate_filter(load_verdicts(f["verdicts"]), load_truth(f["truth"]))
            results["filter_eval"] = {key: getattr(m, key) for key in (
                "tp", "fp", "fn", "tn", "total", "precision", "recall", "accuracy",
                "f1", "pct_before", "pct_after")}
        with tracer.span("cmd.filter_run"):
            items = [c for c in load_captions(f["captions"]) if c.activity == p["activity"]]
            judge = tracer.wrap(external_judge(f["judge"], ctx.remaining()),
                                "judge", "proc.judge")
            verdicts = run_filter(p["activity"], items, judge)
            write_verdicts(verdicts, f["out"])
            kept = sum(v.keep for v in verdicts)
            results["filter_run"] = {"total": len(verdicts), "kept": kept,
                                     "rejected": len(verdicts) - kept}
        with tracer.span("cmd.correlate"):
            series = [json.loads(f[name].read_text()) for name in ("text", "motion", "f1")]
            with tracer.span("analysis.correlate"):
                reports = [correlation_report(t, m_, f1) for t, m_, f1 in zip(*series)]
                aggregate = {
                    key: aggregate_r([getattr(r, key).r for r in reports], "fisher-z")
                    for key in ("text_vs_motion", "text_vs_f1", "motion_vs_f1")}
            results["correlate"] = {
                "per_activity": [
                    {key: {"r": getattr(r, key).r, "p": getattr(r, key).p,
                           "n": getattr(r, key).n}
                     for key in ("text_vs_motion", "text_vs_f1", "motion_vs_f1")}
                    for r in reports],
                "aggregate": {"method": "fisher-z", **aggregate}}
    wall = time.perf_counter() - start
    add_mmd_counts(tracer, calls)
    if tracer.recording and items:
        tracer.add("filter.prompts", len(build_filter_prompts(p["activity"], items)))
    return {"wall": wall, "results": results, "verdicts": f["out"],
            "ok": len(results) == len(COMMANDS)}


class OneshotReference:
    """Expected one-shot outputs, from the generated arrays."""

    def __init__(self, ctx: Context):
        data = inputs.oneshot_data(ctx.p)
        self.big = refs.diversity(data["big"])
        self.filtered = refs.diversity(data["big"][data["keep_rows"]])
        self.bandwidth = refs.median_bandwidth(data["mmd_x"], data["mmd_y"])
        self.confusion = refs.confusion(data["keep"], data["relevant"])
        self.captions = [c["id"] for c in data["captions"]
                         if c["activity"] == ctx.p["activity"]]
        self.series = (data["text"], data["motion"], data["f1"])


def check_diversity(got: dict, want: dict, what: str) -> None:
    expect(got["n"] == want["n"] and got["k"] == want["k"],
           f"{what}: n, k = {got['n']}, {got['k']}")
    for key in ("std_metric", "centroid_metric"):
        expect(refs.close(got[key], want[key]),
               f"{what}: {key} {got[key]} vs reference {want[key]}")


def check_oneshot_unit(ctx: Context, ref: OneshotReference, unit: dict, first: dict) -> None:
    ledger, res = ctx.ledger, unit["results"]
    with ledger.check("diversity.output"):
        check_diversity(res["diversity"], ref.big, "diversity")
    with ledger.check("impact.output"):
        imp = res["impact"]
        check_diversity(imp["before"], ref.big, "impact before")
        check_diversity(imp["after"], ref.filtered, "impact after")
        for key, metric in (("delta_std", "std_metric"), ("delta_centroid", "centroid_metric")):
            want = ref.filtered[metric] - ref.big[metric]
            scale = max(abs(ref.filtered[metric]), abs(ref.big[metric]))
            expect(refs.close(imp[key], want, abs_tol=refs.REL_TOL * scale),
                   f"{key} {imp[key]} vs reference {want}")
    with ledger.check("mmd.output"):
        m = res["mmd"]
        expect(m["sizes"] == [inputs.MMD_X, inputs.MMD_Y], f"sizes {m['sizes']}")
        expect(m["repetitions"] == ctx.p["mmd_reps"], f"repetitions {m['repetitions']}")
        expect(refs.close(m["bandwidth_used"], ref.bandwidth),
               f"bandwidth {m['bandwidth_used']} vs reference {ref.bandwidth}")
        expect(0.0 <= m["mean"] <= 2.0 and m["stddev"] >= 0.0,
               f"score {m['mean']} +/- {m['stddev']}")
        expect(m["mean"] == first["results"]["mmd"]["mean"],
               "a rerun with the same seed gave a different score")
    with ledger.check("filter_eval.output"):
        got, want = res["filter_eval"], ref.confusion
        for key in ("tp", "fp", "fn", "tn", "total"):
            expect(got[key] == want[key], f"{key} {got[key]} vs {want[key]}")
        for key in ("precision", "recall", "accuracy", "f1"):
            expect(refs.close(got[key], want[key]), f"{key} {got[key]} vs {want[key]}")
        for key in ("pct_before", "pct_after"):  # the CLI rounds these to 2 places
            expect(abs(got[key] - want[key]) <= 0.005 + 1e-9, f"{key} {got[key]} vs {want[key]}")
    with ledger.check("filter_run.output"):
        lines = unit["verdicts"].read_text(encoding="utf-8").splitlines()
        verdicts = [json.loads(line) for line in lines if line.strip()]
        expect([v["id"] for v in verdicts] == ref.captions, "verdict ids differ from captions")
        expect(all(v["keep"] == judge_stub.verdict(v["id"]) for v in verdicts),
               "a verdict differs from the judge's answer")
        kept = sum(judge_stub.verdict(i) for i in ref.captions)
        got = res["filter_run"]
        expect(got["total"] == len(ref.captions) and got["kept"] == kept,
               f"total {got['total']}, kept {got['kept']}")
    with ledger.check("correlate.output"):
        got = res["correlate"]
        pairs = {"text_vs_motion": (0, 1), "text_vs_f1": (0, 2), "motion_vs_f1": (1, 2)}
        expect(len(got["per_activity"]) == inputs.SERIES, "wrong number of series")
        for key, (a, b) in pairs.items():
            rs = []
            for i, entry in enumerate(got["per_activity"]):
                r = refs.pearson_r(ref.series[a][i], ref.series[b][i])
                rs.append(r)
                expect(refs.close(entry[key]["r"], r, abs_tol=1e-12),
                       f"{key}[{i}] r {entry[key]['r']} vs {r}")
                p_ref = refs.pearson_p(r, inputs.SERIES_LEN)
                expect(refs.close(entry[key]["p"], p_ref, abs_tol=1e-9),
                       f"{key}[{i}] p {entry[key]['p']} vs {p_ref}")
                expect(entry[key]["n"] == inputs.SERIES_LEN, f"{key}[{i}] n")
            agg = refs.fisher_z(rs)
            expect(refs.close(got["aggregate"][key], agg, abs_tol=1e-12),
                   f"aggregate {key} {got['aggregate'][key]} vs {agg}")
        expect(got["aggregate"]["method"] == "fisher-z", "aggregate method")


# ------------------------------------------------------------- layers ----


def cli_probes(ctx: Context) -> dict:
    """Start-up of a fresh CLI and cumulative import times of the package."""
    startup, imports = [], {"divsat": [], "scipy.special": [], "scipy.spatial": []}
    for r in range(PROBE_REPEATS):
        child = run_child(ctx, ctx.cli("--version"), f"probe-version{r}")
        if ctx.ledger.record("cli.version", child.returncode == 0, stderr_tail(child)):
            startup.append(child.wall_s)
        child = run_child(ctx, [ctx.python, "-X", "importtime", "-c", "import divsat"],
                          f"probe-import{r}")
        if ctx.ledger.record("cli.importtime", child.returncode == 0, stderr_tail(child)):
            seen = {}
            for _, line in child.stderr_lines:
                parts = line.split("|")
                if len(parts) == 3 and parts[1].strip().isdigit():
                    seen.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
            for module in imports:
                # a module that `import divsat` no longer loads costs nothing
                imports[module].append(seen.get(module, 0.0))
    out = {"cli.startup_s": statistics.median(startup) if startup else float("nan")}
    for module, values in imports.items():
        key = "import." + module.replace(".", "_") + "_s"
        out[key] = statistics.median(values) if values else float("nan")
    return out


def layer_metrics(tracer: Tracer, run_id: str, run_s: float) -> dict:
    """Per-layer metrics of one traced unit, from its spans and counters."""
    kids = tracer.children(run_id)
    spans = [s for group in kids.values() for s in group]
    counts = tracer.counts.get(run_id, {})

    def total(*names):
        return sum(s.duration for s in spans if s.name in names)

    def rows(name):
        return sum(s.count for s in spans if s.name == name)

    def per_s(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    index = {id(s): i for i, s in enumerate(tracer.spans)}
    sat_runs = [(s, kids.get(index[id(s)], [])) for s in spans if s.name == "saturation.run"]
    sat_self = sum(stats.self_time(s.start, s.end, [(c.start, c.end) for c in children])
                   for s, children in sat_runs)

    def within_sat(*names):
        return sum(c.duration for _, children in sat_runs for c in children
                   if c.name in names)
    proc = [s.duration for s in spans if s.name.startswith("proc.")]
    judge_calls = sum(1 for s in spans if s.name == "proc.judge")
    prompts = counts.get("filter.prompts", 0)
    mmd_s = total("mmd.bandwidth", "mmd.resample")
    entries = counts.get("mmd.kernel_entries", 0)
    return {
        "proc.calls": len(proc),
        "proc.call_p50_s": statistics.median(proc) if proc else 0.0,
        "proc.busy_s": sum(proc),
        "proc.busy_share": sum(proc) / run_s,
        "sat.iterations": counts.get("sat.iterations", 0),
        "sat.final_n": counts.get("sat.final_n", 0),
        "sat.provider_s": within_sat("synth.provider", "proc.provider"),
        "sat.embed_s": within_sat("synth.embed", "proc.embedder"),
        "sat.mmd_s": within_sat("mmd.fn"),
        "sat.self_s": sat_self,
        "mmd.calls": sum(1 for s in spans if s.name == "mmd.fn"),
        "mmd.bandwidth_s": total("mmd.bandwidth"),
        "mmd.resample_s": total("mmd.resample"),
        "mmd.kernel_entries": entries,
        "mmd.entries_per_s": per_s(entries, mmd_s),
        "mmd.useful_ratio": counts.get("mmd.useful_entries", 0) / entries if entries else 0.0,
        "mmd.temp_bytes": counts.get("mmd.temp_bytes", 0),
        "io.load_s": total("embedset.load"),
        "io.load_rows_per_s": per_s(rows("embedset.load"), total("embedset.load")),
        "io.write_s": total("embedset.write"),
        "io.write_rows_per_s": per_s(rows("embedset.write"), total("embedset.write")),
        "diversity.report_s": total("diversity.report"),
        "analysis.correlate_s": total("analysis.correlate"),
        "analysis.impact_s": total("analysis.impact"),
        "filter.prompts": prompts,
        "filter.judge_calls": judge_calls,
        "filter.attempts_per_prompt": judge_calls / prompts if prompts else 0.0,
        "filter.judge_s": total("proc.judge"),
        "filter.eval_s": total("filter.eval"),
    }


def median_metrics(dicts: list[dict]) -> dict:
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


# ---------------------------------------------------- workload runners ----


@dataclass
class Outcome:
    """What one run measured: end-to-end or per-layer figures plus extras."""

    metrics: dict
    display: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)


def e2e(ctx: Context, setup_s: float, walls: list[float], op_s: float,
        self_kb: int) -> dict:
    return {
        "setup_s": setup_s,
        "run_s": statistics.median(walls),
        "op_s": op_s,
        "peak_rss_mb": max(self_kb, ctx.child_rss_kb) / 1024.0,
    }


def rss_display(ctx: Context, self_kb: int) -> dict:
    """Which side sets peak_rss_mb: the harness itself or a workload child."""
    return {"peak_rss_self_mb": self_kb / 1024.0,
            "peak_rss_children_mb": ctx.child_rss_kb / 1024.0}


def sat_spawn(ctx: Context, setup_s: float, trace: bool) -> Outcome:
    check_mmd_reference(ctx, ctx.p["k"])
    if trace:
        return sat_spawn_traced(ctx)
    units: list[dict] = []
    started = time.perf_counter()
    while keep_running(ctx, started, [u["wall"] for u in units]):
        units.append(spawn_cli_unit(ctx, f"cli{len(units)}"))
    self_kb = self_peak_kb()
    good = [u for u in units if u["ok"]]
    if not good:
        raise RuntimeError("no saturate run succeeded")
    for unit in good:
        check_spawn_unit(ctx, unit)
    check_identical_outputs(ctx, "sat-spawn.rerun_identical", good[0], good[1:])
    with ctx.ledger.check("sat-spawn.iteration_stamps"):
        expect(all(len(u["iters"]) == ctx.p["iters"] - 1 for u in good),
               "the -vv log did not show one line per iteration")
    walls = [u["wall"] for u in good]
    iters = [d for u in good for d in u["iters"]]
    return Outcome(e2e(ctx, setup_s, walls, statistics.median(iters), self_kb),
                   display={"iter_p50_s": stats.summarize(iters),
                            **rss_display(ctx, self_kb)},
                   samples={"run_s": walls, "iter_s": iters})


def alternate(ctx: Context, untraced, traced,
              warm_up: bool = False) -> tuple[list[dict], list[dict]]:
    """Untraced and traced units in pairs until the window is used up.

    ``untraced`` and ``traced`` take a run tag. Pairs alternate which side
    runs first, so drift falls on both sides of trace.overhead_s; an
    optional untimed first unit lets allocator and page-cache warm-up
    finish before either side is timed.
    """
    if warm_up:
        untraced("warmup")
    plain, timed = [], []
    started = time.perf_counter()
    while keep_running(ctx, started, [u["wall"] for u in plain + timed]):
        pair = [(plain, untraced, "plain"), (timed, traced, "traced")]
        for units, run, name in pair if len(plain) % 2 == 0 else pair[::-1]:
            tag = f"{name}{len(units)}"
            units.append({**run(tag), "tag": tag})
    return plain, timed


def traced_outcome(tracer: Tracer, plain: list[dict], timed: list[dict],
                   probes: dict) -> Outcome:
    layers = median_metrics([layer_metrics(tracer, u["tag"], u["wall"]) for u in timed])
    overhead = statistics.median(u["wall"] for u in timed) - \
        statistics.median(u["wall"] for u in plain)
    return Outcome({**probes, **layers, "trace.overhead_s": overhead},
                   samples={"untraced_s": [u["wall"] for u in plain],
                            "traced_s": [u["wall"] for u in timed]})


def sat_spawn_traced(ctx: Context) -> Outcome:
    probes = cli_probes(ctx)
    tracer = Tracer()
    cli = spawn_cli_unit(ctx, "cli")
    plain, timed = alternate(
        ctx,
        lambda tag: spawn_inprocess_unit(ctx, tag, NullTracer()),
        lambda tag: spawn_inprocess_unit(ctx, tag, tracer))
    if cli["ok"]:
        check_spawn_unit(ctx, cli)
    for unit in plain + timed:
        check_spawn_unit(ctx, unit)
    # the traced in-process rerun must write what the untraced CLI wrote
    check_identical_outputs(ctx, "sat-spawn.traced_identical", cli, plain + timed)
    ctx.tracer = tracer
    return traced_outcome(tracer, plain, timed, probes)


def sat_kernel(ctx: Context, setup_s: float, trace: bool) -> Outcome:
    check_mmd_reference(ctx, ctx.p["k"])
    initial = kernel_initial_set(ctx)
    if trace:
        probes = cli_probes(ctx)
        tracer = Tracer()
        plain, timed = alternate(
            ctx,
            lambda tag: kernel_unit(ctx, initial, tag, NullTracer()),
            lambda tag: kernel_unit(ctx, initial, tag, tracer))
        for unit in plain + timed:
            check_kernel_unit(ctx, initial, unit, plain[0])
        ctx.tracer = tracer
        return traced_outcome(tracer, plain, timed, probes)
    units: list[dict] = []
    null = NullTracer()
    started = time.perf_counter()
    while keep_running(ctx, started, [u["wall"] for u in units]):
        units.append(kernel_unit(ctx, initial, f"unit{len(units)}", null))
    self_kb = self_peak_kb()
    for unit in units:
        ctx.ledger.record("run_saturation", True)
        check_kernel_unit(ctx, initial, unit, units[0])
    walls = [u["wall"] for u in units]
    iters = [d for u in units for d in u["iters"]]
    return Outcome(e2e(ctx, setup_s, walls, statistics.median(iters), self_kb),
                   display={"iter_p50_s": stats.summarize(iters),
                            **rss_display(ctx, self_kb)},
                   samples={"run_s": walls, "iter_s": iters})


def oneshot_cli(ctx: Context, setup_s: float, trace: bool) -> Outcome:
    check_mmd_reference(ctx, inputs.BIG_K)
    if trace:
        probes = cli_probes(ctx)
        tracer = Tracer()
        # the first in-process pass over 20k records grows the allocator's
        # arenas; later passes reuse them, so it is run once untimed
        plain, timed = alternate(
            ctx,
            lambda tag: oneshot_inprocess_unit(ctx, tag, NullTracer()),
            lambda tag: oneshot_inprocess_unit(ctx, tag, tracer), warm_up=True)
        ref = OneshotReference(ctx)
        for unit in plain + timed:
            if unit["ok"]:
                check_oneshot_unit(ctx, ref, unit, plain[0])
        ctx.tracer = tracer
        return traced_outcome(tracer, plain, timed, probes)
    units: list[dict] = []
    started = time.perf_counter()
    while keep_running(ctx, started, [u["wall"] for u in units]):
        units.append(oneshot_cli_unit(ctx, f"script{len(units)}"))
    self_kb = self_peak_kb()
    good = [u for u in units if u["ok"]]
    if not good:
        raise RuntimeError("no one-shot script completed")
    ref = OneshotReference(ctx)
    for unit in good:
        check_oneshot_unit(ctx, ref, unit, good[0])
    cmd = {name: [u["cmd"][name] for u in good] for name in COMMANDS}
    walls = [u["wall"] for u in good]
    display = {f"cmd.{name}_s": stats.summarize(v) for name, v in cmd.items()}
    display.update(rss_display(ctx, self_kb))
    # a typical command: the geometric mean of the six per-command medians
    op_s = statistics.geometric_mean(statistics.median(v) for v in cmd.values())
    return Outcome(e2e(ctx, setup_s, walls, op_s, self_kb),
                   display=display, samples={"run_s": walls, **cmd})


RUNNERS = {"sat-spawn": sat_spawn, "sat-kernel": sat_kernel, "oneshot-cli": oneshot_cli}
