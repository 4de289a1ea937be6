"""divsat benchmark: one workload, end-to-end or per-layer figures.

    python3 perfbench/run.py --workload sat-kernel --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Children run with this interpreter and
with PYTHONPATH at the checkout's src, so the code under test is the
checkout's. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones. Lines before it
repeat every figure by name with its unit. Details, samples and (traced)
spans go to perfbench/.results/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import sys
import time
from pathlib import Path

from stats import describe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sat-spawn", "sat-kernel", "oneshot-cli")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MAX_THREADS = 2
# children are killed past this point so the run ends within 180 s
HARD_LIMIT_S = 165.0

END_TO_END = {"setup_s": "s", "run_s": "s", "op_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.startup_s": "s",
    "import.divsat_s": "s",
    "import.scipy_special_s": "s",
    "import.scipy_spatial_s": "s",
    "proc.calls": "count",
    "proc.call_p50_s": "s",
    "proc.busy_s": "s",
    "proc.busy_share": "ratio",
    "sat.iterations": "count",
    "sat.final_n": "count",
    "sat.provider_s": "s",
    "sat.embed_s": "s",
    "sat.mmd_s": "s",
    "sat.self_s": "s",
    "mmd.calls": "count",
    "mmd.bandwidth_s": "s",
    "mmd.resample_s": "s",
    "mmd.kernel_entries": "count",
    "mmd.entries_per_s": "1/s",
    "mmd.useful_ratio": "ratio",
    "mmd.temp_bytes": "bytes",
    "io.load_s": "s",
    "io.load_rows_per_s": "rows/s",
    "io.write_s": "s",
    "io.write_rows_per_s": "rows/s",
    "diversity.report_s": "s",
    "analysis.correlate_s": "s",
    "analysis.impact_s": "s",
    "filter.prompts": "count",
    "filter.judge_calls": "count",
    "filter.attempts_per_prompt": "ratio",
    "filter.judge_s": "s",
    "filter.eval_s": "s",
    "trace.overhead_s": "s",
}
# computed from input sizes, not measured
COMPUTED = {"mmd.kernel_entries", "mmd.useful_ratio", "mmd.temp_bytes"}
SAT_ONLY = ("sat-spawn", "sat-kernel")
COMMAND_METRICS = ("cmd.diversity_s", "cmd.impact_s", "cmd.mmd_s",
                   "cmd.filter_run_s", "cmd.filter_eval_s", "cmd.correlate_s")


def machine(threads: int) -> dict:
    import numpy
    import scipy

    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def pinned_env(src: Path) -> int:
    """Pin BLAS threads for this process and its children; point them at src."""
    threads = min(len(os.sched_getaffinity(0)), MAX_THREADS)
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(src) + (os.pathsep + old if old else "")
    sys.path.insert(0, str(src))
    return threads


def finite(value):
    return value if isinstance(value, int) or math.isfinite(value) else None


def print_e2e(workload: str, outcome, ledger) -> None:
    m = outcome.metrics
    print(f"  setup_s       {m['setup_s']:.4f} s  (median of fresh set-up processes)")
    print(f"  run_s         {m['run_s']:.4f} s  (median of {len(outcome.samples['run_s'])} units)")
    if workload in SAT_ONLY:
        print(f"  iter_p50_s    {describe(outcome.display['iter_p50_s'], 's')}")
    else:
        print("  iter_p50_s    n/a (saturation workloads only)")
    print(f"  peak_rss_mb   {m['peak_rss_mb']:.1f} MB  (harness "
          f"{outcome.display['peak_rss_self_mb']:.1f} MB, workload children "
          f"{outcome.display['peak_rss_children_mb']:.1f} MB)")
    rate = ledger.failed / ledger.attempted
    print(f"  error_rate    {rate:g}  ({ledger.failed} of {ledger.attempted} operations)")
    for name in COMMAND_METRICS:
        if name in outcome.display:
            print(f"  {name:<17} {describe(outcome.display[name], 's')}")
        else:
            print(f"  {name:<17} n/a (oneshot-cli only)")
    print(f"  op_s          {m['op_s']:.4f} s  (typical operation: iter_p50_s on saturation "
          "workloads, geometric mean of the cmd.* medians on oneshot-cli)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    src = ROOT / "src"
    if not (src / "divsat" / "__init__.py").is_file():
        print(f"perfbench: no divsat sources under {src}; run from a checkout",
              file=sys.stderr)
        return 2
    threads = pinned_env(src)
    import inputs
    import workloads

    work = HERE / ".work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = workloads.Context(
        root=ROOT, work=work, env=dict(os.environ), seconds=args.seconds,
        deadline=started + HARD_LIMIT_S, p=inputs.params(args.workload, args.seed),
        python=sys.executable,
    )
    try:
        setup_s = workloads.timed_setup(ctx, args.workload, args.seed)
        outcome = workloads.RUNNERS[args.workload](ctx, setup_s, bool(args.trace))
    except Exception as exc:  # report and fail without a result line
        print(f"perfbench: {args.workload} failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        for problem in ctx.ledger.problems[:20]:
            print(f"  {problem}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ledger = ctx.ledger
    info = machine(threads)
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": finite(outcome.metrics[name]), "unit": unit}
               for name, unit in units.items()}
    correct = ledger.failed == 0 and all(m["value"] is not None for m in metrics.values())

    results = HERE / ".results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": info, "params": ctx.p,
              "metrics": metrics, "display": outcome.display,
              "samples": outcome.samples, "attempted": ledger.attempted,
              "failed": ledger.failed, "problems": ledger.problems}
    (results / f"{stem}.json").write_text(json.dumps(detail, indent=1, sort_keys=True))
    if ctx.tracer is not None:
        ctx.tracer.write(results / f"{stem}-spans.jsonl")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("  " + ", ".join(f"{k}={v}" for k, v in info.items()))
    if args.trace:
        for name, unit in PER_LAYER.items():
            note = "  (computed from sizes)" if name in COMPUTED else ""
            print(f"  {name:<27} {outcome.metrics[name]:.6g} {unit}{note}")
        print(f"  error_rate    {ledger.failed / ledger.attempted:g}  "
              f"({ledger.failed} of {ledger.attempted} operations)")
    else:
        print_e2e(args.workload, outcome, ledger)
    for problem in ledger.problems[:20]:
        print(f"  FAILED {problem}")
    print(f"  details: {(results / stem).relative_to(ROOT)}.json")
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
