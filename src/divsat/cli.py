"""Command-line interface.

One binary, subcommand per capability, JSON reports on stdout with
lexicographically sorted keys so outputs diff cleanly. Domain failures
exit 1 with ``{"error": {"code", "message"}}`` on stderr; flag and usage
problems exit 2. A subcommand takes only the shared flags it reads, and
any other is a usage error: every subcommand that prints a report takes
``--format``, the ones that run external commands (saturate, filter run)
take ``--timeout``, and saturate alone, the one that logs, takes ``-v``.
Every stochastic subcommand takes ``--seed`` (default 0), so its output
bytes depend on its command line and input files alone. Within
synth-provider, each role refuses the flags only the other reads, so the
provider role takes no ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import TYPE_CHECKING

from . import (
    __version__, _bandwidth, _count, _fraction, _positive, _positive_int, _seconds, _vector,
)
from .errors import (
    DivsatError,
    IoError,
    MalformedLine,
    NonFiniteValue,
    SizeMismatch,
    SpawnError,
    UsageError,
)

if TYPE_CHECKING:
    from .diversity import DiversityScore
    from .kernel import KernelConfig

# Each handler imports the divsat modules it runs, and the standard modules
# only some handlers use (dataclasses), so a process pays only for its
# subcommand: --version, usage errors, filter run and eval and the
# synth-provider provider role start without numpy.


def _checked(cast, rule):
    """An argparse type: ``cast`` the flag's text, then apply the library's ``rule``.

    A failure is a usage error naming the flag, raised while the command
    line is parsed, so before any file is read or child started.
    """

    def convert(text: str):
        try:
            return rule("value", cast(text))
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be {rule.what}, got {text!r}") from None

    return convert


_POSITIVE_INT = _checked(int, _positive_int)
_COUNT = _checked(int, _count)
_POSITIVE = _checked(float, _positive)
_BANDWIDTH = _checked(float, _bandwidth)
_FRACTION = _checked(float, _fraction)
_TIMEOUT = _checked(float, _seconds)


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that a failed write of help or version text to stdout
    raises, as a report's does, for ``main`` to report; argparse would drop it."""

    def _print_message(self, message: str, file=None) -> None:
        if message and file is not None and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def _flag(*names: str, **kwargs) -> argparse.ArgumentParser:
    """A parent parser declaring one shared flag, for the subcommands that read it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **kwargs)
    return parent


def _add_kernel_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--bandwidth", type=_BANDWIDTH, default=None,
                        help="Gaussian kernel bandwidth; left out, the median heuristic picks it")


def build_parser() -> argparse.ArgumentParser:
    fmt = _flag("--format", choices=("json", "pretty"), default="json",
                help="report format (default json)")
    seed = _flag("--seed", type=int, default=0, help="RNG seed (default 0)")
    timeout = _flag("--timeout", type=_TIMEOUT, default=300.0,
                    help="seconds allowed per external command (default 300)")
    verbose = _flag("-v", "--verbose", action="store_true",
                    help="log progress to stderr: one line per saturation iteration")
    parser = _Parser(
        prog="divsat",
        description="Diversity metrics, saturation detection, and filter "
                    "evaluation for embedding-vector pipelines.",
    )
    parser.add_argument("--version", action="version", version=f"divsat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")

    p = sub.add_parser("diversity", parents=[fmt],
                       help="absolute diversity metrics of one embedding set")
    p.add_argument("set", help="embedding JSONL file")
    p.set_defaults(handler=cmd_diversity)

    p = sub.add_parser("mmd", parents=[fmt, seed],
                       help="comparative diversity between two embedding sets")
    p.add_argument("x", help="first embedding JSONL file")
    p.add_argument("y", help="second embedding JSONL file")
    _add_kernel_flags(p)
    p.add_argument("--reps", type=_POSITIVE_INT, default=None,
                   help="resampling repetitions; required when sizes differ")
    p.add_argument("--unnormalized", action="store_true",
                   help="report raw kernel sums instead of dividing by N^2")
    p.set_defaults(handler=cmd_mmd)

    p = sub.add_parser("saturate", parents=[fmt, seed, timeout, verbose],
                       help="grow a set until comparative diversity saturates")
    init = p.add_mutually_exclusive_group(required=True)
    init.add_argument("--init", help="initial embedding JSONL file")
    init.add_argument("--init-count", type=_POSITIVE_INT,
                      help="bootstrap this many items from the provider instead")
    p.add_argument("--provider", required=True,
                   help="command emitting {\"text\": ...} JSONL, given --count N")
    p.add_argument("--embedder", required=True,
                   help="command mapping {\"id\",\"text\"} JSONL on stdin to embedding JSONL")
    p.add_argument("--perc", type=_FRACTION, default=0.05,
                   help="batch size as a fraction of the current set (default 0.05)")
    p.add_argument("--early-stop", type=_COUNT, default=5,
                   help="consecutive in-window scores beyond the first needed to stop (default 5)")
    p.add_argument("--reps", type=_POSITIVE_INT, default=10,
                   help="MMD resampling repetitions per iteration (default 10)")
    p.add_argument("--max-iter", type=_POSITIVE_INT, default=1000,
                   help="iteration cap (default 1000)")
    p.add_argument("--fixed-batch", action="store_true",
                   help="size batches from the initial set instead of the growing one")
    _add_kernel_flags(p)
    p.add_argument("--activity", default=None,
                   help="passed through to the provider as --activity")
    p.add_argument("--baseline", type=_POSITIVE_INT, default=1000,
                   help="reference set size for the savings percentage (default 1000)")
    p.add_argument("--out", required=True, help="where to write the final set")
    p.add_argument("--trace", default=None, help="where to write the per-iteration trace")
    p.set_defaults(handler=cmd_saturate)

    p = sub.add_parser("synth", parents=[fmt, seed],
                       help="write a seeded synthetic Gaussian embedding set")
    p.add_argument("--k", type=_POSITIVE_INT, required=True, help="embedding dimension")
    p.add_argument("--n", type=_POSITIVE_INT, required=True, help="number of records")
    p.add_argument("--sigma", type=_POSITIVE, default=1.0, help="per-axis stddev (default 1)")
    p.add_argument("--mean-shift", default=None,
                   help="mean vector: one float broadcast to all axes, or k comma-separated floats")
    p.add_argument("--out", required=True, help="where to write the set")
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("synth-provider",
                       help="synthetic source speaking the provider/embedder wire contracts")
    p.add_argument("--role", choices=("provider", "embedder"), required=True)
    p.add_argument("--k", type=_POSITIVE_INT, required=True, help="embedding dimension")
    p.add_argument("--seed", type=int, default=None, help="embedder role: RNG seed (default 0)")
    p.add_argument("--sigma", type=_POSITIVE, default=None,
                   help="embedder role: per-axis stddev (default 1)")
    p.add_argument("--mean", default=None,
                   help="embedder role: mean vector, same syntax as synth --mean-shift")
    p.add_argument("--drift", default=None,
                   help="embedder role, with --state only: per-call mean drift vector")
    p.add_argument("--state", default=None,
                   help="counter file persisting progress across invocations")
    p.add_argument("--limit", type=_COUNT, default=None,
                   help="provider role: total item budget; the provider exhausts past it")
    p.add_argument("--count", type=_COUNT, default=None,
                   help="provider role (appended by the caller): batch size")
    p.add_argument("--activity", default=None,
                   help="provider role (appended by the caller): accepted and ignored")
    p.set_defaults(handler=cmd_synth_provider)

    p = sub.add_parser("filter", help="judge captions for relevance, or score past verdicts")
    filter_sub = p.add_subparsers(dest="filter_command", required=True, metavar="ACTION")

    pr = filter_sub.add_parser("run", parents=[fmt, timeout], help="judge captions")
    pr.add_argument("--activity", required=True, help="activity the captions must describe")
    pr.add_argument("--captions", required=True, help="caption JSONL file")
    pr.add_argument("--judge", required=True,
                    help="command receiving prompt JSON on stdin, answering yes/no lines")
    pr.add_argument("--retries", type=_COUNT, default=2,
                    help="re-queries allowed for an unparseable batch (default 2)")
    pr.add_argument("--out", required=True, help="where to write verdict JSONL")
    pr.set_defaults(handler=cmd_filter_run)

    pe = filter_sub.add_parser("eval", parents=[fmt],
                               help="confusion metrics for saved verdicts")
    pe.add_argument("--verdicts", required=True, help="verdict JSONL file")
    pe.add_argument("--truth", required=True, help="ground-truth JSONL file")
    pe.set_defaults(handler=cmd_filter_eval)

    p = sub.add_parser("correlate", parents=[fmt],
                       help="pairwise correlations between three aligned series")
    p.add_argument("--text", required=True, help="JSON array (or array of arrays) of numbers")
    p.add_argument("--motion", required=True, help="JSON array (or array of arrays) of numbers")
    p.add_argument("--f1", required=True, help="JSON array (or array of arrays) of numbers")
    p.add_argument("--fisher-z", action="store_true",
                   help="nested input only: aggregate with Fisher-z averaging, not the raw mean")
    p.set_defaults(handler=cmd_correlate)

    p = sub.add_parser("impact", parents=[fmt],
                       help="diversity change between two embedding sets")
    p.add_argument("before", help="embedding JSONL file before filtering")
    p.add_argument("after", help="embedding JSONL file after filtering")
    p.set_defaults(handler=cmd_impact)

    return parser


def _kernel_from_args(args: argparse.Namespace) -> KernelConfig:
    from .kernel import KernelConfig

    return KernelConfig() if args.bandwidth is None else KernelConfig(bandwidth=args.bandwidth)


def _parse_vector(raw: str | None, k: int, flag: str) -> tuple[float, ...] | None:
    """The flag's comma-separated numbers, a single one repeated k times, by the vector rule."""
    if raw is None:
        return None
    try:
        parts = [float(p) for p in raw.split(",")]
        return _vector(flag, parts * k if len(parts) == 1 else parts, k)
    except ValueError:
        raise UsageError(f"{flag} must be 1 or {k} comma-separated finite numbers, "
                         f"got {raw!r}") from None


def _score_dict(score: DiversityScore) -> dict:
    return {
        "std_metric": score.std_metric,
        "centroid_metric": score.centroid_metric,
        "centroid": [float(v) for v in score.centroid],
        "n": score.n,
        "k": score.k,
        "axis_means": [float(v) for v in score.axis.means],
        "axis_stddevs": [float(v) for v in score.axis.stddevs],
    }


# subcommand handlers; each returns the deterministic result payload, or None
# when it wrote its own wire-contract output


def cmd_diversity(args: argparse.Namespace) -> dict:
    from .diversity import diversity_report
    from .embedset import load_set

    return _score_dict(diversity_report(load_set(args.set)))


def cmd_mmd(args: argparse.Namespace) -> dict:
    from dataclasses import asdict

    from .embedset import load_set
    from .kernel import mmd_calculator

    kernel = _kernel_from_args(args)
    x = load_set(args.x)
    y = load_set(args.y)
    if x.size != y.size and args.reps is None:
        raise SizeMismatch(
            f"sets have sizes {x.size} and {y.size}; pass --reps R to use the "
            "mmd_calculator resampling estimator on unequal sizes"
        )
    est = mmd_calculator(
        x, y, kernel,
        repetitions=args.reps if args.reps is not None else 1,
        seed=args.seed,
        normalized=not args.unnormalized,
    )
    return {**asdict(est), "normalized": not args.unnormalized}


def _external(factory, command: str, flag: str, timeout: float):
    """Wrap the command given to ``flag``; one that cannot be run at all is a usage error."""
    try:
        return factory(command, timeout=timeout)
    except SpawnError as exc:
        raise UsageError(f"{flag}: {exc}") from None


def _check_writable(path: str, flag: str) -> None:
    """Fail before any work when ``path`` cannot be written; create and truncate nothing."""
    folder = os.path.dirname(path) or "."
    if os.path.exists(path):
        ok = not os.path.isdir(path) and os.access(path, os.W_OK)
    else:  # "" does not exist, and names no file in "."
        ok = path != "" and os.path.isdir(folder) and os.access(folder, os.W_OK)
    if not ok:
        raise IoError(f"{flag}: cannot write {path!r}: "
                      "empty, a directory, or not in a writable one")


def cmd_saturate(args: argparse.Namespace) -> dict:
    from .embedset import load_set, write_set
    from .saturation import (
        SaturationConfig,
        _write_steps,
        external_embedder,
        external_provider,
        run_saturation,
    )

    sat_cfg = SaturationConfig(
        perc=args.perc,
        early_stop=args.early_stop,
        mmd_repetitions=args.reps,
        kernel=_kernel_from_args(args),
        seed=args.seed,
        max_iterations=args.max_iter,
        fixed_batch=args.fixed_batch,
    )
    provider = _external(external_provider, args.provider, "--provider", args.timeout)
    embedder = _external(external_embedder, args.embedder, "--embedder", args.timeout)
    for flag, other in (("--out", args.out), ("--init", args.init)):
        if (args.trace is not None and other
                and os.path.realpath(args.trace) == os.path.realpath(other)):
            raise UsageError(f"{flag} and --trace name the same file {other!r}")
    initial = load_set(args.init) if args.init is not None else args.init_count
    _check_writable(args.out, "--out")
    if args.trace is not None:
        _check_writable(args.trace, "--trace")
    context = {"activity": args.activity} if args.activity else None
    try:
        final, trace = run_saturation(
            initial, provider, embedder, sat_cfg, context=context
        )
        failure, steps = None, trace.steps
    except DivsatError as exc:
        # any domain failure keeps the iterations completed so far
        if exc.partial_set is None:
            raise
        failure, final, steps = exc, exc.partial_set, exc.trace_steps
    write_set(final, args.out)
    if args.trace is not None:
        _write_steps(steps, args.trace)
    if failure is not None:
        raise failure
    savings = 100.0 * (1.0 - final.size / args.baseline)
    return {
        "reason": trace.reason.value,
        "iterations": trace.iterations,
        # the initial set is a prefix of the final one, however short a bootstrap came back
        "initial_size": final.size - sum(step.batch_size for step in steps),
        "final_size": final.size,
        "baseline": args.baseline,
        "savings_pct": round(savings, 2),
        "out": args.out,
        "trace": args.trace,
    }


def cmd_synth(args: argparse.Namespace) -> dict:
    from .embedset import write_set
    from .synth import GaussianSpec, gaussian_set

    mean = _parse_vector(args.mean_shift, args.k, "--mean-shift")
    spec = GaussianSpec(k=args.k, sigma=args.sigma, mean=mean, seed=args.seed)
    embeddings = gaussian_set(spec, args.n)
    write_set(embeddings, args.out)
    return {
        "n": args.n,
        "k": args.k,
        "sigma": args.sigma,
        "mean": list(spec.mean),
        "seed": args.seed,
        "out": args.out,
    }


def _bump_state(path: str | None, amount: int) -> int:
    """Read the persisted counter, advance it by ``amount``, return the old value.

    No file counts as 0. Content that is not a non-negative integer is a
    usage error; a file that cannot be read or written is an IoError.
    """
    if path is None:
        return 0
    try:
        content = ""
        if os.path.exists(path):
            with open(path, "rb") as fh:
                # bytes that are not UTF-8 become "\x.." text, which int() rejects
                content = fh.read().decode("utf-8", "backslashreplace").strip()
        try:
            base = int(content or 0)
        except ValueError:
            base = -1
        if base < 0:
            raise UsageError(f"state file {path!r} is corrupt: {content!r}")
        # the new text is made before the file is opened, which truncates it
        try:
            text = str(base + amount)
        except ValueError:  # past the interpreter's limit on the digits of an int
            raise UsageError(f"state file {path!r} counts past {len(content)} digits") from None
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(str(exc)) from None
    return base


# the synth-provider flags that only the other role reads
_FOREIGN_FLAGS = {"provider": ("seed", "sigma", "mean", "drift"),
                  "embedder": ("count", "limit", "activity")}


def _refuse_foreign_flags(args: argparse.Namespace) -> None:
    """Refuse a synth-provider flag its role does not read, then drop them all.

    Every role flag defaults to None, so a typed value is refused even when
    it equals the default the other role applies (``--seed 0``).
    """
    for name in _FOREIGN_FLAGS[args.role]:
        if getattr(args, name) is not None:
            raise UsageError(f"the {args.role} role does not take --{name}")
        delattr(args, name)


def cmd_synth_provider(args: argparse.Namespace) -> None:
    """Write the role's wire lines to stdout, or none of them on a failure."""
    if args.role == "provider":
        if args.count is None:
            raise UsageError("the provider role needs --count")
        base = _bump_state(args.state, args.count)
        count = args.count
        if args.limit is not None:
            count = max(0, min(count, args.limit - base))
        sys.stdout.writelines(json.dumps({"text": f"tok{base + i}"}) + "\n" for i in range(count))
        return
    # embedder role: one call embeds one batch; the persisted counter says
    # how many batches came before, which positions the drifting mean
    if args.drift is not None and args.state is None:
        raise UsageError("--drift needs --state, which counts the calls it scales by")
    mean = _parse_vector(args.mean, args.k, "--mean")
    drift = _parse_vector(args.drift, args.k, "--drift")
    from ._proc import json_objects, split_lines
    from .embedset import _row_json
    from .rng import make_rng
    from .synth import GaussianSpec, token_vector

    sigma = 1.0 if args.sigma is None else args.sigma
    seed = 0 if args.seed is None else args.seed
    spec = GaussianSpec(k=args.k, sigma=sigma, mean=mean, seed=seed)
    # numpy.random loads with the first generator: build one before the batch
    # arrives, so a child started ahead has done it by then
    make_rng(spec.seed)
    try:
        text = sys.stdin.buffer.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedLine(f"stdin is not valid UTF-8: {exc}") from None
    # Counted only once the batch has arrived: a child started ahead of its
    # batch and killed when none came leaves the counter as it was.
    calls_before = _bump_state(args.state, 1)
    offset = None
    if drift is not None:  # the drift of the earlier calls, which a finite --drift can overflow
        try:
            scaled = [v * calls_before for v in drift]
        except OverflowError:
            raise NonFiniteValue("--state counts more calls than a float holds") from None
        offset = _vector(f"--drift times {calls_before} calls", scaled, args.k, NonFiniteValue)
    out_lines = []
    for i, obj in json_objects(split_lines(text), MalformedLine, "stdin line"):
        if "text" not in obj:
            raise MalformedLine(f"stdin line {i + 1}: expected an object with \"text\"")
        vec = token_vector(str(obj["text"]), spec, offset=offset)
        out_lines.append(_row_json(str(obj.get("id", i)), vec.tolist(), None, None) + "\n")
    sys.stdout.buffer.write("".join(out_lines).encode("utf-8"))


def cmd_filter_run(args: argparse.Namespace) -> dict:
    from .filtergate import external_judge, load_captions, run_filter, write_verdicts

    judge = _external(external_judge, args.judge, "--judge", args.timeout)
    if os.path.realpath(args.out) == os.path.realpath(args.captions):
        raise UsageError(f"--out and --captions name the same file {args.out!r}")
    items = [c for c in load_captions(args.captions) if c.activity == args.activity]
    _check_writable(args.out, "--out")
    verdicts = run_filter(args.activity, items, judge, retries=args.retries)
    write_verdicts(verdicts, args.out)
    kept = sum(1 for v in verdicts if v.keep)
    return {
        "activity": args.activity,
        "total": len(verdicts),
        "kept": kept,
        "rejected": len(verdicts) - kept,
        "out": args.out,
    }


def cmd_filter_eval(args: argparse.Namespace) -> dict:
    from dataclasses import asdict

    from .filtergate import evaluate_filter, load_truth, load_verdicts

    metrics = evaluate_filter(load_verdicts(args.verdicts), load_truth(args.truth))
    result = {**asdict(metrics), "total": metrics.total}
    for key in ("pct_before", "pct_after"):
        if result[key] is not None:
            result[key] = round(result[key], 2)
    return result


def _load_series_file(path) -> tuple[str, list]:
    """Read a correlation input: a JSON array of numbers, or an array of such arrays.

    Returns the shape, "flat" or "nested", and the values as floats. A value
    must decode to exactly int or float (so not a bool); anything else is
    MalformedLine naming the file, and an integer beyond float range is
    NonFiniteValue.
    """
    from . import _NUMBER_TYPES

    try:
        with open(path, encoding="utf-8") as fh:
            value = json.load(fh)
    except OSError as exc:
        raise IoError(str(exc)) from None
    except ValueError as exc:
        raise MalformedLine(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(value, list) or not value:
        raise MalformedLine(f"{path}: expected a non-empty JSON array")
    shape = "nested" if isinstance(value[0], list) else "flat"
    rows = value if shape == "nested" else [value]
    if not all(isinstance(row, list) and _NUMBER_TYPES.issuperset(map(type, row))
               for row in rows):
        raise MalformedLine(f"{path}: expected an array of numbers or of arrays of numbers")
    try:
        floats = [[float(v) for v in row] for row in rows]
    except OverflowError:
        raise NonFiniteValue(f"{path}: an integer is beyond float range") from None
    return shape, floats if shape == "nested" else floats[0]


def cmd_correlate(args: argparse.Namespace) -> dict:
    from dataclasses import asdict

    from .analysis import aggregate_r, correlation_report

    shapes, series = {}, {}
    for name in ("text", "motion", "f1"):
        shapes[name], series[name] = _load_series_file(getattr(args, name))
    if len(set(shapes.values())) != 1:
        raise MalformedLine(
            "all three inputs must have the same shape (all flat or all nested)"
        )
    if shapes["text"] == "flat":
        if args.fisher_z:
            raise UsageError("--fisher-z averages nested input only, and these series are flat")
        return asdict(correlation_report(series["text"], series["motion"], series["f1"]))
    lengths = {name: len(v) for name, v in series.items()}
    if len(set(lengths.values())) != 1:
        raise MalformedLine(f"inputs list different numbers of series: {lengths}")
    per_activity = [
        asdict(correlation_report(t, m, f))
        for t, m, f in zip(series["text"], series["motion"], series["f1"])
    ]
    method = "fisher-z" if args.fisher_z else "raw"
    aggregate = {"method": method}
    for key in ("text_vs_motion", "text_vs_f1", "motion_vs_f1"):
        aggregate[key] = aggregate_r([entry[key]["r"] for entry in per_activity], method)
    return {"per_activity": per_activity, "aggregate": aggregate}


def cmd_impact(args: argparse.Namespace) -> dict:
    from .diversity import diversity_impact
    from .embedset import load_set

    report = diversity_impact(load_set(args.before), load_set(args.after))
    return {
        "before": _score_dict(report.before),
        "after": _score_dict(report.after),
        "delta_std": report.delta_std,
        "delta_centroid": report.delta_centroid,
    }


def _flatten(prefix: str, value, rows: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else key, value[key], rows)
    else:
        rows.append((prefix, json.dumps(value, allow_nan=False)))


def emit_report(command: str, config: dict, result: dict, duration_s: float,
                fmt: str = "json") -> str:
    if fmt == "pretty":
        rows: list[tuple[str, str]] = []
        _flatten("", result, rows)
        width = max(len(name) for name, _ in rows) if rows else 0
        lines = [f"divsat {command} (v{__version__}, {duration_s:.3f}s)"]
        lines += [f"  {name.ljust(width)}  {value}" for name, value in rows]
        return "\n".join(lines)
    payload = {
        "command": command,
        "config": config,
        "duration_s": round(duration_s, 6),
        "result": result,
        "version": __version__,
    }
    return json.dumps(payload, sort_keys=True, allow_nan=False)


def dispatch(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "synth-provider":
            _refuse_foreign_flags(args)
        if getattr(args, "verbose", False):
            import logging

            logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                                format="%(name)s: %(message)s")
        start = time.perf_counter()
        result = args.handler(args)
        duration = time.perf_counter() - start
        if result is None:
            return 0
        command = args.command
        if command == "filter":
            command = f"filter {args.filter_command}"
        config = {key: value for key, value in sorted(vars(args).items()) if not callable(value)}
        try:
            report = emit_report(command, config, result, duration, args.format)
        except ValueError:
            raise NonFiniteValue("the result holds NaN or an infinity") from None
    except UsageError as exc:
        print(f"divsat: {exc}", file=sys.stderr)
        return 2
    except DivsatError as exc:
        error = {"error": {"code": exc.code, "message": str(exc)}}
        print(json.dumps(error, sort_keys=True), file=sys.stderr)
        return 1
    print(report)
    return 0


def _reader_gone(exc: BrokenPipeError) -> None:
    """Exit 1 with one io_error object on stderr: the reader of stdout is gone.

    ``os._exit`` drops what is left in the stdout buffer, so no flush at
    shutdown fails a second time.
    """
    error = {"error": {"code": IoError.code, "message": f"stdout: {exc}"}}
    try:
        print(json.dumps(error, sort_keys=True), file=sys.stderr, flush=True)
    except (AttributeError, OSError, ValueError):
        pass
    os._exit(1)


def main() -> None:
    """Run ``dispatch``, then end the process as soon as its output is flushed.

    ``os._exit`` skips interpreter teardown, tens of milliseconds once numpy
    is imported; every file divsat writes is already closed by a ``with``.
    A write or flush into a pipe whose reader is gone exits 1 with an
    io_error. Any other exception, or a stdout or stderr that is None or
    closed, exits the normal way, so the interpreter reports it as it
    always has.
    """
    try:
        code = dispatch()
    except BrokenPipeError as exc:
        _reader_gone(exc)
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError as exc:
        _reader_gone(exc)
    except (AttributeError, OSError, ValueError):
        sys.exit(code)
    os._exit(code)
