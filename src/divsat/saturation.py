"""Saturation-point detection for generative embedding pipelines.

Grow an embedding set batch by batch and stop once comparative diversity
stops moving. Each iteration scores the current set against itself plus
the new batch with the resampling MMD estimator; a score landing strictly
inside the running acceptance window counts toward stopping and can only
widen the window, while any score outside recenters the window at
score +/- stddev and resets the counter. The loop ends after
``early_stop + 1`` consecutive in-window scores, on provider exhaustion,
or at the iteration cap.
"""

from __future__ import annotations

import enum
import functools
import json
import logging
import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Mapping, Protocol, Sequence, Union

import numpy as np

from . import _count, _fraction, _integer, _positive_int
from .embedset import EmbeddingSet, _merge, _parse_lines
from .errors import (
    DimensionMismatch,
    DivsatError,
    DuplicateId,
    EmbedderError,
    NonFiniteValue,
    ProtocolError,
    ProviderError,
)
from .kernel import KernelConfig, MmdEstimate, mmd_calculator
from ._proc import External, _Child, json_objects, split_lines, write_lines
from .rng import as_uint64

log = logging.getLogger(__name__)


class BatchProvider(Protocol):
    """Source of new items; a batch shorter than requested signals exhaustion."""

    def next_batch(
        self, count: int, context: Mapping[str, str] | None = None
    ) -> Sequence[str]: ...


class Embedder(Protocol):
    """Maps a text batch to an equal-length embedding set, order preserved."""

    def embed(self, items: Sequence[str]) -> EmbeddingSet: ...


class StopReason(str, enum.Enum):
    SATURATED = "saturated"
    MAX_ITERATIONS = "max_iterations"
    PROVIDER_EXHAUSTED = "provider_exhausted"


@dataclass(frozen=True)
class SaturationConfig:
    """Knobs for the growth loop.

    ``perc`` sizes each batch as a fraction of the current set (or of the
    initial set under ``fixed_batch``); ``early_stop`` is the number of
    consecutive in-window scores beyond the first required to stop. The
    package's argument rules hold ``perc`` to (0, 1], ``early_stop`` to an
    integer >= 0, ``mmd_repetitions`` and ``max_iterations`` to integers
    >= 1 and ``seed`` to an integer; ``kernel`` must be a KernelConfig and
    ``fixed_batch`` a bool. Any other value raises ValueError.
    """

    perc: float = 0.05
    early_stop: int = 5
    mmd_repetitions: int = 10
    kernel: KernelConfig = field(default_factory=KernelConfig)
    seed: int = 0
    max_iterations: int = 1000
    fixed_batch: bool = False

    def __post_init__(self) -> None:
        _fraction("perc", self.perc)
        _count("early_stop", self.early_stop)
        _positive_int("mmd_repetitions", self.mmd_repetitions)
        _integer("seed", self.seed)
        _positive_int("max_iterations", self.max_iterations)
        if not isinstance(self.kernel, KernelConfig):
            raise ValueError(f"kernel must be a KernelConfig, got {self.kernel!r}")
        if not isinstance(self.fixed_batch, (bool, np.bool_)):
            raise ValueError(f"fixed_batch must be a bool, got {self.fixed_batch!r}")


@dataclass(frozen=True)
class TraceStep:
    """One iteration's record: the score, the window after it, the streak.

    The loop keeps no other per-iteration state: each step is computed from
    the one before it.
    """

    iteration: int
    batch_size: int
    mmd_mean: float
    mmd_stddev: float
    in_window: bool
    stop_condition: int
    range_min: float
    range_max: float

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SaturationTrace:
    steps: tuple[TraceStep, ...]
    reason: StopReason

    @property
    def iterations(self) -> int:
        return len(self.steps)


def _advance(last: TraceStep | None, estimate: MmdEstimate, batch_size: int) -> TraceStep:
    # The step after ``last`` (None before the first): a score strictly inside
    # last's window extends the streak and can only widen the window; any
    # other score, and the first, resets the streak and recenters the window
    # at score +/- stddev.
    score = estimate.mean
    spread = estimate.stddev
    in_window = last is not None and last.range_min < score < last.range_max
    if in_window:
        stop = last.stop_condition + 1
        range_min = min(score - spread, last.range_min)
        range_max = max(score + spread, last.range_max)
    else:
        stop = 0
        range_min = score - spread
        range_max = score + spread
    return TraceStep(iteration=last.iteration + 1 if last is not None else 1,
                     batch_size=batch_size, mmd_mean=score, mmd_stddev=spread,
                     in_window=in_window, stop_condition=stop,
                     range_min=range_min, range_max=range_max)


MmdFunction = Callable[[EmbeddingSet, EmbeddingSet, SaturationConfig, int], MmdEstimate]


def _default_mmd(
    current: EmbeddingSet, combined: EmbeddingSet, cfg: SaturationConfig, seed: int
) -> MmdEstimate:
    return mmd_calculator(
        current, combined, cfg.kernel,
        repetitions=cfg.mmd_repetitions, seed=seed,
    )


def _call(fn: Callable, failure: type[DivsatError], message: str):
    # One provider or embedder call; foreign exceptions become ``failure``.
    try:
        return fn()
    except DivsatError:
        raise
    except Exception as exc:
        raise failure(f"{message}: {exc}") from exc


def run_saturation(
    initial: Union[EmbeddingSet, int],
    provider: BatchProvider,
    embedder: Embedder,
    cfg: SaturationConfig = SaturationConfig(),
    *,
    context: Mapping[str, str] | None = None,
    mmd_fn: MmdFunction | None = None,
) -> tuple[EmbeddingSet, SaturationTrace]:
    """Drive batch generation until comparative diversity saturates.

    Args:
        initial: a non-empty starting EmbeddingSet, or a count n0 >= 1
            (an int or numpy integer; not a bool or float) to bootstrap
            that many items from the provider first. The bootstrap is the
            first batch: one shorter than n0 means the provider is
            exhausted, and the run ends with no iterations.
        provider, embedder: the growth loop's item source and vectorizer;
            in-process objects or the external_* subprocess wrappers. An
            external embedder runs one child per batch, each launched a
            batch ahead: the next batch's child starts as soon as this
            batch's child is in hand, before this batch's provider call,
            unless this is the last iteration ``cfg.max_iterations`` allows.
            So at most two children are alive at once, and a child that gets
            no batch (the run saturated, the provider was exhausted or
            failed, or the run was interrupted) is killed unread and reaped.
        cfg: loop parameters; the per-iteration MMD seed is ``cfg.seed``
            XOR the 1-based iteration number.
        context: optional string map passed to the provider (for example an
            activity name).
        mmd_fn: override for the scoring function, called as
            ``mmd_fn(current, combined, cfg, seed)``; it is how a caller
            scripts the estimates and so the window, which ``trace.steps``
            then records. Defaults to the resampling MMD estimator comparing
            the current set against current plus batch. Its median-heuristic
            bandwidth pools the two, so every current point counts twice;
            that is the long-standing definition, kept on purpose.

    Returns:
        The final embedding set (the initial set is a prefix of it) and the
        per-iteration trace with the terminal reason.

    Raises:
        DivsatError: any package error from the bootstrap or the loop, with
            the completed steps as ``exc.trace_steps`` and the set so far as
            ``exc.partial_set`` (None if the bootstrap set never existed):
            ProviderError or EmbedderError (a failed or miscounting call,
            such as a provider returning more items than requested; foreign
            exceptions from in-process objects are wrapped in these),
            ProtocolError, SpawnError, DimensionMismatch for a batch of
            another dimension, DuplicateId for a batch id already present,
            NonFiniteValue for an estimate whose mean or stddev is not finite.
        ValueError: a bootstrap count that is not an integer (a bool or
            float included) or is below 1, raised before the provider is
            called.
    """
    estimator = mmd_fn if mmd_fn is not None else _default_mmd
    steps: list[TraceStep] = []
    current: EmbeddingSet | None = None
    reason = StopReason.SATURATED
    embeds = _Embeds(embedder)
    try:
        if isinstance(initial, EmbeddingSet):
            current, exhausted = initial, False
        else:
            _positive_int("bootstrap size", initial)
            current, exhausted = _batch(provider, embeds.next(ahead=True), int(initial),
                                        context, "during bootstrap")
            if current is None:
                raise ProviderError("provider produced no items during bootstrap")
        start_size = current.size
        while not exhausted and (not steps or steps[-1].stop_condition <= cfg.early_stop):
            iteration = len(steps) + 1
            if iteration > cfg.max_iterations:
                reason = StopReason.MAX_ITERATIONS
                break
            base = start_size if cfg.fixed_batch else current.size
            count = max(1, math.ceil(cfg.perc * base))
            batch, exhausted = _batch(provider, embeds.next(ahead=iteration < cfg.max_iterations),
                                      count, context, f"at iteration {iteration}")
            if batch is None:
                break
            # Batch ids are prefixed with the iteration so batches never collide
            # with each other; an initial set can still hold such ids (an earlier
            # run's output passed back in), which raises DuplicateId here.
            combined = _merge(current, batch, id_prefix=f"b{iteration}_")
            estimate = estimator(current, combined, cfg, as_uint64(cfg.seed ^ iteration))
            if not (math.isfinite(estimate.mean) and math.isfinite(estimate.stddev)):
                raise NonFiniteValue(f"the estimate at iteration {iteration} is not finite")
            step = _advance(steps[-1] if steps else None, estimate, batch.size)
            steps.append(step)
            current = combined
            log.info(
                "iteration %d: n=%d score=%.6g sd=%.6g window=(%.6g, %.6g) streak=%d",
                step.iteration, current.size, step.mmd_mean, step.mmd_stddev,
                step.range_min, step.range_max, step.stop_condition,
            )
    except DivsatError as exc:
        # The one failure boundary: whatever failed, the work so far is kept.
        exc.trace_steps = tuple(steps)
        exc.partial_set = current
        raise
    finally:
        embeds.close()
    if exhausted:
        reason = StopReason.PROVIDER_EXHAUSTED
    return current, SaturationTrace(steps=tuple(steps), reason=reason)


_EmbedCall = Callable[[Sequence[str]], EmbeddingSet]


class _Embeds:
    """The embed call for each batch of a run, handed out in batch order.

    An in-process embedder's ``embed`` serves every batch. An external
    embedder gets one child per batch, launched a batch ahead: ``next``
    discards the previous batch's child, takes the spare the call before it
    launched (or launches one), then, if ``ahead`` says another batch may
    follow, launches that batch's child before this batch's provider call,
    so its start-up overlaps the whole iteration. At most two children are
    alive at once: this batch's and the spare. ``close`` discards both; the
    spare is killed unread with its process group, and reaped.
    """

    def __init__(self, embedder: Embedder):
        self._embedder = embedder
        self._children: list[_Child] = []  # this batch's, then the spare

    def close(self) -> None:
        for child in self._children:
            child.discard()

    def next(self, ahead: bool) -> _EmbedCall:
        if not isinstance(self._embedder, _ExternalEmbedder):
            return self._embedder.embed
        if self._children:
            self._children.pop(0).discard()
        if not self._children:
            self._children.append(self._embedder._launch())
        if ahead:
            self._children.append(self._embedder._launch())
        return functools.partial(_embed, self._children[0].finish)


def _batch(provider: BatchProvider, embed: _EmbedCall, count: int,
           context: Mapping[str, str] | None, stage: str) -> tuple[EmbeddingSet | None, bool]:
    # Up to ``count`` new items, embedded by ``embed`` (None if none came), and
    # whether the provider is exhausted, which a batch shorter than ``count``
    # means. ``stage`` ends the provider's failure message.
    texts = _call(lambda: list(provider.next_batch(count, context)),
                  ProviderError, f"provider failed {stage}")
    if not texts:
        return None, True
    if len(texts) > count:
        raise ProviderError(f"provider returned {len(texts)} items {stage} "
                            f"but only {count} were requested")
    batch = _call(lambda: embed(texts), EmbedderError, "embedder failed")
    if batch.size != len(texts):
        raise EmbedderError(f"embedder returned {batch.size} records for {len(texts)} items")
    return batch, batch.size < count


def write_trace(trace: SaturationTrace, path) -> None:
    """One JSON object per iteration, keys sorted, mirroring TraceStep."""
    _write_steps(trace.steps, path)


def _write_steps(steps: Sequence[TraceStep], path) -> None:
    write_lines(path, (json.dumps(step.to_json_dict(), sort_keys=True, allow_nan=False)
                       for step in steps))


class _ExternalProvider(External):
    failure = ProviderError

    def next_batch(
        self, count: int, context: Mapping[str, str] | None = None
    ) -> list[str]:
        extra = ["--count", str(count)]
        if context and context.get("activity"):
            extra += ["--activity", context["activity"]]
        stdout = self._run(*extra)
        texts: list[str] = []
        for i, obj in json_objects(split_lines(stdout), ProtocolError, "provider line"):
            if not isinstance(obj.get("text"), str):
                raise ProtocolError(f"provider line {i + 1}: \"text\" must be a string")
            texts.append(obj["text"])
        if len(texts) > count:
            raise ProtocolError(
                f"provider emitted {len(texts)} items but only {count} were requested"
            )
        return texts


class _ExternalEmbedder(External):
    failure = EmbedderError

    def embed(self, items: Sequence[str]) -> EmbeddingSet:
        return _embed(lambda text: self._run(input_text=text), items)


def _embed(finish: Callable[[str], str], items: Sequence[str]) -> EmbeddingSet:
    # One batch through an embedder child: ``finish`` writes the input lines
    # and returns the child's stdout, which must hold one record per item.
    stdout = finish("\n".join(json.dumps({"id": i, "text": text})
                              for i, text in enumerate(items)) + "\n")
    try:
        batch = _parse_lines(split_lines(stdout), source="embedder output",
                             where="embedder line")
    except (DimensionMismatch, DuplicateId):
        raise
    except DivsatError as exc:
        raise ProtocolError(str(exc)) from None
    if batch.size != len(items):
        raise ProtocolError(f"embedder returned {batch.size} records for {len(items)} items")
    return batch


def external_provider(
    command: Sequence[str] | str, timeout: float = 300.0
) -> BatchProvider:
    """Wrap a command as a batch provider.

    Per call the command runs with ``--count N`` appended (plus
    ``--activity A`` when the context carries one) and must print one JSON
    object ``{"text": ...}`` per line; printing fewer than N lines signals
    exhaustion, printing more is a protocol violation.
    """
    return _ExternalProvider(command, timeout)


def external_embedder(
    command: Sequence[str] | str, timeout: float = 300.0
) -> Embedder:
    """Wrap a command as an embedder.

    Per call the command receives one JSON object ``{"id": i, "text": ...}``
    per line on stdin and must print an equal count of embedding records
    (``{"vector": [...]}``, optional id) on stdout, order preserved.
    ``run_saturation`` starts each batch's command one batch ahead, before
    the provider call that makes the batch before it, so at most two run at
    once; one that gets no batch is killed unread with its process group.
    The timeout counts from when the batch is written.
    """
    return _ExternalEmbedder(command, timeout)
