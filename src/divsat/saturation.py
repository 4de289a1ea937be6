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

import contextlib
import enum
import json
import logging
import math
from dataclasses import asdict, dataclass, field
from typing import Callable, ContextManager, Iterator, Mapping, Protocol, Sequence, Union

from .embedset import EmbeddingSet, _merge, _parse_lines
from .errors import (
    DimensionMismatch,
    DivsatError,
    DuplicateId,
    EmbedderError,
    ProtocolError,
    ProviderError,
)
from .kernel import KernelConfig, MmdEstimate, mmd_calculator
from ._proc import External, json_objects, split_lines, write_lines
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
    consecutive in-window scores beyond the first required to stop.
    """

    perc: float = 0.05
    early_stop: int = 5
    mmd_repetitions: int = 10
    kernel: KernelConfig = field(default_factory=KernelConfig)
    seed: int = 0
    max_iterations: int = 1000
    fixed_batch: bool = False

    def __post_init__(self) -> None:
        if not (0.0 < self.perc <= 1.0):
            raise ValueError("perc must be in (0, 1]")
        if self.early_stop < 0:
            raise ValueError("early_stop must be >= 0")
        if self.mmd_repetitions < 1:
            raise ValueError("mmd_repetitions must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class SaturationState:
    """Accumulated set plus the acceptance window and streak counter.

    The (-1, -1) window sentinel guarantees the first score falls outside
    (scores are never negative), so the window always recenters on real
    data before any streak can start.
    """

    embeddings: EmbeddingSet
    stop_condition: int = 0
    range_min: float = -1.0
    range_max: float = -1.0
    iteration: int = 0


@dataclass(frozen=True)
class TraceStep:
    """One iteration's record: the score, the window after it, the streak."""

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


def saturation_step(
    state: SaturationState,
    estimate: MmdEstimate,
    cfg: SaturationConfig,
    batch: EmbeddingSet,
) -> SaturationState:
    """One pure acceptance-window transition.

    A score strictly inside (range_min, range_max) increments the streak and
    widens the window to cover score +/- stddev; any other score resets the
    streak to zero and recenters the window there. The batch joins the
    accumulated set in both cases.
    """
    return _advance(state, estimate, _merge(state.embeddings, batch), batch.size)[0]


def _advance(
    state: SaturationState, estimate: MmdEstimate, merged: EmbeddingSet, batch_size: int
) -> tuple[SaturationState, TraceStep]:
    # The window transition and its trace record; ``merged`` is the state's
    # set with the batch of ``batch_size`` rows appended.
    score = estimate.mean
    spread = estimate.stddev
    in_window = state.range_min < score < state.range_max
    if in_window:
        stop = state.stop_condition + 1
        range_min = min(score - spread, state.range_min)
        range_max = max(score + spread, state.range_max)
    else:
        stop = 0
        range_min = score - spread
        range_max = score + spread
    iteration = state.iteration + 1
    window = dict(stop_condition=stop, range_min=range_min, range_max=range_max)
    return (
        SaturationState(embeddings=merged, iteration=iteration, **window),
        TraceStep(iteration=iteration, batch_size=batch_size, mmd_mean=score,
                  mmd_stddev=spread, in_window=in_window, **window),
    )


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
        initial: a non-empty starting EmbeddingSet, or an int n0 to
            bootstrap that many items from the provider first.
        provider, embedder: the growth loop's item source and vectorizer;
            in-process objects or the external_* subprocess wrappers. An
            external embedder's child is started before each provider call
            and killed unread if no batch follows.
        cfg: loop parameters; the per-iteration MMD seed is ``cfg.seed``
            XOR the 1-based iteration number.
        context: optional string map passed to the provider (for example an
            activity name).
        mmd_fn: override for the scoring function, used to replay scripted
            estimates; defaults to the resampling MMD estimator comparing
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
            ProviderError or EmbedderError (a failed or miscounting call;
            foreign exceptions from in-process objects are wrapped in these),
            ProtocolError, SpawnError, DimensionMismatch for a batch of
            another dimension, DuplicateId for a batch id already present.
        ValueError: a bootstrap size below 1.
    """
    estimator = mmd_fn if mmd_fn is not None else _default_mmd
    if isinstance(initial, int) and initial < 1:
        raise ValueError("bootstrap size must be >= 1")
    steps: list[TraceStep] = []
    state: SaturationState | None = None
    reason = StopReason.SATURATED
    try:
        if isinstance(initial, int):
            with _embedding(embedder) as embed:
                texts = _call(lambda: list(provider.next_batch(initial, context)),
                              ProviderError, "provider failed during bootstrap")
                if not texts:
                    raise ProviderError("provider produced no items during bootstrap")
                initial = _embed(embed, texts)
        state = SaturationState(embeddings=initial)
        while state.stop_condition <= cfg.early_stop:
            if state.iteration >= cfg.max_iterations:
                reason = StopReason.MAX_ITERATIONS
                break
            iteration = state.iteration + 1
            base = initial.size if cfg.fixed_batch else state.embeddings.size
            count = max(1, math.ceil(cfg.perc * base))
            with _embedding(embedder) as embed:
                texts = _call(lambda: list(provider.next_batch(count, context)),
                              ProviderError, f"provider failed at iteration {iteration}")
                if len(texts) == 0:
                    reason = StopReason.PROVIDER_EXHAUSTED
                    break
                batch = _embed(embed, texts)
            # Batch ids are prefixed with the iteration so batches never collide
            # with each other; an initial set can still hold such ids (an earlier
            # run's output passed back in), which raises DuplicateId here.
            combined = _merge(state.embeddings, batch, id_prefix=f"b{iteration}_")
            estimate = estimator(state.embeddings, combined, cfg, as_uint64(cfg.seed ^ iteration))
            state, step = _advance(state, estimate, combined, batch.size)
            steps.append(step)
            log.info(
                "iteration %d: n=%d score=%.6g sd=%.6g window=(%.6g, %.6g) streak=%d",
                iteration, state.embeddings.size, estimate.mean, estimate.stddev,
                state.range_min, state.range_max, state.stop_condition,
            )
            if len(texts) < count:
                reason = StopReason.PROVIDER_EXHAUSTED
                break
    except DivsatError as exc:
        # The one failure boundary: whatever failed, the work so far is kept.
        exc.trace_steps = tuple(steps)
        exc.partial_set = state.embeddings if state is not None else None
        raise
    return state.embeddings, SaturationTrace(steps=tuple(steps), reason=reason)


def _embedding(embedder: Embedder) -> ContextManager[Callable[[Sequence[str]], EmbeddingSet]]:
    # The embed call for one batch. An external embedder's child starts here,
    # before the provider call that makes its batch, so the two start-ups
    # overlap; leaving the block without a batch kills and reaps it.
    if isinstance(embedder, _ExternalEmbedder):
        return embedder.started()
    return contextlib.nullcontext(embedder.embed)


def _embed(embed: Callable[[Sequence[str]], EmbeddingSet], texts: Sequence[str]) -> EmbeddingSet:
    batch = _call(lambda: embed(texts), EmbedderError, "embedder failed")
    if batch.size != len(texts):
        raise EmbedderError(f"embedder returned {batch.size} records for {len(texts)} items")
    return batch


def write_trace(trace: SaturationTrace, path) -> None:
    """One JSON object per iteration, keys sorted, mirroring TraceStep."""
    _write_steps(trace.steps, path)


def _write_steps(steps: Sequence[TraceStep], path) -> None:
    write_lines(path, (json.dumps(step.to_json_dict(), sort_keys=True) for step in steps))


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
        with self.started() as embed:
            return embed(items)

    @contextlib.contextmanager
    def started(self) -> Iterator[Callable[[Sequence[str]], EmbeddingSet]]:
        """Launch the command now; yield ``embed`` for the one batch it will take.

        A launch failure is raised by that call; see ``External._started``.
        """
        with self._started() as finish:
            yield lambda items: self._records(finish(_embedder_input(items)), len(items))

    @staticmethod
    def _records(stdout: str, count: int) -> EmbeddingSet:
        try:
            batch = _parse_lines(split_lines(stdout), source="embedder output",
                                 where="embedder line")
        except (DimensionMismatch, DuplicateId):
            raise
        except DivsatError as exc:
            raise ProtocolError(str(exc)) from None
        if batch.size != count:
            raise ProtocolError(f"embedder returned {batch.size} records for {count} items")
        return batch


def _embedder_input(items: Sequence[str]) -> str:
    return "\n".join(json.dumps({"id": i, "text": text}) for i, text in enumerate(items)) + "\n"


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
    ``run_saturation`` starts the command before the provider call that
    makes its batch, and kills it unread when no batch follows; the
    timeout counts from when the batch is written.
    """
    return _ExternalEmbedder(command, timeout)
