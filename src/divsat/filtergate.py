"""Yes/no relevance filtering of captions and its evaluation.

Captions are judged in numbered batches of at most ten per prompt. The
judge must answer one yes/no line per caption, in order; replies are parsed
leniently (numbering, punctuation, and case are ignored) but misaligned
counts are an error rather than a guess. Evaluation treats "truly relevant"
as the positive class and reports undefined ratios as absent with a reason,
never as zero.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Protocol, Sequence, overload

from . import _count, _ids
from .errors import (
    CountMismatch,
    DuplicateId,
    EmptyInput,
    EmptySet,
    JudgeError,
    LabelMismatch,
    MalformedLine,
    MissingVerdict,
    UnknownVerdictId,
    UnparseableLine,
)
from ._proc import Ahead, External, json_objects, read_lines, write_lines

if TYPE_CHECKING:
    from .embedset import EmbeddingSet

PROMPT_BATCH_SIZE = 10

SYSTEM_TEMPLATE = (
    "You review motion captions. For each numbered caption the user lists, "
    "decide whether it describes a person performing the activity "
    "'{activity}'. Reply with exactly one line per caption, in the same "
    "order, each line of the form '<number>. yes' or '<number>. no'. "
    "Output nothing else."
)


@dataclass(frozen=True)
class CaptionItem:
    id: str
    caption: str
    activity: str

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("caption id must be non-empty")
        if not self.caption:
            raise ValueError("caption text must be non-empty")


@dataclass(frozen=True)
class FilterVerdict:
    id: str
    keep: bool


@dataclass(frozen=True)
class FilterPrompt:
    system_message: str
    user_message: str
    batch: tuple[CaptionItem, ...]


@dataclass(frozen=True)
class ConfusionMetrics:
    """Confusion counts plus derived ratios; None means undefined, see ``undefined``.

    ``pct_before`` is the share of truly irrelevant items in the full set,
    ``pct_after`` the share of irrelevant items among those the filter kept.
    """

    tp: int
    fp: int
    fn: int
    tn: int
    precision: float | None
    recall: float | None
    accuracy: float | None
    f1: float | None
    pct_before: float | None
    pct_after: float | None
    undefined: Mapping[str, str]

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


class Judge(Protocol):
    def judge(self, prompt: FilterPrompt) -> str: ...


def build_filter_prompts(
    activity: str, captions: Sequence[CaptionItem]
) -> list[FilterPrompt]:
    """Chunk captions into numbered prompts of at most ten, preserving order.

    A caption id given twice raises DuplicateId: its two verdicts could not
    be told apart, so no judge call is made for them.
    """
    items = list(captions)
    if not items:
        raise EmptyInput("no captions to judge")
    seen: set[str] = set()
    for item in items:
        if item.activity != activity:
            raise ValueError(
                f"caption {item.id!r} has activity {item.activity!r}, expected {activity!r}"
            )
        if item.id in seen:
            raise DuplicateId(f"caption id {item.id!r} repeated")
        seen.add(item.id)
    prompts: list[FilterPrompt] = []
    system = SYSTEM_TEMPLATE.format(activity=activity)
    for start in range(0, len(items), PROMPT_BATCH_SIZE):
        chunk = tuple(items[start : start + PROMPT_BATCH_SIZE])
        numbered = "\n".join(
            f"{i + 1}. {item.caption}" for i, item in enumerate(chunk)
        )
        user = f"Activity: {activity}\nCaptions:\n{numbered}"
        prompts.append(FilterPrompt(system_message=system, user_message=user, batch=chunk))
    return prompts


_LEADING_NUMBERING = re.compile(r"^\s*\(?\d+[\s.):\]\-]*")
_FIRST_WORD = re.compile(r"[A-Za-z]+")


def parse_filter_response(text: str, ids: Sequence[str]) -> list[FilterVerdict]:
    """Recover ordered yes/no verdicts from a judge reply, one per id of ``ids``.

    A line yields a verdict when its first word, after any leading numbering
    and punctuation, is "yes" or "no" (case-insensitive). A numbered line
    with neither token is an error; other unmatched lines are treated as
    filler and skipped. The recovered count must equal ``len(ids)``, and the
    verdicts take the ids in order.
    """
    ids = _ids("ids", ids, empty=False)
    labels: list[bool] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        numbering = _LEADING_NUMBERING.match(line)
        match = _FIRST_WORD.search(line, numbering.end() if numbering else 0)
        token = match.group(0).lower() if match else None
        if token == "yes":
            labels.append(True)
        elif token == "no":
            labels.append(False)
        elif numbering:
            raise UnparseableLine(f"cannot read a yes/no verdict from {raw!r}")
    if len(labels) != len(ids):
        raise CountMismatch(f"expected {len(ids)} verdicts, recovered {len(labels)}")
    return [FilterVerdict(id=v, keep=k) for v, k in zip(ids, labels)]


def _verdict_map(verdicts: Sequence[FilterVerdict]) -> dict[str, bool]:
    mapping: dict[str, bool] = {}
    for verdict in verdicts:
        if verdict.id in mapping:
            raise DuplicateId(f"more than one verdict for id {verdict.id!r}")
        mapping[verdict.id] = verdict.keep
    return mapping


@overload
def apply_filter(
    items: EmbeddingSet, verdicts: Sequence[FilterVerdict]
) -> EmbeddingSet: ...
@overload
def apply_filter(
    items: Sequence[CaptionItem], verdicts: Sequence[FilterVerdict]
) -> list[CaptionItem]: ...


def apply_filter(items, verdicts):
    """Keep items whose verdict is keep, preserving input order.

    Caption lists filter to a possibly-empty list. Embedding sets filter to
    an embedding set, so rejecting every record raises EmptySet (empty sets
    are construction errors and any downstream metric would be meaningless).
    """
    # imported here: judging and scoring captions need no numpy
    from .embedset import EmbeddingSet, subset

    mapping = _verdict_map(verdicts)
    if isinstance(items, EmbeddingSet):
        item_ids = list(items.ids())
    else:
        items = list(items)
        item_ids = [item.id for item in items]
    known = set(item_ids)
    for verdict_id in mapping:
        if verdict_id not in known:
            raise UnknownVerdictId(f"verdict for unknown id {verdict_id!r}")
    for item_id in item_ids:
        if item_id not in mapping:
            raise MissingVerdict(f"no verdict for id {item_id!r}")
    kept = [item_id for item_id in item_ids if mapping[item_id]]
    if isinstance(items, EmbeddingSet):
        if not kept:
            raise EmptySet("the filter rejected every record")
        return subset(items, kept)
    return [item for item in items if mapping[item.id]]


def evaluate_filter(
    verdicts: Sequence[FilterVerdict], truth: Mapping[str, bool]
) -> ConfusionMetrics:
    """Score verdicts against ground truth; positive class is truly relevant.

    ``pct_before``: 100 * (fp + tn) / total, the irrelevant share walking in.
    ``pct_after``: 100 * fp / (tp + fp), the irrelevant share among kept,
    which equals 100 * (1 - precision) whenever precision is defined.
    """
    mapping = _verdict_map(verdicts)
    tp = fp = fn = tn = 0
    for verdict_id, keep in mapping.items():
        if verdict_id not in truth:
            raise LabelMismatch(f"no ground truth for id {verdict_id!r}")
        relevant = bool(truth[verdict_id])
        if keep and relevant:
            tp += 1
        elif keep:
            fp += 1
        elif relevant:
            fn += 1
        else:
            tn += 1
    total = tp + fp + fn + tn
    undefined: dict[str, str] = {}

    precision = recall = accuracy = f1 = pct_before = pct_after = None
    if tp + fp > 0:
        precision = tp / (tp + fp)
        pct_after = 100.0 * fp / (tp + fp)
    else:
        undefined["precision"] = "nothing was kept (tp + fp = 0)"
        undefined["pct_after"] = "nothing was kept (tp + fp = 0)"
    if tp + fn > 0:
        recall = tp / (tp + fn)
    else:
        undefined["recall"] = "no truly relevant items (tp + fn = 0)"
    if total > 0:
        accuracy = (tp + tn) / total
        pct_before = 100.0 * (fp + tn) / total
    else:
        undefined["accuracy"] = "no verdicts"
        undefined["pct_before"] = "no verdicts"
    if precision is None or recall is None:
        undefined["f1"] = "precision or recall is undefined"
    elif precision + recall == 0:
        undefined["f1"] = "precision and recall are both zero"
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return ConfusionMetrics(
        tp=tp, fp=fp, fn=fn, tn=tn,
        precision=precision, recall=recall, accuracy=accuracy, f1=f1,
        pct_before=pct_before, pct_after=pct_after,
        undefined=undefined,
    )


def run_filter(
    activity: str,
    captions: Sequence[CaptionItem],
    judge: Judge,
    *,
    retries: int = 2,
) -> list[FilterVerdict]:
    """Judge every caption in prompt-size batches.

    A batch whose reply cannot be aligned (wrong count or an unreadable
    numbered line) is re-queried up to ``retries`` more times before the
    parse error propagates. An external judge runs one child per query,
    each launched a prompt ahead: the next query's child starts as this
    query's child is taken, before this prompt is written, unless this is
    the last prompt. So at most two children are alive at once, a retry
    takes the child started ahead, and a child that gets no prompt (a query
    failed, or the run was interrupted) is killed unread and reaped.
    """
    _count("retries", retries)
    prompts = build_filter_prompts(activity, captions)
    children = Ahead(judge) if isinstance(judge, _ExternalJudge) else None
    verdicts: list[FilterVerdict] = []
    try:
        for number, prompt in enumerate(prompts, start=1):
            batch_ids = [item.id for item in prompt.batch]
            for attempt in range(retries + 1):
                if children is None:
                    reply = judge.judge(prompt)
                else:
                    reply = _ask(children.next(ahead=number < len(prompts)), prompt)
                try:
                    verdicts.extend(parse_filter_response(reply, batch_ids))
                    break
                except (CountMismatch, UnparseableLine):
                    if attempt == retries:
                        raise
    finally:
        if children is not None:
            children.close()
    return verdicts


def _records(path, kind: str, flag: str | None = None) -> Iterator[tuple[int, dict]]:
    """Yield (index, object) for each line of a caption, verdict or truth file.

    Every "id" must be a non-empty string that no earlier line used, and the
    field ``flag``, when given, must be true or false. Errors cite the line.
    """
    seen: set[str] = set()
    for i, obj in json_objects(read_lines(path), MalformedLine):
        record_id = obj.get("id")
        if not isinstance(record_id, str) or not record_id:
            raise MalformedLine(f"line {i + 1}: 'id' must be a non-empty string")
        if flag is not None and not isinstance(obj.get(flag), bool):
            raise MalformedLine(f"line {i + 1}: {flag!r} must be true or false")
        if record_id in seen:
            raise DuplicateId(f"line {i + 1}: {kind} id {record_id!r} repeated")
        seen.add(record_id)
        yield i, obj


def load_captions(path) -> list[CaptionItem]:
    """Read caption JSONL: {"id": ..., "caption": ..., "activity": ...} per line."""
    items: list[CaptionItem] = []
    for i, obj in _records(path, "caption"):
        for key in ("caption", "activity"):
            if not isinstance(obj.get(key), str) or not obj[key]:
                raise MalformedLine(f"line {i + 1}: {key!r} must be a non-empty string")
        items.append(
            CaptionItem(id=obj["id"], caption=obj["caption"], activity=obj["activity"])
        )
    return items


def load_verdicts(path) -> list[FilterVerdict]:
    """Read verdict JSONL: {"id": ..., "keep": true|false} per line."""
    return [FilterVerdict(id=obj["id"], keep=obj["keep"])
            for _, obj in _records(path, "verdict", "keep")]


def write_verdicts(verdicts: Sequence[FilterVerdict], path) -> None:
    write_lines(path, (json.dumps({"id": v.id, "keep": v.keep}) for v in verdicts))


def load_truth(path) -> dict[str, bool]:
    """Read ground-truth JSONL: {"id": ..., "relevant": true|false} per line."""
    return {obj["id"]: obj["relevant"] for _, obj in _records(path, "truth", "relevant")}


class _ExternalJudge(External):
    failure = JudgeError

    def judge(self, prompt: FilterPrompt) -> str:
        return _ask(lambda text: self._run(input_text=text), prompt)


def _ask(finish: Callable[[str], str], prompt: FilterPrompt) -> str:
    # One prompt through a judge child: ``finish`` writes the prompt JSON and
    # returns the child's stdout, the raw reply.
    payload = {
        "system_message": prompt.system_message,
        "user_message": prompt.user_message,
        "captions": [asdict(item) for item in prompt.batch],
    }
    return finish(json.dumps(payload))


def external_judge(command: Sequence[str] | str, timeout: float = 300.0) -> Judge:
    """Wrap a command as a judge: prompt JSON on stdin, raw reply on stdout.

    ``run_filter`` starts each prompt's command one prompt ahead, before the
    prompt before it is written, so at most two run at once; one that gets
    no prompt is killed unread with its process group. The timeout counts
    from when the prompt is written.
    """
    return _ExternalJudge(command, timeout)
