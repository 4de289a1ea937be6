import gc
import json
import os
import signal
import subprocess
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divsat import _proc, filtergate
from divsat import (
    CaptionItem,
    CountMismatch,
    DuplicateId,
    EmbeddingSet,
    EmptyInput,
    EmptySet,
    FilterVerdict,
    JudgeError,
    LabelMismatch,
    MalformedLine,
    MissingVerdict,
    UnknownVerdictId,
    UnparseableLine,
    apply_filter,
    build_filter_prompts,
    evaluate_filter,
    external_judge,
    load_captions,
    load_truth,
    load_verdicts,
    parse_filter_response,
    run_filter,
    write_verdicts,
)


def captions(n, activity="walking"):
    return [CaptionItem(id=f"c{i}", caption=f"motion {i}", activity=activity) for i in range(n)]


def verdict_list(*keeps, prefix="c"):
    return [FilterVerdict(id=f"{prefix}{i}", keep=k) for i, k in enumerate(keeps)]


def ids(n):
    return [f"c{i}" for i in range(n)]


def metrics_from_counts(tp, fp, fn, tn):
    """Build synthetic verdicts+truth realizing given confusion counts."""
    verdicts = []
    truth = {}
    i = 0
    for count, keep, relevant in (
        (tp, True, True), (fp, True, False), (fn, False, True), (tn, False, False)
    ):
        for _ in range(count):
            verdicts.append(FilterVerdict(id=f"v{i}", keep=keep))
            truth[f"v{i}"] = relevant
            i += 1
    return evaluate_filter(verdicts, truth)


class TestPrompts:
    def test_chunking_25(self):
        prompts = build_filter_prompts("walking", captions(25))
        assert [len(p.batch) for p in prompts] == [10, 10, 5]

    def test_single_chunk(self):
        prompts = build_filter_prompts("walking", captions(10))
        assert len(prompts) == 1

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            build_filter_prompts("walking", [])

    def test_partition_preserves_order(self):
        items = captions(23)
        prompts = build_filter_prompts("walking", items)
        flat = [item for p in prompts for item in p.batch]
        assert flat == items

    def test_messages_mention_activity_and_numbering(self):
        prompts = build_filter_prompts("climbing stairs", captions(3, activity="climbing stairs"))
        p = prompts[0]
        assert "climbing stairs" in p.user_message
        assert "1." in p.user_message and "3." in p.user_message
        assert "yes" in p.system_message.lower() and "no" in p.system_message.lower()


class TestParse:
    def test_numbered_mixed_case(self):
        got = parse_filter_response("1. yes\n2. no\n3. Yes", ids(3))
        assert [v.keep for v in got] == [True, False, True]

    def test_prefix_rule(self):
        reply = "\n".join(["yes, this matches the activity"] * 10)
        got = parse_filter_response(reply, ids(10))
        assert all(v.keep for v in got)
        assert len(got) == 10

    def test_count_mismatch(self):
        reply = "\n".join(f"{i}. yes" for i in range(1, 10))
        with pytest.raises(CountMismatch):
            parse_filter_response(reply, ids(10))

    def test_numbered_line_without_token(self):
        with pytest.raises(UnparseableLine):
            parse_filter_response("1. yes\n2. maybe\n3. no", ids(3))

    def test_filler_lines_skipped(self):
        reply = "Here are my answers:\n1. yes\n2. no\nThanks!"
        with pytest.raises(UnparseableLine):
            # "Thanks!" is fine (unnumbered), but so the count stays 2: expected 2
            parse_filter_response(reply + "\n3. perhaps", ids(2))
        got = parse_filter_response(reply, ids(2))
        assert [v.keep for v in got] == [True, False]

    def test_varied_numbering_styles(self):
        reply = "(1) YES\n2) no\n3: yes\n4 - No"
        got = parse_filter_response(reply, ids(4))
        assert [v.keep for v in got] == [True, False, True, False]

    def test_word_boundary_not_prefix_of_longer_word(self):
        # "yesterday" must not read as "yes"
        with pytest.raises(UnparseableLine):
            parse_filter_response("1. yesterday\n2. no", ids(2))

    def test_ids_assigned_in_order(self):
        got = parse_filter_response("1. yes\n2. no", ["a", "b"])
        assert [(v.id, v.keep) for v in got] == [("a", True), ("b", False)]


class TestApply:
    def test_all_keep_is_identity(self):
        items = captions(4)
        assert apply_filter(items, verdict_list(True, True, True, True)) == items

    def test_all_reject_captions_empty(self):
        assert apply_filter(captions(3), verdict_list(False, False, False)) == []

    def test_mixed_preserves_order(self):
        items = captions(5)
        got = apply_filter(items, verdict_list(True, False, True, False, True))
        assert [c.id for c in got] == ["c0", "c2", "c4"]

    def test_missing_verdict(self):
        with pytest.raises(MissingVerdict):
            apply_filter(captions(3), verdict_list(True, True))

    def test_unknown_verdict_id(self):
        with pytest.raises(UnknownVerdictId):
            apply_filter(captions(2), verdict_list(True, True, True))

    def test_duplicate_verdicts(self):
        dup = [FilterVerdict(id="c0", keep=True), FilterVerdict(id="c0", keep=False)]
        with pytest.raises(DuplicateId):
            apply_filter(captions(1), dup)

    def test_embedding_set_filtering(self):
        s = EmbeddingSet.from_array(np.eye(3), ids=["c0", "c1", "c2"])
        got = apply_filter(s, verdict_list(True, False, True))
        assert got.ids() == ("c0", "c2")

    def test_embedding_set_all_reject_raises(self):
        s = EmbeddingSet.from_array(np.eye(2), ids=["c0", "c1"])
        with pytest.raises(EmptySet):
            apply_filter(s, verdict_list(False, False))


class TestEvaluate:
    def test_frozen_arithmetic(self):
        m = metrics_from_counts(tp=3, fp=1, fn=2, tn=4)
        assert m.precision == pytest.approx(0.75)
        assert m.recall == pytest.approx(0.6)
        assert m.accuracy == pytest.approx(0.7)
        assert m.f1 == pytest.approx(2 * 0.75 * 0.6 / 1.35)
        assert m.pct_before == pytest.approx(50.0)
        assert m.pct_after == pytest.approx(25.0)
        assert m.total == 10

    def test_perfect_filter(self):
        m = metrics_from_counts(tp=5, fp=0, fn=0, tn=5)
        assert m.precision == 1.0 and m.recall == 1.0 and m.f1 == 1.0
        assert m.pct_after == 0.0

    def test_published_identity_rows(self):
        # pct_after must equal 100*(1 - precision); two known count patterns.
        m1 = metrics_from_counts(tp=9008, fp=992, fn=0, tn=0)
        assert m1.precision == pytest.approx(0.9008)
        assert m1.pct_after == pytest.approx(9.92)
        m2 = metrics_from_counts(tp=7056, fp=2944, fn=0, tn=0)
        assert m2.pct_after == pytest.approx(29.44)

    def test_nothing_kept_undefined(self):
        m = metrics_from_counts(tp=0, fp=0, fn=3, tn=2)
        assert m.precision is None
        assert m.pct_after is None
        assert "precision" in m.undefined and "pct_after" in m.undefined
        assert m.recall == 0.0

    def test_no_relevant_items_undefined_recall(self):
        m = metrics_from_counts(tp=0, fp=2, fn=0, tn=3)
        assert m.recall is None
        assert "recall" in m.undefined
        assert m.precision == 0.0
        assert "f1" in m.undefined

    def test_zero_precision_and_recall_f1_undefined(self):
        m = metrics_from_counts(tp=0, fp=2, fn=3, tn=1)
        assert m.precision == 0.0 and m.recall == 0.0
        assert m.f1 is None
        assert m.undefined["f1"] == "precision and recall are both zero"

    def test_truth_must_cover_verdicts(self):
        with pytest.raises(LabelMismatch):
            evaluate_filter([FilterVerdict(id="x", keep=True)], {})

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 40), st.integers(0, 40), st.integers(0, 40), st.integers(0, 40))
    def test_identity_and_bounds_property(self, tp, fp, fn, tn):
        if tp + fp + fn + tn == 0:
            return
        m = metrics_from_counts(tp, fp, fn, tn)
        if m.precision is not None:
            assert m.pct_after == pytest.approx(100.0 * (1.0 - m.precision), abs=1e-9)
        if m.f1 is not None:
            assert min(m.precision, m.recall) - 1e-12 <= m.f1 <= max(m.precision, m.recall) + 1e-12
        for value in (m.precision, m.recall, m.accuracy, m.f1):
            if value is not None:
                assert 0.0 <= value <= 1.0
        kept = sum(1 for v in verdict_list(*[True] * (tp + fp), prefix="v") if v.keep)
        assert kept == tp + fp


class TestRunFilter:
    class ScriptedJudge:
        def __init__(self, replies):
            self.replies = list(replies)
            self.calls = 0

        def judge(self, prompt):
            self.calls += 1
            return self.replies.pop(0)

    def test_batches_and_ids(self):
        judge = self.ScriptedJudge(
            ["\n".join(f"{i}. yes" for i in range(1, 11)), "1. no\n2. yes"]
        )
        got = run_filter("walking", captions(12), judge)
        assert judge.calls == 2
        assert len(got) == 12
        assert got[10].keep is False
        assert got[11].keep is True
        assert [v.id for v in got] == [f"c{i}" for i in range(12)]

    def test_retry_then_success(self):
        judge = self.ScriptedJudge(["garbage 1. maybe", "1. yes\n2. no"])
        got = run_filter("walking", captions(2), judge, retries=1)
        assert judge.calls == 2
        assert [v.keep for v in got] == [True, False]

    def test_retries_exhausted(self):
        judge = self.ScriptedJudge(["1. hmm", "2. hmm", "3. hmm"])
        with pytest.raises(UnparseableLine):
            run_filter("walking", captions(1), judge, retries=2)
        assert judge.calls == 3

    def test_repeated_id_is_refused_before_any_judge_call(self):
        # the repeat falls in the second batch; the first is not judged either
        items = captions(12) + [CaptionItem(id="c3", caption="motion again", activity="walking")]
        judge = self.ScriptedJudge([])
        with pytest.raises(DuplicateId, match="^caption id 'c3' repeated$"):
            run_filter("walking", items, judge)
        assert judge.calls == 0

    def test_negative_retries_rejected(self):
        judge = self.ScriptedJudge(["1. yes"])
        with pytest.raises(ValueError):
            run_filter("walking", captions(1), judge, retries=-1)
        assert judge.calls == 0


class TestExternalJudge:
    def test_echo_stub_all_keep(self, stub_script):
        argv = stub_script(
            """
            import json, sys
            prompt = json.load(sys.stdin)
            for i, _ in enumerate(prompt["captions"], start=1):
                print(f"{i}. yes")
            """
        )
        judge = external_judge(argv)
        got = run_filter("walking", captions(7), judge)
        assert len(got) == 7
        assert all(v.keep for v in got)

    def test_failing_command(self, stub_script):
        argv = stub_script("import sys; sys.exit(3)\n")
        with pytest.raises(JudgeError):
            run_filter("walking", captions(2), external_judge(argv))

    def test_shuffled_numbering_parsed_by_position(self, stub_script):
        argv = stub_script(
            """
            import json, sys
            prompt = json.load(sys.stdin)
            n = len(prompt["captions"])
            for i in range(n):
                label = "yes" if i % 2 == 0 else "no"
                print(f"{n - i}. {label}")
            """
        )
        got = run_filter("walking", captions(4), external_judge(argv))
        assert [v.keep for v in got] == [True, False, True, False]

    @pytest.mark.parametrize("n", [1, 11])
    def test_timeout_kills_what_the_command_left_running(self, orphans, n):
        # the wrapper exits at once, but its background sleep holds stdout open;
        # with two prompts, the child started ahead for the second is never fed
        judge = external_judge(orphans.command("echo 1. yes"), timeout=1.0)
        with pytest.raises(JudgeError, match=r"timed out after 1\.0s"):
            run_filter("walking", captions(n), judge)
        assert len(orphans.pids()) == (n + 9) // 10
        orphans.assert_ended()


# The judge appends its pid to FED once its prompt has arrived; its call
# number FAIL_AT then runs FAILURE instead of answering.
COUNTING_JUDGE = """
import json, os, sys
prompt = json.load(sys.stdin)
with open({fed!r}, "a") as fh:
    fh.write(str(os.getpid()) + "\\n")
with open({fed!r}) as fh:
    if len(fh.read().split()) == {fail_at}:
        {failure}
for i, _ in enumerate(prompt["captions"], start=1):
    print(f"{{i}}. yes")
"""

FAILURES = {
    "exit": ('sys.exit("model crashed")', JudgeError, 2),
    # with retries=0 an unreadable reply ends the run
    "unparseable": ('print("1. maybe"); sys.exit()', UnparseableLine, 0),
    "interrupt": ("pass", KeyboardInterrupt, 2),
}


class TestJudgeLaunchAhead:
    """An external judge's child for the next query starts before this query's
    prompt is written."""

    @pytest.fixture
    def children(self, monkeypatch):
        """``procs``: every judge child, in launch order; ``events``: ("launch" |
        "feed" | "kill", child number) in the order they happened, "kill" for a
        child ended before it exited."""
        launched, events, numbers = [], [], {}

        class Recorded(subprocess.Popen):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                launched.append(self)
                numbers[self.pid] = len(launched)
                events.append(("launch", len(launched)))

        def recording(method, name):
            def record(self, *args):
                if name == "feed" or self._proc.returncode is None:
                    events.append((name, numbers[self._proc.pid]))
                return method(self, *args)
            return record

        monkeypatch.setattr(subprocess, "Popen", Recorded)
        monkeypatch.setattr(_proc._Child, "finish", recording(_proc._Child.finish, "feed"))
        monkeypatch.setattr(_proc._Child, "discard", recording(_proc._Child.discard, "kill"))
        return SimpleNamespace(procs=launched, events=events)

    def judge(self, stub_script, tmp_path, fail_at=0, failure="pass"):
        fed = str(tmp_path / "fed")
        return external_judge(stub_script(COUNTING_JUDGE.format(
            fed=fed, fail_at=fail_at, failure=failure)))

    @staticmethod
    def fed(tmp_path):
        path = tmp_path / "fed"
        return [int(pid) for pid in path.read_text().split()] if path.exists() else []

    def test_next_child_starts_before_the_prompt_is_written(self, stub_script, tmp_path, children):
        got = run_filter("walking", captions(25), self.judge(stub_script, tmp_path))
        assert [v.id for v in got] == ids(25) and all(v.keep for v in got)
        # three prompts: none is started ahead of the last, so at most two
        # children live at once, and each is fed in launch order
        assert children.events == [("launch", 1), ("launch", 2), ("feed", 1),
                                   ("launch", 3), ("feed", 2), ("feed", 3)]
        assert self.fed(tmp_path) == [proc.pid for proc in children.procs]
        assert all(proc.returncode == 0 for proc in children.procs)

    def test_retry_takes_the_child_started_ahead(self, stub_script, tmp_path, children):
        judge = self.judge(stub_script, tmp_path, fail_at=1, failure=FAILURES["unparseable"][0])
        got = run_filter("walking", captions(11), judge, retries=1)
        assert [v.id for v in got] == ids(11)
        # child 2, started ahead for the next query, answers prompt 1 again
        assert children.events == [("launch", 1), ("launch", 2), ("feed", 1),
                                   ("launch", 3), ("feed", 2), ("feed", 3)]
        assert self.fed(tmp_path) == [proc.pid for proc in children.procs]

    def test_retry_of_the_last_prompt_starts_its_child_then(self, stub_script, tmp_path, children):
        judge = self.judge(stub_script, tmp_path, fail_at=1, failure=FAILURES["unparseable"][0])
        got = run_filter("walking", captions(3), judge, retries=1)
        assert [v.keep for v in got] == [True] * 3
        assert children.events == [("launch", 1), ("feed", 1), ("launch", 2), ("feed", 2)]

    @pytest.mark.parametrize("failure", FAILURES)
    def test_failure_at_a_prompt_reaps_both_children(
        self, stub_script, tmp_path, children, monkeypatch, failure
    ):
        # prompt 2 of 3 fails while the child started ahead for prompt 3 runs
        command, error, retries = FAILURES[failure]
        judge = self.judge(stub_script, tmp_path, fail_at=2, failure=command)
        if failure == "interrupt":
            parse = filtergate.parse_filter_response
            replies = []

            def interrupted(text, batch_ids):
                replies.append(text)
                if len(replies) == 2:
                    raise KeyboardInterrupt
                return parse(text, batch_ids)

            monkeypatch.setattr(filtergate, "parse_filter_response", interrupted)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(error):
                run_filter("walking", captions(25), judge, retries=retries)
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        # the third child was never fed: it was killed with its group and reaped
        assert children.events == [("launch", 1), ("launch", 2), ("feed", 1),
                                   ("launch", 3), ("feed", 2), ("kill", 3)]
        assert self.fed(tmp_path) == [proc.pid for proc in children.procs[:2]]
        assert children.procs[2].returncode == -signal.SIGKILL
        for proc in children.procs:
            with pytest.raises(ProcessLookupError):
                os.kill(proc.pid, 0)

    def test_in_process_judge_is_called_once_per_query(self, children):
        judge = TestRunFilter.ScriptedJudge(["1. no\n2. yes"])
        assert [v.keep for v in run_filter("walking", captions(2), judge)] == [False, True]
        assert children.procs == []


class TestIo:
    def test_captions_round_trip(self, write_jsonl):
        path = write_jsonl(
            "caps.jsonl",
            [
                {"id": "a", "caption": "a person walks", "activity": "walking"},
                {"id": "b", "caption": "a person jogs", "activity": "jogging"},
            ],
        )
        got = load_captions(path)
        assert [c.id for c in got] == ["a", "b"]
        assert got[1].activity == "jogging"

    def test_captions_validation(self, write_jsonl):
        bad = write_jsonl("caps.jsonl", [{"id": "a", "caption": "", "activity": "x"}])
        with pytest.raises(Exception):
            load_captions(bad)
        dup = write_jsonl(
            "caps2.jsonl",
            [
                {"id": "a", "caption": "t", "activity": "x"},
                {"id": "a", "caption": "u", "activity": "x"},
            ],
        )
        with pytest.raises(DuplicateId):
            load_captions(dup)

    def test_verdicts_round_trip(self, tmp_path):
        path = tmp_path / "v.jsonl"
        verdicts = verdict_list(True, False, True)
        write_verdicts(verdicts, path)
        assert load_verdicts(path) == verdicts
        rows = [json.loads(l) for l in path.read_text().splitlines()]
        assert rows[0] == {"id": "c0", "keep": True}

    def test_truth_loading(self, write_jsonl):
        path = write_jsonl(
            "t.jsonl", [{"id": "a", "relevant": True}, {"id": "b", "relevant": False}]
        )
        assert load_truth(path) == {"a": True, "b": False}

    # each loader with the fields a valid line of its file carries besides "id"
    LOADERS = {
        "captions": (load_captions, {"caption": "t", "activity": "x"}),
        "verdicts": (load_verdicts, {"keep": True}),
        "truth": (load_truth, {"relevant": False}),
    }

    @pytest.mark.parametrize("loader, field", [(load_verdicts, "keep"), (load_truth, "relevant")])
    @pytest.mark.parametrize("value", [1, "yes", None])
    def test_flag_must_be_a_bool(self, write_jsonl, loader, field, value):
        path = write_jsonl("f.jsonl", [{"id": "a", field: True}, {"id": "b", field: value}])
        with pytest.raises(MalformedLine, match=f"^line 2: '{field}' must be true or false$"):
            loader(path)

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    @pytest.mark.parametrize("row_id", [{}, {"id": ""}, {"id": 7}, {"id": None}],
                             ids=["missing", "empty", "int", "null"])
    def test_id_must_be_a_non_empty_string(self, write_jsonl, kind, row_id):
        loader, fields = self.LOADERS[kind]
        path = write_jsonl("f.jsonl", [{"id": "a", **fields}, {**row_id, **fields}])
        with pytest.raises(MalformedLine, match="^line 2: 'id' must be a non-empty string$"):
            loader(path)

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_repeated_id_cites_its_line(self, write_jsonl, kind):
        loader, fields = self.LOADERS[kind]
        path = write_jsonl("f.jsonl", [{"id": i, **fields} for i in ("a", "b", "a")])
        with pytest.raises(DuplicateId, match="^line 3: .* id 'a' repeated$"):
            loader(path)

    def test_caption_activity_must_be_non_empty(self, write_jsonl):
        path = write_jsonl("caps.jsonl", [{"id": "a", "caption": "t", "activity": ""}])
        with pytest.raises(MalformedLine, match="^line 1: 'activity' must be a non-empty string$"):
            load_captions(path)
