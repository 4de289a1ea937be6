import json
import os
import shlex
import time

import numpy as np
import pytest

from divsat import (
    CaptionItem,
    DimensionMismatch,
    DriftSpec,
    DuplicateId,
    EmbedderError,
    EmbeddingSet,
    GaussianSpec,
    KernelConfig,
    MmdEstimate,
    ProtocolError,
    ProviderError,
    SaturationConfig,
    SaturationState,
    SpawnError,
    StopReason,
    build_filter_prompts,
    drifting_provider,
    external_embedder,
    external_judge,
    external_provider,
    gaussian_set,
    run_saturation,
    saturation_step,
    stationary_provider,
    write_trace,
)


def estimate(mean, sd):
    return MmdEstimate(mean=mean, stddev=sd, repetitions=1, bandwidth_used=1.0, sizes=(1, 1))


def tiny_set(*vals, prefix="x"):
    return EmbeddingSet.from_array(np.array(vals, dtype=np.float64), id_prefix=prefix)


def oracle_step(window, stop, score, sd):
    """Independent transition: the verbatim pseudocode branch, nothing else."""
    lo, hi = window
    if lo < score < hi:
        return (min(score - sd, lo), max(score + sd, hi)), stop + 1
    return (score - sd, score + sd), 0


class ListSource:
    """In-process provider+embedder over a scripted vector list."""

    def __init__(self, vectors):
        self._vectors = [np.asarray(v, dtype=np.float64) for v in vectors]
        self._cursor = 0

    def next_batch(self, count, context=None):
        take = self._vectors[self._cursor : self._cursor + count]
        self._cursor += len(take)
        return [f"item{self._cursor - len(take) + i}" for i in range(len(take))]

    def embed(self, items):
        start = self._cursor - len(items)
        rows = self._vectors[start : start + len(items)]
        return EmbeddingSet.from_array(np.array(rows), id_prefix=f"c{start}_")


class TestStep:
    def test_sentinel_forces_out_of_window(self):
        state = SaturationState(embeddings=tiny_set([0.0, 0.0]))
        nxt = saturation_step(state, estimate(0.50, 0.10), SaturationConfig(), tiny_set([1.0, 1.0], prefix="b"))
        assert nxt.stop_condition == 0
        assert nxt.range_min == pytest.approx(0.40)
        assert nxt.range_max == pytest.approx(0.60)
        assert nxt.embeddings.size == 2
        assert nxt.iteration == 1

    def test_in_window_increments_and_expansion_is_noop_here(self):
        state = SaturationState(
            embeddings=tiny_set([0.0, 0.0]), stop_condition=0, range_min=0.40, range_max=0.60
        )
        nxt = saturation_step(state, estimate(0.55, 0.05), SaturationConfig(), tiny_set([1.0, 1.0], prefix="b"))
        assert nxt.stop_condition == 1
        assert nxt.range_min == pytest.approx(0.40, abs=1e-12)
        assert nxt.range_max == pytest.approx(0.60, abs=1e-12)

    def test_out_of_window_recenters(self):
        state = SaturationState(
            embeddings=tiny_set([0.0, 0.0]), stop_condition=3, range_min=0.40, range_max=0.60
        )
        nxt = saturation_step(state, estimate(0.30, 0.02), SaturationConfig(), tiny_set([1.0, 1.0], prefix="b"))
        assert nxt.stop_condition == 0
        assert nxt.range_min == pytest.approx(0.28)
        assert nxt.range_max == pytest.approx(0.32)

    def test_window_only_widens_in_streak(self):
        state = SaturationState(
            embeddings=tiny_set([0.0, 0.0]), stop_condition=1, range_min=0.40, range_max=0.60
        )
        nxt = saturation_step(state, estimate(0.45, 0.20), SaturationConfig(), tiny_set([1.0, 1.0], prefix="b"))
        assert nxt.stop_condition == 2
        assert nxt.range_min == pytest.approx(0.25)
        assert nxt.range_max == pytest.approx(0.65)

    def test_boundary_score_is_outside(self):
        # Strict inequalities: landing exactly on an edge resets the streak.
        state = SaturationState(
            embeddings=tiny_set([0.0, 0.0]), stop_condition=2, range_min=0.40, range_max=0.60
        )
        nxt = saturation_step(state, estimate(0.40, 0.01), SaturationConfig(), tiny_set([1.0, 1.0], prefix="b"))
        assert nxt.stop_condition == 0

    def test_dimension_checked(self):
        state = SaturationState(embeddings=tiny_set([0.0, 0.0]))
        with pytest.raises(DimensionMismatch):
            saturation_step(state, estimate(0.5, 0.1), SaturationConfig(), tiny_set([1.0], prefix="b"))

    def test_matches_oracle_on_random_sequences(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            lo = float(rng.uniform(-1, 1))
            hi = lo + float(rng.uniform(0, 2))
            stop = int(rng.integers(0, 6))
            score = float(rng.uniform(-0.5, 2.0))
            sd = float(rng.uniform(0, 0.3))
            state = SaturationState(
                embeddings=tiny_set([0.0, 0.0]), stop_condition=stop, range_min=lo, range_max=hi
            )
            nxt = saturation_step(state, estimate(score, sd), SaturationConfig(), tiny_set([1.0, 1.0], prefix="b"))
            (exp_lo, exp_hi), exp_stop = oracle_step((lo, hi), stop, score, sd)
            assert (nxt.range_min, nxt.range_max, nxt.stop_condition) == (exp_lo, exp_hi, exp_stop)


class TestRunScripted:
    def scripted_fn(self, values):
        scores = iter(values)

        def fn(current, combined, cfg, seed):
            mean, sd = next(scores)
            return MmdEstimate(mean=mean, stddev=sd, repetitions=1, bandwidth_used=1.0,
                               sizes=(current.size, combined.size))

        return fn

    def test_hand_simulated_trace(self):
        initial = gaussian_set(GaussianSpec(k=2, seed=0), 10)
        src = stationary_provider(GaussianSpec(k=2, seed=1))
        cfg = SaturationConfig(early_stop=1, seed=0)
        final, trace = run_saturation(
            initial, src, src, cfg,
            mmd_fn=self.scripted_fn([(0.50, 0.10), (0.55, 0.05), (0.45, 0.01)]),
        )
        assert trace.reason is StopReason.SATURATED
        assert trace.iterations == 3
        assert [s.in_window for s in trace.steps] == [False, True, True]
        assert trace.steps[-1].stop_condition == 2
        # ceil(0.05 * 10) = 1 per step at this size
        assert final.size == initial.size + 3
        assert final.ids()[: initial.size] == initial.ids()

    def test_trace_windows_replay_through_oracle(self):
        rng = np.random.default_rng(12)
        script = [(float(rng.uniform(0, 1)), float(rng.uniform(0, 0.2))) for _ in range(30)]
        initial = gaussian_set(GaussianSpec(k=2, seed=3), 8)
        src = stationary_provider(GaussianSpec(k=2, seed=4))
        cfg = SaturationConfig(early_stop=3, seed=0, max_iterations=30)
        _, trace = run_saturation(initial, src, src, cfg, mmd_fn=self.scripted_fn(script))
        window, stop = (-1.0, -1.0), 0
        for step, (score, sd) in zip(trace.steps, script):
            new_window, new_stop = oracle_step(window, stop, score, sd)
            assert step.mmd_mean == score
            assert step.in_window == (new_stop == stop + 1)
            assert (step.range_min, step.range_max) == new_window
            assert step.stop_condition == new_stop
            window, stop = new_window, new_stop

    def test_saturated_iff_final_streak(self):
        initial = gaussian_set(GaussianSpec(k=2, seed=5), 10)
        src = stationary_provider(GaussianSpec(k=2, seed=6))
        cfg = SaturationConfig(early_stop=2, seed=0)
        script = [(0.5, 0.1), (0.9, 0.1), (0.85, 0.1), (0.87, 0.01), (0.86, 0.01)]
        _, trace = run_saturation(initial, src, src, cfg, mmd_fn=self.scripted_fn(script))
        assert trace.reason is StopReason.SATURATED
        assert trace.iterations == 5
        assert all(s.in_window for s in trace.steps[-3:])
        assert not trace.steps[-4].in_window

    def test_max_iterations_cap(self):
        initial = gaussian_set(GaussianSpec(k=2, seed=7), 10)
        src = stationary_provider(GaussianSpec(k=2, seed=8))
        cfg = SaturationConfig(early_stop=5, seed=0, max_iterations=4)
        alternating = [(0.5 if i % 2 else 1.5, 0.01) for i in range(10)]
        _, trace = run_saturation(initial, src, src, cfg, mmd_fn=self.scripted_fn(alternating))
        assert trace.reason is StopReason.MAX_ITERATIONS
        assert trace.iterations == 4

    def test_batch_size_compounds(self):
        initial = gaussian_set(GaussianSpec(k=2, seed=9), 100)
        src = stationary_provider(GaussianSpec(k=2, seed=10))
        cfg = SaturationConfig(early_stop=0, seed=0, perc=0.10)
        script = [(0.5, 0.1), (0.5, 0.1), (0.5, 0.1)]
        _, trace = run_saturation(initial, src, src, cfg, mmd_fn=self.scripted_fn(script))
        # 10% of 100, then 10% of 110, then saturation ends the run
        assert [s.batch_size for s in trace.steps[:2]] == [10, 11]

    def test_fixed_batch_flag(self):
        initial = gaussian_set(GaussianSpec(k=2, seed=9), 100)
        src = stationary_provider(GaussianSpec(k=2, seed=10))
        cfg = SaturationConfig(early_stop=0, seed=0, perc=0.10, fixed_batch=True)
        script = [(0.5, 0.1), (0.5, 0.1), (0.5, 0.1)]
        _, trace = run_saturation(initial, src, src, cfg, mmd_fn=self.scripted_fn(script))
        assert [s.batch_size for s in trace.steps[:2]] == [10, 10]


class TestRunSources:
    def test_empty_first_batch_exhausts(self):
        initial = gaussian_set(GaussianSpec(k=2, seed=0), 5)
        src = ListSource([])
        final, trace = run_saturation(initial, src, src, SaturationConfig(seed=0))
        assert trace.reason is StopReason.PROVIDER_EXHAUSTED
        assert trace.iterations == 0
        assert final == initial

    def test_short_batch_steps_then_exhausts(self):
        initial = gaussian_set(GaussianSpec(k=2, seed=1), 40)
        src = ListSource([[0.1, 0.2]])  # one vector, but ceil(.05*40)=2 wanted
        final, trace = run_saturation(initial, src, src, SaturationConfig(seed=0))
        assert trace.reason is StopReason.PROVIDER_EXHAUSTED
        assert trace.iterations == 1
        assert final.size == 41

    def test_monotone_growth_and_prefix(self):
        initial = gaussian_set(GaussianSpec(k=3, sigma=0.5, seed=2), 30)
        src = stationary_provider(GaussianSpec(k=3, sigma=0.5, seed=3))
        final, trace = run_saturation(initial, src, src, SaturationConfig(seed=5, max_iterations=40))
        sizes = [initial.size]
        for step in trace.steps:
            sizes.append(sizes[-1] + step.batch_size)
        assert final.size == sizes[-1]
        assert final.ids()[: initial.size] == initial.ids()

    def test_determinism(self):
        cfg = SaturationConfig(seed=77, max_iterations=40)
        runs = []
        for _ in range(2):
            initial = gaussian_set(GaussianSpec(k=4, sigma=0.3, seed=20), 30)
            src = stationary_provider(GaussianSpec(k=4, sigma=0.3, seed=21))
            runs.append(run_saturation(initial, src, src, cfg))
        (set_a, trace_a), (set_b, trace_b) = runs
        assert set_a == set_b
        assert trace_a == trace_b

    def test_bootstrap_from_int(self):
        src = stationary_provider(GaussianSpec(k=2, sigma=0.4, seed=30))
        final, trace = run_saturation(12, src, src, SaturationConfig(seed=1, max_iterations=30))
        assert final.size >= 12
        assert trace.reason in (StopReason.SATURATED, StopReason.MAX_ITERATIONS)

    def test_provider_error_keeps_partial_trace(self):
        class Boom(ListSource):
            def __init__(self, vectors):
                super().__init__(vectors)
                self.calls = 0

            def next_batch(self, count, context=None):
                self.calls += 1
                if self.calls >= 3:
                    raise RuntimeError("backend gone")
                return super().next_batch(count, context)

        initial = gaussian_set(GaussianSpec(k=2, seed=4), 20)
        src = Boom([[0.0, 0.1]] * 4)
        with pytest.raises(ProviderError) as ei:
            run_saturation(initial, src, src, SaturationConfig(seed=0))
        assert len(ei.value.trace_steps) == 2
        # 20 initial + ceil(.05*20)=1 + ceil(.05*21)=2
        assert ei.value.partial_set.size == 23

    def test_batch_id_collision_keeps_partial_work(self):
        # an earlier run's output passed back in already holds b1_* ids
        values = gaussian_set(GaussianSpec(k=2, seed=5), 20).vectors
        initial = EmbeddingSet.from_array(values, ids=[f"b1_g{i}" for i in range(20)])
        src = stationary_provider(GaussianSpec(k=2, seed=6))
        with pytest.raises(DuplicateId) as ei:
            run_saturation(initial, src, src, SaturationConfig(seed=0))
        assert ei.value.trace_steps == ()
        assert ei.value.partial_set == initial

    @pytest.mark.parametrize("fault, error, steps, partial_size", [
        ("provider", ProviderError, 2, 23),
        ("embedder", EmbedderError, 2, 23),
        ("miscount", EmbedderError, 2, 23),
        ("collision", DuplicateId, 2, 23),
        ("dimension", DimensionMismatch, 2, 23),
        ("bootstrap", ProviderError, 0, None),
    ])
    def test_every_failure_keeps_completed_work(self, fault, error, steps, partial_size):
        class Faulty:
            """Stationary source whose third provider or embedder call goes wrong."""

            def __init__(self):
                self.source = stationary_provider(GaussianSpec(k=2, seed=6))
                self.calls = 0

            def next_batch(self, count, context=None):
                if fault == "bootstrap":
                    return []
                if fault == "provider" and self.calls == 2:
                    raise RuntimeError("backend gone")
                return self.source.next_batch(count, context)

            def embed(self, items):
                self.calls += 1
                if self.calls < 3:
                    return self.source.embed(items)
                if fault == "embedder":
                    raise RuntimeError("model unloaded")
                if fault == "miscount":
                    return self.source.embed(items[:-1])
                if fault == "dimension":
                    return EmbeddingSet.from_array(np.zeros((len(items), 3)))
                return EmbeddingSet.from_array(np.zeros((len(items), 2)), ids=["taken", "t1"])

        # 20 initial + ceil(.05*20)=1 + ceil(.05*21)=2; iteration 3 fails
        initial = EmbeddingSet.from_array(
            gaussian_set(GaussianSpec(k=2, seed=5), 20).vectors,
            ids=[f"x{i}" for i in range(19)] + ["b3_taken"],
        )
        src = Faulty()
        start = 4 if fault == "bootstrap" else initial
        with pytest.raises(error) as ei:
            run_saturation(start, src, src, SaturationConfig(seed=0, early_stop=50))
        assert len(ei.value.trace_steps) == steps
        if partial_size is None:
            assert ei.value.partial_set is None
        else:
            assert ei.value.partial_set.size == partial_size
            assert ei.value.partial_set.ids()[:20] == initial.ids()

    def test_drift_takes_longer_sample(self):
        """Spot-check of the drift property at the pinned parameterization."""
        wins = 0
        pairs = 25
        for seed in range(pairs):
            init = gaussian_set(GaussianSpec(k=4, sigma=0.15, seed=seed), 50)
            cfg = SaturationConfig(seed=seed, perc=0.2, max_iterations=30, mmd_repetitions=16)
            stat = stationary_provider(GaussianSpec(k=4, sigma=0.15, seed=10_000 + seed))
            _, ts = run_saturation(init, stat, stat, cfg)
            drft = drifting_provider(
                DriftSpec(GaussianSpec(k=4, sigma=0.15, seed=10_000 + seed), drift=(0.5, 0.0, 0.0, 0.0))
            )
            _, td = run_saturation(init, drft, drft, cfg)
            if td.iterations > ts.iterations:
                wins += 1
        assert wins >= 22


class TestExternal:
    def test_stub_provider_emits_batch(self, stub_script):
        argv = stub_script(
            """
            import argparse, json
            p = argparse.ArgumentParser()
            p.add_argument("--count", type=int, required=True)
            p.add_argument("--activity", default="")
            a = p.parse_args()
            for i in range(a.count):
                print(json.dumps({"text": f"{a.activity or 'item'} {i}"}))
            """
        )
        provider = external_provider(argv)
        assert provider.next_batch(3) == ["item 0", "item 1", "item 2"]
        got = provider.next_batch(2, {"activity": "walking"})
        assert got == ["walking 0", "walking 1"]

    def test_stub_provider_failure_carries_stderr(self, stub_script):
        argv = stub_script(
            """
            import sys
            sys.stderr.write("backend unavailable\\n")
            sys.exit(1)
            """
        )
        with pytest.raises(ProviderError) as ei:
            external_provider(argv).next_batch(2)
        assert "backend unavailable" in str(ei.value)

    def test_stub_provider_short_output_is_exhaustion(self, stub_script):
        argv = stub_script(
            """
            import argparse, json
            p = argparse.ArgumentParser()
            p.add_argument("--count", type=int, required=True)
            p.add_argument("--activity", default="")
            a = p.parse_args()
            for i in range(max(0, a.count - 2)):
                print(json.dumps({"text": f"t{i}"}))
            """
        )
        assert external_provider(argv).next_batch(5) == ["t0", "t1", "t2"]

    def test_stub_provider_overrun_rejected(self, stub_script):
        argv = stub_script(
            """
            import json
            for i in range(9):
                print(json.dumps({"text": f"t{i}"}))
            """
        )
        with pytest.raises(ProtocolError):
            external_provider(argv).next_batch(3)

    def test_stub_provider_text_with_unicode_line_separators(self, stub_script):
        argv = stub_script(
            """
            import json, sys
            for text in ["caption\\u20280", "caption\\u20291", "caption\\u00852"]:
                line = json.dumps({"text": text}, ensure_ascii=False) + "\\n"
                sys.stdout.buffer.write(line.encode("utf-8"))
            """
        )
        got = external_provider(argv).next_batch(3)
        assert got == ["caption\u20280", "caption\u20291", "caption\u00852"]

    @pytest.mark.parametrize("command", ["", "   ", [], "'unclosed"])
    def test_command_that_cannot_be_run_is_spawn_error(self, command):
        for wrap in (external_provider, external_embedder, external_judge):
            with pytest.raises(SpawnError):
                wrap(command)

    def test_command_that_cannot_launch_is_spawn_error(self, not_a_program, tmp_path):
        prompt = build_filter_prompts("walking", [CaptionItem("a", "a person walks", "walking")])[0]
        for command in ([not_a_program], [str(tmp_path / "missing")], ["py\0thon"]):
            with pytest.raises(SpawnError):
                external_provider(command).next_batch(1)
            with pytest.raises(SpawnError):
                external_embedder(command).embed(["a"])
            with pytest.raises(SpawnError):
                external_judge(command).judge(prompt)

    def test_stub_provider_past_its_timeout(self, stub_script):
        argv = stub_script("import time\ntime.sleep(60)\n")
        with pytest.raises(ProviderError, match="timed out after 0.5s"):
            external_provider(argv, timeout=0.5).next_batch(1)

    def test_stub_provider_text_must_be_a_string(self, stub_script):
        argv = stub_script("""print('{"text": 5}')\n""")
        with pytest.raises(ProtocolError, match='"text" must be a string'):
            external_provider(argv).next_batch(1)

    def test_stub_embedder_malformed_line(self, stub_script):
        argv = stub_script('print("not json")\n')
        with pytest.raises(ProtocolError, match="embedder line 1"):
            external_embedder(argv).embed(["a"])

    def test_stub_provider_malformed_line(self, stub_script):
        argv = stub_script('print("not json")\n')
        with pytest.raises(ProtocolError):
            external_provider(argv).next_batch(1)

    def test_stub_embedder_round_trip(self, stub_script):
        argv = stub_script(
            """
            import hashlib, json, sys
            for line in sys.stdin:
                line = line.strip()
                if not line:
                    continue
                obj = json.loads(line)
                h = hashlib.sha256(obj["text"].encode()).digest()
                vec = [b / 255.0 for b in h[:4]]
                print(json.dumps({"id": str(obj["id"]), "vector": vec}))
            """
        )
        embedder = external_embedder(argv)
        got = embedder.embed(["alpha", "beta"])
        assert got.size == 2
        assert got.dimension == 4
        again = embedder.embed(["alpha", "beta"])
        assert got == again

    def test_stub_embedder_count_mismatch(self, stub_script):
        argv = stub_script(
            """
            import json, sys
            lines = [l for l in sys.stdin if l.strip()]
            for i in range(len(lines) - 1):
                print(json.dumps({"id": str(i), "vector": [0.0]}))
            """
        )
        with pytest.raises(ProtocolError):
            external_embedder(argv).embed(["a", "b", "c"])

    def test_stub_embedder_dimension_drift(self, stub_script):
        argv = stub_script(
            """
            import json, sys
            lines = [l for l in sys.stdin if l.strip()]
            for i, _ in enumerate(lines):
                vec = [0.0] * (2 if i else 3)
                print(json.dumps({"id": str(i), "vector": vec}))
            """
        )
        with pytest.raises(DimensionMismatch):
            external_embedder(argv).embed(["a", "b"])

    def test_end_to_end_with_stubs(self, stub_script, tmp_path):
        provider_argv = stub_script(
            """
            import argparse, json
            p = argparse.ArgumentParser()
            p.add_argument("--count", type=int, required=True)
            p.add_argument("--activity", default="")
            a = p.parse_args()
            for i in range(a.count):
                print(json.dumps({"text": f"tok{i}"}))
            """
        )
        embedder_argv = stub_script(
            """
            import hashlib, json, sys
            for line in sys.stdin:
                line = line.strip()
                if not line:
                    continue
                obj = json.loads(line)
                h = hashlib.blake2b(obj["text"].encode(), digest_size=8).digest()
                vec = [h[i] / 64.0 for i in range(4)]
                print(json.dumps({"id": str(obj["id"]), "vector": vec}))
            """
        )
        initial = gaussian_set(GaussianSpec(k=4, sigma=1.0, seed=0), 20)
        final, trace = run_saturation(
            initial,
            external_provider(provider_argv),
            external_embedder(embedder_argv),
            SaturationConfig(seed=3, max_iterations=12),
        )
        assert trace.iterations >= 1
        assert final.size > 20
        out = tmp_path / "trace.jsonl"
        write_trace(trace, out)
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(lines) == trace.iterations
        assert lines[0]["iteration"] == 1
        assert set(lines[0]) == {
            "iteration", "batch_size", "mmd_mean", "mmd_stddev",
            "in_window", "stop_condition", "range_min", "range_max",
        }


# The embedder child records its pid in LAUNCHED as it starts, before it
# reads any input, and appends its pid to FED once its batch has arrived.
EARLY_EMBEDDER = """
import json, os, sys
with open({launched!r} + ".tmp", "w") as fh:
    fh.write(str(os.getpid()))
os.replace({launched!r} + ".tmp", {launched!r})
rows = [json.loads(line) for line in sys.stdin if line.strip()]
with open({fed!r}, "a") as fh:
    fh.write(f"{{os.getpid()}}\\n")
for row in rows:
    print(json.dumps({{"id": str(row["id"]), "vector": [float(len(row["text"])), float(row["id"])]}}))
"""

# The provider fails unless an embedder child has started before it runs; it
# moves that child's pid from LAUNCHED to SEEN, and past its first CALLS
# calls it runs PAST_LIMIT instead of printing its batch.
EARLY_PROVIDER = """
import argparse, json, os, sys, time
p = argparse.ArgumentParser()
p.add_argument("--count", type=int, required=True)
a = p.parse_args()
deadline = time.monotonic() + 30
while not os.path.exists({launched!r}):
    if time.monotonic() > deadline:
        sys.exit("no embedder child was started before the provider ran")
    time.sleep(0.01)
with open({launched!r}) as fh:
    pid = fh.read()
os.remove({launched!r})
with open({seen!r}, "a") as fh:
    fh.write(pid + "\\n")
with open({seen!r}) as fh:
    calls = len(fh.read().split())
if calls > {calls}:
    {past_limit}
for i in range(a.count):
    print(json.dumps({{"text": f"t{{calls}}_{{i}}"}}))
"""


def wait_for_launch(launched, seconds=30.0):
    """The pid an early embedder child recorded in ``launched``; the file is removed."""
    deadline = time.monotonic() + seconds
    while not launched.exists():
        assert time.monotonic() < deadline, "no embedder child was started"
        time.sleep(0.01)
    pid = int(launched.read_text())
    launched.unlink()
    return pid


class TestEarlyLaunch:
    """An external embedder's child starts before the provider call that makes its batch."""

    @pytest.fixture
    def files(self, tmp_path):
        return {name: tmp_path / name for name in ("launched", "seen", "fed")}

    def commands(self, stub_script, files, calls=100, past_limit="pass"):
        names = {name: str(path) for name, path in files.items()}
        embedder = stub_script(EARLY_EMBEDDER.format(**names))
        provider = stub_script(EARLY_PROVIDER.format(calls=calls, past_limit=past_limit, **names))
        return provider, embedder

    @staticmethod
    def pids(path):
        return [int(pid) for pid in path.read_text().split()] if path.exists() else []

    def assert_reaped_unfed(self, pid, files):
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
        assert pid not in self.pids(files["fed"])
        assert not files["launched"].exists()

    def test_embedder_starts_before_the_provider_runs(self, stub_script, files):
        provider, embedder = self.commands(stub_script, files)
        final, trace = run_saturation(
            4, external_provider(provider), external_embedder(embedder),
            SaturationConfig(seed=0, max_iterations=2),
        )
        assert (trace.iterations, trace.reason) == (2, StopReason.MAX_ITERATIONS)
        assert final.size == 4 + 1 + 1
        # bootstrap plus two iterations: each child started early was fed its batch
        assert self.pids(files["seen"]) == self.pids(files["fed"])
        assert len(self.pids(files["fed"])) == 3
        assert not files["launched"].exists()

    def test_child_is_killed_unfed_on_exhaustion(self, stub_script, files):
        provider, embedder = self.commands(stub_script, files, calls=2, past_limit="sys.exit()")
        final, trace = run_saturation(
            4, external_provider(provider), external_embedder(embedder),
            SaturationConfig(seed=0, max_iterations=50),
        )
        assert (trace.iterations, trace.reason) == (1, StopReason.PROVIDER_EXHAUSTED)
        seen = self.pids(files["seen"])
        assert len(seen) == 3
        self.assert_reaped_unfed(seen[-1], files)

    def test_wrapper_script_children_are_killed_with_it(self, stub_script, files):
        provider, embedder = self.commands(stub_script, files, calls=2, past_limit="sys.exit()")
        # "|| exit" keeps sh from exec-ing the stub: the stub is sh's child
        wrapped = ["sh", "-c", f"{shlex.join(embedder)} || exit 1"]
        _, trace = run_saturation(
            4, external_provider(provider), external_embedder(wrapped),
            SaturationConfig(seed=0, max_iterations=50),
        )
        assert (trace.iterations, trace.reason) == (1, StopReason.PROVIDER_EXHAUSTED)
        last = self.pids(files["seen"])[-1]
        # a stub left running would read EOF on its closed stdin and record itself
        time.sleep(1)
        assert self.pids(files["fed"]) == self.pids(files["seen"])[:-1]
        assert last not in self.pids(files["fed"])

    def test_child_is_killed_unfed_on_provider_failure(self, stub_script, files):
        provider, embedder = self.commands(
            stub_script, files, calls=1, past_limit="sys.exit('backend gone')")
        with pytest.raises(ProviderError, match="backend gone") as ei:
            run_saturation(4, external_provider(provider), external_embedder(embedder),
                           SaturationConfig(seed=0, max_iterations=50))
        assert len(ei.value.trace_steps) == 0
        assert ei.value.partial_set.size == 4
        seen = self.pids(files["seen"])
        assert len(seen) == 2
        self.assert_reaped_unfed(seen[-1], files)

    def test_child_is_killed_unfed_on_interrupt(self, stub_script, files):
        _, embedder = self.commands(stub_script, files)
        pids = []

        class Interrupted:
            def next_batch(self, count, context=None):
                pids.append(wait_for_launch(files["launched"]))
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_saturation(4, Interrupted(), external_embedder(embedder))
        self.assert_reaped_unfed(pids[0], files)

    @pytest.mark.parametrize("provider_fails, error", [(True, ProviderError), (False, SpawnError)])
    def test_launch_failure_is_raised_where_the_embed_runs(
        self, stub_script, tmp_path, provider_fails, error
    ):
        provider = stub_script(
            "import sys\nsys.exit('backend gone')\n" if provider_fails else
            "import json\nprint(json.dumps({'text': 'a'}))\n"
        )
        with pytest.raises(error) as ei:
            run_saturation(1, external_provider(provider),
                           external_embedder([str(tmp_path / "missing")]))
        assert ei.value.partial_set is None

    def test_embedder_timeout_counts_from_its_input(self, stub_script, files):
        _, embedder = self.commands(stub_script, files)

        class Slow:
            def next_batch(self, count, context=None):
                wait_for_launch(files["launched"])
                time.sleep(1.5)
                return ["a", "b"][:count]

        final, trace = run_saturation(
            tiny_set([1.0, 0.0], [2.0, 1.0]), Slow(), external_embedder(embedder, timeout=1.0),
            SaturationConfig(seed=0, max_iterations=1),
        )
        assert (final.size, trace.iterations) == (3, 1)


class TestConfigValidation:
    def test_perc_bounds(self):
        with pytest.raises(ValueError):
            SaturationConfig(perc=0.0)
        with pytest.raises(ValueError):
            SaturationConfig(perc=1.5)

    def test_max_iterations_bounds(self):
        with pytest.raises(ValueError):
            SaturationConfig(max_iterations=0)

    def test_early_stop_non_negative(self):
        with pytest.raises(ValueError):
            SaturationConfig(early_stop=-1)
