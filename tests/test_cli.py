"""Subprocess tests for the command-line interface.

Every test drives the real entry point (``python -m divsat``) and asserts
the exit-code contract: 0 with a JSON report on stdout, 1 with an error
object on stderr for domain failures, 2 for usage problems.
"""

import argparse
import json
import math
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

from divsat import (
    EmbeddingSet,
    KernelConfig,
    __version__,
    diversity_report,
    load_set,
    mmd_calculator,
    write_set,
)
from divsat.cli import build_parser
from divsat.synth import GaussianSpec, gaussian_set, token_vector

SQUARE = [
    {"id": "a", "vector": [0.0, 0.0]},
    {"id": "b", "vector": [2.0, 0.0]},
    {"id": "c", "vector": [0.0, 2.0]},
    {"id": "d", "vector": [2.0, 2.0]},
]


def report_of(stdout):
    payload = json.loads(stdout)
    assert set(payload) == {"command", "config", "duration_s", "result", "version"}
    return payload


def error_of(stderr):
    payload = json.loads(stderr)
    assert set(payload) == {"error"}
    assert set(payload["error"]) == {"code", "message"}
    return payload["error"]


class TestDispatch:
    def test_version_flag(self, run_cli):
        code, out, err = run_cli("--version")
        assert code == 0
        assert out.strip() == f"divsat {__version__}"

    def test_no_subcommand_is_usage_error(self, run_cli):
        code, out, err = run_cli()
        assert code == 2
        assert "usage" in err.lower()

    def test_unknown_subcommand_is_usage_error(self, run_cli):
        code, out, err = run_cli("frobnicate")
        assert code == 2

    def test_subcommand_help(self, run_cli):
        code, out, err = run_cli("mmd", "--help")
        assert code == 0
        assert "--reps" in out

    def test_missing_file_is_domain_error(self, run_cli, tmp_path):
        code, out, err = run_cli("diversity", tmp_path / "absent.jsonl")
        assert code == 1
        assert error_of(err)["code"] == "io_error"

    def test_malformed_input_error_code(self, run_cli, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        code, out, err = run_cli("diversity", bad)
        assert code == 1
        assert error_of(err)["code"] == "malformed_line"

    @pytest.mark.parametrize("argv", [
        ("diversity", "BAD"),
        ("filter", "eval", "--verdicts", "BAD", "--truth", "BAD"),
    ])
    def test_invalid_utf8_file_is_domain_error(self, run_cli, tmp_path, argv):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b'\xff\xfe{"id": "a", "vector": [1.0]}\n')
        code, out, err = run_cli(*[bad if arg == "BAD" else arg for arg in argv])
        assert code == 1
        assert "Traceback" not in err
        error = error_of(err)
        assert error["code"] == "malformed_line"
        assert str(bad) in error["message"] and "UTF-8" in error["message"]

    @pytest.mark.parametrize("fmt", ["json", "pretty"])
    @pytest.mark.parametrize("command", ["diversity", "impact", "mmd"])
    def test_non_finite_result_is_domain_error(self, run_cli, write_jsonl, command, fmt):
        # finite rows whose squared spread overflows to infinity
        rows = write_jsonl("big.jsonl", [{"id": "a", "vector": [1e200, 1]},
                                         {"id": "b", "vector": [-1e200, 2]}])
        files = (rows,) if command == "diversity" else (rows, rows)
        code, out, err = run_cli(command, *files, "--format", fmt)
        assert code == 1
        assert out == ""
        # numpy's overflow warnings are silenced: stderr is the one error object
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"]["code"] == "non_finite_value"


def options_of(parser):
    """Every optional action of ``parser`` and of its subparsers, recursively."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from options_of(sub)
        elif action.option_strings:
            yield action


def test_only_seed_is_a_bare_number():
    # a numeric flag without a range-checked type would reach the handlers unchecked
    actions = list(options_of(build_parser()))
    flags = {flag for action in actions for flag in action.option_strings}
    assert {"--retries", "--limit", "--timeout", "--perc"} <= flags
    bare = {
        flag
        for action in actions if action.type in (int, float)
        for flag in action.option_strings
    }
    assert bare == {"--seed"}


class TestReportEnvelope:
    def test_payload_shape_and_key_order(self, run_cli, write_jsonl):
        path = write_jsonl("square.jsonl", SQUARE)
        code, out, err = run_cli("diversity", path)
        assert code == 0
        payload = report_of(out)
        assert payload["command"] == "diversity"
        assert payload["version"] == __version__
        assert payload["config"]["seed"] == 0
        assert payload["duration_s"] >= 0
        # stdout must already be in sorted-key form, byte for byte
        assert out.strip() == json.dumps(payload, sort_keys=True)

    def test_result_payload_is_deterministic(self, run_cli, write_jsonl):
        path = write_jsonl("square.jsonl", SQUARE)
        runs = [run_cli("diversity", path) for _ in range(2)]
        results = [report_of(out)["result"] for code, out, err in runs]
        assert results[0] == results[1]

    def test_pretty_format(self, run_cli, write_jsonl):
        path = write_jsonl("square.jsonl", SQUARE)
        code, out, err = run_cli("diversity", path, "--format", "pretty")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith(f"divsat diversity (v{__version__}")
        # aligned two-column rows below the header
        assert any(row.strip().startswith("std_metric") for row in lines[1:])
        with pytest.raises(ValueError):
            json.loads(out)

    def test_json_flag_overrides_pretty_and_echoes_the_format(self, run_cli, write_jsonl):
        path = write_jsonl("square.jsonl", SQUARE)
        code, out, err = run_cli("diversity", path, "--format", "pretty", "--json")
        assert code == 0
        config = report_of(out)["config"]
        assert config["format"] == "pretty"
        assert config["json"] is True


class TestSeedResolution:
    def test_env_fallback_matches_flag(self, run_cli, tmp_path):
        out_flag = tmp_path / "flag.jsonl"
        out_env = tmp_path / "env.jsonl"
        args = ("synth", "--k", 3, "--n", 20)
        code, _, _ = run_cli(*args, "--seed", 7, "--out", out_flag)
        assert code == 0
        code, _, _ = run_cli(*args, "--out", out_env, env={"DIVSAT_SEED": "7"})
        assert code == 0
        assert out_flag.read_bytes() == out_env.read_bytes()

    def test_flag_wins_over_env(self, run_cli, tmp_path):
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        args = ("synth", "--k", 3, "--n", 20)
        run_cli(*args, "--seed", 1, "--out", out_a, env={"DIVSAT_SEED": "99"})
        run_cli(*args, "--seed", 1, "--out", out_b)
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_env_seed_is_echoed(self, run_cli, write_jsonl):
        path = write_jsonl("square.jsonl", SQUARE)
        code, out, err = run_cli("diversity", path, env={"DIVSAT_SEED": "9"})
        assert code == 0
        assert report_of(out)["config"]["seed"] == 9

    def test_bad_env_seed_is_usage_error(self, run_cli, write_jsonl):
        path = write_jsonl("square.jsonl", SQUARE)
        code, out, err = run_cli("diversity", path, env={"DIVSAT_SEED": "many"})
        assert code == 2
        assert err.startswith("divsat:")
        with pytest.raises(ValueError):
            json.loads(err)


class TestDiversityCommand:
    def test_square_anchor_values(self, run_cli, write_jsonl):
        path = write_jsonl("square.jsonl", SQUARE)
        code, out, err = run_cli("diversity", path)
        result = report_of(out)["result"]
        assert result["std_metric"] == pytest.approx(1.0, abs=1e-12)
        assert result["centroid_metric"] == pytest.approx(2.0, abs=1e-12)
        assert result["n"] == 4 and result["k"] == 2
        assert result["centroid"] == [1.0, 1.0]

    def test_huge_integer_is_non_finite(self, run_cli, tmp_path):
        path = tmp_path / "huge.jsonl"
        path.write_text('{"id": "a", "vector": [1.0, 2.0]}\n'
                        '{"id": "b", "vector": [' + "1" * 400 + ', 0.0]}\n')
        code, out, err = run_cli("diversity", path)
        assert code == 1
        error = error_of(err)
        assert error["code"] == "non_finite_value"
        assert "line 2" in error["message"]

    def test_matches_library_report(self, run_cli, write_jsonl):
        rng = np.random.default_rng(11)
        rows = [
            {"id": str(i), "vector": [float(v) for v in rng.normal(size=5)]}
            for i in range(30)
        ]
        path = write_jsonl("cloud.jsonl", rows)
        code, out, err = run_cli("diversity", path)
        result = report_of(out)["result"]
        score = diversity_report(load_set(path))
        assert result["std_metric"] == score.std_metric
        assert result["centroid_metric"] == score.centroid_metric
        assert result["axis_means"] == [float(v) for v in score.axis.means]


class TestMmdCommand:
    def write_pair(self, write_jsonl, nx, ny, seed=0):
        rng = np.random.default_rng(seed)
        x = write_jsonl(
            f"x{nx}.jsonl",
            [{"id": f"x{i}", "vector": list(map(float, rng.normal(size=3)))} for i in range(nx)],
        )
        y = write_jsonl(
            f"y{ny}.jsonl",
            [{"id": f"y{i}", "vector": list(map(float, rng.normal(1.0, 1.0, size=3)))} for i in range(ny)],
        )
        return x, y

    def test_identical_sets_are_zero(self, run_cli, write_jsonl):
        x, _ = self.write_pair(write_jsonl, 8, 8)
        code, out, err = run_cli("mmd", x, x)
        result = report_of(out)["result"]
        assert result["mean"] == 0.0
        assert result["stddev"] == 0.0
        assert result["repetitions"] == 1
        assert result["normalized"] is True
        assert result["sizes"] == [8, 8]

    def test_size_mismatch_without_reps(self, run_cli, write_jsonl):
        x, y = self.write_pair(write_jsonl, 8, 5)
        code, out, err = run_cli("mmd", x, y)
        assert code == 1
        error = error_of(err)
        assert error["code"] == "size_mismatch"
        assert "mmd_calculator" in error["message"]
        assert "--reps" in error["message"]

    def test_resampling_matches_library(self, run_cli, write_jsonl):
        x, y = self.write_pair(write_jsonl, 9, 6)
        code, out, err = run_cli("mmd", x, y, "--reps", 7, "--seed", 3)
        assert code == 0
        result = report_of(out)["result"]
        est = mmd_calculator(
            load_set(x), load_set(y), KernelConfig(), repetitions=7, seed=3
        )
        assert result["mean"] == est.mean
        assert result["stddev"] == est.stddev
        assert result["repetitions"] == 7
        assert result["bandwidth_used"] == est.bandwidth_used

    def test_seed_changes_resampled_estimate(self, run_cli, write_jsonl):
        x, y = self.write_pair(write_jsonl, 9, 6)
        outs = []
        for seed in (1, 2):
            code, out, err = run_cli("mmd", x, y, "--reps", 5, "--seed", seed)
            outs.append(report_of(out)["result"]["mean"])
        assert outs[0] != outs[1]

    def test_unnormalized_scales_by_n_squared(self, run_cli, write_jsonl):
        x, y = self.write_pair(write_jsonl, 8, 8)
        _, out_norm, _ = run_cli("mmd", x, y)
        _, out_raw, _ = run_cli("mmd", x, y, "--unnormalized")
        norm = report_of(out_norm)["result"]
        raw = report_of(out_raw)["result"]
        assert raw["normalized"] is False
        assert raw["mean"] == pytest.approx(norm["mean"] * 64.0, rel=1e-12)

    def test_explicit_bandwidth_is_echoed(self, run_cli, write_jsonl):
        x, y = self.write_pair(write_jsonl, 8, 8)
        code, out, err = run_cli("mmd", x, y, "--bandwidth", 2.5)
        assert report_of(out)["result"]["bandwidth_used"] == 2.5

    def test_bandwidth_and_median_conflict(self, run_cli, write_jsonl):
        x, y = self.write_pair(write_jsonl, 8, 8)
        code, out, err = run_cli("mmd", x, y, "--bandwidth", 2.5, "--median")
        assert code == 2

    @pytest.mark.parametrize("bandwidth", ["-1", "0", "nan", "inf"])
    def test_bad_bandwidth_is_usage_error(self, run_cli, write_jsonl, bandwidth):
        x, y = self.write_pair(write_jsonl, 8, 8)
        code, out, err = run_cli("mmd", x, y, "--bandwidth", bandwidth)
        assert code == 2
        assert out == ""
        assert "--bandwidth" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value, x_exists", [("0", True), ("-3", True), ("0", False)])
    def test_bad_reps_rejected_before_any_file_is_read(self, run_cli, write_jsonl, tmp_path,
                                                       value, x_exists):
        x, y = self.write_pair(write_jsonl, 8, 5)
        if not x_exists:
            x = tmp_path / "missing.jsonl"
        code, out, err = run_cli("mmd", x, y, "--reps", value)
        assert code == 2
        assert out == ""
        assert "--reps" in err
        assert "io_error" not in err
        assert "Traceback" not in err


class TestSynthCommand:
    def test_writes_loadable_deterministic_set(self, run_cli, tmp_path):
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        for out in (out_a, out_b):
            code, stdout, err = run_cli(
                "synth", "--k", 4, "--n", 25, "--sigma", 0.5, "--seed", 9, "--out", out
            )
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        embeddings = load_set(out_a)
        assert embeddings.size == 25 and embeddings.dimension == 4

    def test_matches_library_generator(self, run_cli, tmp_path):
        out = tmp_path / "s.jsonl"
        run_cli("synth", "--k", 3, "--n", 10, "--sigma", 2.0, "--seed", 4, "--out", out)
        spec = GaussianSpec(k=3, sigma=2.0, seed=4)
        expected = gaussian_set(spec, 10)
        got = load_set(out)
        assert np.array_equal(got.vectors, expected.vectors)

    def test_out_is_a_directory_is_io_error(self, run_cli, tmp_path):
        code, stdout, err = run_cli("synth", "--k", 2, "--n", 3, "--out", tmp_path)
        assert code == 1
        assert "Traceback" not in err
        assert error_of(err)["code"] == "io_error"
        assert stdout == ""

    def test_mean_shift_broadcast(self, run_cli, tmp_path):
        out = tmp_path / "m.jsonl"
        code, stdout, err = run_cli(
            "synth", "--k", 3, "--n", 400, "--sigma", 0.1,
            "--mean-shift", "2.0", "--seed", 0, "--out", out,
        )
        result = report_of(stdout)["result"]
        assert result["mean"] == [2.0, 2.0, 2.0]
        centroid = load_set(out).vectors.mean(axis=0)
        assert np.allclose(centroid, 2.0, atol=0.05)

    def test_mean_shift_component_list(self, run_cli, tmp_path):
        out = tmp_path / "m.jsonl"
        code, stdout, err = run_cli(
            "synth", "--k", 3, "--n", 5, "--mean-shift", "1,2,3", "--out", out
        )
        assert report_of(stdout)["result"]["mean"] == [1.0, 2.0, 3.0]

    def test_mean_shift_wrong_arity(self, run_cli, tmp_path):
        code, stdout, err = run_cli(
            "synth", "--k", 3, "--n", 5, "--mean-shift", "1,2",
            "--out", tmp_path / "m.jsonl",
        )
        assert code == 2
        assert err.startswith("divsat:")

    def test_nonpositive_counts_rejected(self, run_cli, tmp_path):
        code, _, err = run_cli("synth", "--k", 0, "--n", 5, "--out", tmp_path / "x")
        assert code == 2
        code, _, err = run_cli("synth", "--k", 2, "--n", 0, "--out", tmp_path / "x")
        assert code == 2

    @pytest.mark.parametrize("flag, value", [
        ("--sigma", "0"), ("--sigma", "-1"), ("--sigma", "nan"), ("--sigma", "inf"),
        ("--mean-shift", "inf"), ("--mean-shift", "0,nan"),
    ])
    def test_bad_distribution_rejected(self, run_cli, tmp_path, flag, value):
        out = tmp_path / "x.jsonl"
        code, stdout, err = run_cli("synth", "--k", 2, "--n", 5, flag, value, "--out", out)
        assert code == 2
        assert flag in err
        assert "Traceback" not in err
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("role, flag, value", [
        ("provider", "--sigma", "-1"), ("embedder", "--sigma", "inf"),
        ("embedder", "--mean", "nan"), ("embedder", "--drift", "inf"),
        ("provider", "--limit", "-1"), ("provider", "--count", "-1"),
    ])
    def test_provider_bad_distribution_rejected(self, run_cli, tmp_path, role, flag, value):
        state = tmp_path / "counter"
        code, stdout, err = run_cli(
            "synth-provider", "--role", role, "--k", 2, "--count", 3, "--state", state,
            flag, value, stdin='{"text": "a"}\n',
        )
        assert code == 2
        assert flag in err
        assert "Traceback" not in err
        assert stdout == ""
        assert not state.exists()


class TestSynthProviderCommand:
    def test_provider_role_emits_wire_lines(self, run_cli):
        code, out, err = run_cli(
            "synth-provider", "--role", "provider", "--k", 2, "--count", 3
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows == [{"text": "tok0"}, {"text": "tok1"}, {"text": "tok2"}]

    def test_provider_output_is_raw_not_report(self, run_cli):
        code, out, err = run_cli(
            "synth-provider", "--role", "provider", "--k", 2, "--count", 1
        )
        assert "command" not in json.loads(out.splitlines()[0])

    def test_zero_count_emits_nothing(self, run_cli):
        code, out, err = run_cli(
            "synth-provider", "--role", "provider", "--k", 2, "--count", 0
        )
        assert code == 0
        assert out == ""

    def test_count_required_for_provider_role(self, run_cli):
        code, out, err = run_cli("synth-provider", "--role", "provider", "--k", 2)
        assert code == 2

    def test_state_advances_token_stream(self, run_cli, tmp_path):
        state = tmp_path / "state"
        args = ("synth-provider", "--role", "provider", "--k", 2,
                "--count", 2, "--state", state)
        _, first, _ = run_cli(*args)
        _, second, _ = run_cli(*args)
        assert [json.loads(l)["text"] for l in first.splitlines()] == ["tok0", "tok1"]
        assert [json.loads(l)["text"] for l in second.splitlines()] == ["tok2", "tok3"]

    def test_limit_exhausts_provider(self, run_cli, tmp_path):
        state = tmp_path / "state"
        args = ("synth-provider", "--role", "provider", "--k", 2,
                "--count", 4, "--state", state, "--limit", 6)
        _, first, _ = run_cli(*args)
        _, second, _ = run_cli(*args)
        _, third, _ = run_cli(*args)
        assert len(first.splitlines()) == 4
        assert len(second.splitlines()) == 2
        assert third == ""

    def test_embedder_role_round_trip(self, run_cli):
        stdin = '{"id": "p", "text": "alpha"}\n{"text": "beta"}\n'
        code, out, err = run_cli(
            "synth-provider", "--role", "embedder", "--k", 3,
            "--sigma", 0.5, "--seed", 6, stdin=stdin,
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert [r["id"] for r in rows] == ["p", "1"]
        spec = GaussianSpec(k=3, sigma=0.5, seed=6)
        assert rows[0]["vector"] == [float(v) for v in token_vector("alpha", spec)]
        assert rows[1]["vector"] == [float(v) for v in token_vector("beta", spec)]

    def test_embedder_stdin_with_unicode_line_separators(self, run_cli):
        texts = ["a\u2028b", "c\u2029d", "e\u0085f"]
        stdin = "".join(json.dumps({"id": i, "text": t}, ensure_ascii=False) + "\r\n"
                        for i, t in enumerate(texts))
        code, out, err = run_cli(
            "synth-provider", "--role", "embedder", "--k", 2, "--seed", 4, stdin=stdin,
        )
        assert code == 0, err
        spec = GaussianSpec(k=2, seed=4)
        assert [json.loads(line) for line in out.splitlines()] == [
            {"id": str(i), "vector": [float(v) for v in token_vector(t, spec)]}
            for i, t in enumerate(texts)
        ]

    def test_embedder_drift_offsets_later_calls(self, run_cli, tmp_path):
        state = tmp_path / "state"
        args = ("synth-provider", "--role", "embedder", "--k", 2, "--sigma", 0.1,
                "--seed", 1, "--drift", "0.5,0", "--state", state)
        stdin = '{"id": "a", "text": "same"}\n'
        _, first, _ = run_cli(*args, stdin=stdin)
        _, second, _ = run_cli(*args, stdin=stdin)
        spec = GaussianSpec(k=2, sigma=0.1, seed=1)
        base = token_vector("same", spec)
        shifted = token_vector("same", spec, offset=np.array([0.5, 0.0]))
        assert json.loads(first)["vector"] == [float(v) for v in base]
        assert json.loads(second)["vector"] == [float(v) for v in shifted]

    def test_embedder_rejects_overflowing_draw(self, run_cli):
        stdin = "".join(f'{{"text": "tok{i}"}}\n' for i in range(4))
        code, out, err = run_cli(
            "synth-provider", "--role", "embedder", "--k", 3, "--sigma", "1e308", stdin=stdin,
        )
        assert code == 1
        assert error_of(err)["code"] == "non_finite_value"
        assert out == ""

    def test_embedder_rejects_malformed_stdin(self, run_cli):
        code, out, err = run_cli(
            "synth-provider", "--role", "embedder", "--k", 2, stdin="not json\n"
        )
        assert code == 1
        assert error_of(err)["code"] == "malformed_line"

    @pytest.mark.parametrize("content", [b"\xff", b"-5", b"tok"], ids=["not-utf8", "negative", "text"])
    def test_corrupt_state_is_usage_error(self, run_cli, tmp_path, content):
        state = tmp_path / "state"
        state.write_bytes(content)
        code, stdout, err = run_cli(
            "synth-provider", "--role", "provider", "--k", 2, "--count", 2, "--state", state
        )
        assert code == 2
        assert "is corrupt" in err
        assert "Traceback" not in err
        assert stdout == ""
        assert state.read_bytes() == content

    def test_state_in_missing_directory_is_io_error(self, run_cli, tmp_path):
        state = tmp_path / "no-such-dir" / "state"
        code, stdout, err = run_cli(
            "synth-provider", "--role", "provider", "--k", 2, "--count", 2, "--state", state
        )
        assert code == 1
        assert "Traceback" not in err
        assert error_of(err)["code"] == "io_error"
        assert stdout == ""

    def test_embedder_stdin_lone_cr_ends_a_line(self, run_cli):
        records = ['{"id": "a", "text": "alpha"}', '{"id": "b", "text": "beta"}']
        outs = []
        for sep in ("\n", "\r"):
            code, out, err = run_cli(
                "synth-provider", "--role", "embedder", "--k", 2, "--seed", 3,
                stdin=(sep.join(records) + sep).encode("utf-8"),
            )
            assert code == 0, err
            outs.append(out)
        assert len(outs[0].splitlines()) == 2
        assert outs[1] == outs[0]

    def test_embedder_writes_records_as_write_set_does(self, run_cli, tmp_path):
        code, out, err = run_cli(
            "synth-provider", "--role", "embedder", "--k", 2, "--seed", 3,
            stdin='{"id": "café", "text": "a"}\n'.encode("utf-8"),
        )
        assert code == 0, err
        vector = token_vector("a", GaussianSpec(k=2, seed=3))
        write_set(EmbeddingSet.from_array(vector[None, :], ids=["café"]), tmp_path / "want.jsonl")
        assert out == (tmp_path / "want.jsonl").read_text(encoding="utf-8")

    def test_embedder_rejects_stdin_that_is_not_utf8(self, run_cli):
        code, out, err = run_cli(
            "synth-provider", "--role", "embedder", "--k", 2, stdin=b'{"text": "a\xff"}\n'
        )
        assert code == 1
        assert "Traceback" not in err
        error = error_of(err)
        assert error["code"] == "malformed_line"
        assert "UTF-8" in error["message"]
        assert out == ""


def quoted(*parts):
    return " ".join(shlex.quote(str(p)) for p in parts)


class TestSaturateCommand:
    def saturate_args(self, tmp_path, tag, max_iter=12):
        state = tmp_path / f"prov-{tag}.state"
        provider = quoted(
            sys.executable, "-m", "divsat", "synth-provider", "--role", "provider",
            "--k", 4, "--state", state,
        )
        embedder = quoted(
            sys.executable, "-m", "divsat", "synth-provider", "--role", "embedder",
            "--k", 4, "--sigma", 0.15, "--seed", 5,
        )
        out = tmp_path / f"final-{tag}.jsonl"
        trace = tmp_path / f"trace-{tag}.jsonl"
        return state, out, trace, (
            "saturate", "--init-count", 30, "--provider", provider,
            "--embedder", embedder, "--perc", 0.2, "--reps", 4,
            "--early-stop", 2, "--max-iter", max_iter, "--seed", 5,
            "--out", out, "--trace", trace,
        )

    def test_end_to_end_run(self, run_cli, tmp_path):
        state, out_path, trace_path, args = self.saturate_args(tmp_path, "e2e")
        code, stdout, err = run_cli(*args, timeout=300)
        assert code == 0, err
        result = report_of(stdout)["result"]
        assert result["reason"] in ("saturated", "max_iterations")
        assert result["initial_size"] == 30
        final = load_set(out_path)
        assert final.size == result["final_size"] > 30
        trace_rows = [json.loads(l) for l in trace_path.read_text().splitlines()]
        assert len(trace_rows) == result["iterations"]
        expected_keys = {
            "iteration", "batch_size", "mmd_mean", "mmd_stddev",
            "in_window", "stop_condition", "range_min", "range_max",
        }
        for i, row in enumerate(trace_rows):
            assert set(row) == expected_keys
            assert row["iteration"] == i + 1
        assert result["final_size"] == 30 + sum(r["batch_size"] for r in trace_rows)
        # savings relative to the default 1000-item baseline
        expected_savings = round(100.0 * (1.0 - result["final_size"] / 1000), 2)
        assert result["savings_pct"] == expected_savings

    def test_verbose_logs_each_iteration(self, run_cli, tmp_path):
        state, out_path, trace_path, args = self.saturate_args(tmp_path, "vv", max_iter=2)
        code, stdout, err = run_cli(*args, "-vv", timeout=300)
        assert code == 0, err
        # the line format the benchmark harness parses to time iterations
        found = re.findall(r"^divsat\.saturation: iteration (\d+): n=\d+ ", err, re.MULTILINE)
        assert found == ["1", "2"]

    def test_single_verbose_logs_each_iteration(self, run_cli, tmp_path):
        state, out_path, trace_path, args = self.saturate_args(tmp_path, "v", max_iter=2)
        code, stdout, err = run_cli(*args, "-v", timeout=300)
        assert code == 0, err
        found = re.findall(r"^divsat\.saturation: iteration (\d+): n=\d+ ", err, re.MULTILINE)
        assert found == ["1", "2"]

    @pytest.mark.parametrize("kind", ["directory", "missing-directory"])
    @pytest.mark.parametrize("flag", ["--out", "--trace"])
    def test_unwritable_output_fails_before_the_provider_runs(self, run_cli, tmp_path, flag, kind):
        state, out_path, trace_path, args = self.saturate_args(tmp_path, "unwritable")
        out_path.write_text("kept\n")
        bad = tmp_path if kind == "directory" else tmp_path / "no-such-dir" / "x.jsonl"
        replaced = out_path if flag == "--out" else trace_path
        code, stdout, err = run_cli(*[bad if a == replaced else a for a in args], timeout=300)
        assert code == 1
        error = error_of(err)
        assert error["code"] == "io_error" and error["message"].startswith(flag)
        assert not state.exists()
        assert out_path.read_text() == "kept\n"

    def test_provider_that_cannot_launch_is_spawn_error(self, run_cli, tmp_path, not_a_program):
        state, out_path, trace_path, args = self.saturate_args(tmp_path, "spawn")
        argv = list(args)
        argv[argv.index("--provider") + 1] = quoted(not_a_program)
        code, stdout, err = run_cli(*argv, timeout=300)
        assert code == 1
        assert "Traceback" not in err
        assert error_of(err)["code"] == "spawn_error"

    def test_exhaustion_leaves_the_embedder_counter_at_the_batches_embedded(
        self, run_cli, tmp_path, stub_script
    ):
        # two batches, then nothing; the pause gives the embedder child started
        # for that last call time to reach its read before it is killed
        provider = stub_script(f"""
            import argparse, json, os, time
            p = argparse.ArgumentParser()
            p.add_argument("--count", type=int, required=True)
            a = p.parse_args()
            calls = {str(tmp_path / "calls")!r}
            done = int(open(calls).read()) if os.path.exists(calls) else 0
            with open(calls, "w") as fh:
                fh.write(str(done + 1))
            if done == 3:
                time.sleep(1)
            for i in range(a.count if done < 3 else 0):
                print(json.dumps({{"text": f"tok{{done}}_{{i}}"}}))
            """)
        state = tmp_path / "embedder.state"
        embedder = quoted(sys.executable, "-m", "divsat", "synth-provider", "--role", "embedder",
                          "--k", 4, "--state", state)
        code, stdout, err = run_cli(
            "saturate", "--init-count", 20, "--provider", quoted(*provider),
            "--embedder", embedder, "--max-iter", 50, "--out", tmp_path / "final.jsonl",
            timeout=300,
        )
        assert code == 0, err
        result = report_of(stdout)["result"]
        assert (result["reason"], result["iterations"]) == ("provider_exhausted", 2)
        # the bootstrap and two iterations; the child started for the empty call never counted
        assert state.read_text() == "3"

    def test_runs_are_reproducible(self, run_cli, tmp_path):
        state, out_path, trace_path, args = self.saturate_args(tmp_path, "rep")
        code, first_out, err = run_cli(*args, timeout=300)
        assert code == 0, err
        first_bytes = out_path.read_bytes()
        first_trace = trace_path.read_bytes()
        first_result = report_of(first_out)["result"]
        for path in (state, out_path, trace_path):
            path.unlink()
        code, second_out, err = run_cli(*args, timeout=300)
        assert code == 0, err
        assert out_path.read_bytes() == first_bytes
        assert trace_path.read_bytes() == first_trace
        assert report_of(second_out)["result"] == first_result

    def test_init_file_and_custom_baseline(self, run_cli, tmp_path, write_jsonl):
        spec = GaussianSpec(k=4, sigma=0.15, seed=2)
        initial = gaussian_set(spec, 40)
        init_path = write_jsonl(
            "init.jsonl",
            [
                {"id": rec.id, "vector": [float(v) for v in rec.vector]}
                for rec in initial.records
            ],
        )
        state, out_path, trace_path, _ = self.saturate_args(tmp_path, "init")
        provider = quoted(
            sys.executable, "-m", "divsat", "synth-provider", "--role", "provider",
            "--k", 4, "--state", state,
        )
        embedder = quoted(
            sys.executable, "-m", "divsat", "synth-provider", "--role", "embedder",
            "--k", 4, "--sigma", 0.15, "--seed", 2,
        )
        code, stdout, err = run_cli(
            "saturate", "--init", init_path, "--provider", provider,
            "--embedder", embedder, "--perc", 0.2, "--reps", 4,
            "--early-stop", 1, "--max-iter", 6, "--seed", 2,
            "--baseline", 500, "--out", out_path, timeout=300,
        )
        assert code == 0, err
        result = report_of(stdout)["result"]
        assert result["initial_size"] == 40
        assert result["baseline"] == 500
        assert result["trace"] is None
        expected = round(100.0 * (1.0 - result["final_size"] / 500), 2)
        assert result["savings_pct"] == expected
        # initial records lead the final set unchanged
        final = load_set(out_path)
        assert [r.id for r in final.records[:40]] == [r.id for r in initial.records]

    def test_provider_exhaustion_reason(self, run_cli, tmp_path):
        state = tmp_path / "cap.state"
        provider = quoted(
            sys.executable, "-m", "divsat", "synth-provider", "--role", "provider",
            "--k", 4, "--state", state, "--limit", 36,
        )
        embedder = quoted(
            sys.executable, "-m", "divsat", "synth-provider", "--role", "embedder",
            "--k", 4, "--sigma", 0.15, "--seed", 5,
        )
        out_path = tmp_path / "cap.jsonl"
        code, stdout, err = run_cli(
            "saturate", "--init-count", 30, "--provider", provider,
            "--embedder", embedder, "--perc", 0.2, "--reps", 2,
            "--early-stop", 50, "--max-iter", 50, "--seed", 5,
            "--out", out_path, timeout=300,
        )
        assert code == 0, err
        result = report_of(stdout)["result"]
        assert result["reason"] == "provider_exhausted"
        assert result["final_size"] == 36
        assert load_set(out_path).size == 36

    def test_failing_provider_is_domain_error(self, run_cli, tmp_path, stub_script):
        bad = stub_script(
            """\
            import sys
            sys.stderr.write("backend on fire")
            sys.exit(3)
            """
        )
        embedder = quoted(
            sys.executable, "-m", "divsat", "synth-provider", "--role", "embedder",
            "--k", 4,
        )
        code, stdout, err = run_cli(
            "saturate", "--init-count", 10, "--provider", quoted(*bad),
            "--embedder", embedder, "--out", tmp_path / "x.jsonl", timeout=300,
        )
        assert code == 1
        error = error_of(err)
        assert error["code"] == "provider_error"
        assert "backend on fire" in error["message"]

    def test_bad_baseline_rejected_before_any_spawn(self, run_cli, tmp_path, stub_script):
        marker = tmp_path / "provider-ran"
        provider = stub_script(
            f"""\
            import json, pathlib
            pathlib.Path({str(marker)!r}).write_text("ran")
            print(json.dumps({{"text": "t"}}))
            """
        )
        out_path = tmp_path / "x.jsonl"
        code, stdout, err = run_cli(
            "saturate", "--init-count", 5, "--provider", quoted(*provider),
            "--embedder", "true", "--baseline", 0, "--out", out_path,
        )
        assert code == 2
        assert "--baseline" in err
        assert not marker.exists()
        assert not out_path.exists()

    def test_failing_provider_keeps_completed_work(self, run_cli, tmp_path, stub_script):
        calls = tmp_path / "calls"
        provider = stub_script(
            f"""\
            import argparse, json, pathlib, sys
            p = argparse.ArgumentParser()
            p.add_argument("--count", type=int, required=True)
            a = p.parse_args()
            state = pathlib.Path({str(calls)!r})
            n = int(state.read_text()) + 1 if state.exists() else 1
            state.write_text(str(n))
            if n == 3:
                sys.stderr.write("backend on fire")
                sys.exit(3)
            for i in range(a.count):
                print(json.dumps({{"text": f"call{{n}}_{{i}}"}}))
            """
        )
        embedder = stub_script(
            """\
            import hashlib, json, sys
            for line in sys.stdin:
                if not line.strip():
                    continue
                obj = json.loads(line)
                h = hashlib.blake2b(obj["text"].encode(), digest_size=8).digest()
                print(json.dumps({"id": str(obj["id"]), "vector": [b / 64.0 for b in h[:4]]}))
            """
        )
        out_path = tmp_path / "partial.jsonl"
        trace_path = tmp_path / "partial-trace.jsonl"
        code, stdout, err = run_cli(
            "saturate", "--init-count", 10, "--provider", quoted(*provider),
            "--embedder", quoted(*embedder), "--perc", 0.2, "--early-stop", 50,
            "--reps", 2, "--out", out_path, "--trace", trace_path, timeout=300,
        )
        assert code == 1
        error = error_of(err)
        assert error["code"] == "provider_error"
        assert "backend on fire" in error["message"]
        # call 1 bootstraps 10 items, call 2 completes iteration 1 with 2 more
        partial = load_set(out_path)
        assert partial.ids() == tuple(str(i) for i in range(10)) + ("b1_0", "b1_1")
        trace_rows = [json.loads(l) for l in trace_path.read_text().splitlines()]
        assert [row["iteration"] for row in trace_rows] == [1]
        assert trace_rows[0]["batch_size"] == 2

    @pytest.mark.parametrize("flag, value", [
        ("--perc", "0"), ("--perc", "1.5"), ("--reps", "0"), ("--max-iter", "0"),
        ("--early-stop", "-1"), ("--bandwidth", "-1"), ("--bandwidth", "nan"),
        ("--timeout", "0"), ("--timeout", "-1"), ("--timeout", "nan"), ("--timeout", "inf"),
        ("--timeout", "1e300"), ("--timeout", "2147484"),
    ])
    def test_bad_flag_rejected_before_any_spawn(self, run_cli, tmp_path, stub_script,
                                                flag, value):
        marker = tmp_path / "child-ran"
        child = stub_script(
            f"""\
            import json, pathlib
            pathlib.Path({str(marker)!r}).write_text("ran")
            print(json.dumps({{"text": "t"}}))
            """
        )
        out_path = tmp_path / "x.jsonl"
        code, stdout, err = run_cli(
            "saturate", "--init-count", 5, "--provider", quoted(*child),
            "--embedder", quoted(*child), flag, value, "--out", out_path,
        )
        assert code == 2
        assert flag in err
        assert "Traceback" not in err
        assert not marker.exists()
        assert not out_path.exists()

    @pytest.mark.parametrize("flag", ["--provider", "--embedder"])
    @pytest.mark.parametrize("value", ["", "  "])
    def test_empty_command_rejected_before_anything_runs(self, run_cli, tmp_path, stub_script,
                                                         flag, value):
        marker = tmp_path / "child-ran"
        child = quoted(*stub_script(f"import pathlib; pathlib.Path({str(marker)!r}).write_text('ran')"))
        commands = {"--provider": child, "--embedder": child, flag: value}
        out_path = tmp_path / "x.jsonl"
        code, stdout, err = run_cli(
            "saturate", "--init", tmp_path / "absent.jsonl",
            "--provider", commands["--provider"], "--embedder", commands["--embedder"],
            "--out", out_path,
        )
        assert code == 2
        assert flag in err and "empty" in err
        assert "Traceback" not in err
        assert not marker.exists()
        assert not out_path.exists()

    def test_batch_id_collision_keeps_completed_work(self, run_cli, tmp_path, stub_script,
                                                     write_jsonl):
        provider = stub_script(
            """\
            import argparse, json
            p = argparse.ArgumentParser()
            p.add_argument("--count", type=int, required=True)
            for i in range(p.parse_args().count):
                print(json.dumps({"text": f"t{i}"}))
            """
        )
        embedder = stub_script(
            """\
            import json, sys
            for line in sys.stdin:
                if line.strip():
                    obj = json.loads(line)
                    print(json.dumps({"id": str(obj["id"]), "vector": [obj["id"] / 3.0, 1.0]}))
            """
        )
        # iteration 1 adds b1_0; iteration 2 adds b2_0 and b2_1, and b2_1 is taken
        ids = [f"x{i}" for i in range(19)] + ["b2_1"]
        init = write_jsonl("init.jsonl", [
            {"id": rid, "vector": [float(i), -float(i)]} for i, rid in enumerate(ids)
        ])
        out_path = tmp_path / "out.jsonl"
        trace_path = tmp_path / "trace.jsonl"
        code, stdout, err = run_cli(
            "saturate", "--init", init, "--provider", quoted(*provider),
            "--embedder", quoted(*embedder), "--reps", 2, "--early-stop", 50,
            "--out", out_path, "--trace", trace_path, timeout=300,
        )
        assert code == 1
        error = error_of(err)
        assert error["code"] == "duplicate_id"
        assert "b2_1" in error["message"]
        assert load_set(out_path).ids() == tuple(ids) + ("b1_0",)
        trace_rows = [json.loads(l) for l in trace_path.read_text().splitlines()]
        assert [row["iteration"] for row in trace_rows] == [1]
        assert trace_rows[0]["batch_size"] == 1

    def test_dimension_change_keeps_completed_work(self, run_cli, tmp_path, stub_script,
                                                   write_jsonl):
        provider = stub_script(
            """\
            import argparse, json
            p = argparse.ArgumentParser()
            p.add_argument("--count", type=int, required=True)
            for i in range(p.parse_args().count):
                print(json.dumps({"text": f"t{i}"}))
            """
        )
        calls = tmp_path / "embed-calls"
        embedder = stub_script(
            f"""\
            import json, pathlib, sys
            state = pathlib.Path({str(calls)!r})
            n = int(state.read_text()) + 1 if state.exists() else 1
            state.write_text(str(n))
            k = 3 if n == 3 else 2
            for line in sys.stdin:
                if line.strip():
                    obj = json.loads(line)
                    print(json.dumps({{"id": str(obj["id"]), "vector": [obj["id"] / 3.0] * k}}))
            """
        )
        ids = [f"x{i}" for i in range(20)]
        init = write_jsonl("init.jsonl", [
            {"id": rid, "vector": [float(i), -float(i)]} for i, rid in enumerate(ids)
        ])
        out_path = tmp_path / "out.jsonl"
        trace_path = tmp_path / "trace.jsonl"
        code, stdout, err = run_cli(
            "saturate", "--init", init, "--provider", quoted(*provider),
            "--embedder", quoted(*embedder), "--reps", 2, "--early-stop", 50,
            "--out", out_path, "--trace", trace_path, timeout=300,
        )
        assert code == 1
        assert error_of(err)["code"] == "dimension_mismatch"
        # batches of ceil(.05 * 20) = 1 and ceil(.05 * 21) = 2; the third is 3-d
        assert load_set(out_path).ids() == tuple(ids) + ("b1_0", "b2_0", "b2_1")
        trace_rows = [json.loads(l) for l in trace_path.read_text().splitlines()]
        assert [row["iteration"] for row in trace_rows] == [1, 2]

    def test_bad_init_count_is_usage_error(self, run_cli, tmp_path):
        code, stdout, err = run_cli(
            "saturate", "--init-count", 0, "--provider", "true",
            "--embedder", "true", "--out", tmp_path / "x.jsonl",
        )
        assert code == 2


class TestFilterCommands:
    def write_captions(self, write_jsonl, n=12, activity="walking"):
        rows = [
            {"id": f"c{i}", "caption": f"person {activity} number {i}", "activity": activity}
            for i in range(n)
        ]
        return write_jsonl("captions.jsonl", rows)

    def test_run_with_scripted_judge(self, run_cli, write_jsonl, stub_script, tmp_path):
        captions = self.write_captions(write_jsonl, n=12)
        judge = stub_script(
            """\
            import json, sys
            prompt = json.load(sys.stdin)
            for i, item in enumerate(prompt["captions"]):
                word = "no" if item["id"] == "c3" else "yes"
                print(f"{i + 1}. {word}")
            """
        )
        out = tmp_path / "verdicts.jsonl"
        code, stdout, err = run_cli(
            "filter", "run", "--activity", "walking", "--captions", captions,
            "--judge", quoted(*judge), "--out", out, timeout=300,
        )
        assert code == 0, err
        result = report_of(stdout)["result"]
        assert result == {
            "activity": "walking", "total": 12, "kept": 11, "rejected": 1,
            "out": str(out),
        }
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(rows) == 12
        assert {r["id"]: r["keep"] for r in rows}["c3"] is False

    def test_judge_that_cannot_launch_is_spawn_error(
        self, run_cli, write_jsonl, tmp_path, not_a_program
    ):
        captions = self.write_captions(write_jsonl, n=2)
        code, stdout, err = run_cli(
            "filter", "run", "--activity", "walking", "--captions", captions,
            "--judge", quoted(not_a_program), "--out", tmp_path / "verdicts.jsonl",
        )
        assert code == 1
        assert "Traceback" not in err
        assert error_of(err)["code"] == "spawn_error"

    def test_run_skips_other_activities(self, run_cli, write_jsonl, stub_script, tmp_path):
        rows = [
            {"id": "w0", "caption": "a person walks", "activity": "walking"},
            {"id": "r0", "caption": "a person runs", "activity": "running"},
        ]
        captions = write_jsonl("captions.jsonl", rows)
        judge = stub_script(
            """\
            import json, sys
            prompt = json.load(sys.stdin)
            for i in range(len(prompt["captions"])):
                print(f"{i + 1}. yes")
            """
        )
        out = tmp_path / "verdicts.jsonl"
        code, stdout, err = run_cli(
            "filter", "run", "--activity", "walking", "--captions", captions,
            "--judge", quoted(*judge), "--out", out, timeout=300,
        )
        assert code == 0, err
        assert report_of(stdout)["result"]["total"] == 1
        assert json.loads(out.read_text())["id"] == "w0"

    @pytest.mark.parametrize("value", ["0", "inf", "1e300", "2147484"])
    def test_bad_timeout_rejected_before_any_spawn(self, run_cli, write_jsonl, stub_script,
                                                   tmp_path, value):
        captions = self.write_captions(write_jsonl, n=2)
        marker = tmp_path / "judge-ran"
        judge = stub_script(f"import pathlib; pathlib.Path({str(marker)!r}).write_text('ran')")
        out = tmp_path / "v.jsonl"
        code, stdout, err = run_cli(
            "filter", "run", "--activity", "walking", "--captions", captions,
            "--judge", quoted(*judge), "--timeout", value, "--out", out,
        )
        assert code == 2
        assert "--timeout" in err
        assert "Traceback" not in err
        assert not marker.exists()
        assert not out.exists()

    @pytest.mark.parametrize("value", ["", "  "])
    def test_empty_judge_rejected_before_anything_runs(self, run_cli, tmp_path, value):
        out = tmp_path / "v.jsonl"
        code, stdout, err = run_cli(
            "filter", "run", "--activity", "walking", "--captions", tmp_path / "absent.jsonl",
            "--judge", value, "--out", out,
        )
        assert code == 2
        assert "--judge" in err and "empty" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_largest_timeout_is_accepted(self, run_cli, write_jsonl, stub_script, tmp_path):
        captions = self.write_captions(write_jsonl, n=2)
        judge = stub_script('print("1. yes")\nprint("2. no")\n')
        out = tmp_path / "v.jsonl"
        code, stdout, err = run_cli(
            "filter", "run", "--activity", "walking", "--captions", captions,
            "--judge", quoted(*judge), "--timeout", "2147483", "--out", out, timeout=300,
        )
        assert code == 0, err
        assert report_of(stdout)["result"]["kept"] == 1

    def test_failing_judge_is_domain_error(self, run_cli, write_jsonl, stub_script, tmp_path):
        captions = self.write_captions(write_jsonl, n=2)
        judge = stub_script(
            """\
            import sys
            sys.exit(4)
            """
        )
        code, stdout, err = run_cli(
            "filter", "run", "--activity", "walking", "--captions", captions,
            "--judge", quoted(*judge), "--out", tmp_path / "v.jsonl", timeout=300,
        )
        assert code == 1
        assert error_of(err)["code"] == "judge_error"

    def test_judge_output_that_is_not_utf8_is_protocol_error(self, run_cli, write_jsonl,
                                                              stub_script, tmp_path):
        captions = self.write_captions(write_jsonl, n=2)
        judge = stub_script(
            """\
            import sys
            sys.stdin.read()
            sys.stdout.buffer.write(b"1. yes\\xff\\n2. no\\n")
            """
        )
        out = tmp_path / "v.jsonl"
        code, stdout, err = run_cli(
            "filter", "run", "--activity", "walking", "--captions", captions,
            "--judge", quoted(*judge), "--out", out, timeout=300,
        )
        assert code == 1
        assert "Traceback" not in err
        error = error_of(err)
        assert error["code"] == "protocol_error"
        assert "UTF-8" in error["message"]
        assert not out.exists()

    def test_eval_frozen_confusion(self, run_cli, write_jsonl):
        # tp=3 fp=1 fn=2 tn=4 over ten items
        keeps = {f"i{j}": j < 4 for j in range(10)}          # keep i0..i3
        relevant = {f"i{j}": j in (0, 1, 2, 4, 5) for j in range(10)}
        verdicts = write_jsonl(
            "verdicts.jsonl", [{"id": k, "keep": v} for k, v in keeps.items()]
        )
        truth = write_jsonl(
            "truth.jsonl", [{"id": k, "relevant": v} for k, v in relevant.items()]
        )
        code, stdout, err = run_cli("filter", "eval", "--verdicts", verdicts, "--truth", truth)
        assert code == 0, err
        result = report_of(stdout)["result"]
        assert (result["tp"], result["fp"], result["fn"], result["tn"]) == (3, 1, 2, 4)
        assert result["total"] == 10
        assert result["precision"] == 0.75
        assert result["recall"] == 0.6
        assert result["accuracy"] == 0.7
        assert result["f1"] == pytest.approx(2 * 0.75 * 0.6 / 1.35)
        assert result["pct_before"] == 50.0
        assert result["pct_after"] == 25.0
        assert result["undefined"] == {}

    def test_eval_rounds_percentages(self, run_cli, write_jsonl):
        # one irrelevant kept among three → pct_after 100/3 rounded
        keeps = {"a": True, "b": True, "c": True}
        relevant = {"a": True, "b": True, "c": False}
        verdicts = write_jsonl(
            "verdicts.jsonl", [{"id": k, "keep": v} for k, v in keeps.items()]
        )
        truth = write_jsonl(
            "truth.jsonl", [{"id": k, "relevant": v} for k, v in relevant.items()]
        )
        code, stdout, err = run_cli("filter", "eval", "--verdicts", verdicts, "--truth", truth)
        result = report_of(stdout)["result"]
        assert result["pct_after"] == 33.33
        assert result["pct_before"] == 33.33

    def test_eval_label_mismatch(self, run_cli, write_jsonl):
        verdicts = write_jsonl("verdicts.jsonl", [{"id": "a", "keep": True}])
        truth = write_jsonl("truth.jsonl", [{"id": "zz", "relevant": True}])
        code, stdout, err = run_cli("filter", "eval", "--verdicts", verdicts, "--truth", truth)
        assert code == 1
        assert error_of(err)["code"] == "label_mismatch"


class TestCorrelateCommand:
    def write_series(self, tmp_path, name, value):
        path = tmp_path / name
        path.write_text(json.dumps(value))
        return path

    def test_flat_series(self, run_cli, tmp_path):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0]
        text = self.write_series(tmp_path, "text.json", xs)
        motion = self.write_series(tmp_path, "motion.json", [2 * v for v in xs])
        f1 = self.write_series(tmp_path, "f1.json", [6.0 - v for v in xs])
        code, stdout, err = run_cli(
            "correlate", "--text", text, "--motion", motion, "--f1", f1
        )
        assert code == 0, err
        result = report_of(stdout)["result"]
        assert set(result) == {"text_vs_motion", "text_vs_f1", "motion_vs_f1"}
        assert result["text_vs_motion"]["r"] == pytest.approx(1.0, abs=1e-12)
        assert result["text_vs_f1"]["r"] == pytest.approx(-1.0, abs=1e-12)
        assert result["text_vs_motion"]["n"] == 5
        assert result["text_vs_motion"]["p"] == 0.0

    def test_nested_with_fisher_z(self, run_cli, tmp_path):
        rng = np.random.default_rng(8)
        groups = [rng.normal(size=6).tolist() for _ in range(3)]
        text = self.write_series(tmp_path, "text.json", groups)
        motion = self.write_series(
            tmp_path, "motion.json",
            [[v + rng.normal(0, 0.3) for v in g] for g in groups],
        )
        f1 = self.write_series(
            tmp_path, "f1.json",
            [[v + rng.normal(0, 0.3) for v in g] for g in groups],
        )
        code, stdout, err = run_cli(
            "correlate", "--text", text, "--motion", motion, "--f1", f1, "--fisher-z"
        )
        assert code == 0, err
        result = report_of(stdout)["result"]
        assert result["aggregate"]["method"] == "fisher-z"
        assert len(result["per_activity"]) == 3
        rs = [entry["text_vs_motion"]["r"] for entry in result["per_activity"]]
        expected = math.tanh(sum(math.atanh(r) for r in rs) / len(rs))
        assert result["aggregate"]["text_vs_motion"] == pytest.approx(expected, rel=1e-12)

    def test_nested_raw_mean_aggregate(self, run_cli, tmp_path):
        groups = [[1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 4.0]]
        text = self.write_series(tmp_path, "text.json", groups)
        motion = self.write_series(tmp_path, "motion.json", groups)
        f1 = self.write_series(tmp_path, "f1.json", [g[::-1] for g in groups])
        code, stdout, err = run_cli(
            "correlate", "--text", text, "--motion", motion, "--f1", f1
        )
        assert code == 0, err
        result = report_of(stdout)["result"]
        assert result["aggregate"]["method"] == "raw"
        rs = [entry["motion_vs_f1"]["r"] for entry in result["per_activity"]]
        assert result["aggregate"]["motion_vs_f1"] == pytest.approx(sum(rs) / len(rs))

    def test_shape_mix_rejected(self, run_cli, tmp_path):
        text = self.write_series(tmp_path, "text.json", [1.0, 2.0, 3.0])
        motion = self.write_series(tmp_path, "motion.json", [[1.0, 2.0, 3.0]])
        f1 = self.write_series(tmp_path, "f1.json", [1.0, 2.0, 3.0])
        code, stdout, err = run_cli(
            "correlate", "--text", text, "--motion", motion, "--f1", f1
        )
        assert code == 1
        assert error_of(err)["code"] == "malformed_line"

    @pytest.mark.parametrize("text, motion, code", [
        ([[1.0, "2", 3.0], [1.0, 2.0, 3.0]], [[1.0, 3.0, 2.0]] * 2, "malformed_line"),
        ([1.0, 2.0, 10 ** 400], [1.0, 3.0, 2.0], "non_finite_value"),
        ([[1.0, 2.0, 10 ** 400], [1.0, 2.0, 3.0]], [[1.0, 3.0, 2.0]] * 2, "non_finite_value"),
        ([[1.0, True, 3.0], [1.0, 2.0, 3.0]], [[1.0, 3.0, 2.0]] * 2, "malformed_line"),
        ([[[1.0, 2.0], [3.0, 4.0]], [1.0, 2.0, 3.0, 4.0]], [[1.0, 3.0, 2.0, 4.0]] * 2,
         "malformed_line"),
    ], ids=["string", "huge-int-flat", "huge-int-nested", "bool-nested", "deep-nesting"])
    def test_non_number_rejected(self, run_cli, tmp_path, text, motion, code):
        text_path = self.write_series(tmp_path, "text.json", text)
        motion_path = self.write_series(tmp_path, "motion.json", motion)
        f1_path = self.write_series(tmp_path, "f1.json", motion)
        status, stdout, err = run_cli(
            "correlate", "--text", text_path, "--motion", motion_path, "--f1", f1_path
        )
        assert status == 1
        assert "Traceback" not in err
        error = error_of(err)
        assert error["code"] == code
        assert str(text_path) in error["message"]
        assert stdout == ""

    def test_degenerate_series_is_domain_error(self, run_cli, tmp_path):
        text = self.write_series(tmp_path, "text.json", [1.0, 1.0, 1.0])
        motion = self.write_series(tmp_path, "motion.json", [1.0, 2.0, 3.0])
        f1 = self.write_series(tmp_path, "f1.json", [1.0, 2.0, 3.0])
        code, stdout, err = run_cli(
            "correlate", "--text", text, "--motion", motion, "--f1", f1
        )
        assert code == 1
        assert error_of(err)["code"] == "degenerate_series"


class TestImpactCommand:
    def test_concentration_shows_negative_deltas(self, run_cli, tmp_path):
        wide = tmp_path / "wide.jsonl"
        narrow = tmp_path / "narrow.jsonl"
        run_cli("synth", "--k", 3, "--n", 200, "--sigma", 1.0, "--seed", 1, "--out", wide)
        run_cli("synth", "--k", 3, "--n", 200, "--sigma", 0.3, "--seed", 1, "--out", narrow)
        code, stdout, err = run_cli("impact", wide, narrow)
        assert code == 0, err
        result = report_of(stdout)["result"]
        assert set(result) == {"before", "after", "delta_std", "delta_centroid"}
        assert result["delta_std"] < 0
        assert result["delta_centroid"] < 0
        assert result["delta_std"] == pytest.approx(
            result["after"]["std_metric"] - result["before"]["std_metric"]
        )

    def test_identity_impact_is_zero(self, run_cli, tmp_path):
        path = tmp_path / "s.jsonl"
        run_cli("synth", "--k", 2, "--n", 50, "--seed", 3, "--out", path)
        code, stdout, err = run_cli("impact", path, path)
        result = report_of(stdout)["result"]
        assert result["delta_std"] == 0.0
        assert result["delta_centroid"] == 0.0


class TestFileDiscipline:
    def test_reads_do_not_write_anywhere(self, tmp_path, write_jsonl):
        path = write_jsonl("square.jsonl", SQUARE)
        workdir = tmp_path / "work"
        workdir.mkdir()
        import os as _os
        env = dict(_os.environ)
        from conftest import SRC
        env["PYTHONPATH"] = str(SRC) + _os.pathsep + env.get("PYTHONPATH", "")
        env.pop("DIVSAT_SEED", None)
        proc = subprocess.run(
            [sys.executable, "-m", "divsat", "diversity", str(path)],
            capture_output=True, text=True, cwd=workdir, env=env, timeout=120,
        )
        assert proc.returncode == 0
        assert list(workdir.iterdir()) == []
