"""How a ``divsat`` process ends.

Once its output is flushed, ``divsat.cli.main`` ends the process without
interpreter teardown. These tests pin what a caller sees at the edges of
that: closed and broken standard streams, large outputs, and the exit
code and stderr of each failure. Each runs with Python's stdio buffered
and unbuffered (``PYTHONUNBUFFERED``), since the two fail at different
points.
"""

import ast
import json
import os
import signal
import subprocess
import sys
import textwrap

import pytest

from divsat import __version__
from conftest import SRC, _child_env

PROVIDER = ["synth-provider", "--role", "provider", "--k", "2"]
MANY = 100_000


@pytest.fixture(params=["buffered", "unbuffered"])
def stdio(request):
    return request.param


def child_env(stdio):
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if stdio == "unbuffered":
        env["PYTHONUNBUFFERED"] = "1"
    return env


def closing(argv, close):
    """``argv`` run with the file descriptors in ``close`` closed."""
    if not close:
        return argv
    redirects = " ".join(f"{fd}>&-" for fd in close)
    return ["sh", "-c", f'exec "$@" {redirects}', "sh", *argv]


def divsat_argv(*args, close=()):
    return closing([sys.executable, "-m", "divsat", *args], close)


def run(argv, stdio, **kwargs):
    return subprocess.run(argv, capture_output=True, text=True, env=child_env(stdio),
                          timeout=120, **kwargs)


def tokens(n):
    return "".join(f'{{"text": "tok{i}"}}\n' for i in range(n))


def run_main(stdio, handler_body, close=()):
    """Call ``divsat.cli.main`` with the ``diversity`` handler replaced by ``handler_body``."""
    script = textwrap.dedent("""
        import sys
        from divsat import cli

        def handler(args):
        {body}

        cli.cmd_diversity = handler
        sys.argv = ["divsat", "diversity", "unused.jsonl"]
        cli.main()
    """).format(body=textwrap.indent(textwrap.dedent(handler_body), "    "))
    return run(closing([sys.executable, "-c", script], close), stdio)


class TestClosedStreams:
    def test_version_with_stdout_closed(self, stdio):
        # argparse writes the version to stderr when there is no stdout
        proc = run(divsat_argv("--version", close=[1]), stdio)
        assert proc.returncode == 0
        assert proc.stderr == f"divsat {__version__}\n"

    def test_output_with_stderr_closed(self, stdio):
        proc = run(divsat_argv(*PROVIDER, "--count", "3", close=[2]), stdio)
        assert proc.returncode == 0
        assert proc.stdout == tokens(3)

    @pytest.mark.parametrize("args, code, expected", [
        (PROVIDER, 2, "divsat: the provider role needs --count\n"),
        (["diversity", "no-such-file.jsonl"], 1, '{"error": {"code": "io_error", "message": '
         "\"[Errno 2] No such file or directory: 'no-such-file.jsonl'\"}}\n"),
    ], ids=["usage", "domain"])
    def test_errors_with_stderr_closed_go_to_stdout(self, stdio, tmp_path, args, code, expected):
        # print(file=None) falls back to stdout
        proc = run(divsat_argv(*args, close=[2]), stdio, cwd=tmp_path)
        assert proc.returncode == code
        assert proc.stdout == expected

    def test_flag_error_with_stderr_closed_prints_usage_to_stdout(self, stdio):
        proc = run(divsat_argv("synth-provider", close=[2]), stdio)
        assert proc.returncode == 2
        assert proc.stdout.startswith("usage: divsat synth-provider")
        assert "error:" not in proc.stdout

    def test_provider_with_stdout_closed_is_a_traceback(self, stdio):
        proc = run(divsat_argv(*PROVIDER, "--count", "3", close=[1]), stdio)
        assert proc.returncode == 1
        assert proc.stderr.startswith("Traceback")
        assert proc.stderr.endswith(
            "AttributeError: 'NoneType' object has no attribute 'writelines'\n")


BROKEN_PIPE = ('{"error": {"code": "io_error", "message": '
               '"stdout: [Errno 32] Broken pipe"}}\n')


class TestBrokenPipe:
    def test_provider_into_a_reader_that_closes_early(self, stdio):
        proc = subprocess.Popen(divsat_argv(*PROVIDER, "--count", str(MANY)),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=child_env(stdio))
        with proc:
            assert proc.stdout.readline() == b'{"text": "tok0"}\n'
            proc.stdout.close()
            err = proc.stderr.read().decode("utf-8")
        assert proc.wait(timeout=120) == 1
        assert err == BROKEN_PIPE

    # Buffered, the output waits in the buffer until the final flush, which
    # fails. Unbuffered, the write itself fails, argparse's included.
    @pytest.mark.parametrize("args, buffered, unbuffered", [
        ([*PROVIDER, "--count", "3"], 1, 1),
        (["--version"], 1, 1),
        (["--help"], 1, 1),
        (["filter", "--help"], 1, 1),
    ], ids=["provider", "version", "help", "filter-help"])
    def test_small_output_into_a_closed_pipe(self, stdio, args, buffered, unbuffered):
        # the pipe's read end is closed before the child starts
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(divsat_argv(*args), stdout=write_end, stderr=subprocess.PIPE,
                                  text=True, env=child_env(stdio), timeout=120)
        finally:
            os.close(write_end)
        code = buffered if stdio == "buffered" else unbuffered
        assert proc.returncode == code
        assert proc.stderr == ("" if code == 0 else BROKEN_PIPE)

    @pytest.mark.parametrize("sink", ["pipe", "file"])
    def test_many_provider_lines_are_read_back_complete(self, stdio, tmp_path, sink):
        argv = divsat_argv(*PROVIDER, "--count", str(MANY))
        if sink == "pipe":
            proc = run(argv, stdio)
            out = proc.stdout
        else:
            path = tmp_path / "out.jsonl"
            with path.open("w") as fh:
                proc = subprocess.run(argv, stdout=fh, stderr=subprocess.PIPE, text=True,
                                      env=child_env(stdio), timeout=120)
            out = path.read_text()
        assert (proc.returncode, proc.stderr) == (0, "")
        assert out == tokens(MANY)


class TestExitCodes:
    def test_usage_error_is_2(self, stdio):
        proc = run(divsat_argv(*PROVIDER), stdio)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "divsat: the provider role needs --count\n"

    def test_flag_error_is_2(self, stdio):
        proc = run(divsat_argv("synth-provider", "--role", "provider"), stdio)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("usage: divsat synth-provider")
        assert proc.stderr.endswith("error: the following arguments are required: --k\n")

    def test_domain_error_is_1(self, stdio, tmp_path):
        proc = run(divsat_argv("diversity", "no-such-file.jsonl"), stdio, cwd=tmp_path)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert json.loads(proc.stderr)["error"]["code"] == "io_error"

    def test_uncaught_exception_is_a_traceback_and_1(self, stdio):
        proc = run_main(stdio, "print('partial')\nraise RuntimeError('boom')")
        assert proc.returncode == 1
        assert proc.stdout == "partial\n"
        assert proc.stderr.startswith("Traceback")
        assert proc.stderr.endswith("RuntimeError: boom\n")

    def test_keyboard_interrupt_ends_the_process_by_sigint(self, stdio):
        proc = run_main(stdio, "raise KeyboardInterrupt")
        assert proc.returncode == -signal.SIGINT
        assert proc.stderr.rstrip().endswith("KeyboardInterrupt")


class TestTeardown:
    AT_EXIT = """
        import atexit
        atexit.register(lambda: print("teardown", file=sys.stderr))
        return {"ok": True}
    """

    def test_success_skips_interpreter_teardown(self, stdio):
        proc = run_main(stdio, self.AT_EXIT)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"] == {"ok": True}
        assert proc.stderr == ""

    def test_closed_stdout_falls_back_to_a_normal_exit(self, stdio):
        proc = run_main(stdio, self.AT_EXIT, close=[1])
        assert (proc.returncode, proc.stderr) == (0, "teardown\n")

    def test_closed_stderr_falls_back_to_a_normal_exit(self, stdio):
        # with no sys.stderr, print() writes to stdout
        proc = run_main(stdio, self.AT_EXIT, close=[2])
        assert proc.returncode == 0
        assert proc.stdout.endswith("}\nteardown\n")

    def test_failure_exits_the_normal_way(self, stdio):
        proc = run_main(stdio, self.AT_EXIT.replace('return {"ok": True}', "raise ValueError"))
        assert proc.returncode == 1
        assert proc.stderr.endswith("ValueError\nteardown\n")


@pytest.mark.parametrize("path", sorted((SRC / "divsat").glob("*.py")), ids=lambda p: p.name)
def test_every_file_is_opened_in_a_with(path):
    # main ends the process without teardown, which would not flush a file
    # still open, so each is closed before dispatch returns
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    in_with = {id(item.context_expr) for node in ast.walk(tree) if isinstance(node, ast.With)
               for item in node.items}
    opened = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
              and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
              in ("open", "fdopen")]
    assert [node.lineno for node in opened if id(node) not in in_with] == []
