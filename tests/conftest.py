"""Shared fixtures: path setup, CLI runner, stub subprocess scripts."""

import contextlib
import json
import os
import shlex
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def _child_env(extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    if extra:
        env.update(extra)
    return env


@pytest.fixture
def run_cli():
    """Run the installed CLI in a subprocess and return (code, stdout, stderr)."""

    def _run(*args, stdin=None, env=None, timeout=120):
        # bytes on stdin go through as they are, and the output is read as UTF-8
        raw = isinstance(stdin, bytes)
        proc = subprocess.run(
            [sys.executable, "-m", "divsat", *[str(a) for a in args]],
            input=stdin,
            capture_output=True,
            text=not raw,
            timeout=timeout,
            env=_child_env(env),
        )
        if raw:
            return proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")
        return proc.returncode, proc.stdout, proc.stderr

    return _run


@pytest.fixture
def stub_script(tmp_path):
    """Write an executable python stub and return the argv list to invoke it."""

    counter = {"n": 0}

    def _make(body, name=None):
        counter["n"] += 1
        path = tmp_path / (name or f"stub{counter['n']}.py")
        path.write_text(textwrap.dedent(body))
        return [sys.executable, str(path)]

    return _make


class _Orphans:
    """Background processes that a test's commands leave holding their pipes."""

    def __init__(self, directory):
        self.dir = directory

    def command(self, tail):
        """``sh -c``: start ``sleep 43`` in the background, record its pid, then run ``tail``."""
        return ["sh", "-c", f"sleep 43 & echo $! > {shlex.quote(str(self.dir))}/$$; {tail}"]

    def pids(self):
        return [int(path.read_text()) for path in self.dir.iterdir()]

    @staticmethod
    def ended(pid):
        # gone, or a zombie not yet reaped by whatever adopted it
        try:
            with open(f"/proc/{pid}/stat") as fh:
                return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
        except FileNotFoundError:
            return True

    def assert_ended(self, seconds=5.0):
        pids = self.pids()
        assert pids, "no command recorded a background process"
        deadline = time.monotonic() + seconds
        while running := [pid for pid in pids if not self.ended(pid)]:
            assert time.monotonic() < deadline, f"still running: {running}"
            time.sleep(0.05)


@pytest.fixture
def orphans(tmp_path):
    """Record each command's background ``sleep`` (see ``_Orphans.command``); kill any left at the end."""
    if not os.path.isdir("/proc"):
        pytest.skip("needs /proc to tell a zombie from a running process")
    (tmp_path / "orphans").mkdir()
    tracked = _Orphans(tmp_path / "orphans")
    try:
        yield tracked
    finally:
        for pid in tracked.pids():
            if not tracked.ended(pid):
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)


@pytest.fixture
def not_a_program(tmp_path):
    """An executable file the operating system cannot run: no "#!" line, no binary format."""
    path = tmp_path / "not-a-program"
    path.write_bytes(b"\x00\x01 plain bytes\n")
    path.chmod(0o755)
    return str(path)


@pytest.fixture
def write_jsonl(tmp_path):
    def _write(name, rows):
        path = tmp_path / name
        with path.open("w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
        return path

    return _write
