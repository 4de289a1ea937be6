"""The one subprocess runner behind the external-command wrappers, and the
JSON Lines helpers they share with the file loaders."""

from __future__ import annotations

import contextlib
import json
import os
import shlex
import signal
import subprocess
from typing import Callable, Iterable, Iterator, Sequence

from .errors import DivsatError, IoError, MalformedLine, ProtocolError, SpawnError


def split_lines(text: str) -> list[str]:
    """Split JSON Lines text into lines, dropping the empty tail after a final line end.

    "\\r\\n", a lone "\\r" and "\\n" each end a line, as text mode reads a
    file. ``str.splitlines()`` would also split on U+2028, U+2029 and U+0085,
    which JSON allows raw inside strings.
    """
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def read_lines(path) -> Iterator[str]:
    """Yield a UTF-8 file's lines one at a time, without their "\\n".

    Text mode reads "\\r\\n" and a lone "\\r" as "\\n" and splits on nothing
    else, so these are the lines ``split_lines`` gives for the file's text;
    only one of them is held at a time. Bytes that are not UTF-8 raise
    MalformedLine naming the file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                yield line[:-1] if line.endswith("\n") else line
    except OSError as exc:
        raise IoError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise MalformedLine(f"{path}: not valid UTF-8 ({exc.reason})") from None


def write_lines(path, lines: Iterable[str]) -> None:
    """Write each line and a "\\n" to a UTF-8 file; the mirror of ``read_lines``."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line)
                fh.write("\n")
    except OSError as exc:
        raise IoError(str(exc)) from None


def json_objects(
    lines: Iterable[str], failure: type[DivsatError], where: str = "line", start: int = 0
) -> Iterator[tuple[int, dict]]:
    """Yield (index, object) for each non-blank line, which must hold a JSON object.

    Lines are indexed from ``start``; errors raise ``failure`` citing
    ``{where} N`` with N the 1-based line number.
    """
    for i, line in enumerate(lines, start):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except ValueError as exc:
            raise failure(f"{where} {i + 1}: not valid JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise failure(f"{where} {i + 1}: not a JSON object")
        yield i, obj


class External:
    """One external command run to completion per call.

    Subclasses name their role's error as ``failure``. A non-zero exit
    raises it with the last five stderr lines, a timeout raises it too, and
    a command that cannot launch raises SpawnError. The contracts speak
    UTF-8: output that is not raises ProtocolError.
    """

    failure: type[DivsatError] = DivsatError

    def __init__(self, command: Sequence[str] | str, timeout: float = 300.0):
        """A command string is split like a shell would; an empty one raises SpawnError."""
        try:
            self._argv = shlex.split(command) if isinstance(command, str) else list(command)
        except ValueError as exc:
            raise SpawnError(f"cannot parse command {command!r}: {exc}") from None
        if not self._argv:
            raise SpawnError("the command is empty")
        self._timeout = timeout

    def _run(self, *extra_args: str, input_text: str | None = None) -> str:
        """Run the command with ``extra_args`` appended; return its stdout."""
        with self._started(*extra_args) as finish:
            return finish(input_text)

    @contextlib.contextmanager
    def _started(self, *extra_args: str) -> Iterator[Callable[[str | None], str]]:
        """Launch the command now; yield the call that writes its input and returns its stdout.

        A launch failure is raised by that call, not here, and the timeout
        counts from it. However the block ends, a child still running is
        then killed with its process group, and reaped: one the call never
        reached has read no input.
        """
        argv = [*self._argv, *extra_args]
        try:
            proc = subprocess.Popen(
                argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                start_new_session=True,
            )
        except (OSError, ValueError) as exc:  # ValueError: a NUL byte in an argument
            launch_error = SpawnError(f"cannot launch {argv[0]!r}: {exc}")

            def failed(input_text: str | None) -> str:
                raise launch_error

            yield failed
            return
        try:
            yield lambda input_text: self._finish(proc, argv[0], input_text)
        finally:
            _discard(proc)

    def _finish(self, proc: subprocess.Popen, name: str, input_text: str | None) -> str:
        payload = None if input_text is None else input_text.encode("utf-8")
        try:
            stdout, stderr = proc.communicate(payload, timeout=self._timeout)
        except subprocess.TimeoutExpired:
            raise self.failure(f"{name!r} timed out after {self._timeout}s") from None
        if proc.returncode != 0:
            tail = stderr.decode("utf-8", "replace").strip().splitlines()[-5:]
            detail = " | ".join(tail) if tail else "no stderr"
            raise self.failure(f"{name!r} exited {proc.returncode}: {detail}")
        try:
            return stdout.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"{name!r} wrote output that is not UTF-8: {exc}") from None


def _discard(proc: subprocess.Popen) -> None:
    """Kill the child's process group unless the child has exited, close its pipes, and reap it."""
    # The child leads its own group, so whatever a wrapper script started dies
    # with it; killed before its stdin closes, none of them sees EOF and runs
    # an empty batch.
    if proc.poll() is None:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
    for pipe in (proc.stdin, proc.stdout, proc.stderr):
        pipe.close()
    proc.wait()
