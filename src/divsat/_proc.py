"""The one subprocess runner behind the external-command wrappers, and the
JSON Lines helpers they share with the file loaders.

Every external command (provider, embedder, judge) runs as a ``_Child``
with one lifecycle: launch, feed, discard; see ``External``. The embedder
and the judge launch each call's child one call ahead; see ``Ahead``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shlex
import signal
import subprocess
from typing import Callable, Iterable, Iterator, Sequence, TextIO

from . import _seconds
from .errors import DivsatError, IoError, MalformedLine, ProtocolError, SpawnError


def split_lines(text: str) -> Iterator[str]:
    """Yield the lines of JSON Lines text as ``read_lines`` yields a file's."""
    return _lines(io.StringIO(text, newline=None))


def read_lines(path) -> Iterator[str]:
    """Yield a UTF-8 file's lines one at a time, without their "\\n".

    Only one line is held at a time. Bytes that are not UTF-8 raise
    MalformedLine naming the file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            yield from _lines(fh)
    except OSError as exc:
        raise IoError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise MalformedLine(f"{path}: not valid UTF-8 ({exc.reason})") from None


def _lines(stream: TextIO) -> Iterator[str]:
    # The one line rule: a text stream with universal newlines reads "\r\n",
    # a lone "\r" and "\n" each as "\n" and splits on nothing else.
    # ``str.splitlines()`` would also split on U+2028, U+2029 and U+0085,
    # which JSON allows raw inside strings.
    for line in stream:
        yield line[:-1] if line.endswith("\n") else line


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
    lines: Iterable[str], failure: type[DivsatError], where: str = "line"
) -> Iterator[tuple[int, dict]]:
    """Yield (index, object) for each non-blank line, which must hold a JSON object.

    Lines are indexed from 0; errors raise ``failure`` citing ``{where} N``
    with N the 1-based line number.
    """
    for i, line in enumerate(lines):
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
    """One external command, run as a fresh child per call.

    A child's lifecycle is launch, feed, discard. ``_launch`` starts the
    command in its own session with three pipes, before its input need
    exist; the child's ``finish`` writes the whole input, waits for the exit
    and returns the stdout; its ``discard`` kills the whole process group of
    a command that did not finish (one left unfed has read nothing), with any
    background processes it left holding its pipes, then closes the pipes
    and reaps it. ``_run`` is the three in a row.

    Subclasses name their role's error as ``failure``. A non-zero exit
    raises it with the last five stderr lines, a timeout raises it too, and
    a command that cannot launch raises SpawnError. The contracts speak
    UTF-8: output that is not raises ProtocolError.
    """

    failure: type[DivsatError] = DivsatError

    def __init__(self, command: Sequence[str] | str, timeout: float = 300.0):
        """A command string is split like a shell would; an empty one, or a sequence
        with an entry that is not a string, raises SpawnError.

        ``timeout`` is seconds in (0, _MAX_TIMEOUT], a number but not a bool;
        any other value raises ValueError here, before any child is launched.
        """
        _seconds("timeout", timeout)
        try:
            self._argv = shlex.split(command) if isinstance(command, str) else list(command)
        except ValueError as exc:
            raise SpawnError(f"cannot parse command {command!r}: {exc}") from None
        if not self._argv:
            raise SpawnError("the command is empty")
        if not all(isinstance(part, str) for part in self._argv):
            raise SpawnError(f"every entry of the command must be a string: {self._argv!r}")
        self._timeout = timeout

    def _run(self, *extra_args: str, input_text: str | None = None) -> str:
        """Run the command with ``extra_args`` appended; return its stdout."""
        child = self._launch(*extra_args)
        try:
            return child.finish(input_text)
        finally:
            child.discard()

    def _launch(self, *extra_args: str) -> _Child:
        """Start the command with ``extra_args`` appended, before its input is ready."""
        return _Child([*self._argv, *extra_args], self.failure, self._timeout)


class Ahead:
    """The children of one command's successive calls, each launched one call ahead.

    ``next`` discards the previous call's child, takes the spare the call
    before it launched (or launches one), then, if ``ahead`` says another
    call may follow, launches that call's child as the new spare, so its
    start-up overlaps whatever the caller does before it feeds that call.
    At most two children are alive at once: this call's and the spare.
    ``close`` discards both; the spare is killed unread with its process
    group, and reaped.
    """

    def __init__(self, command: External):
        self._command = command
        self._children: list[_Child] = []  # this call's, then the spare

    def next(self, ahead: bool) -> Callable[[str | None], str]:
        """This call's ``finish``: it feeds the call's input and returns the stdout."""
        if self._children:
            self._children.pop(0).discard()
        if not self._children:
            self._children.append(self._command._launch())
        if ahead:
            self._children.append(self._command._launch())
        return self._children[0].finish

    def close(self) -> None:
        for child in self._children:
            child.discard()


class _Child:
    """One launched command, fed once by ``finish`` and ended by ``discard``.

    A launch failure is held as a SpawnError for ``finish`` to raise.
    """

    def __init__(self, argv: list[str], failure: type[DivsatError], timeout: float):
        self._failure = failure
        self._timeout = timeout
        self._proc: subprocess.Popen | None = None
        try:
            self._proc = subprocess.Popen(
                argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                start_new_session=True,
            )
        except (OSError, ValueError) as exc:  # ValueError: a NUL byte in an argument
            self._launch_error = SpawnError(f"cannot launch {argv[0]!r}: {exc}")

    def finish(self, input_text: str | None) -> str:
        """Feed ``input_text`` (None feeds nothing), return the stdout; the timeout starts here."""
        proc = self._proc
        if proc is None:
            raise self._launch_error
        name = proc.args[0]
        payload = None if input_text is None else input_text.encode("utf-8")
        try:
            stdout, stderr = proc.communicate(payload, timeout=self._timeout)
        except subprocess.TimeoutExpired:
            raise self._failure(f"{name!r} timed out after {self._timeout}s") from None
        if proc.returncode != 0:
            tail = stderr.decode("utf-8", "replace").strip().splitlines()[-5:]
            detail = " | ".join(tail) if tail else "no stderr"
            raise self._failure(f"{name!r} exited {proc.returncode}: {detail}")
        try:
            return stdout.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"{name!r} wrote output that is not UTF-8: {exc}") from None

    def discard(self) -> None:
        """Kill the group of a child ``finish`` did not reap, close the pipes, reap; repeatable."""
        proc = self._proc
        if proc is None:
            return
        # The child leads its own group, so whatever a wrapper script started
        # dies with it, even after the wrapper exited, when what it left holds
        # stdout open into a timeout. Killed before its stdin closes, none of
        # them sees EOF and runs an empty batch. Unreaped, the child still
        # holds its group id, so the id cannot have been reused.
        if proc.returncode is None:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
        for pipe in (proc.stdin, proc.stdout, proc.stderr):
            pipe.close()
        proc.wait()
