"""Blocking subprocess and JSON Lines helpers shared by the external-command
wrappers and the file loaders."""

from __future__ import annotations

import json
import shlex
import subprocess
from typing import Iterator, Sequence

from .errors import DivsatError, IoError, SpawnError


def read_lines(path) -> list[str]:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().splitlines()
    except OSError as exc:
        raise IoError(str(exc)) from None


def json_objects(
    lines: Sequence[str], failure: type[DivsatError], where: str = "line", start: int = 0
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


def as_argv(command: Sequence[str] | str) -> list[str]:
    if isinstance(command, str):
        return shlex.split(command)
    return list(command)


def run_command(
    argv: Sequence[str],
    *,
    input_text: str | None = None,
    timeout: float = 300.0,
    failure: type[DivsatError],
) -> subprocess.CompletedProcess:
    """Run ``argv`` to completion; any failure maps to ``failure`` (or SpawnError).

    Captures stdout/stderr as text. Non-zero exit raises ``failure`` with a
    tail of stderr; an unlaunchable command raises SpawnError; a timeout
    raises ``failure``.
    """
    try:
        proc = subprocess.run(
            list(argv),
            input=input_text,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except (FileNotFoundError, PermissionError) as exc:
        raise SpawnError(f"cannot launch {argv[0]!r}: {exc}") from None
    except subprocess.TimeoutExpired:
        raise failure(f"{argv[0]!r} timed out after {timeout}s") from None
    if proc.returncode != 0:
        tail = (proc.stderr or "").strip().splitlines()[-5:]
        detail = " | ".join(tail) if tail else "no stderr"
        raise failure(f"{argv[0]!r} exited {proc.returncode}: {detail}")
    return proc
