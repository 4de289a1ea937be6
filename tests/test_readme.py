"""README's library Quickstart runs as written, so it cannot keep a removed name."""

import subprocess
import sys

from conftest import SRC, _child_env

README = SRC.parent / "README.md"


def quickstart() -> str:
    """The first ```python block after the "## Quickstart (library)" heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Quickstart (library)"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def test_quickstart_runs_without_warnings(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", quickstart()],
        capture_output=True, text=True, cwd=tmp_path, env=_child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
