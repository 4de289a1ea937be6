"""scipy stays off the import path: `import divsat` loads numpy only; and
every child process is started by the one runner in `_proc.py`."""

import ast
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import SRC, _child_env


def imported_modules(*args):
    """Run python with -X importtime and return the names of every module it imported."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True, text=True, env=_child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc, [
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    ]


def scipy_modules(names):
    return [name for name in names if name == "scipy" or name.startswith("scipy.")]


def test_import_divsat_loads_no_scipy():
    _, names = imported_modules("-c", "import divsat")
    assert "divsat" in names and "numpy" in names
    assert scipy_modules(names) == []


def test_synth_provider_loads_no_scipy():
    proc, names = imported_modules("-m", "divsat", "synth-provider", "--role", "provider",
                                   "--k", "2", "--count", "3")
    assert len(proc.stdout.splitlines()) == 3
    assert scipy_modules(names) == []


def test_mmd_command_loads_no_scipy(write_jsonl):
    rng = np.random.default_rng(0)
    x = write_jsonl("x.jsonl", [{"vector": v} for v in rng.normal(size=(6, 3)).tolist()])
    y = write_jsonl("y.jsonl", [{"vector": v} for v in rng.normal(size=(9, 3)).tolist()])
    proc, names = imported_modules("-m", "divsat", "mmd", str(x), str(y), "--reps", "3")
    assert '"repetitions": 3' in proc.stdout
    assert scipy_modules(names) == []


def test_correlate_p_values_unchanged():
    from scipy.stats import pearsonr

    from divsat import correlate

    rng = np.random.default_rng(7)
    for n in (3, 4, 9, 50):
        xs = rng.normal(size=n)
        ys = 0.5 * xs + rng.normal(size=n)
        got = correlate(xs, ys)
        want = pearsonr(xs, ys)
        assert got.r == pytest.approx(want.statistic, rel=1e-12)
        assert got.p == pytest.approx(want.pvalue, rel=1e-9)
        assert correlate(xs, ys) == got


def module_level_imports(tree):
    """Import statements that run when the module is imported (not inside a def)."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        pending.extend(ast.iter_child_nodes(node))


def imported_names(node):
    if isinstance(node, ast.ImportFrom):
        return [node.module or ""]
    return [alias.name for alias in node.names]


@pytest.mark.parametrize("path", sorted((SRC / "divsat").glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_scipy_import(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    offenders = [
        f"line {node.lineno}: {name}"
        for node in module_level_imports(tree)
        for name in imported_names(node)
        if name == "scipy" or name.startswith("scipy.")
    ]
    assert offenders == []
    assert "scipy.spatial" not in path.read_text(encoding="utf-8")


@pytest.mark.parametrize("path", sorted((SRC / "divsat").glob("*.py")), ids=lambda p: p.name)
def test_only_proc_imports_subprocess(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = [
        name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in imported_names(node)
    ]
    if path.name == "_proc.py":
        assert "subprocess" in names
    else:
        assert "subprocess" not in names
