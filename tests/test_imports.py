"""Start-up stays lean: `import divsat` loads neither numpy nor scipy, each
CLI process imports only what its subcommand runs, no divsat module imports
scipy, `correlate` runs without numpy, and every child process is started by
the one runner in `_proc.py`."""

import ast
import shlex
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import divsat
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
    assert "divsat" in names
    assert "numpy" not in names
    assert scipy_modules(names) == []


def test_first_numeric_name_loads_numpy_not_scipy():
    _, names = imported_modules("-c", "from divsat import mmd_calculator")
    assert "numpy" in names
    assert scipy_modules(names) == []


@pytest.fixture
def lean_commands(tmp_path, write_jsonl, stub_script):
    verdicts = write_jsonl("verdicts.jsonl", [{"id": "a", "keep": True}, {"id": "b", "keep": False}])
    truth = write_jsonl("truth.jsonl", [{"id": "a", "relevant": True}, {"id": "b", "relevant": True}])
    captions = write_jsonl("captions.jsonl", [
        {"id": "a", "caption": "a person walks", "activity": "walking"},
        {"id": "b", "caption": "a person strolls", "activity": "walking"},
    ])
    judge = shlex.join(stub_script('print("1. yes")\nprint("2. no")\n'))
    return {
        "version": ["--version"],
        "filter eval": ["filter", "eval", "--verdicts", str(verdicts), "--truth", str(truth)],
        "filter run": ["filter", "run", "--activity", "walking", "--captions", str(captions),
                       "--judge", judge, "--out", str(tmp_path / "out.jsonl")],
        "provider": ["synth-provider", "--role", "provider", "--k", "4", "--count", "3"],
    }


@pytest.mark.parametrize("command", ["version", "filter eval", "filter run", "provider"])
def test_lean_commands_load_no_numpy(lean_commands, command):
    proc, names = imported_modules("-m", "divsat", *lean_commands[command])
    assert proc.stdout
    assert "divsat.cli" in names
    assert "numpy" not in names


@pytest.mark.parametrize("command", ["version", "provider"])
def test_lean_commands_load_no_dataclasses(lean_commands, command):
    proc, names = imported_modules("-m", "divsat", *lean_commands[command])
    assert proc.stdout
    assert "dataclasses" not in names


def test_embedder_loads_numpy_random_before_its_batch_arrives():
    # a child started ahead of its batch has built its first generator by then
    proc = subprocess.Popen(
        [sys.executable, "-X", "importtime", "-m", "divsat", "synth-provider",
         "--role", "embedder", "--k", "2"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=_child_env(),
    )
    killer = threading.Timer(60, proc.kill)  # ends the wait if the batch is needed first
    killer.start()
    with proc:
        try:
            for line in proc.stderr:
                if line.rsplit("|", 1)[-1].strip() == "numpy.random":
                    break
            else:
                pytest.fail("numpy.random did not load while the child waited for stdin")
            out, _ = proc.communicate('{"text": "a"}\n', timeout=60)
        finally:
            killer.cancel()
    assert proc.returncode == 0
    assert len(out.splitlines()) == 1


def test_mmd_stays_the_function_whatever_loads_the_submodule():
    for script in (
        "import divsat.saturation, divsat; f = divsat.mmd",
        "import divsat.kernel; from divsat import mmd as f",
        "from divsat import mmd_calculator, mmd as f; import divsat.saturation",
        "import divsat; f = divsat.mmd; import divsat.kernel; f = divsat.mmd",
    ):
        proc = subprocess.run(
            [sys.executable, "-c", f"{script}; import types; "
             "assert isinstance(f, types.FunctionType) and f.__name__ == 'mmd', f"],
            capture_output=True, text=True, env=_child_env(), timeout=120,
        )
        assert proc.returncode == 0, (script, proc.stderr)


def test_no_submodule_is_named_after_a_public_name():
    # importing a submodule binds it on the package, which would replace a
    # public name of the same spelling; ``errors`` is both on purpose
    modules = {p.stem for p in (SRC / "divsat").glob("*.py")}
    assert modules & set(divsat.__all__) == {"errors"}


# the public names as they were when every submodule loaded eagerly, less
# SaturationState and saturation_step, removed with the one-record growth loop,
# and six that redid another name's work: resolve_bandwidth, axis_stats,
# std_diversity, centroid_diversity, DriftSpec and drifting_provider
PUBLIC_NAMES = """
    AxisStats BatchProvider CaptionItem ConfusionMetrics CorrelationReport
    CorrelationResult CountMismatch DegenerateSeries DimensionMismatch
    DiversityImpactReport DiversityScore DivsatError DuplicateId
    EmbedderError Embedder EmbeddingSet EmptyInput EmptySet
    EmptyVector FilterPrompt FilterVerdict GaussianSpec InsufficientSamples
    InvalidRepetitions IoError JudgeError KernelConfig LabelMismatch
    LengthMismatch MEDIAN_HEURISTIC MalformedLine MissingVerdict MmdEstimate
    NonFiniteValue PairedSeries ProtocolError ProviderError SaturationConfig
    SaturationTrace SizeMismatch SpawnError StopReason
    SyntheticSource TraceStep UnknownId UnknownVerdictId UnparseableLine
    UsageError aggregate_r apply_filter build_filter_prompts
    correlate correlation_report diversity_impact
    diversity_report errors evaluate_filter external_embedder
    external_judge external_provider gaussian_kernel gaussian_set load_captions
    load_set load_truth load_verdicts median_heuristic mmd mmd_calculator
    parse_filter_response pearson_p pearson_r run_filter run_saturation
    stationary_provider subset token_vector write_set write_trace
    write_verdicts
""".split()


def test_public_names_unchanged():
    assert len(divsat.__all__) == len(set(divsat.__all__))
    assert sorted(divsat.__all__) == sorted(PUBLIC_NAMES)
    assert set(divsat.__all__) <= set(dir(divsat))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from divsat import *", namespace)
    for name in divsat.__all__:
        assert namespace[name] is getattr(divsat, name)
    assert namespace["errors"] is divsat.errors
    assert callable(namespace["mmd"])


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        divsat.no_such_name


def test_synth_provider_loads_no_scipy():
    proc, names = imported_modules("-m", "divsat", "synth-provider", "--role", "provider",
                                   "--k", "2", "--count", "3")
    assert len(proc.stdout.splitlines()) == 3
    assert scipy_modules(names) == []
    # the provider child of every saturate run loads no more divsat, nor subprocess
    divsat_modules = sorted(n for n in names if n == "divsat" or n.startswith("divsat."))
    assert divsat_modules == ["divsat", "divsat.cli", "divsat.errors"]
    assert "subprocess" not in names


def test_mmd_command_loads_no_scipy(write_jsonl):
    rng = np.random.default_rng(0)
    x = write_jsonl("x.jsonl", [{"vector": v} for v in rng.normal(size=(6, 3)).tolist()])
    y = write_jsonl("y.jsonl", [{"vector": v} for v in rng.normal(size=(9, 3)).tolist()])
    proc, names = imported_modules("-m", "divsat", "mmd", str(x), str(y), "--reps", "3")
    assert '"repetitions": 3' in proc.stdout
    assert scipy_modules(names) == []


def test_correlate_command_loads_neither_numpy_nor_scipy(tmp_path):
    paths = []
    for name, values in (("text", [1.0, 2.0, 3.5, 4.0]), ("motion", [2.0, 1.0, 3.0, 5.0]),
                         ("f1", [0.5, 0.2, 0.1, 0.9])):
        paths += [f"--{name}", str(tmp_path / f"{name}.json")]
        (tmp_path / f"{name}.json").write_text(repr(values))
    proc, names = imported_modules("-m", "divsat", "correlate", *paths)
    assert '"text_vs_motion"' in proc.stdout
    assert "divsat.analysis" in names
    assert "numpy" not in names
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
    """Import statements that run when the module is imported: not inside a
    def, and not under ``if TYPE_CHECKING:``, which only type checkers run."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            pending.extend(node.orelse)
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        pending.extend(ast.iter_child_nodes(node))


def imported_names(node):
    if isinstance(node, ast.ImportFrom):
        return [node.module or ""]
    return [alias.name for alias in node.names]


def module_level_targets(path: Path):
    """What a divsat module imports at module level: top-level package names
    ("numpy"), and sibling submodules by bare name ("embedset")."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in module_level_imports(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            yield from [node.module] if node.module else [a.name for a in node.names]
        else:
            yield from (name.split(".")[0] for name in imported_names(node))


def numpy_backed_modules():
    """divsat submodules whose import loads numpy, directly or through a sibling."""
    targets = {p.stem: set(module_level_targets(p)) for p in (SRC / "divsat").glob("*.py")}
    backed = {name for name, deps in targets.items() if "numpy" in deps}
    while True:
        more = {name for name, deps in targets.items() if deps & backed} - backed
        if not more:
            return backed
        backed |= more


def test_numpy_backed_modules_are_found():
    assert {"embedset", "kernel", "rng", "saturation", "synth"} <= numpy_backed_modules()
    assert not {"errors", "_proc", "cli", "filtergate", "analysis"} & numpy_backed_modules()


@pytest.mark.parametrize("name", ["__init__.py", "cli.py", "errors.py", "_proc.py", "analysis.py"])
def test_lean_modules_import_no_numpy_at_module_level(name):
    offenders = set(module_level_targets(SRC / "divsat" / name)) & (
        numpy_backed_modules() | {"numpy"}
    )
    assert offenders == set()


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
def test_no_module_imports_scipy(path: Path):
    # not even inside a function: scipy is a test and benchmark oracle only
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    offenders = [
        f"line {node.lineno}: {name}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in imported_names(node)
        if name == "scipy" or name.startswith("scipy.")
    ]
    assert offenders == []


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
