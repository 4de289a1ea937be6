"""Golden output digests: every CLI command and demo writes the bytes it wrote before.

Each case runs ``python -m divsat`` (or a demo) in its own folder under
``tmp_path``, with paths relative to that folder, on inputs made by
``divsat synth``. A case's digest covers the report's ``command``,
``result`` and ``version`` (not ``duration_s``, and not ``config``, which
echoes the interpreter's path), or the raw stdout of a command that prints
no report, plus the name and bytes of every file the case leaves in its
folder. A demo runs under ``python -W error``, so a warning (numpy's
overflow or invalid-value ones among them) fails its case.
``tests/golden.json`` holds the digests; a change that moves outputs on
purpose rewrites it with::

    PYTHONPATH=src python tests/test_golden.py --write
"""

import hashlib
import json
import os
import shlex
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"
DIVSAT = [sys.executable, "-m", "divsat"]

# The judge answers by caption text, so its verdicts do not depend on batching.
JUDGE = """\
import json, sys
prompt = json.load(sys.stdin)
for i, item in enumerate(prompt["captions"]):
    print(f"{i + 1}. {'no' if 'sits' in item['caption'] else 'yes'}")
"""

SYNTH_PROVIDER = [*DIVSAT, "synth-provider", "--k", "4", "--state"]


def _saturate(*flags, limit=None):
    provider = [*SYNTH_PROVIDER, "provider.state", "--role", "provider"]
    if limit is not None:
        provider += ["--limit", str(limit)]
    embedder = [*SYNTH_PROVIDER, "embedder.state", "--role", "embedder", "--seed", "3"]
    return ["saturate", "--provider", shlex.join(provider), "--embedder", shlex.join(embedder),
            "--reps", "3", "--seed", "5", *flags, "--out", "out.jsonl", "--trace", "trace.jsonl"]


# case name -> (argv after ``python -m divsat``, stdin); a demo's argv is its file
CASES = {
    "synth": (["synth", "--k", "3", "--n", "7", "--seed", "4", "--mean-shift", "1,-2,0.5",
               "--out", "set.jsonl"], None),
    "diversity": (["diversity", "../inputs/a.jsonl"], None),
    "impact": (["impact", "../inputs/a.jsonl", "../inputs/b.jsonl"], None),
    "mmd-median": (["mmd", "../inputs/a.jsonl", "../inputs/b.jsonl", "--reps", "4",
                    "--seed", "2"], None),
    "mmd-bandwidth": (["mmd", "../inputs/a.jsonl", "../inputs/b.jsonl", "--reps", "4",
                       "--seed", "2", "--bandwidth", "3.5"], None),
    "saturate-saturated": (_saturate("--init-count", "20", "--early-stop", "0"), None),
    "saturate-max-iterations": (_saturate("--init", "../inputs/c.jsonl", "--early-stop", "50",
                                          "--max-iter", "3"), None),
    "saturate-provider-exhausted": (_saturate("--init-count", "20", "--early-stop", "50",
                                              "--perc", "0.2", limit=31), None),
    "filter-run": (["filter", "run", "--activity", "walking", "--captions",
                    "../inputs/captions.jsonl", "--judge",
                    shlex.join([sys.executable, "../inputs/judge.py"]), "--out", "verdicts.jsonl"],
                   None),
    "filter-eval": (["filter", "eval", "--verdicts", "../inputs/verdicts.jsonl",
                     "--truth", "../inputs/truth.jsonl"], None),
    "correlate-flat": (["correlate", "--text", "../inputs/text.json", "--motion",
                        "../inputs/motion.json", "--f1", "../inputs/f1.json"], None),
    "correlate-nested": (["correlate", "--text", "../inputs/text-n.json", "--motion",
                          "../inputs/motion-n.json", "--f1", "../inputs/f1-n.json"], None),
    "correlate-nested-fisher-z": (["correlate", "--text", "../inputs/text-n.json", "--motion",
                                   "../inputs/motion-n.json", "--f1", "../inputs/f1-n.json",
                                   "--fisher-z"], None),
    "synth-provider-provider": ([*SYNTH_PROVIDER[3:], "n.state", "--role", "provider",
                                 "--count", "4", "--limit", "3"], None),
    "synth-provider-embedder": ([*SYNTH_PROVIDER[3:], "n.state", "--role", "embedder",
                                 "--seed", "8", "--drift", "0.5", "--sigma", "0.3"],
                                '{"id": 0, "text": "tok1"}\n{"text": "caf\\u00e9"}\n'),
    **{f"demo-{demo.stem}": ([str(demo)], None) for demo in sorted((ROOT / "demos").glob("*.py"))},
}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _run(argv, cwd, stdin=None):
    proc = subprocess.run(argv, cwd=cwd, input=stdin, capture_output=True, text=True,
                          env=_env(), timeout=120)
    assert proc.returncode == 0, f"{shlex.join(argv)} exited {proc.returncode}: {proc.stderr}"
    return proc.stdout


def _inputs(folder):
    """The shared inputs the cases read, under ``folder``."""
    folder.mkdir()
    for name, flags in [("a", ["--k", "5", "--n", "40", "--seed", "1"]),
                        ("b", ["--k", "5", "--n", "30", "--seed", "2", "--mean-shift", "0.4"]),
                        ("c", ["--k", "4", "--n", "20", "--seed", "6"])]:
        _run([*DIVSAT, "synth", *flags, "--out", f"{name}.jsonl"], folder)
    activities = ["walking", "walking", "jumping", "walking", "walking", "walking", "walking"]
    captions = [{"id": f"c{i}", "activity": activity,
                 "caption": f"a person {'sits' if i % 3 == 0 else 'walks'} forward {i}"}
                for i, activity in enumerate(activities * 2)]
    lines = {
        "captions.jsonl": captions,
        "verdicts.jsonl": [{"id": f"v{i}", "keep": i % 3 != 1} for i in range(11)],
        "truth.jsonl": [{"id": f"v{i}", "relevant": i % 4 != 2} for i in range(11)],
    }
    for name, rows in lines.items():
        (folder / name).write_text("".join(json.dumps(row) + "\n" for row in rows))
    text = [0.1 * i + (i % 3) * 0.05 for i in range(9)]
    series = {"text": text, "motion": [v * v - 0.3 * i for i, v in enumerate(text)],
              "f1": [1.0 / (1.0 + v) for v in text]}
    for name, values in series.items():
        (folder / f"{name}.json").write_text(json.dumps(values))
        nested = [values, values[::-1], [v + 0.01 * i * i for i, v in enumerate(values)]]
        (folder / f"{name}-n.json").write_text(json.dumps(nested))
    (folder / "judge.py").write_text(JUDGE)


def _digest(stdout, folder):
    """The case's digest: its report (or raw stdout) and every file it left in ``folder``."""
    h = hashlib.sha256()
    try:
        report = json.loads(stdout)
    except ValueError:
        report = None
    if isinstance(report, dict) and "result" in report:
        kept = {key: report[key] for key in ("command", "result", "version")}
        text = json.dumps(kept, sort_keys=True)
    else:
        text = stdout
    parts = [text.encode("utf-8")]
    for path in sorted(folder.iterdir()):
        parts += [path.name.encode("utf-8"), path.read_bytes()]
    for part in parts:
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.hexdigest()


def _case(tmp, name):
    args, stdin = CASES[name]
    folder = tmp / name
    folder.mkdir()
    demo = name.startswith("demo-")
    argv = [sys.executable, "-W", "error", *args] if demo else [*DIVSAT, *args]
    return _digest(_run(argv, folder, stdin), folder)


def digests(tmp):
    """Run every case under the folder ``tmp``, two at a time; return {case: digest}."""
    _inputs(tmp / "inputs")
    with ThreadPoolExecutor(2) as pool:
        return dict(zip(CASES, pool.map(lambda name: _case(tmp, name), CASES)))


def test_outputs_match_the_recorded_digests(tmp_path):
    recorded = json.loads(GOLDEN.read_text())
    found = digests(tmp_path)
    moved = sorted(name for name in found.keys() | recorded.keys()
                   if found.get(name) != recorded.get(name))
    assert not moved, f"outputs moved for {len(moved)} case(s): {', '.join(moved)}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(digests(Path(tmp)), indent=2, sort_keys=True) + "\n")
