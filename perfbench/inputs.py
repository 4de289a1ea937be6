"""Workload inputs, generated from the workload seed alone.

Run as a script this is the set-up step that ``setup_s`` times: a fresh
interpreter imports divsat, derives the workload's parameters from the seed
and writes the input files divsat will read. Vectors are written by this
module, not by divsat, so the inputs do not depend on the code under test.

    python perfbench/inputs.py --workload oneshot-cli --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("sat-spawn", "sat-kernel", "oneshot-cli")

# sat-spawn: `divsat saturate` with synth-provider as both external roles.
SPAWN_K = 16
SPAWN_INIT = 200
SPAWN_ITERS = 4
# sat-kernel: in-process run_saturation over a stationary source.
KERNEL_K = 64
KERNEL_N0 = 600
KERNEL_ITERS = 6
# both saturation workloads
SAT_REPS = 10
SAT_PERC = 0.05
# oneshot-cli
BIG_N = 20_000
BIG_K = 64
MMD_X = 1000
MMD_Y = 1100
MMD_REPS = 10
VERDICTS = 20_000
CAPTIONS = 200
OTHER_CAPTIONS = 20
ACTIVITY = "walking"
SERIES = 8
SERIES_LEN = 50  # even, so n - 2 degrees of freedom is even (see refs.pearson_p)
# small sets for the MMD reference checks every workload makes
CHECK_N = 150


def derive(seed: int, purpose: int) -> int:
    """An independent 31-bit seed for one purpose within a workload seed."""
    state = np.random.SeedSequence([seed, purpose]).generate_state(1)[0]
    return int(state) & 0x7FFFFFFF


def params(workload: str, seed: int) -> dict:
    """Every divsat-facing seed and size of one run."""
    out = {"workload": workload, "seed": seed, "check_seed": derive(seed, 9)}
    if workload == "sat-spawn":
        out.update(k=SPAWN_K, init=SPAWN_INIT, iters=SPAWN_ITERS, reps=SAT_REPS,
                   perc=SAT_PERC, cli_seed=derive(seed, 1), embed_seed=derive(seed, 2))
    elif workload == "sat-kernel":
        out.update(k=KERNEL_K, n0=KERNEL_N0, iters=KERNEL_ITERS, reps=SAT_REPS,
                   perc=SAT_PERC, cfg_seed=derive(seed, 1), source_seed=derive(seed, 2),
                   init_seed=derive(seed, 3))
    elif workload == "oneshot-cli":
        out.update(data_seed=derive(seed, 1), mmd_seed=derive(seed, 2),
                   mmd_reps=MMD_REPS, activity=ACTIVITY)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def expected_sizes(n0: int, perc: float, iters: int) -> list[int]:
    """Set size after each iteration when every batch is ceil(perc * n)."""
    sizes, n = [], n0
    for _ in range(iters):
        n += max(1, math.ceil(perc * n))
        sizes.append(n)
    return sizes


def kernel_initial(p: dict) -> np.ndarray:
    rng = np.random.default_rng(p["init_seed"])
    return rng.standard_normal((p["n0"], p["k"]))


def check_sets(p: dict, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Two equal-size, slightly shifted sets for the MMD reference checks."""
    rng = np.random.default_rng(p["check_seed"])
    return rng.standard_normal((CHECK_N, k)), 0.3 + rng.standard_normal((CHECK_N, k))


def oneshot_data(p: dict) -> dict:
    rng = np.random.default_rng(p["data_seed"])
    scales = 0.5 + rng.random(BIG_K)
    big = rng.standard_normal((BIG_N, BIG_K)) * scales
    keep_rows = np.flatnonzero(rng.random(BIG_N) < 0.5)
    mmd_x = rng.standard_normal((MMD_X, BIG_K))
    mmd_y = 0.1 + rng.standard_normal((MMD_Y, BIG_K))
    keep = rng.random(VERDICTS) < 0.6
    relevant = keep ^ (rng.random(VERDICTS) < 0.2)
    activities = [ACTIVITY] * CAPTIONS + ["running"] * OTHER_CAPTIONS
    order = rng.permutation(len(activities))
    captions = [
        {"id": f"c{i}", "caption": f"a person {activities[j]} in clip {i}",
         "activity": activities[j]}
        for i, j in enumerate(order)
    ]
    text = rng.standard_normal((SERIES, SERIES_LEN))
    motion = 0.3 * text + rng.standard_normal((SERIES, SERIES_LEN))
    f1 = 0.2 * motion + rng.standard_normal((SERIES, SERIES_LEN))
    return {
        "big": big, "keep_rows": keep_rows, "mmd_x": mmd_x, "mmd_y": mmd_y,
        "keep": keep, "relevant": relevant, "captions": captions,
        "text": text, "motion": motion, "f1": f1,
    }


def set_lines(prefix: str, values: np.ndarray) -> list[str]:
    # repr is the shortest round-trip rendering, the same one divsat reads
    # and writes, so loaded vectors equal ``values`` bit for bit.
    return [
        '{"id": "%s%d", "vector": [%s]}\n' % (prefix, i, ", ".join(map(repr, row)))
        for i, row in enumerate(values.tolist())
    ]


def write_oneshot(p: dict, out: Path) -> None:
    data = oneshot_data(p)
    big = set_lines("r", data["big"])
    (out / "big.jsonl").write_text("".join(big))
    (out / "filtered.jsonl").write_text("".join(big[i] for i in data["keep_rows"]))
    (out / "mmd_x.jsonl").write_text("".join(set_lines("x", data["mmd_x"])))
    (out / "mmd_y.jsonl").write_text("".join(set_lines("y", data["mmd_y"])))
    with open(out / "verdicts.jsonl", "w") as fv, open(out / "truth.jsonl", "w") as ft:
        for i, (keep, relevant) in enumerate(zip(data["keep"].tolist(),
                                                 data["relevant"].tolist())):
            fv.write(json.dumps({"id": f"v{i}", "keep": keep}) + "\n")
            ft.write(json.dumps({"id": f"v{i}", "relevant": relevant}) + "\n")
    with open(out / "captions.jsonl", "w") as fh:
        for caption in data["captions"]:
            fh.write(json.dumps(caption) + "\n")
    for name in ("text", "motion", "f1"):
        (out / f"{name}.json").write_text(json.dumps(data[name].tolist()))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    import divsat  # noqa: F401  set-up time covers the package import

    p = params(args.workload, args.seed)
    args.out.mkdir(parents=True, exist_ok=True)
    if args.workload == "sat-kernel":
        np.save(args.out / "initial.npy", kernel_initial(p))
    elif args.workload == "oneshot-cli":
        write_oneshot(p, args.out)


if __name__ == "__main__":
    main()
