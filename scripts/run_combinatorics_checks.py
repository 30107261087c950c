#!/usr/bin/env python3
"""Exact-combinatorics verification sweep.

Three `lrplab` runs under one root: random Sperner families with their
LYM and probability-bound chains (`sperner sweep`), the firework reach
tail with its geometric fit (`firework`), and the shell-crossing
coupling check against the matched firework (`xi-coupling`).  A flag
given here goes, after the presets, to every run whose kind takes it,
so it wins there; `--out` names the root, and the firework run keeps at
least 10^5 runs:

    python scripts/run_combinatorics_checks.py --runs 200 --n-values 4 6
"""

import sys

from lrplab.cli import main
from lrplab.experiments import parameters

COMMON = {"--seed", "--jobs", "--d", "--beta"}
# root subdirectory -> (kind, its presets)
RUNS = {"sperner": ("sperner", ["sperner", "sweep"]),
        "firework": ("firework", ["firework"]),
        "coupling": ("xi-coupling", ["xi-coupling", "--d", "1",
                                     "--beta", "0.5", "--runs", "10000"])}


def _flags(argv) -> dict:
    """{flag: its values}, the last occurrence of each flag."""
    flags = {}
    for token in argv:
        if token.startswith("--") or not flags:
            flag, eq, value = token.partition("=")
            flags[flag] = [value] if eq else []
        else:
            flags[flag].append(token)
    return flags


def run_all(argv) -> int:
    flags = {"--out": ["runs/combinatorics"], "--seed": ["7"],
             **_flags(argv)}
    root = (flags.pop("--out") or ["runs/combinatorics"])[-1]
    runs = (flags.get("--runs") or ["0"])[-1]
    takes = {kind: COMMON | {"--" + name.replace("_", "-")
                             for name in parameters(kind)}
             for kind, _ in RUNS.values()}
    stray = set(flags) - set.union(*takes.values())
    if stray:
        print(f"error: no run takes {sorted(stray)[0]}", file=sys.stderr)
        return 2
    for sub, (kind, presets) in RUNS.items():
        argv = presets + ["--out", f"{root}/{sub}"] + [
            token for flag, values in flags.items() if flag in takes[kind]
            for token in (flag, *values)]
        if kind == "firework" and not (runs.isdigit()
                                       and int(runs) >= 10 ** 5):
            argv += ["--runs", str(10 ** 5)]
        status = main(argv)
        if status:
            return status
        print(f"{root}/{sub}/manifest.json")
    return 0


if __name__ == "__main__":
    sys.exit(run_all(sys.argv[1:]))
