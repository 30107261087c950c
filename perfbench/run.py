"""Benchmark entry point: one workload, one seed, whole rounds for a set time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; lrplab is imported from its
`src/`.  Each round is a fresh process (worker.py) that sets up and
makes the workload's measured call once.  Every round of a run uses the
same inputs, so the first round is the check round: it captures what
lrplab computed and checks the outputs outside its timed section.  The
timed rounds that follow run the call alone (with --trace 1, alternately
alone and traced).  A new round starts only if a timed round of median
length still fits in S seconds, and at least MIN_ROUNDS timed rounds
always run.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics of the timed rounds: the mean set-up and wall times,
and the median peak memory.  The rounds repeat the same deterministic
work, so what differs between them is the speed of the shared machine,
which switches between fast and slow spells from round to round and
drifts over minutes; the mean over every timed round of the run follows
the share of slow spells more smoothly than the median or the fastest
round of a handful of rounds.  With --trace 1 the JSON holds the median
per-layer metrics of the traced rounds and the tracing overhead (mean
traced wall time minus mean untraced wall time).  The traced run also writes
perfbench/results/<workload>-seed<N>.layers.json and the spans of its
first traced round.  Metric names and units are those of BENCHMARK.json.
A round whose measured call raised counts its units as failed and is
left out of every metric.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 150


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    # two cores: at most two BLAS threads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "2"
    return env


def run_round(workload: str, seed: int, mode: str, env: dict,
              spans_path: Path | None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           mode]
    spawned_at = time.monotonic()
    cmd.append(repr(spawned_at))
    if spans_path is not None:
        cmd.append(str(spans_path))
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=ROUND_TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def median(rounds, key) -> float:
    return statistics.median(r[key] for r in rounds)


def mean(rounds, key) -> float:
    return statistics.fmean(r[key] for r in rounds)


def end_to_end(rounds, catalogue) -> dict:
    wall = mean(rounds, "wall_s")
    values = {"setup_s": mean(rounds, "setup_s"), "wall_s": wall,
              "replicates_per_s": rounds[0]["units"] / wall,
              "peak_rss_mib": median(rounds, "peak_rss_mib")}
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in catalogue}


def per_layer(traced, untraced, catalogue) -> dict:
    overhead = mean(traced, "wall_s") - mean(untraced, "wall_s")
    out = {}
    for m in catalogue:
        name = m["name"]
        value = overhead if name == "trace.overhead_s" else \
            statistics.median(r["layers"][name] for r in traced)
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        print(f"  {name:30s} {m['value']:>16.6g} {m['unit']}")


def write_layers(workload: str, seed: int, traced, untraced,
                 metrics: dict) -> Path:
    own = {}
    for r in traced:
        for layer, value in r["own_s"].items():
            own.setdefault(layer, []).append(value)
    wall = median(traced, "wall_s")
    shares = {layer: statistics.median(v) / wall for layer, v in own.items()}
    path = HERE / "results" / f"{workload}-seed{seed}.layers.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({
        "workload": workload, "seed": seed, "metrics": metrics,
        "own_share_of_traced_wall": shares,
        "traced_wall_s": [r["wall_s"] for r in traced],
        "untraced_wall_s": [r["wall_s"] for r in untraced],
        "spans": [r["spans"] for r in traced],
        "hook_errors": sum(r["hook_errors"] for r in traced)},
        indent=2, sort_keys=True) + "\n")
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM raises SystemExit in the parent, so subprocess.run kills and
    # waits for the round's worker instead of leaving it running
    signal.signal(signal.SIGTERM,
                  lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "lrplab" / "__init__.py").is_file():
        print(f"no lrplab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    env = worker_env()
    spans_path = (HERE / "results"
                  / f"{args.workload}-seed{args.seed}.spans.json.gz")

    start = time.monotonic()
    rounds, durations = [], []
    while True:
        if not rounds:
            mode = "check"
        elif args.trace and len(rounds) % 2 == 0:
            mode = "trace"
        else:
            mode = "time"
        first_traced = mode == "trace" and \
            not any(r["mode"] == "trace" for r in rounds)
        began = time.monotonic()
        try:
            rounds.append(run_round(args.workload, args.seed, mode, env,
                                    spans_path if first_traced else None))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"round {len(rounds)} failed: {exc}", file=sys.stderr)
            return 1
        now = time.monotonic()
        if mode == "check":
            continue
        durations.append(now - began)
        untraced = [r for r in rounds if r["mode"] == "time"]
        traced = [r for r in rounds if r["mode"] == "trace"]
        enough = (traced and untraced) if args.trace else \
            len(untraced) >= MIN_ROUNDS
        if enough and now - start + statistics.median(durations) \
                > args.seconds:
            break

    check_round = rounds[0]
    for e in check_round["errors"]:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    if check_round["failed"]:
        print("the check round's measured call raised: outputs unchecked",
              file=sys.stderr)
    untraced = [r for r in untraced if not r["failed"]]
    traced = [r for r in traced if not r["failed"]]
    if not untraced or (args.trace and not traced):
        print("every timed round failed: no metric to report",
              file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(traced, untraced, bench["per_layer"])
        path = write_layers(args.workload, args.seed, traced, untraced,
                            metrics)
        print_table(f"{args.workload} seed {args.seed}: per-layer metrics "
                    f"({len(traced)} traced rounds), {path.name}", metrics)
    else:
        metrics = end_to_end(untraced, bench["end_to_end"])
        print_table(f"{args.workload} seed {args.seed}: end-to-end "
                    f"({len(untraced)} timed rounds)", metrics)
    if check_round["notes"]:
        print(f"  notes: {json.dumps(check_round['notes'])}")
    correct = not check_round["failed"] and not check_round["errors"]
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["units"] for r in rounds),
                      "failed": sum(r["failed"] for r in rounds),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
