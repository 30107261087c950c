"""Run the benchmark over several seeds and report the spread of each metric.

    python3 perfbench/suite.py --seeds 1 2 3 4 5 [--trace 0|1]

For each workload of BENCHMARK.json and each seed it runs run.py once,
at BENCHMARK.json's run_seconds, then prints, per metric, the median and
quartiles over seeds (`statistics.quantiles(n=4)`) and the quartile
spread as a share of the median, next to the metric's bound from
BENCHMARK.json.  The raw results go to
perfbench/results/suite-trace<T>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    results = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in args.seeds:
            out = run_once(workload, seed, bench["run_seconds"], args.trace)
            runs.append({"seed": seed, **out})
            print(f"{workload} seed {seed}: correct={out['correct']} "
                  f"attempted={out['attempted']} failed={out['failed']}",
                  flush=True)
        results[workload] = runs
        print(f"{workload}: {len(runs)} seeds")
        for name in runs[0]["metrics"]:
            s = summarise([r["metrics"][name]["value"] for r in runs])
            bound = bounds.get(name)
            flag = "" if bound is None else f" bound {bound:.2f} " + (
                "ok" if s["spread"] < bound / 3 else "WIDE")
            print(f"  {name:30s} median {s['median']:12.6g}  "
                  f"q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}  "
                  f"spread {s['spread']:.4f}{flag}")
    path = HERE / "results" / f"suite-trace{args.trace}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(results, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
