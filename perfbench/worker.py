"""One round of one workload, in its own process.

    python3 perfbench/worker.py WORKLOAD SEED MODE SPAWNED_AT [SPANS_PATH]

SPAWNED_AT is the parent's `time.monotonic()` just before it started
this process, so set-up time covers the interpreter start, the lrplab
import with numpy and scipy, and building the inputs.  The round then
makes the measured call once and reads peak resident memory.  MODE says
what else the round does:

- `check`: the call runs under the capture hooks, and the outputs are
  checked after the timed section;
- `time`: nothing but the call runs;
- `trace`: every public lrplab function is wrapped and the per-layer
  metrics are computed from the spans.

The round prints one JSON line.  Only the standard library is imported
before set-up ends.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODES = ("check", "time", "trace")


def main(argv) -> int:
    name, seed, mode, spawned_at = (argv[0], int(argv[1]), argv[2],
                                    float(argv[3]))
    spans_path = Path(argv[4]) if len(argv) > 4 else None
    if mode not in MODES:
        print(f"mode {mode!r} is not one of {MODES}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    workload = WORKLOADS[name]
    out_dir = HERE / "runs" / f"{name}-{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)

    lrplab = importlib.import_module(workload.module)
    if not Path(lrplab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"lrplab imported from {lrplab.__file__}, not from src/",
              file=sys.stderr)
        return 2
    prepared = workload.prepare(seed, out_dir)
    setup_s = time.monotonic() - spawned_at

    probe = None
    if mode == "check":
        from capture import Capture
        from probe import Probe
        capture = Capture(workload.every)
        probe = Probe(False, capture.hooks())
    elif mode == "trace":
        import layers
        from probe import Probe
        probe = Probe(True, layers.trace_hooks())
    if probe is not None:
        probe.install()
    failed = 0
    result = None
    start = time.perf_counter()
    try:
        result = prepared.call()
    except Exception:
        traceback.print_exc()
        failed = prepared.units
    wall_s = time.perf_counter() - start
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if probe is not None:
        probe.uninstall()

    report = {"mode": mode, "setup_s": setup_s, "wall_s": wall_s,
              "peak_rss_mib": peak_rss_mib, "units": prepared.units,
              "failed": failed, "errors": [], "notes": {}}
    if mode == "check" and not failed:
        try:
            report["errors"] = prepared.check(result, capture,
                                              report["notes"])
        except Exception:
            report["errors"] = ["check raised:\n" + traceback.format_exc()]
    if mode == "trace":
        output_bytes = sum(f.stat().st_size for f in out_dir.glob("*")
                           if f.is_file()) if out_dir.is_dir() else 0
        probe.add("experiments.output_bytes", output_bytes)
        metrics, own = layers.layer_metrics(probe.names, probe.spans,
                                            probe.counts, probe.values)
        report.update(layers=metrics, own_s=own, spans=len(probe.spans),
                      hook_errors=probe.hook_errors)
        if spans_path is not None:
            import gzip
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            with gzip.open(spans_path, "wt") as fh:
                json.dump({"names": probe.names, "spans": probe.spans}, fh)
    shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
