"""The benchmark's workloads: inputs made from the seed, the measured call
into lrplab's public API, the units it requests, and its output checks.

Every workload runs with `jobs: 1` and beta = 1.  Its model seed is the
benchmark's `--seed`.  `prepare` runs after the workload's lrplab module
is imported and returns the call; `check` runs after the call, outside
the timed section, and returns failure messages.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BETA = 1.0

STUDY = {"n_values": [32, 64, 128, 256], "replicates": 30,
         "geodesics": 30, "scales": [2, 3, 4, 5, 6]}
GEODESICS_D2 = {"n": 8, "geodesics": 2, "scales": [0, 1, 2, 3],
                "theta": 0.5}
GOODCUBES = {"s": 16, "alphas": [0.5, 0.25, 0.1], "b": 0.25, "theta": 0.45,
             "replicates": 100, "a_s_replicates": 30, "cs_n": 256,
             "cs_k": 5, "cs_replicates": 20}


@dataclass
class Prepared:
    call: Callable[[], object]
    units: int
    check: Callable[[object, object, dict], list]


@dataclass(frozen=True)
class Workload:
    name: str
    module: str                                  # imported during set-up
    prepare: Callable[[int, Path], Prepared]
    every: dict                                  # capture subsampling


def model_seed(seed: int) -> int:
    return seed % 2 ** 64


# ---------------------------------------------------------------------------
# checks shared by the workloads


def _adjacency(graph, cache: dict):
    from checks import explicit_adjacency
    key = id(graph)
    if key not in cache:
        cfg = graph.config
        cache[key] = explicit_adjacency(cfg.n, cfg.d, graph.long_edges)
    return cache[key]


def _metric_checks(capture) -> list[str]:
    """Distances, geodesic counts and geodesics of every captured query,
    against csgraph on the captured configuration."""
    import checks
    errors, cache = [], {}
    for graph, x, y, reported in capture.items["distance"]:
        errors += checks.check_distance(_adjacency(graph, cache), x, y,
                                        reported)
    for entry in capture.items["dag"]:
        graph, x, y = entry["graph"], entry["x"], entry["y"]
        adj = _adjacency(graph, cache)
        errors += checks.check_distance(adj, x, y, entry["dist"])
        errors += checks.check_count(adj, x, y, entry["count"])
        cfg = graph.config
        for path in entry["paths"]:
            errors += checks.check_geodesic(cfg.n, cfg.d, graph.long_edges,
                                            path, x, y, entry["dist"])
    return errors


def _box_checks(capture) -> list[str]:
    from checks import check_box_counts
    errors = []
    for entry in capture.items["path"]:
        errors += check_box_counts(entry["coords"], entry["covers"])
    return errors


def _verify(out_dir: Path) -> list[str]:
    from lrplab.experiments import IntegrityError, verify_run
    try:
        verify_run(out_dir)
    except IntegrityError as exc:
        return [f"verify_run: {exc}"]
    return []


def _missing(capture, *kinds) -> list[str]:
    return [f"nothing captured of kind {kind!r}" for kind in kinds
            if not capture.items[kind]]


def _run_config(kind: str, d: int, seed: int, out_dir: Path,
                params: dict):
    from lrplab import experiments
    config = experiments.parse_config({
        "kind": kind, "seed": model_seed(seed), "out": str(out_dir),
        "jobs": 1, "model": {"d": d, "beta": BETA}, "params": params})
    # looked up at call time, so the probe's wrapper is the one called
    return lambda: experiments.run(config)


# ---------------------------------------------------------------------------
# workloads


def _prepare_study(seed: int, out_dir: Path) -> Prepared:
    p = STUDY
    params = {"n": p["n_values"][-1], "geodesics": p["geodesics"],
              "scales": p["scales"], "theta_source": "fit",
              "n_values": p["n_values"], "replicates": p["replicates"]}

    def check(result, capture, notes):
        from checks import check_theta_ci, check_theta_gap
        errors = _verify(out_dir) + _missing(capture, "distance", "dag",
                                             "path")
        theta = json.loads((out_dir / "theta.json").read_text())
        dim = json.loads((out_dir / "dim.json").read_text())
        errors += check_theta_ci(theta["theta_hat"], theta["ci"])
        # criterion 08's gate is sized for a 200-replicate ladder; at this
        # size it misses on some seeds, so it is reported, not enforced
        # (see README)
        notes["theta_gap"] = abs(dim["dim_hat"] - theta["theta_hat"])
        notes["theta_gap_gate"] = not check_theta_gap(theta["theta_hat"],
                                                      dim["dim_hat"])
        return errors + _metric_checks(capture) + _box_checks(capture)

    units = len(p["n_values"]) * p["replicates"] + p["geodesics"]
    return Prepared(_run_config("dim", 1, seed, out_dir, params), units,
                    check)


def _prepare_geodesics_d2(seed: int, out_dir: Path) -> Prepared:
    p = GEODESICS_D2
    params = {"n": p["n"], "geodesics": p["geodesics"],
              "scales": p["scales"], "theta_source": "manual",
              "theta": p["theta"]}

    def check(result, capture, notes):
        from checks import check_kernel
        errors = _verify(out_dir) + _missing(capture, "kernel", "dag",
                                             "path")
        for table in capture.items["kernel"][:1]:
            keys = sorted(table.entries)
            picks = [keys[i] for i in (0, 1, len(keys) // 3,
                                       2 * len(keys) // 3, -1)]
            errors += check_kernel(table.entries, table.d, table.beta,
                                   table.tolerance, picks)
        return errors + _metric_checks(capture) + _box_checks(capture)

    return Prepared(_run_config("dim", 2, seed, out_dir, params),
                    p["geodesics"], check)


def _prepare_goodcubes(seed: int, out_dir: Path) -> Prepared:
    p = GOODCUBES
    params = {key: p[key] for key in GOODCUBES}

    def check(result, capture, notes):
        import checks
        errors = _verify(out_dir) + _missing(capture, "distance", "growth",
                                             "connected_sets")
        lines = (out_dir / "goodcubes.csv").read_text().split()[1:]
        rows = [tuple(float(v) for v in line.split(",")) for line in lines]
        if len(rows) != len(p["alphas"]):
            errors.append(f"{len(rows)} good-cube rows for "
                          f"{len(p['alphas'])} alphas")
        errors += checks.check_good_rates(
            [(a, rate, lo, hi) for a, _, rate, lo, hi in rows])
        for stats in capture.items["growth"]:
            errors += checks.check_cs_bound(stats.cs_means, stats.mu_hat,
                                            stats.replicates)
        for rg, root, k, counts in capture.items["connected_sets"]:
            errors += checks.check_connected_sets(rg.adj, root, k, counts)
        return errors + _metric_checks(capture)

    units = (len(p["alphas"]) * p["replicates"] + p["a_s_replicates"]
             + p["cs_replicates"])
    return Prepared(_run_config("goodcubes", 1, seed, out_dir, params),
                    units, check)


# why each workload exists: BENCHMARK.json and README.md
WORKLOADS = {w.name: w for w in (
    Workload("study-d1", "lrplab.experiments", _prepare_study,
             {"distance": 40, "dag": 6, "path": 6}),
    Workload("geodesics-d2", "lrplab.experiments", _prepare_geodesics_d2, {}),
    Workload("goodcubes-d1", "lrplab.experiments", _prepare_goodcubes,
             {"distance": 6, "connected_sets": 7}),
)}
