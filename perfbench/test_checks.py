"""Self-test of the benchmark: every output check passes on lrplab's real
output and fails on a deliberately corrupted copy of it; the probe and
the span arithmetic behave as documented.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from capture import Capture  # noqa: E402
from probe import Probe  # noqa: E402
from workloads import _verify  # noqa: E402

from lrplab import dimension, experiments, graph, metric, scaling  # noqa: E402
from lrplab.kernel import DisplacementKernel  # noqa: E402


@pytest.fixture(scope="module")
def d1_graph():
    return graph.sample_graph(graph.ModelConfig(d=1, beta=1.0, n=96, seed=5))


@pytest.fixture(scope="module")
def d2_graph():
    return graph.sample_graph(graph.ModelConfig(d=2, beta=1.0, n=12, seed=5))


def _adj(g):
    return checks.explicit_adjacency(g.config.n, g.config.d, g.long_edges)


def test_distance(d1_graph, d2_graph):
    for g, x, y in ((d1_graph, 3, 90), (d2_graph, 0, 143)):
        reported = metric.distance(g, x, y)
        assert checks.check_distance(_adj(g), x, y, reported) == []
        assert checks.check_distance(_adj(g), x, y, reported + 1)


def test_geodesic_and_count(d2_graph):
    g, x, y = d2_graph, 0, 143
    dag = metric.geodesic_dag(g, x, y, exact_counts=True)
    path = metric.sample_geodesic(dag, np.random.default_rng(1))
    n, d = g.config.n, g.config.d
    edges = g.long_edges
    assert checks.check_geodesic(n, d, edges, path, x, y, dag.dist) == []
    assert checks.check_geodesic(n, d, edges, path + [y], x, y, dag.dist)
    jump = [path[0], path[-1]]   # a hop that is neither lattice nor edge
    assert checks.check_geodesic(n, d, edges, jump, x, y, 1)
    assert checks.check_count(_adj(g), x, y, dag.count) == []
    assert checks.check_count(_adj(g), x, y, dag.count + 1)


def test_box_counts():
    path = np.array([[0, 0], [1, 1], [2, 1], [3, 2], [4, 3], [5, 5],
                     [6, 6], [7, 7], [8, 8]])
    covers = [(dl, 8.0, dimension.box_count(path, dl, 8.0).count)
              for dl in (1.0, 0.5, 0.25, 0.125)]
    assert checks.check_box_counts(path, covers) == []
    wrong = covers[:1] + [(0.5, 8.0, covers[1][2] + 1)] + covers[2:]
    assert checks.check_box_counts(path, wrong)
    # counts that break N_delta <= N_{delta/2} <= 2^d N_delta
    errors = checks.check_box_counts(path[:1], [(1.0, 8.0, 1), (0.5, 8.0, 5)])
    assert any("nesting" in e for e in errors)


def test_theta():
    assert checks.check_theta_ci(0.45, (0.40, 0.50)) == []
    assert checks.check_theta_ci(0.55, (0.40, 0.50))
    assert checks.check_theta_gap(0.45, 0.40) == []
    assert checks.check_theta_gap(0.45, 0.30)


def test_kernel():
    table = DisplacementKernel.build(2, 1.0, 6)
    classes = sorted(table.entries)[::7]
    args = (2, table.beta, table.tolerance, classes)
    assert checks.check_kernel(table.entries, *args) == []
    bad = dict(table.entries)
    I, p = bad[classes[1]]
    bad[classes[1]] = (I * (1 + 1e-5), p)
    assert checks.check_kernel(bad, *args)


def test_good_rates():
    rows = [(0.5, 0.1, 0.05, 0.2), (0.25, 0.2, 0.1, 0.3), (0.1, 0.2, 0.1, 0.3)]
    assert checks.check_good_rates(rows) == []
    assert checks.check_good_rates([rows[0], (0.25, 0.05, 0.01, 0.1)])
    assert checks.check_good_rates([(0.5, 0.4, 0.05, 0.2)])


def test_connected_sets(d1_graph):
    rg = dimension.renormalize(d1_graph, 8)
    root = tuple(c // 2 for c in rg.shape)
    counts = dimension.enumerate_connected_sets(rg, root, 4)
    assert checks.check_connected_sets(rg.adj, root, 4, counts) == []
    wrong = counts.copy()
    wrong[2] += 1
    assert checks.check_connected_sets(rg.adj, root, 4, wrong)
    assert checks.check_cs_bound(counts, 3.0, 20) == []
    assert checks.check_cs_bound([1.0, 1e6], 3.0, 20)


def test_verify_run(tmp_path):
    out = tmp_path / "run"
    experiments.run(experiments.parse_config({
        "kind": "sample", "seed": 1, "out": str(out),
        "model": {"d": 1, "beta": 1.0}, "params": {"n": 16}}))
    assert _verify(out) == []
    with open(out / "edges.txt", "a") as fh:
        fh.write("0 9\n")
    assert _verify(out)


def test_probe_wraps_every_binding_and_restores():
    originals = (graph.sample_graph, scaling.sample_graph,
                 dimension.sample_graph)
    probe = Probe(True, layers.trace_hooks())
    probe.install()
    try:
        wrapped = (graph.sample_graph, scaling.sample_graph,
                   dimension.sample_graph)
        assert all(w is not o for w, o in zip(wrapped, originals))
        assert len({id(w) for w in wrapped}) == 1
        scaling.sample_distances(1, 1.0, 8, 2, seed=3)
    finally:
        probe.uninstall()
    assert (graph.sample_graph, scaling.sample_graph,
            dimension.sample_graph) == originals
    metrics, own = layers.layer_metrics(probe.names, probe.spans,
                                        probe.counts, probe.values)
    assert metrics["graph.samples"] == 2
    assert metrics["metric.bfs_calls"] == 2
    assert metrics["kernel.build_s"] <= sum(own.values())


def test_capture_keeps_distances():
    capture = Capture()
    probe = Probe(False, capture.hooks())
    probe.install()
    try:
        scaling.sample_distances(1, 1.0, 8, 2, seed=3)
    finally:
        probe.uninstall()
    assert len(capture.items["distance"]) == 2
    assert probe.spans == []


def test_span_arithmetic():
    names = ["graph.sample_graph", "rng.RngStream.generator",
             "graph.class_pair_count"]
    # sample 0..10 holds a generator 1..4 and a graph helper 5..6
    spans = [[0, -1, 0.0, 10.0], [1, 0, 1.0, 4.0], [2, 0, 5.0, 6.0]]
    metrics, own = layers.layer_metrics(names, spans, {}, {})
    assert metrics["graph.sample_self_s"] == 7.0
    assert metrics["rng.generator_s"] == 3.0
    assert own == {"graph": 7.0, "rng": 3.0}
    # the hooks of the generator call (4..5) leave graph's self time
    names.append("trace.hooks")
    spans.append([3, 0, 4.0, 5.0])
    metrics, own = layers.layer_metrics(names, spans, {}, {})
    assert metrics["graph.sample_self_s"] == 6.0
    assert own == {"graph": 6.0, "rng": 3.0, "trace": 1.0}
    # a missing layer reads 0 and does not raise
    assert metrics["dimension.box_count_s"] == 0.0


def test_raising_call_counts_as_failed(monkeypatch, capsys):
    def prepare(seed, out_dir):
        def call():
            raise RuntimeError("deliberate")
        return workloads.Prepared(call, 7, lambda *a: ["not reached"])
    monkeypatch.setitem(workloads.WORKLOADS, "raises", workloads.Workload(
        "raises", "lrplab.graph", prepare, {}))
    assert worker.main(["raises", "1", "check", repr(time.monotonic())]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["failed"] == 7
    assert report["errors"] == []


def _round(mode, wall, failed=0):
    return {"mode": mode, "setup_s": 1.0, "wall_s": wall,
            "peak_rss_mib": 100.0, "units": 5, "failed": failed,
            "errors": [], "notes": {"note": 1} if mode == "check" else {}}


def test_failed_rounds_leave_the_metrics(monkeypatch, capsys):
    rounds = iter([_round("check", 3.0), _round("time", 2.0),
                   _round("time", 0.01, failed=5), _round("time", 2.0)])
    monkeypatch.setattr(run, "run_round", lambda *a: next(rounds))
    assert run.main(["--workload", "study-d1", "--seed", "1",
                     "--seconds", "0"]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["attempted"] == 20 and out["failed"] == 5
    assert out["correct"] is True
    assert out["metrics"]["wall_s"]["value"] == 2.0

    # a check round whose call raised leaves the outputs unchecked
    rounds = iter([_round("check", 0.01, failed=5)]
                  + [_round("time", 2.0)] * 3)
    assert run.main(["--workload", "study-d1", "--seed", "1",
                     "--seconds", "0"]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["correct"] is False

    # no timed round left: no metrics, no result line
    rounds = iter([_round("check", 3.0)] + [_round("time", 0.01, 5)] * 3)
    assert run.main(["--workload", "study-d1", "--seed", "1",
                     "--seconds", "0"]) == 1
