"""Per-layer metrics: the counting hooks and the span arithmetic.

A span's self time is its duration minus the time its child spans
cover.  A span's layer time is its self time plus the layer time of
its children in the same layer, so `graph.sample_self_s` is the time
inside `sample_graph` that no kernel or rng span covers.  The probe's
hooks run in `trace.hooks` spans (layer `trace`); a span's net time is
its duration minus the hook spans inside it, and the time metrics below
are net times, so hook work shows only in the `trace` layer and in the
tracing overhead.  Names and units of the metrics are BENCHMARK.json's.
"""

from __future__ import annotations

import weakref

import numpy as np

KERNEL_BUILDS = ("kernel.DisplacementKernel.build",
                 "kernel.kernel_integrals_d1")
GENERATORS = ("rng.RngStream.generator", "rng.generator")


def long_classes(n: int, d: int) -> int:
    """Unordered long-displacement classes of an n-box: half of all
    nonzero displacements minus the 3^d - 1 nearest neighbours."""
    return ((2 * n - 1) ** d - 1) // 2 - (3 ** d - 1) // 2


def _hit_classes(edges: np.ndarray, n: int, d: int) -> int:
    if edges.size == 0:
        return 0
    shape = (n,) * d
    ci = np.stack(np.unravel_index(edges[:, 0], shape), axis=1)
    cj = np.stack(np.unravel_index(edges[:, 1], shape), axis=1)
    k = cj - ci
    # sign-normalise so the first nonzero coordinate is positive
    first = k[np.arange(len(k)), (k != 0).argmax(axis=1)]
    k = k * np.sign(first)[:, None]
    return len(np.unique(k, axis=0))


def _on_kernel_build(probe, sid, bound, table):
    probe.add("kernel.classes", len(table.entries))


def _on_kernel_d1(probe, sid, bound, values):
    probe.add("kernel.classes", len(values))


def _on_sample(probe, sid, bound, graph):
    cfg = graph.config
    probe.add("graph.classes", long_classes(cfg.n, cfg.d))
    probe.add("graph.classes_hit",
              _hit_classes(graph.long_edges, cfg.n, cfg.d))
    probe.add("graph.edges", len(graph.long_edges))


def _first_adjacency(seen: dict):
    def hook(probe, sid, bound, result):
        graph = bound["self"]
        ref = seen.get(id(graph))
        if ref is None or ref() is not graph:
            seen[id(graph)] = weakref.ref(graph)
            probe.values[sid] = 1
    return hook


def _on_bfs(probe, sid, bound, dist):
    reached = int((dist >= 0).sum())
    probe.add("metric.bfs_vertices", reached)
    probe.add("metric.bfs_levels", int(dist.max()) if reached else 0)
    probe.values[sid] = reached


def _on_dag(probe, sid, bound, dag):
    probe.add("metric.dag_vertices", len(dag.counts))
    probe.add("metric.dag_edges", sum(len(p) for p in dag.preds.values()))


def _on_geodesic(probe, sid, bound, path):
    probe.add("metric.geodesic_hops", len(path) - 1)


def _on_special_pairs(probe, sid, bound, pairs):
    probe.add("dimension.special_pairs", len(pairs))


def trace_hooks() -> dict:
    """Counting hooks by span name, for a traced run."""
    return {
        "kernel.DisplacementKernel.build": [_on_kernel_build],
        "kernel.kernel_integrals_d1": [_on_kernel_d1],
        "graph.sample_graph": [_on_sample],
        "graph.LrpGraph.adjacency": [_first_adjacency({})],
        "metric.distance_field": [_on_bfs],
        "metric.geodesic_dag": [_on_dag],
        "metric.sample_geodesic": [_on_geodesic],
        "dimension.find_special_pairs": [_on_special_pairs],
    }


def span_table(names, spans):
    """Per-span arrays: name, layer, parent, net duration, self and layer
    time."""
    count = len(spans)
    name = [names[s[0]] for s in spans]
    layer = [nm.split(".", 1)[0] for nm in name]
    parent = np.fromiter((s[1] for s in spans), dtype=np.int64, count=count)
    dur = np.fromiter((s[3] - s[2] for s in spans), dtype=float, count=count)
    child = np.zeros(count)
    same = np.zeros(count)
    hooked = np.zeros(count)     # time of trace.hooks spans inside a span
    own = np.zeros(count)
    lay = np.zeros(count)
    # children start after their parent, so a reverse sweep sees every
    # child before its parent
    for sid in range(count - 1, -1, -1):
        own[sid] = dur[sid] - child[sid]
        lay[sid] = own[sid] + same[sid]
        p = parent[sid]
        if p >= 0:
            child[p] += dur[sid]
            hooked[p] += dur[sid] if layer[sid] == "trace" else hooked[sid]
            if layer[p] == layer[sid]:
                same[p] += lay[sid]
    return name, layer, parent, dur - hooked, own, lay


def layer_metrics(names, spans, counts, values) -> tuple[dict, dict]:
    """(per-layer metrics by name, own time by layer) from one traced call."""
    name, layer, parent, net, own, lay = span_table(names, spans)
    by_name: dict[str, list[int]] = {}
    for sid, nm in enumerate(name):
        by_name.setdefault(nm, []).append(sid)

    def ids(*names_):
        return [sid for nm in names_ for sid in by_name.get(nm, ())]

    def outermost(*names_):
        group = set(names_)
        return [sid for sid in ids(*names_)
                if parent[sid] < 0 or name[parent[sid]] not in group]

    def total(sids, arr=net):
        return float(sum(arr[sid] for sid in sids))

    children: dict[int, list[int]] = {}
    for sid in ids("metric.distance_field"):
        children.setdefault(int(parent[sid]), []).append(sid)
    dags = ids("metric.geodesic_dag")
    dag_bfs = [c for sid in dags for c in children.get(sid, ())]
    dag_self = total(dags) - total(dag_bfs)
    bfs_in_dags = sum(values.get(sid, 0) for sid in dag_bfs)

    builds = outermost(*KERNEL_BUILDS)
    gens = outermost(*GENERATORS)
    csr = [sid for sid in ids("graph.LrpGraph.adjacency") if values.get(sid)]
    out = {
        "kernel.build_s": total(builds),
        "kernel.builds": len(builds),
        "rng.generator_s": total(gens),
        "rng.generators": len(gens),
        "graph.sample_self_s": total(ids("graph.sample_graph"), lay),
        "graph.samples": len(ids("graph.sample_graph")),
        "graph.csr_s": total(csr),
        "metric.bfs_s": total(ids("metric.distance_field")),
        "metric.bfs_calls": len(ids("metric.distance_field")),
        "metric.dag_self_s": dag_self,
        "metric.geodesic_sample_s": total(ids("metric.sample_geodesic")),
        "scaling.medians_self_s": total(ids("scaling.estimate_medians"), lay),
        "scaling.fit_theta_s": total(ids("scaling.fit_theta")),
        "scaling.multiplicity_self_s":
            total(ids("scaling.multiplicity_stats"), lay),
        "dimension.box_count_s": total(ids("dimension.box_count")),
        "dimension.box_counts": len(ids("dimension.box_count")),
        "dimension.good_cube_self_s":
            total(ids("dimension.classify_good_cube"), lay),
        "dimension.connected_sets_s":
            total(ids("dimension.connected_set_growth"), lay),
        "experiments.run_self_s": total(ids("experiments.run"), lay),
    }
    for key in ("kernel.classes", "graph.classes", "graph.classes_hit",
                "graph.edges", "metric.bfs_vertices", "metric.bfs_levels",
                "metric.dag_vertices", "metric.dag_edges",
                "metric.geodesic_hops", "dimension.special_pairs",
                "experiments.output_bytes"):
        out[key] = counts.get(key, 0)
    out["graph.class_hit_ratio"] = (out["graph.classes_hit"]
                                    / out["graph.classes"]
                                    if out["graph.classes"] else 0.0)
    out["metric.bfs_useful_ratio"] = (counts.get("metric.dag_vertices", 0)
                                      / bfs_in_dags if bfs_in_dags else 0.0)
    shares: dict[str, float] = {}
    for sid, lyr in enumerate(layer):
        shares[lyr] = shares.get(lyr, 0.0) + float(own[sid])
    return out, shares
