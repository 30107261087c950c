"""Captures of lrplab's own inputs and outputs, for the output checks.

The hooks run after wrapped calls (see probe.py) and keep a subsample of
what the program computed: configurations with the distances, geodesic
DAGs and paths it reported on them, box covers, kernel tables and
connected-set counts.  Configurations are taken from the calls, never
regenerated from stream keys, so the checks do not depend on the RNG
layout.  Of each kind the calls 0, every, 2*every, ... are kept, at
most CAP of them.
"""

from __future__ import annotations

from collections import Counter, defaultdict

import numpy as np

CAP = 6


class Capture:
    def __init__(self, every: dict | None = None):
        self.every = every or {}
        self.seen: Counter = Counter()
        self.items: defaultdict = defaultdict(list)
        self._dags: dict[int, dict] = {}
        self._paths: dict[int, tuple] = {}

    def _keep(self, kind: str) -> int | None:
        """Call index when this call is kept, else None."""
        index = self.seen[kind]
        self.seen[kind] += 1
        if index % self.every.get(kind, 1) or len(self.items[kind]) >= CAP:
            return None
        return index

    def hooks(self) -> dict:
        return {
            "metric.distance": [self._distance],
            "metric.geodesic_dag": [self._dag],
            "metric.sample_geodesic": [self._geodesic],
            "dimension.box_count": [self._box],
            "kernel.DisplacementKernel.build": [self._kernel],
            "dimension.connected_set_growth": [self._growth],
            "dimension.enumerate_connected_sets": [self._connected_sets],
        }

    def _distance(self, probe, sid, bound, result):
        if bound.get("region") is not None or \
                bound.get("extra_edges") is not None:
            return
        if self._keep("distance") is not None:
            self.items["distance"].append(
                (bound["graph"], int(bound["x"]), int(bound["y"]), result))

    def _dag(self, probe, sid, bound, dag):
        index = self._keep("dag")
        if index is None or bound.get("region") is not None:
            return
        entry = {"index": index, "graph": bound["graph"],
                 "x": int(bound["x"]), "y": int(bound["y"]),
                 "dist": dag.dist, "count": dag.count, "dag": dag,
                 "paths": []}
        self.items["dag"].append(entry)
        self._dags[id(dag)] = entry

    def _geodesic(self, probe, sid, bound, path):
        entry = self._dags.get(id(bound["dag"]))
        if entry is not None:
            entry["paths"].append(list(path))

    def _box(self, probe, sid, bound, cover):
        path = bound["path"]
        ref, entry = self._paths.get(id(path), (None, None))
        if ref is not path:
            entry = None
            if self._keep("path") is not None:
                coords = np.asarray(path)
                graph = bound.get("graph")
                if coords.ndim == 1 and graph is not None:
                    cfg = graph.config
                    coords = np.stack(np.unravel_index(
                        coords, (cfg.n,) * cfg.d), axis=1)
                entry = {"coords": coords.copy(), "covers": []}
                self.items["path"].append(entry)
            self._paths[id(path)] = (path, entry)
        if entry is not None:
            entry["covers"].append((float(bound["delta"]), float(bound["L"]),
                                    int(cover.count)))

    def _kernel(self, probe, sid, bound, table):
        if self._keep("kernel") is not None:
            self.items["kernel"].append(table)

    def _growth(self, probe, sid, bound, stats):
        self.items["growth"].append(stats)

    def _connected_sets(self, probe, sid, bound, counts):
        if self._keep("connected_sets") is not None:
            self.items["connected_sets"].append(
                (bound["rg"], bound["root"], int(bound["k"]),
                 np.array(counts)))
