import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrplab.dimension import _crossing_edges
from lrplab.graph import LrpGraph, ModelConfig, sample_graph
from lrplab.metric import (UNREACHED, _nn_offsets, distance, distance_field,
                           geodesic_dag, path_edges, sample_geodesic)

from oracles import dijkstra_distance, enumerate_geodesics, is_valid_path


def _graph(d, n, seed, beta=1.0):
    return sample_graph(ModelConfig(d=d, beta=beta, n=n, seed=seed))


def _restricted(g, x, y, mask):
    """The oracle's restricted distance, -1 where the region cuts x off
    from y (as `distance_field` reads)."""
    D = dijkstra_distance(g, x, y, mask)
    return UNREACHED if D is None else D


def _squared_radius(g, center):
    """Squared Euclidean distance of every vertex from `center`."""
    return ((g.coords(np.arange(g.n_vertices)) - np.asarray(center))
            ** 2).sum(axis=1)


def test_distance_to_self_zero():
    g = _graph(1, 32, 0)
    assert distance(g, 7, 7) == 0


def test_nearest_neighbors_distance_one():
    g = _graph(2, 6, 1)
    # every ell-infinity neighbor pair is wired, diagonals included
    assert distance(g, g.index((2, 2)), g.index((3, 3))) == 1
    assert distance(g, g.index((2, 2)), g.index((2, 3))) == 1


def test_distance_symmetric():
    g = _graph(1, 128, 3)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, y = rng.integers(0, g.n_vertices, 2)
        assert distance(g, int(x), int(y)) == distance(g, int(y), int(x))


def test_distance_matches_dijkstra_d1():
    for seed in range(5):
        g = _graph(1, 64, seed)
        rng = np.random.default_rng(seed)
        for _ in range(10):
            x, y = map(int, rng.integers(0, g.n_vertices, 2))
            assert distance(g, x, y) == dijkstra_distance(g, x, y)


def test_distance_matches_dijkstra_restricted():
    g = _graph(2, 8, 9)
    mask = _squared_radius(g, (3.5, 3.5)) <= 3.2 ** 2  # closed ball
    verts = np.where(mask)[0]
    rng = np.random.default_rng(1)
    for _ in range(10):
        x, y = map(int, rng.choice(verts, 2))
        assert distance_field(g, x, mask)[y] == _restricted(g, x, y, mask)


def test_restriction_monotone():
    g = _graph(1, 96, 12)
    inner = np.arange(96) < 64
    rng = np.random.default_rng(2)
    for _ in range(25):
        x, y = map(int, rng.integers(0, 64, 2))
        d_small = distance_field(g, x, inner)[y]
        assert d_small == UNREACHED or d_small >= distance(g, x, y)


def test_triangle_inequality_bulk():
    # 10^4 random triples per graph via full distance fields
    for seed in (8, 9):
        g = _graph(1, 256, seed)
        rng = np.random.default_rng(seed)
        sources = rng.integers(0, g.n_vertices, 4)
        fields = {int(s): distance_field(g, int(s)) for s in sources}
        triples = rng.integers(0, g.n_vertices, (10 ** 4, 2))
        for x in fields:
            fx = fields[x]
            for z in fields:
                fz = fields[z]
                ys = triples[:, 0]
                assert (fx[ys] <= fx[z] + fz[ys]).all()


def test_dag_single_edge():
    g = _graph(1, 16, 10, beta=1e-13)
    dag = geodesic_dag(g, 3, 4)
    assert dag.dist == 1 and dag.count == 1
    assert sample_geodesic(dag, np.random.default_rng(0)) == [3, 4]


def test_dag_axis_multiplicity():
    # (0,0) -> (2,0) in a 3x2 box with no long edges: middles (1,0),(1,1)
    g = sample_graph(ModelConfig(d=2, beta=1e-13, n=3, seed=0))
    x, y = g.index((0, 0)), g.index((2, 0))
    dag = geodesic_dag(g, int(x), int(y))
    assert dag.dist == 2
    assert dag.count == 2


def test_dag_counts_match_enumeration():
    checked = 0
    for seed in range(8):
        g = _graph(2, 6, seed)
        rng = np.random.default_rng(seed)
        x, y = map(int, rng.integers(0, g.n_vertices, 2))
        if x == y:
            continue
        D = dijkstra_distance(g, x, y)
        paths = enumerate_geodesics(g, x, y, D)
        if paths is None:
            continue
        dag = geodesic_dag(g, x, y)
        assert dag.dist == D
        assert dag.count == len(paths)
        checked += 1
    assert checked >= 5


def test_dag_counting_identity():
    g = _graph(1, 128, 11)
    dag = geodesic_dag(g, 5, 100)
    for v, ps in dag.preds.items():
        assert dag.counts[v] == sum(dag.counts[u] for u in ps)


def test_dag_forward_backward_counts_agree():
    g = _graph(1, 128, 12)
    a = geodesic_dag(g, 3, 90)
    b = geodesic_dag(g, 90, 3)
    assert a.count == b.count and a.dist == b.dist


def test_dag_unreached_fails_cleanly(monkeypatch):
    # lattice edges always connect the box, so a search between two
    # points that never meet is a defect; here the lattice steps are
    # taken away and the box has no long edges
    import lrplab.metric as metric
    g = LrpGraph(config=ModelConfig(d=1, beta=1.0, n=30),
                 long_edges=np.empty((0, 2), dtype=np.int64))
    monkeypatch.setattr(metric, "_padded_deltas",
                        lambda d, n: np.empty(0, dtype=np.int64))
    for search in (distance, geodesic_dag):
        with pytest.raises(RuntimeError, match="no path from 1 to 25"):
            search(g, 1, 25)


def test_sample_geodesic_two_way_frequencies():
    g = sample_graph(ModelConfig(d=2, beta=1e-13, n=3, seed=0))
    x, y = int(g.index((0, 0))), int(g.index((2, 0)))
    dag = geodesic_dag(g, x, y)
    rng = np.random.default_rng(42)
    draws = 10 ** 4
    mids = [sample_geodesic(dag, rng)[1] for _ in range(draws)]
    vals, counts = np.unique(mids, return_counts=True)
    k = dag.count
    for c in counts:
        p = 1.0 / k
        sigma = np.sqrt(draws * p * (1 - p))
        assert abs(c - draws * p) <= 3 * sigma


def test_sample_geodesic_matches_enumeration_distribution():
    g = _graph(2, 5, 3)
    x, y = int(g.index((0, 0))), int(g.index((4, 4)))
    D = dijkstra_distance(g, x, y)
    paths = enumerate_geodesics(g, x, y, D)
    if paths is None or len(paths) < 2:
        pytest.skip("degenerate instance")
    dag = geodesic_dag(g, x, y)
    assert dag.count == len(paths)
    rng = np.random.default_rng(5)
    draws = 4000
    seen = {}
    for _ in range(draws):
        p = tuple(sample_geodesic(dag, rng))
        seen[p] = seen.get(p, 0) + 1
    assert set(seen) <= {tuple(p) for p in paths}
    p0 = 1.0 / len(paths)
    sigma = np.sqrt(draws * p0 * (1 - p0))
    for c in seen.values():
        assert abs(c - draws * p0) <= 4 * sigma


def test_sampled_paths_valid_and_exact_length():
    for seed in range(4):
        g = _graph(1, 200, seed)
        dag = geodesic_dag(g, 10, 150)
        rng = np.random.default_rng(seed)
        for _ in range(5):
            p = sample_geodesic(dag, rng)
            assert len(p) - 1 == dag.dist
            assert is_valid_path(g, p)


def test_path_edges():
    assert path_edges([3, 1, 2]) == {(1, 3), (1, 2)}


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=20)
def test_distance_annulus_region_consistency(seed):
    g = _graph(2, 7, seed % 17)
    r2 = _squared_radius(g, (3, 3))
    mask = (r2 <= 3.5 ** 2) & (r2 > 0.5 ** 2)  # annulus 0.5 < |v| <= 3.5
    verts = np.where(mask)[0]
    rng = np.random.default_rng(seed)
    x, y = map(int, rng.choice(verts, 2))
    assert distance_field(g, x, mask)[y] == _restricted(g, x, y, mask)


def test_dag_preds_exactly_characterized():
    # preds must contain exactly the edges (u, v) with
    # dist(x,u) + 1 = dist(x,v) and dist(x,u) + 1 + dist(v,y) = dist(x,y),
    # reconstructed here from oracle distance fields, in v's neighbour
    # order: lattice offsets in lexicographic order (as `_nn_offsets`),
    # then long neighbours above v ascending, then long neighbours below
    # v ascending.  sample_geodesic draws by position in these lists, so
    # the order fixes the sampled bytes.  counts[v] is the number of
    # geodesics from x to v, summed over preds level by level.
    import heapq
    import itertools

    def oracle_field(g, src):
        n, d = g.config.n, g.config.d
        offs = [o for o in itertools.product((-1, 0, 1), repeat=d)
                if any(o)]
        adj = {}
        for i, j in g.long_edges.tolist():
            adj.setdefault(i, []).append(j)
            adj.setdefault(j, []).append(i)
        dist = {src: 0}
        pq = [(0, src)]
        while pq:
            dd, v = heapq.heappop(pq)
            if dd > dist.get(v, 1 << 60):
                continue
            cv = g.coords(v)
            nbs = list(adj.get(v, []))
            for o in offs:
                c2 = tuple(int(a + b) for a, b in zip(cv, o))
                if all(0 <= c < n for c in c2):
                    nbs.append(int(g.index(c2)))
            for u in nbs:
                if dd + 1 < dist.get(u, 1 << 60):
                    dist[u] = dd + 1
                    heapq.heappush(pq, (dd + 1, u))
        return dist

    # the larger boxes run the walk toward y several levels past the
    # search's radius
    boxes = ((1, 40), (1, 200), (2, 6), (2, 12), (3, 4))
    for (d, n), seed in itertools.product(boxes, range(3)):
        g = _graph(d, n, seed)
        x, y = 0, g.n_vertices - 1
        fx = oracle_field(g, x)
        fy = oracle_field(g, y)
        dag = geodesic_dag(g, x, y)
        D = fx[y]
        assert dag.dist == D
        expected = {}
        long_set = {tuple(e) for e in g.long_edges.tolist()}

        on = [v for v in fx if v in fy and fx[v] + fy[v] == D]
        offs = [o for o in itertools.product((-1, 0, 1), repeat=d) if any(o)]
        assert offs == [tuple(o) for o in _nn_offsets(d).tolist()]
        onset = set(on)
        for v in on:
            if v == x:
                continue
            cv = g.coords(v)
            near = [int(g.index(c)) for c in (cv + np.array(offs))
                    if ((c >= 0) & (c < n)).all()]
            far = [j for i, j in long_set if i == v]
            far = sorted(far) + sorted(i for i, j in long_set if j == v)
            expected[v] = [u for u in near + far
                           if u in onset and fx[u] == fx[v] - 1]
        assert dag.preds == expected
        counts = {x: 1}
        for v in sorted(expected, key=fx.get):
            counts[v] = sum(counts[u] for u in expected[v])
        assert dag.counts == counts


def test_dag_builds_one_field_toward_target(monkeypatch):
    import lrplab.metric as metric

    # one two-sided search from x toward y, and no distance field
    calls = []
    search = metric._search

    def counting_search(graph, x, y, mask):
        calls.append((x, y))
        return search(graph, x, y, mask)

    monkeypatch.setattr(metric, "_search", counting_search)
    monkeypatch.setattr(metric, "distance_field", None)
    g = _graph(2, 8, 1)
    dag = geodesic_dag(g, 3, 60)
    assert calls == [(3, 60)]
    assert dag.count >= 1 and dag.dist == dijkstra_distance(g, 3, 60)


def test_geodesic_count_exact_beyond_64_bits():
    # no long edges, d=2, n=64: every geodesic from (5,32) to (55,32) is a
    # 50-step king path; their number is the central trinomial
    # coefficient T(50), about 4.942e22 > 2^64
    from math import comb

    g = LrpGraph(config=ModelConfig(d=2, beta=1.0, n=64),
                 long_edges=np.empty((0, 2), dtype=np.int64))
    x, y = int(g.index((5, 32))), int(g.index((55, 32)))
    dag = geodesic_dag(g, x, y)
    exact = sum(comb(50, 2 * k) * comb(2 * k, k) for k in range(26))
    assert dag.dist == 50
    assert dag.count == exact
    assert exact > 2 ** 64
    path = sample_geodesic(dag, np.random.default_rng(0))
    assert len(path) == 51 and is_valid_path(g, path)


def test_sample_geodesic_counts_beyond_float_range():
    # no long edges, d=2, n=800: from (400,20) to (400,780) the geodesic
    # count has 361 digits, past the largest float
    g = LrpGraph(config=ModelConfig(d=2, beta=1.0, n=800),
                 long_edges=np.empty((0, 2), dtype=np.int64))
    x, y = int(g.index((400, 20))), int(g.index((400, 780)))
    dag = geodesic_dag(g, x, y)
    assert dag.dist == 760 and len(str(dag.count)) == 361
    path = sample_geodesic(dag, np.random.default_rng(0))
    assert len(path) == 761 and is_valid_path(g, path)


@pytest.mark.parametrize("d, n, beta", [(1, 48, 1.0), (2, 7, 1.0),
                                        (2, 9, 1e-13), (3, 4, 1.0)])
def test_two_sided_search_against_dijkstra(d, n, beta):
    # x == y, D = 1 and both parities of D over the whole box; the two
    # sides meet after ceil(D / 2) iterations.  Toward a target inside
    # a region, the search meets or runs out on both sides.
    rng = np.random.default_rng(d * 100 + n)
    g = _graph(d, n, 21, beta=beta)
    mask = rng.random(g.n_vertices) > 0.2
    pairs = [(5, 5), (5, 6)] + [tuple(map(int, rng.integers(
        0, g.n_vertices, 2))) for _ in range(30)]
    parities = set()
    for x, y in pairs:
        D = dijkstra_distance(g, x, y)
        assert distance(g, x, y) == D
        dag = geodesic_dag(g, x, y)
        assert dag.dist == D
        if D == 0:
            assert (dag.count, dag.preds) == (1, {})
        if D == 1:
            assert dag.count == 1 and dag.preds == {y: [x]}
        path = sample_geodesic(dag, rng)
        assert len(path) == D + 1 and is_valid_path(g, path)
        parities.add(min(D, 2 + D % 2))
    assert parities == {0, 1, 2, 3}
    for x, y in pairs:
        mask[[x, y]] = True
        assert distance_field(g, x, mask, target=y)[y] == \
            _restricted(g, x, y, mask)


@pytest.mark.parametrize("d, n", [(2, 400), (1, 6000)])
def test_search_holds_one_full_box_array(d, n):
    # the distinct ids of a level are found in the labels themselves, so
    # a search's traced peak stays under two label arrays
    import tracemalloc
    from lrplab.metric import _search
    g = _graph(d, n, 1)
    g.adjacency()
    x, y = (g.index(tuple([n * k // 3] * d)) for k in (1, 2))
    tracemalloc.start()
    try:
        search = _search(g, int(x), int(y), None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert search.dist is not None
    assert peak < 2 * search.labels.nbytes


@pytest.mark.parametrize("d, n", [(1, 200), (2, 24), (3, 8)])
def test_python_and_numpy_levels_agree(monkeypatch, d, n):
    # every level in numpy (crossover 0), then every level in Python
    # (crossover above every front): the same labels, levels and DAG;
    # only the order of a front's ids may differ
    import lrplab.metric as metric
    g = _graph(d, n, 5)
    x, y = (int(g.index(tuple([k] * d))) for k in (1, n - 2))
    # y walled in: its side runs out after one level
    walled = np.ones(g.n_vertices, bool)
    walled[_crossing_edges(g, tuple(g.coords(y).tolist()), 0)[:, 1]] = False
    walled[[x, y]] = True
    # the box less its outer layer, which holds x, y and a lattice path
    inside = ((g.coords(np.arange(g.n_vertices)) % (n - 1)) > 0).all(axis=1)
    holes = np.random.default_rng(d).random(g.n_vertices) > 0.2
    holes[x] = True
    cases = [(y, None), (y, walled), (y, inside), (None, None), (None, holes)]
    runs = []
    for crossover in (0, float("inf")):
        monkeypatch.setattr(metric, "_PY_CANDIDATES", crossover)
        searches = [metric._search(g, x, target, mask)
                    for target, mask in cases]
        runs.append((searches, geodesic_dag(g, x, y)))
    (numpy_searches, numpy_dag), (python_searches, python_dag) = runs
    assert numpy_searches[1].dist is None
    for a, b in zip(numpy_searches, python_searches):
        assert np.array_equal(a.labels, b.labels)
        assert (a.dist, a.level) == (b.dist, b.level)
        assert sorted(a.front.tolist()) == sorted(b.front.tolist())
    assert (numpy_dag.preds, numpy_dag.counts) == \
        (python_dag.preds, python_dag.counts)
