import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrplab.graph import ModelConfig, sample_graph
from lrplab.metric import (_nn_offsets, distance, geodesic_dag, path_edges,
                           sample_geodesic)

from oracles import dijkstra_distance, enumerate_geodesics, is_valid_path


def _graph(d, n, seed, beta=1.0):
    return sample_graph(ModelConfig(d=d, beta=beta, n=n, seed=seed))


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
        assert distance(g, x, y, mask) == dijkstra_distance(g, x, y, mask)


def test_restriction_monotone():
    g = _graph(1, 96, 12)
    inner = np.arange(96) < 64
    rng = np.random.default_rng(2)
    for _ in range(25):
        x, y = map(int, rng.integers(0, 64, 2))
        d_small = distance(g, x, y, inner)
        d_big = distance(g, x, y)
        assert d_small is None or d_small >= d_big


def test_triangle_inequality_bulk():
    # 10^4 random triples per graph via full distance fields
    from lrplab.metric import distance_field
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


def test_dag_unreached_fails_cleanly():
    g = _graph(1, 30, 13, beta=1e-13)
    u = np.zeros(30, bool)
    u[:5] = True
    u[20:] = True
    with pytest.raises(ValueError):
        geodesic_dag(g, 1, 25, u)


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
    assert distance(g, x, y, mask) == dijkstra_distance(g, x, y, mask)


def test_dag_preds_exactly_characterized():
    # preds must contain exactly the edges (u, v) with
    # dist(x,u) + 1 = dist(x,v) and dist(x,u) + 1 + dist(v,y) = dist(x,y),
    # reconstructed here from oracle distance fields inside the region,
    # in v's neighbour order: lattice offsets in lexicographic order
    # (as `_nn_offsets`), then long neighbours above v ascending, then
    # long neighbours below v ascending.  sample_geodesic draws by
    # position in these lists, so the order fixes the sampled bytes.
    import heapq
    import itertools

    def oracle_field(g, src, allowed):
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
                if allowed[u] and dd + 1 < dist.get(u, 1 << 60):
                    dist[u] = dd + 1
                    heapq.heappush(pq, (dd + 1, u))
        return dist

    boxes = ((1, 40), (2, 6), (3, 4))
    for (d, n), restricted, seed in itertools.product(boxes, (False, True),
                                                      range(3)):
        g = _graph(d, n, seed)
        x, y = 0, g.n_vertices - 1
        allowed = np.ones(g.n_vertices, bool)
        region = None
        if restricted:
            # drop random vertices, keeping both endpoints; fewer in d=1,
            # where most dropped vertices cut the line
            drop = 0.1 if d == 1 else 0.3
            allowed = np.random.default_rng(seed).random(g.n_vertices) > drop
            allowed[[x, y]] = True
            region = allowed
        fx = oracle_field(g, x, allowed)
        fy = oracle_field(g, y, allowed)
        if y not in fx:
            with pytest.raises(ValueError):
                geodesic_dag(g, x, y, region)
            continue
        dag = geodesic_dag(g, x, y, region)
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
        assert dag.levels == {v: fx[v] for v in on}
        assert dag.levels[x] == 0 and dag.levels[y] == D


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

    from lrplab.graph import LrpGraph
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


@pytest.mark.parametrize("d, n, beta", [(1, 48, 1.0), (2, 7, 1.0),
                                        (2, 9, 1e-13), (3, 4, 1.0)])
def test_two_sided_search_against_dijkstra(d, n, beta):
    # x == y, D = 1 and both parities of D, with and without a mask;
    # the two sides meet after ceil(D / 2) iterations
    rng = np.random.default_rng(d * 100 + n)
    g = _graph(d, n, 21, beta=beta)
    masks = [None, rng.random(g.n_vertices) > 0.2]
    pairs = [(5, 5), (5, 6)] + [tuple(map(int, rng.integers(
        0, g.n_vertices, 2))) for _ in range(30)]
    parities = set()
    for mask in masks:
        for x, y in pairs:
            if mask is not None:
                mask[[x, y]] = True
            D = dijkstra_distance(g, x, y, mask)
            assert distance(g, x, y, mask) == D
            if D is None:
                with pytest.raises(ValueError):
                    geodesic_dag(g, x, y, mask)
                continue
            dag = geodesic_dag(g, x, y, mask)
            assert dag.dist == D and dag.levels[y] == D
            if D == 0:
                assert (dag.count, dag.levels, dag.preds) == (1, {x: 0}, {})
            if D == 1:
                assert dag.count == 1 and dag.preds == {y: [x]}
            path = sample_geodesic(dag, rng)
            assert len(path) == D + 1 and is_valid_path(g, path, mask)
            parities.add(min(D, 2 + D % 2))
    assert parities == {0, 1, 2, 3}


def test_two_sided_search_target_cut_off_by_mask():
    # no long edges in d=1: a gap in the mask separates 2 from 40
    g = _graph(1, 48, 3, beta=1e-13)
    assert len(g.long_edges) == 0
    mask = np.ones(48, bool)
    mask[20:23] = False
    assert dijkstra_distance(g, 2, 40, mask) is None
    assert distance(g, 2, 40, mask) is None
    assert distance(g, 40, 2, mask) is None
    with pytest.raises(ValueError):
        geodesic_dag(g, 2, 40, mask)
    # the side with the smaller component runs out first either way
    mask[:2] = False
    mask[3:20] = False
    assert distance(g, 2, 40, mask) is None
    assert distance(g, 40, 2, mask) is None


def test_two_sided_search_endpoint_outside_mask():
    g = _graph(2, 6, 4)
    mask = np.ones(36, bool)
    mask[7] = False
    for x, y in ((7, 30), (30, 7), (7, 7)):
        with pytest.raises(ValueError):
            distance(g, x, y, mask)
        with pytest.raises(ValueError):
            geodesic_dag(g, x, y, mask)
