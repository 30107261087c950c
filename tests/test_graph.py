import itertools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from lrplab.graph import (LrpGraph, ModelConfig, class_table,
                          expected_long_edge_total, export_text,
                          import_text, load_binary, sample_graph,
                          save_binary)
from lrplab.kernel import canonical_class, class_integrals
from lrplab.rng import RngStream


def test_determinism_byte_identical():
    cfg = ModelConfig(d=1, beta=1.0, n=256, seed=123)
    a = sample_graph(cfg)
    b = sample_graph(cfg)
    assert np.array_equal(a.long_edges, b.long_edges)
    c = sample_graph(cfg, stream_id=1)
    assert not np.array_equal(a.long_edges, c.long_edges)


def test_beta_to_zero_no_long_edges():
    cfg = ModelConfig(d=1, beta=1e-13, n=64, seed=5)
    assert sample_graph(cfg).long_edges.shape[0] == 0


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(d=0, beta=1.0, n=8)
    with pytest.raises(ValueError):
        ModelConfig(d=1, beta=0.0, n=8)
    with pytest.raises(ValueError):
        ModelConfig(d=1, beta=1.0, n=1)
    with pytest.raises(ValueError):
        ModelConfig(d=2, beta=1.0, n=2 ** 21)


def test_graph_soundness():
    for cfg in (ModelConfig(d=1, beta=2.0, n=128, seed=9),
                ModelConfig(d=2, beta=1.0, n=12, seed=9),
                ModelConfig(d=3, beta=1.0, n=7, seed=9)):
        g = sample_graph(cfg)
        e = g.long_edges
        assert (e[:, 0] < e[:, 1]).all()
        disp = np.abs(g.coords(e[:, 0]) - g.coords(e[:, 1])).max(axis=1)
        assert (disp >= 2).all()
        assert e.min(initial=0) >= 0 and e.max(initial=0) < g.n_vertices
        # no duplicates
        assert len({tuple(r) for r in e.tolist()}) == e.shape[0]


def test_adjacency_round_trip():
    g = sample_graph(ModelConfig(d=1, beta=1.5, n=200, seed=3))
    indptr, nbrs = g.adjacency()
    # the CSR is over padded ids: ghosts hold no edges
    assert indptr.size == (g.config.n + 2) + 1
    rebuilt = set()
    for v in range(g.n_vertices):
        p = int(g.pad(v))
        for u in g.unpad(nbrs[indptr[p]:indptr[p + 1]]).tolist():
            rebuilt.add((min(v, u), max(v, u)))
    assert rebuilt == {tuple(r) for r in g.long_edges.tolist()}
    assert indptr[g.pad(g.n_vertices - 1) + 1] == indptr[-1] == nbrs.size


def test_mean_long_edge_count_d1_large():
    # 200 replicates at n=4096: sample mean within 3 SE of sum N_k p_k
    cfg = ModelConfig(d=1, beta=1.0, n=4096, seed=77)
    mean_exact = expected_long_edge_total(cfg)
    counts = np.array([sample_graph(cfg, stream_id=r).long_edges.shape[0]
                       for r in range(200)])
    se = counts.std(ddof=1) / np.sqrt(len(counts))
    assert abs(counts.mean() - mean_exact) <= 3 * se


def test_mean_count_d2():
    cfg = ModelConfig(d=2, beta=1.0, n=10, seed=4)
    mean_exact = expected_long_edge_total(cfg)
    counts = np.array([sample_graph(cfg, stream_id=r).long_edges.shape[0]
                       for r in range(300)])
    se = counts.std(ddof=1) / np.sqrt(len(counts))
    assert abs(counts.mean() - mean_exact) <= 3 * se


def test_mean_count_d3():
    cfg = ModelConfig(d=3, beta=1.0, n=6, seed=4)
    mean_exact = expected_long_edge_total(cfg)
    counts = np.array([sample_graph(cfg, stream_id=r).long_edges.shape[0]
                       for r in range(300)])
    se = counts.std(ddof=1) / np.sqrt(len(counts))
    assert abs(counts.mean() - mean_exact) <= 3 * se


def test_one_generator_per_sample(monkeypatch):
    built = []
    real = RngStream.generator
    monkeypatch.setattr(RngStream, "generator",
                        lambda self: built.append(self) or real(self))
    for d, n in ((1, 64), (2, 8), (3, 5)):
        sample_graph(ModelConfig(d=d, beta=1.0, n=n, seed=1),
                     stream_id=(3, d))
    assert [b.stream_id for b in built] == [(3, 1), (3, 2), (3, 3)]


def test_substream_relabeling_invariance_ks():
    # the sampler draws every class from one stream per sample; the
    # reference below draws each class from its own substream, in
    # reversed order, so it is an independent implementation of the
    # law.  Two-sample KS on total edge counts, 1% level
    cfg = ModelConfig(d=1, beta=1.0, n=128, seed=21)
    reps = 1000
    a = np.array([sample_graph(cfg, stream_id=(0, r)).long_edges.shape[0]
                  for r in range(reps)], dtype=float)
    b = np.array([_sample_relabeled(cfg, (1, r)) for r in range(reps)],
                 dtype=float)
    assert stats.ks_2samp(a, b).pvalue >= 0.01


def _sample_relabeled(cfg, stream_id):
    """Total edge count, one substream per class, assignment reversed."""
    n = cfg.n
    ks = np.arange(2, n)
    ps = -np.expm1(-cfg.beta * class_integrals(1, n - 1)[1])
    total = 0
    nclasses = len(ks)
    for idx, (k, p) in enumerate(zip(ks, ps)):
        rng = RngStream(cfg.seed, stream_id, nclasses - 1 - idx).generator()
        total += int(rng.binomial(n - int(k), p))
    return total


@pytest.mark.parametrize("d,n", [(1, 10), (2, 5), (3, 4)])
def test_class_table_covers_orbits(d, n):
    table = class_table(d, n)
    reps = [tuple(k) for k in table.k.tolist()]
    # one row per unordered pair orbit {k, -k} of long displacements
    seen = set(reps) | {tuple(-c for c in k) for k in reps}
    assert len(seen) == 2 * len(reps)
    expect = {k for k in itertools.product(range(-(n - 1), n), repeat=d)
              if max(map(abs, k)) >= 2}
    assert seen == expect
    classes = class_integrals(d, n - 1)[0]
    for k, pairs, klass in zip(reps, table.pairs.tolist(),
                               table.klass.tolist()):
        assert pairs == math.prod(n - abs(c) for c in k)
        assert tuple(classes[klass].tolist()) == canonical_class(k)
    with pytest.raises(ValueError):
        table.pairs[0] = 0


def test_binary_round_trip(tmp_path):
    g = sample_graph(ModelConfig(d=2, beta=1.3, n=9, seed=11))
    p = tmp_path / "g.lrpg"
    save_binary(g, p)
    h = load_binary(p)
    assert h.config == g.config
    assert np.array_equal(h.long_edges, g.long_edges)
    save_binary(h, tmp_path / "g2.lrpg")
    assert (tmp_path / "g.lrpg").read_bytes() == \
        (tmp_path / "g2.lrpg").read_bytes()


def test_binary_rejects_garbage(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(ValueError):
        load_binary(p)


def test_text_round_trip(tmp_path):
    g = sample_graph(ModelConfig(d=1, beta=1.0, n=64, seed=2))
    p = tmp_path / "edges.txt"
    export_text(g, p)
    cfg, edges = import_text(p)
    assert cfg == g.config
    assert np.array_equal(edges, g.long_edges)


def test_binary_truncated_header(tmp_path):
    p = tmp_path / "g.lrpg"
    save_binary(sample_graph(ModelConfig(d=1, beta=1.0, n=16, seed=1)), p)
    short = tmp_path / "short.lrpg"
    short.write_bytes(p.read_bytes()[:10])
    with pytest.raises(ValueError, match="truncated header"):
        load_binary(short)


def test_text_rejects_empty_file(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("")
    with pytest.raises(ValueError):
        import_text(p)


@pytest.mark.parametrize("line", ["0 1", "5 3", "0 99", "4 4", "-1 5",
                                  "0 3 5"])
def test_text_rejects_invalid_edges(tmp_path, line):
    # n=8, d=1: nearest neighbour, unsorted, out of range, self loop,
    # negative end, three fields
    p = tmp_path / "edges.txt"
    p.write_text(f"# 1 8 1.0 0\n{line}\n")
    with pytest.raises(ValueError):
        import_text(p)


def test_text_rejects_d2_nearest_neighbour(tmp_path):
    # (0, 0) -> (1, 1) in a 4-box is a lattice (diagonal) neighbour
    p = tmp_path / "edges.txt"
    p.write_text("# 2 4 1.0 0\n0 5\n")
    with pytest.raises(ValueError):
        import_text(p)
    p.write_text("# 2 4 1.0 0\n0 6\n")
    assert import_text(p)[1].tolist() == [[0, 6]]


@pytest.mark.parametrize("edges", [[[0, 999]], [[5, 3]], [[4, 4]], [[0, 1]],
                                   [[0, 5], [0, 3]], [[0, 3], [0, 3]]],
                         ids=["out-of-range", "unsorted-ends", "self-loop",
                              "nearest-neighbour", "unsorted-rows",
                              "duplicate-rows"])
def test_binary_rejects_invalid_edges(tmp_path, edges):
    cfg = ModelConfig(d=1, beta=1.0, n=16, seed=1)
    p = tmp_path / "g.lrpg"
    save_binary(LrpGraph(cfg, np.array(edges, dtype=np.int64)), p)
    with pytest.raises(ValueError):
        load_binary(p)


def test_binary_rejects_trailing_bytes(tmp_path):
    p = tmp_path / "g.lrpg"
    save_binary(sample_graph(ModelConfig(d=1, beta=1.0, n=16, seed=1)), p)
    p.write_bytes(p.read_bytes() + b"\x00" * 16)
    with pytest.raises(ValueError, match="trailing bytes"):
        load_binary(p)


@pytest.mark.parametrize("count", [2 ** 20, 2 ** 40, 2 ** 64 - 1])
def test_binary_rejects_corrupt_count(tmp_path, count):
    # the edge count is the header's last field, bytes 31..38; it is
    # checked against the bytes present before anything is allocated
    p = tmp_path / "g.lrpg"
    save_binary(sample_graph(ModelConfig(d=1, beta=1.0, n=16, seed=1)), p)
    raw = p.read_bytes()
    p.write_bytes(raw[:31] + count.to_bytes(8, "little") + raw[39:])
    with pytest.raises(ValueError, match="truncated edge list"):
        load_binary(p)


@pytest.mark.parametrize("lines", ["0 5\n0 3", "0 3\n0 3"])
def test_text_rejects_unsorted_or_duplicate_rows(tmp_path, lines):
    p = tmp_path / "edges.txt"
    p.write_text(f"# 1 8 1.0 0\n{lines}\n")
    with pytest.raises(ValueError, match="sorted and unique"):
        import_text(p)


@pytest.mark.parametrize("write", [save_binary, export_text])
def test_failed_graph_write_keeps_old_file(tmp_path, write):
    target = tmp_path / "graph.out"
    write(sample_graph(ModelConfig(d=1, beta=1.0, n=16, seed=1)), target)
    before = target.read_bytes()
    # a ragged edge list fails after the header is written
    ragged = np.empty(2, dtype=object)
    ragged[:] = [[0, 5], [1, 6, 9]]
    with pytest.raises((TypeError, ValueError)):
        write(LrpGraph(ModelConfig(d=1, beta=1.0, n=16, seed=2), ragged),
              target)
    assert target.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["graph.out"]


@st.composite
def _graphs(draw):
    """A configuration and any long-edge list a sample of it could hold."""
    d = draw(st.integers(1, 3))
    config = ModelConfig(d=d, n=draw(st.integers(2, (40, 7, 4)[d - 1])),
                         beta=draw(st.floats(0.0, exclude_min=True)),
                         seed=draw(st.integers(0, 2 ** 64 - 1)))
    ends = st.integers(0, config.n_vertices - 1)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=30))
    shape = (config.n,) * d
    edges = sorted({(min(i, j), max(i, j)) for i, j in pairs
                    if max(abs(a - b) for a, b in zip(
                        np.unravel_index(i, shape),
                        np.unravel_index(j, shape))) >= 2})
    return LrpGraph(config, np.array(edges, dtype=np.int64).reshape(-1, 2))


@given(_graphs())
def test_file_formats_round_trip(g):
    with tempfile.TemporaryDirectory() as tmp:
        save_binary(g, Path(tmp) / "g.lrpg")
        h = load_binary(Path(tmp) / "g.lrpg")
        export_text(g, Path(tmp) / "g.txt")
        config, edges = import_text(Path(tmp) / "g.txt")
    assert h.config == config == g.config
    assert np.array_equal(h.long_edges, g.long_edges)
    assert np.array_equal(edges, g.long_edges)


# header bytes a valid file cannot differ in alone: the magic (0..3),
# the version (4..5) and the edge count (31..38)
_STRUCTURAL = {*range(0, 6), *range(31, 39)}


@given(_graphs(), st.data())
def test_binary_single_byte_corruption(g, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.lrpg"
        save_binary(g, path)
        raw = bytearray(path.read_bytes())
        pos = data.draw(st.integers(0, len(raw) - 1))
        raw[pos] = data.draw(st.integers(0, 255).filter(
            lambda v: v != raw[pos]))
        path.write_bytes(raw)
        try:
            h = load_binary(path)
        except ValueError:
            return
        # a changed d, n, beta, seed or edge end can encode another valid
        # graph, which the format cannot tell from the saved one; the
        # loader must return exactly the graph those bytes encode
        assert pos not in _STRUCTURAL
        save_binary(h, path)
        assert path.read_bytes() == raw
