import itertools
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from lrplab import graph
from lrplab.graph import (LrpGraph, ModelConfig, class_table,
                          expected_long_edge_total, export_text,
                          import_text, load_binary, map_replicates,
                          replicate_pool, sample_graph, save_binary)
from lrplab.kernel import (DisplacementKernel, canonical_class,
                           class_integrals, orbit_members)
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



@pytest.mark.parametrize("d,n", [(1, 2 ** 31 - 1), (2, 2 ** 16), (3, 2 ** 11)])
def test_config_refuses_boxes_the_search_cannot_hold(d, n):
    # the search holds two int32 labels per padded site and the CSR an
    # int64 indptr: the padded box is capped at 2^31 sites
    with pytest.raises(ValueError, match="too large for the search"):
        ModelConfig(d=d, beta=1.0, n=n)


@pytest.mark.parametrize("d,n", [(1, 2 ** 31 - 2), (1, 10 ** 6), (2, 1536),
                                 (3, 96)])
def test_config_admits_boxes_the_search_holds(d, n):
    assert ModelConfig(d=d, beta=1.0, n=n).n_vertices == n ** d


def test_coords_reject_ids_outside_the_box():
    g = LrpGraph(config=ModelConfig(d=2, beta=1.0, n=5),
                 long_edges=np.zeros((0, 2), dtype=np.int64))
    assert g.coords(24).tolist() == [4, 4]
    for bad in (-1, 25):
        with pytest.raises(ValueError):
            g.coords(bad)


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


@pytest.mark.parametrize("d,n,reps", [(2, 6, 2000), (3, 4, 1000)])
def test_sampler_law_per_displacement(d, n, reps):
    # each lexicographically positive long displacement k of the box
    # draws Binomial(N_k, p_k) edges per sample, independently; over
    # `reps` samples a chi-square of the counts, cells expecting fewer
    # than 5 edges pooled, each standardised by its binomial variance
    cfg = ModelConfig(d=d, beta=1.0, n=n, seed=12)
    shape = (2 * n - 1,) * d

    def displacements(key, g):
        ends = g.long_edges
        k = g.coords(ends[:, 1]) - g.coords(ends[:, 0]) + (n - 1)
        return np.bincount(np.ravel_multi_index(k.T, shape),
                           minlength=math.prod(shape))

    observed = np.sum(map_replicates(cfg, range(reps), displacements),
                      axis=0)
    ks = [k for k in itertools.product(range(-(n - 1), n), repeat=d)
          if k > (0,) * d and max(map(abs, k)) >= 2]
    entries = DisplacementKernel.build(d, cfg.beta, n - 1).entries
    p = np.array([entries[canonical_class(k)][1] for k in ks])
    mean = reps * np.array([math.prod(n - abs(c) for c in k)
                            for k in ks]) * p
    var = mean * (1 - p)
    obs = observed[[np.ravel_multi_index(np.add(k, n - 1), shape)
                    for k in ks]]
    big = mean >= 5
    x2 = ((obs[big] - mean[big]) ** 2 / var[big]).sum() \
        + (obs[~big].sum() - mean[~big].sum()) ** 2 / var[~big].sum()
    assert mean[~big].sum() >= 5
    assert stats.chi2.sf(x2, big.sum() + 1) >= 0.01


def test_one_generator_per_sample(monkeypatch):
    built = []
    real = RngStream.generator
    monkeypatch.setattr(RngStream, "generator",
                        lambda self: built.append(self) or real(self))
    for d, n in ((1, 64), (2, 8), (3, 5)):
        sample_graph(ModelConfig(d=d, beta=1.0, n=n, seed=1),
                     stream_id=(3, d))
    assert [b.stream_id for b in built] == [(3, 1), (3, 2), (3, 3)]


# (N, c) pairs the position tests draw: one-edge classes, c = N,
# c > N // 50 on a large N, and N >= 2^32
_EDGE_CASES = [(1, 1), (7, 1), (2, 2), (37, 37), (10000, 10000),
               (10001, 200), (10001, 201), (2 ** 32, 3), (2 ** 32 + 1, 1),
               (2 ** 33 + 7, 60), (2 ** 40, 500)]


def _floyd_reference(draws, N, c):
    """Floyd's algorithm, one step at a time, on given draws."""
    chosen = {}                         # a set that keeps draw order
    for j, v in zip(range(N - c, N), draws):
        chosen[j if v in chosen else v] = None
    return list(chosen)


@pytest.mark.parametrize("seed", range(5))
def test_positions_distinct_in_range(seed):
    pick = np.random.default_rng(seed)
    rep, entries = [], []
    for r in range(3):
        sizes = pick.integers(1, 20000, size=12)
        cases = _EDGE_CASES + [(int(N), int(pick.integers(1, min(N, 3000)
                                                          + 1)))
                               for N in sizes]
        pick.shuffle(cases)
        rep += [r] * len(cases)
        entries += cases
    N, c = (np.array(col, dtype=np.int64) for col in zip(*entries))
    ours = [RngStream(seed, r).generator() for r in range(3)]
    pos = graph._positions(ours, np.array(rep), N, c)
    assert pos.size == c.sum()
    # the same draws, one `integers` call per generator
    bounds = [[], [], []]
    for r, (n_, c_) in zip(rep, entries):
        bounds[r] += range(n_ - c_, n_)
    theirs = [RngStream(seed, r).generator() for r in range(3)]
    draws = [iter(rng.integers(0, b, endpoint=True))
             for rng, b in zip(theirs, bounds)]
    start = 0
    for r, (n_, c_) in zip(rep, entries):
        got = pos[start:start + c_]
        assert np.unique(got).size == c_
        assert got.min() >= 0 and got.max() < n_
        want = _floyd_reference([next(draws[r]) for _ in range(c_)], n_, c_)
        assert got.tolist() == want
        start += c_
    for a, b in zip(ours, theirs):
        assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("N,c,seed", [(7, 3, 1), (6, 2, 2), (5, 4, 3)])
def test_positions_uniform_over_subsets(N, c, seed):
    # every c-subset of range(N) equally likely: a chi-square over all
    # of them, 40 subsets per cell on average, at the 1% level
    subsets = {s: i for i, s in
               enumerate(itertools.combinations(range(N), c))}
    reps, per = 20, 2 * len(subsets)
    rngs = [RngStream(seed, (5, r)).generator() for r in range(reps)]
    rep = np.repeat(np.arange(reps), per)
    pos = graph._positions(rngs, rep, np.full(rep.size, N),
                           np.full(rep.size, c)).reshape(-1, c)
    observed = np.bincount([subsets[tuple(sorted(p))] for p in pos],
                           minlength=len(subsets))
    assert stats.chisquare(observed).pvalue >= 0.01


def test_sample_draw_layout(monkeypatch):
    # a sample draws its class counts, then one `integers` call bounded
    # by N - c, ..., N - 1 for each class hit, in table order
    cfg = ModelConfig(d=2, beta=1.0, n=12, seed=5)
    built = []
    real = RngStream.generator
    monkeypatch.setattr(RngStream, "generator",
                        lambda self: built.append(real(self)) or built[-1])
    g = sample_graph(cfg, stream_id=(4, 1))
    g.long_edges
    table = class_table(cfg.d, cfg.n)
    fresh = real(RngStream(cfg.seed, (4, 1)))
    N = table.members * table.pairs
    counts = fresh.binomial(
        N, DisplacementKernel.build(cfg.d, cfg.beta, cfg.n - 1).probabilities)
    assert counts.sum() == g.long_edges.shape[0] and (counts > 1).any()
    fresh.integers(0, [b for n_, c_ in zip(N, counts)
                       for b in range(n_ - c_, n_)], endpoint=True)
    assert built[0].bit_generator.state == fresh.bit_generator.state


@pytest.mark.parametrize("d,n,count", [
    (1, 40, graph._BATCH_ROWS // 38 + 3),  # more keys than one batch
    (1, 10050, 2),                         # classes of 10^3+ edges
    (2, 9, 40), (3, 5, 20)])
def test_map_replicates_equal_one_at_a_time(monkeypatch, d, n, count):
    cfg = ModelConfig(d=d, beta=1.5, n=n, seed=4)
    keys = [(7, r) for r in range(count)]
    built = []
    real = RngStream.generator
    monkeypatch.setattr(RngStream, "generator",
                        lambda self: built.append(self) or real(self))
    batch = map_replicates(cfg, keys, lambda key, g: g)
    assert [b.stream_id for b in built] == keys
    assert len(batch) == count
    for key, g in zip(keys, batch):
        one = sample_graph(cfg, key)
        # the CSR built from the edges alone, as adjacency() builds it
        fresh = LrpGraph(config=cfg, long_edges=g.long_edges.copy())
        assert np.array_equal(g.long_edges, one.long_edges)
        for a, b, c in zip(g.adjacency(), one.adjacency(),
                           fresh.adjacency()):
            assert a.dtype == b.dtype == c.dtype == np.int64
            assert np.array_equal(a, b) and np.array_equal(a, c)


def _pid(key, g):
    return os.getpid(), key, len(g.long_edges)


def test_map_replicates_pool_runs_fn_in_other_processes(monkeypatch):
    # two workers even on a one-CPU machine
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    cfg = ModelConfig(d=1, beta=1.0, n=64, seed=2)
    before = RngStream.built
    with replicate_pool(2):
        out = map_replicates(cfg, range(5), _pid)
    # the workers' generators are counted here
    assert RngStream.built - before == 5
    assert os.getpid() not in {pid for pid, _, _ in out}
    assert [key for _, key, _ in out] == list(range(5))
    assert [m for _, _, m in out] == [len(sample_graph(cfg, key).long_edges)
                                      for key in range(5)]


class _InProcessExecutor:
    """Stands in for `ProcessPoolExecutor`: records how it was made and
    the chunks it was given, and runs them here, starting no process."""

    made: list = []

    def __init__(self, max_workers, mp_context=None):
        self.max_workers = max_workers
        self.chunks = []
        self.cancelled = None
        self.made.append(self)

    def map(self, fn, chunks):
        # as in a worker, where no pool is open
        self.chunks += chunks
        with replicate_pool(1):
            return list(map(fn, chunks))

    def shutdown(self, wait=True, *, cancel_futures=False):
        self.cancelled = cancel_futures


@pytest.mark.parametrize("jobs, cpus, workers, chunks", [
    (64, 2, 2, [7, 6, 2, 1]), (64, 3, 3, [5, 5, 3, 1, 1, 1]),
    (3, 8, 3, [5, 5, 3, 1, 1, 1]), (8, 64, 8, [2] * 6 + [1] * 4)])
def test_replicate_pool_capped_at_cpu_count(monkeypatch, jobs, cpus,
                                            workers, chunks):
    import concurrent.futures
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _InProcessExecutor)
    monkeypatch.setattr(_InProcessExecutor, "made", [])
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    cfg = ModelConfig(d=1, beta=1.0, n=32, seed=5)
    with replicate_pool(jobs):
        first = map_replicates(cfg, range(13), _pid)
        # a second call reuses the executor; one key never reaches it
        second = map_replicates(cfg, range(3), _pid)
        one = map_replicates(cfg, [4], _pid)
    [pool] = _InProcessExecutor.made
    assert pool.max_workers == workers
    # one chunk of consecutive keys per worker, of 13 keys then of 3
    assert [len(keys) for _, keys, _ in pool.chunks] == chunks
    assert pool.cancelled is True
    assert first == map_replicates(cfg, range(13), _pid)
    assert second + one == map_replicates(cfg, [0, 1, 2, 4], _pid)


def test_replicate_pool_of_one_worker_starts_no_executor(monkeypatch):
    import concurrent.futures
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _InProcessExecutor)
    monkeypatch.setattr(_InProcessExecutor, "made", [])
    cfg = ModelConfig(d=1, beta=1.0, n=32, seed=5)
    for jobs, cpus in ((1, 8), (4, 1)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        with replicate_pool(jobs):
            map_replicates(cfg, range(6), _pid)
    assert _InProcessExecutor.made == []


def test_argsort_rows_matches_lexsort():
    pick = np.random.default_rng(2)
    cols = (pick.integers(0, 3, 500), pick.integers(0, 40, 500),
            pick.integers(0, 40, 500))
    want = np.lexsort(cols[::-1])
    # one key and an unstable argsort: equal rows may swap
    rows = np.stack(cols, axis=1)
    assert np.array_equal(rows[graph._argsort_rows(cols, (3, 40, 40))],
                          rows[want])
    # sizes whose product overflows one int64 key take lexsort
    assert np.array_equal(graph._argsort_rows(cols, (3, 2 ** 40, 2 ** 40)),
                          want)


def test_substream_relabeling_invariance_ks():
    # the sampler draws every class from one stream per sample; the
    # reference below draws each class from its own generator, keyed
    # by the stream and the class in reversed order, so it is an independent implementation of the
    # law.  Two-sample KS on total edge counts, 1% level
    cfg = ModelConfig(d=1, beta=1.0, n=128, seed=21)
    reps = 1000
    a = np.array([sample_graph(cfg, stream_id=(0, r)).long_edges.shape[0]
                  for r in range(reps)], dtype=float)
    b = np.array([_sample_relabeled(cfg, (1, r)) for r in range(reps)],
                 dtype=float)
    assert stats.ks_2samp(a, b).pvalue >= 0.01


def _sample_relabeled(cfg, stream_id):
    """Total edge count, one generator per class, assignment reversed."""
    n = cfg.n
    ks = np.arange(2, n)
    ps = -np.expm1(-cfg.beta * class_integrals(1, n - 1)[1])
    total = 0
    nclasses = len(ks)
    for idx, (k, p) in enumerate(zip(ks, ps)):
        rng = np.random.default_rng(np.random.SeedSequence(
            cfg.seed, spawn_key=stream_id + (nclasses - 1 - idx,)))
        total += int(rng.binomial(n - int(k), p))
    return total


@pytest.mark.parametrize("d,n", [(1, 10), (2, 5), (3, 4), (1, 2), (3, 2)])
def test_class_table_covers_orbits(d, n):
    table = class_table(d, n)
    members = orbit_members(table.classes)
    reps = [tuple(k) for k in members.tolist()]
    # one member per unordered pair orbit {k, -k} of long displacements
    seen = set(reps) | {tuple(-c for c in k) for k in reps}
    assert len(seen) == 2 * len(reps)
    expect = {k for k in itertools.product(range(-(n - 1), n), repeat=d)
              if max(map(abs, k)) >= 2}
    assert seen == expect
    # class after class, `members` of each
    klass = np.repeat(np.arange(len(table.classes)), table.members)
    assert [canonical_class(k) for k in reps] == \
        list(map(tuple, table.classes[klass].tolist()))
    assert table.pairs.tolist() == [math.prod(n - c for c in k)
                                    for k in table.classes.tolist()]
    with pytest.raises(ValueError):
        table.pairs[0] = 0


def test_orbit_members_d1_are_the_classes():
    # every d=1 class {k, -k} has the one member k > 0
    for n in (2, 3, 10, 257):
        classes = class_table(1, n).classes
        members = orbit_members(classes)
        assert members.dtype == classes.dtype
        assert np.array_equal(members, classes)
        assert np.array_equal(orbit_members(classes[::-3]), classes[::-3])


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


def test_failed_rename_leaves_no_temp_file(tmp_path):
    # the target is a directory, so renaming the written temp file over
    # it fails: the temp file is removed and the directory left alone
    target = tmp_path / "g.lrpg"
    target.mkdir()
    with pytest.raises(OSError):
        save_binary(_three_edges(), target)
    assert [p.name for p in tmp_path.iterdir()] == ["g.lrpg"]
    assert target.is_dir() and not any(target.iterdir())


def _three_edges():
    """A d=2, n=6 graph with three long edges."""
    return LrpGraph(ModelConfig(d=2, beta=1.0, n=6, seed=5),
                    np.array([[0, 2], [0, 14], [3, 35]], dtype=np.int64))


def test_binary_every_single_byte_change_is_refused(tmp_path):
    # the CRC-32 trailer catches the changes that still encode a valid
    # graph: d, n, beta, seed and edge ends
    p = tmp_path / "g.lrpg"
    save_binary(_three_edges(), p)
    raw = p.read_bytes()
    assert len(raw) == 39 + 3 * 16 + 4
    load_binary(p)
    loaded = []
    with open(p, "r+b", buffering=0) as fh:
        for pos in range(len(raw)):
            for value in range(256):
                fh.seek(pos)
                fh.write(bytes([value]))
                try:
                    load_binary(p)
                except ValueError:
                    continue
                loaded.append((pos, value))
            fh.seek(pos)
            fh.write(raw[pos:pos + 1])
    assert loaded == [(pos, raw[pos]) for pos in range(len(raw))]


def test_binary_refuses_version_1(tmp_path):
    # version 1 had no checksum trailer, and has no reader
    p = tmp_path / "g.lrpg"
    save_binary(_three_edges(), p)
    raw = p.read_bytes()
    p.write_bytes(raw[:4] + (1).to_bytes(2, "little") + raw[6:-4])
    with pytest.raises(ValueError, match="unsupported version 1"):
        load_binary(p)


def test_binary_rejects_checksum_mismatch(tmp_path):
    p = tmp_path / "g.lrpg"
    save_binary(_three_edges(), p)
    raw = bytearray(p.read_bytes())
    raw[-1] ^= 1
    p.write_bytes(raw)
    with pytest.raises(ValueError, match="checksum mismatch"):
        load_binary(p)


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


@given(_graphs(), st.data())
def test_binary_single_byte_corruption(g, data):
    # the CRC-32 trailer refuses every single-byte change, header and
    # checksum bytes included, on any graph the strategy draws
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.lrpg"
        save_binary(g, path)
        raw = bytearray(path.read_bytes())
        pos = data.draw(st.integers(0, len(raw) - 1))
        raw[pos] = data.draw(st.integers(0, 255).filter(
            lambda v: v != raw[pos]))
        path.write_bytes(raw)
        with pytest.raises(ValueError):
            load_binary(path)
