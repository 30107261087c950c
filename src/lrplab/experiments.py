"""Reproducible experiment runner: configs, outputs, manifests.

Every run is a pure function of its ExperimentConfig: all randomness is
keyed from the master seed, job results are merged in replicate order,
and floats are emitted with 17 significant digits, so identical configs
produce byte-identical data files.  The manifest records the config
snapshot, code version, timestamps, the number of RNG generators built
(`rng_streams`), and a sha256 per data file; timestamps live only in
the manifest.  Each file is written beside its target and renamed into
place, so a failed write leaves the old file whole; a failed run
removes its partial data files and leaves the manifest marked failed.

Every kind has one runner, `_run_<kind>(config, out, **params)`, a
generator.  Up to its one `yield` it builds the run's objects and checks
the rules that join keys, and samples nothing: `parse_config` runs that
part with `out` None, and `run` runs it again, then on to the work,
which writes each data file through `out` (`out.csv`, `out.json`, or
`out.path` for a file written by other code); `run` checksums, or on
failure removes, exactly the files on that list.  Its keyword-only
arguments are the kind's parameters, with types, bounds and defaults.
`rng_streams` is the growth of `RngStream.built` across the runner, so
it counts generators where they are built; `graph.map_replicates`, the
one replicate loop, runs every loop of `scaling`, `dim` and `goodcubes`
in the run's one `replicate_pool(config.jobs)` and adds its workers' counts.
"""

import functools
import hashlib
import inspect
import json
import math
import operator
import time
import types
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Annotated

import numpy as np

from . import __version__
from .graph import (ModelConfig, _atomic_open, export_text, map_replicates,
                    replicate_pool, sample_graph, save_binary)
from .metric import geodesic_dag, path_edges, sample_geodesic
from .rng import RngStream, Tag
from .scaling import (LADDER_BOX, MIN_LADDER_POINTS, PROBE_BOX, Ladder,
                      ScalingFit, atom_trend, centred_pair, ecdf,
                      estimate_medians, fit_theta, sample_distances)
from .dimension import (CS_BOX_FACTOR, CS_SIZE_CAP, GOOD_CUBE_BOX_FACTOR,
                        GOOD_CUBE_MIN_REPLICATES, GoodCubeParams,
                        connected_set_growth, good_cube_rate,
                        mean_dimension_fit)
from .firework import (MIN_RESOLUTION, FireworkModel, build_ladder,
                       compute_crossing_probs, coupling_checks, reach_tail,
                       simulate_xi_vector)
from .sperner import (GENERATORS, SetFamily, event_probability,
                      generate_family, sperner_bound_check)

# the default of a parameter that a config must give
REQUIRED = inspect.Parameter.empty
# a parameter's bound is `Annotated` metadata (op, edge) on its type, read
# from its runner's `__annotations__` (so no `from __future__` import):
# {op: (test of a given value against the edge, what the value must do)}
_OPS = {">=": (operator.ge, "be >= {}"), ">": (operator.gt, "be > {}"),
        "<=": (operator.le, "be <= {}"),
        "in": (lambda v, e: v in e, "be one of {}"),
        "distinct": (lambda v, e: len(set(v)) >= e,
                     "hold {} or more distinct values")}
Count = Annotated[int, (">=", 1)]
# the top-level and model keys, {name: (type, default)}
_CONFIG = {"kind": (str, REQUIRED), "out": (str, REQUIRED),
           "seed": (int, 0), "jobs": (Count, 1),
           "model": (dict, {}), "params": (dict, {})}
_MODEL = {"d": (int, 1), "beta": (float, 1.0)}


class ConfigError(ValueError):
    pass


class IntegrityError(RuntimeError):
    pass


@dataclass
class ExperimentConfig:
    kind: str
    seed: int
    out: str
    d: int
    beta: float
    params: dict
    jobs: int = 1

    def to_dict(self) -> dict:
        return {"kind": self.kind, "seed": self.seed, "out": self.out,
                "jobs": self.jobs, "model": {"d": self.d, "beta": self.beta},
                "params": dict(self.params)}

    def model(self, n: int) -> ModelConfig:
        """The run's model in a box of side `n`."""
        return ModelConfig(d=self.d, beta=self.beta, n=n, seed=self.seed)


def _bare(tp):
    """`tp` without its bounds."""
    return tp.__origin__ if hasattr(tp, "__metadata__") else tp


@functools.cache
def parameters(kind: str) -> types.MappingProxyType:
    """A kind's parameters, {name: (type, default)}: the keyword-only
    arguments of its runner, their types without bounds."""
    sig = inspect.signature(_RUNNERS[kind])
    return types.MappingProxyType({
        p.name: (_bare(p.annotation), p.default)
        for p in sig.parameters.values() if p.kind is p.KEYWORD_ONLY})


def cast(key: str, tp, value):
    """`value` as type `tp`: int, float, str, Fraction, dict, list[T] or
    T | None.  A value that does not convert is a ConfigError naming
    `key`."""
    args = getattr(tp, "__args__", ())
    # a bool is no number, an int drops no fraction, and a str or a dict
    # is given as one, not made from a number or a list of pairs
    lossy = (tp in (int, float) and isinstance(value, bool)
             or tp is int and isinstance(value, float) and value % 1 != 0
             or tp in (str, dict) and not isinstance(value, tp))
    try:
        if isinstance(tp, types.UnionType):
            return None if value is None else cast(key, args[0], value)
        if not args and not lossy:
            # from a string, so that 0.1 is 1/10
            return tp(str(value) if tp is Fraction else value)
        if args and isinstance(value, (list, tuple)):
            return [cast(key, args[0], v) for v in value]
    except (TypeError, ValueError, ZeroDivisionError):
        pass
    name = str(tp) if args else tp.__name__
    raise ConfigError(f"{key} must be {name}, got {value!r}")


def _read(raw: dict, schema: dict, what: str) -> dict:
    """The keys of `raw` with their values cast by `schema`; an unknown
    key or a missing required one is a ConfigError naming it."""
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"unknown {what}: {sorted(unknown)[0]}")
    for name, (_, default) in schema.items():
        if default is REQUIRED and name not in raw:
            raise ConfigError(f"missing required {what}: {name}")
    return {name: cast(name, _bare(schema[name][0]), value)
            for name, value in raw.items()}


def _bounds(values: dict, hints: dict):
    """(outside, message naming the key) per bound on the type that
    `hints` gives a value; None, an unset optional key, is never outside."""
    for name, value in values.items():
        for op, edge in getattr(hints.get(name), "__metadata__", ()):
            test, must = _OPS[op]
            yield (value is not None and not test(value, edge),
                   f"{name} must {must.format(edge)}, got {value!r}")


def _defaults(schema: dict) -> dict:
    return {name: default for name, (_, default) in schema.items()}


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw config document: unknown keys, missing required
    keys, values that do not convert and values a run could not use are
    errors naming the key.  `params` holds the given values, cast."""
    top = _defaults(_CONFIG) | _read(cast("a config", dict, raw), _CONFIG,
                                     "config key")
    kind = top["kind"]
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"unknown experiment kind: {kind!r}")
    model = _defaults(_MODEL) | _read(top["model"], _MODEL, "model key")
    params = _read(top["params"], parameters(kind), f"{kind} parameter")
    config = ExperimentConfig(kind=kind, seed=top["seed"], out=top["out"],
                              params=params, jobs=top["jobs"], **model)
    # values a run would trip on only after writing its manifest: d, beta
    # and seed in the model at side 2, then the runner's first part, which
    # builds its objects and checks the rules that join keys
    try:
        config.model(2)
        next(_RUNNERS[kind](config, None, **params))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    # each key's own bound, after the objects: the first part names a
    # value that breaks both by what its object refuses
    for bad, msg in (
            *_bounds(top, {key: tp for key, (tp, _) in _CONFIG.items()}),
            *_bounds(_defaults(parameters(kind)) | params,
                     _RUNNERS[kind].__annotations__)):
        if bad:
            raise ConfigError(msg)
    return config


def _keyed(key: str, build, *args, **kwargs):
    """`build(*args, **kwargs)`, its ValueError's message led by "key: "."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


# ---------------------------------------------------------------------------
# formatting helpers


def fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def write_csv(path: Path, header: list[str], rows) -> None:
    with _atomic_open(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(x) for x in row) + "\n")


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Fraction):
        return str(obj)
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def write_json(path: Path, obj) -> None:
    with _atomic_open(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# runner


@dataclass
class RunManifest:
    status: str
    kind: str
    config: dict
    code_version: str
    started_at: float
    finished_at: float | None
    outputs: dict
    rng_streams: int
    error: str | None = None


class _Outputs:
    """The data files of one run, listed as they are written."""

    def __init__(self, out_dir: Path):
        self.dir = out_dir
        self.paths: list[Path] = []

    def path(self, name: str) -> Path:
        self.paths.append(self.dir / name)
        return self.paths[-1]

    def csv(self, name: str, header: list[str], rows) -> None:
        write_csv(self.path(name), header, rows)

    def json(self, name: str, obj) -> None:
        write_json(self.path(name), obj)


def run(config: ExperimentConfig) -> RunManifest:
    """Execute the experiment, write outputs and the manifest."""
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(status="running", kind=config.kind,
                           config=config.to_dict(),
                           code_version=__version__,
                           started_at=time.time(), finished_at=None,
                           outputs={}, rng_streams=0)
    _write_manifest(out_dir, manifest)
    out = _Outputs(out_dir)
    built = RngStream.built
    try:
        with replicate_pool(config.jobs):
            for _ in _RUNNERS[config.kind](config, out, **config.params):
                pass
        manifest.outputs = {f.name: sha256_file(f) for f in out.paths}
        manifest.rng_streams = RngStream.built - built
        manifest.status = "complete"
    except Exception as exc:
        for f in out.paths:
            f.unlink(missing_ok=True)
        manifest.status = "failed"
        manifest.error = f"{type(exc).__name__}: {exc}"
        manifest.finished_at = time.time()
        _write_manifest(out_dir, manifest)
        raise
    manifest.finished_at = time.time()
    _write_manifest(out_dir, manifest)
    return manifest


def _write_manifest(out_dir: Path, manifest: RunManifest) -> None:
    write_json(out_dir / "manifest.json", vars(manifest))


# ---------------------------------------------------------------------------
# experiment implementations


def _run_sample(config: ExperimentConfig, out: _Outputs, *, n: int = 256):
    cfg = _keyed("n", config.model, n)
    yield
    g = sample_graph(cfg)
    save_binary(g, out.path("graph.lrpg"))
    export_text(g, out.path("edges.txt"))


def _ladder(config: ExperimentConfig, n_values: list[int],
            replicates: int) -> Ladder:
    """The ladder a run fits, with the model at its largest 3n box and at
    its boundary probe's 5n box."""
    ladder = Ladder(n_values=tuple(n_values), replicates=replicates)
    if len(n_values) < MIN_LADDER_POINTS:
        raise ValueError(
            f"n_values must hold at least {MIN_LADDER_POINTS} points")
    _keyed("n_values", config.model, LADDER_BOX * max(n_values))
    _keyed("n_values", config.model, PROBE_BOX * min(n_values))
    return ladder


def _fit_ladder(config: ExperimentConfig, out: _Outputs,
                ladder: Ladder) -> ScalingFit:
    """Medians and the theta fit of a ladder, written out."""
    fit = fit_theta(estimate_medians(config.d, config.beta, ladder,
                                     config.seed))
    out.csv("medians.csv", ["n", "a_n", "ci_lo", "ci_hi", "replicates"],
            [(n, fit.medians[i], fit.ci_lo[i], fit.ci_hi[i],
              fit.replicates) for i, n in enumerate(fit.n_values)])
    for n in fit.n_values:
        out.csv(f"ecdf_{n}.csv", ["value"],
                [(v,) for v in ecdf(fit, n).values])
    out.json("theta.json", {"theta_hat": fit.theta_hat,
                            "r_squared": fit.r_squared,
                            "ci": list(fit.theta_ci),
                            "boundary_check": fit.boundary_check})
    return fit


def _run_scaling(config: ExperimentConfig, out: _Outputs, *,
                 n_values: list[int], replicates: int = 50):
    ladder = _ladder(config, n_values, replicates)
    yield
    fit = _fit_ladder(config, out, ladder)
    masses, rho, pval = atom_trend([ecdf(fit, n) for n in fit.n_values])
    out.csv("atoms.csv", ["n", "max_atom_mass"],
            list(zip(fit.n_values, masses)))
    out.json("atom_trend.json", {"spearman_rho": rho, "p_value": pval})


def _geodesic_replicate(n: int, key, graph):
    """`_geodesic_pair` between the centred pair x = n*1, y = 2n*1 of the
    3n box of the `dim` replicate `key` = (DIM_SAMPLE, r), drawn by the
    generator (DIM_GEODESIC, r)."""
    x, y = centred_pair(graph, n)
    rng = RngStream(graph.config.seed, (Tag.DIM_GEODESIC, key[1])).generator()
    return _geodesic_pair(graph, geodesic_dag(graph, x, y), rng, n)


def _geodesic_pair(graph, dag, rng, n: int):
    """A uniform geodesic's coordinates, and how a second one drawn after
    it from the same generator compares with it: (geodesic count,
    shared-edge fraction, Euclidean Hausdorff distance over n)."""
    first = sample_geodesic(dag, rng)
    second = sample_geodesic(dag, rng)
    a, b = graph.coords(np.asarray(first)), graph.coords(np.asarray(second))
    shared = len(path_edges(first) & path_edges(second)) / dag.dist
    return a, (dag.count, shared, _hausdorff(a, b) / n)


def _hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean Hausdorff distance between two integer point sets.

    The squared gaps are exact integers and sqrt is correctly rounded,
    so this equals the float64 distance-matrix computation bit for bit.
    """
    gaps = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    return math.sqrt(max(gaps.min(axis=0).max(), gaps.min(axis=1).max()))


def _run_dim(config: ExperimentConfig, out: _Outputs, *, n: int = 2048,
             geodesics: Count = 100,
             scales: Annotated[list[int], ("distinct", 2)] = [2, 3, 4, 5, 6],
             theta_source: Annotated[str, ("in", ("fit", "manual"))] = "fit",
             theta: float | None = None,
             n_values: list[int] = [32, 64, 128, 256, 512, 1024, 2048],
             replicates: int = 200):
    cfg = _keyed("n", config.model, LADDER_BOX * n)
    if theta_source == "fit":
        ladder = _ladder(config, n_values, replicates)
    if theta_source == "manual" and theta is None:
        raise ValueError("theta_source 'manual' needs parameter: theta")
    # n * 2^-j <= n, a box no larger than the geodesic's scale, and
    # n * 2^-j >= 1, the finest box one lattice unit or more
    if min(scales, default=0) < 0:
        raise ValueError("scales: every scale j must be >= 0")
    if max(scales, default=0) >= n.bit_length():
        raise ValueError("scales: n * 2^-max(scales) must be at least 1")
    yield
    if theta_source == "fit":
        theta = _fit_ladder(config, out, ladder).theta_hat
    paths, pairs = zip(*map_replicates(
        cfg, [(Tag.DIM_SAMPLE, r) for r in range(geodesics)],
        functools.partial(_geodesic_replicate, n)))
    deltas = [2.0 ** -j for j in scales]
    fitd = mean_dimension_fit(paths, deltas, float(n))
    out.csv("dim.csv", ["delta", "mean_N", "log_inv_delta", "log_N",
                        "slope"],
            [(deltas[i], math.exp(fitd.log_counts[i]),
              fitd.log_inv_delta[i], fitd.log_counts[i], fitd.dim_hat)
             for i in range(len(deltas))])
    out.json("dim.json", {"dim_hat": fitd.dim_hat,
                          "r_squared": fitd.r_squared,
                          "theta": theta, "n": n, "geodesics": geodesics,
                          "abs_difference": abs(fitd.dim_hat - theta)})
    out.csv("uniqueness.csv", ["r", "geodesics", "shared_edge_fraction",
                               "hausdorff_over_n"],
            [(r, *pair) for r, pair in enumerate(pairs)])


def _run_goodcubes(config: ExperimentConfig, out: _Outputs, *,
                   s: int = 32,
                   alphas: Annotated[list[float], ("distinct", 1)] = [
                       0.5, 0.25, 0.1],
                   b: float = 0.25, theta: float = 0.45,
                   a_s: Annotated[float | None, (">", 0)] = None,
                   replicates: Annotated[
                       int, (">=", GOOD_CUBE_MIN_REPLICATES)] = 400,
                   a_s_replicates: int = 200, cs_n: int | None = None,
                   cs_k: Annotated[int, (">=", 1), ("<=", CS_SIZE_CAP)] = 5,
                   cs_replicates: Count = 100):
    _keyed("s", config.model, GOOD_CUBE_BOX_FACTOR * s)
    cs_n = CS_BOX_FACTOR * s if cs_n is None else cs_n
    _keyed("cs_n", config.model, cs_n)
    grid = [GoodCubeParams(alpha=alpha, b=b, theta=theta)
            for alpha in sorted(alphas, reverse=True)]
    if cs_n % s:
        raise ValueError("cs_n: cube side must divide the box side")
    if cs_n // s < 3:
        raise ValueError(
            "cs_n: the cube grid needs an interior cube (cs_n >= 3s)")
    if a_s is None and a_s_replicates < 1:
        raise ValueError("a_s_replicates must be >= 1")
    yield
    if a_s is None:
        a_s = float(np.median(sample_distances(
            config.d, config.beta, s, a_s_replicates, config.seed,
            ladder_index=Tag.A_S_PROBE)))
    rates = good_cube_rate(config.d, config.beta, s, grid, a_s, replicates,
                           config.seed)
    out.csv("goodcubes.csv", ["alpha", "b", "rate", "ci_lo", "ci_hi"],
            [(r.alpha, b, r.rate, r.ci_lo, r.ci_hi) for r in rates])
    out.json("goodcubes.json", {"s": s, "a_s": a_s, "theta": theta,
                                "replicates": replicates})
    growth = connected_set_growth(
        config.d, config.beta, n=cs_n, s=s, k=cs_k,
        replicates=cs_replicates, seed=config.seed)
    out.csv("cs_counts.csv", ["k", "mean", "bound"],
            [(k + 1, growth.cs_means[k], growth.cs_bound[k])
             for k in range(len(growth.cs_means))])


def _run_sperner(config: ExperimentConfig, out: _Outputs, *,
                 n_values: Annotated[list[int], ("distinct", 1)] = list(
                     range(4, 21)),
                 families_per_n: Count = 100,
                 p_values: Annotated[list[Fraction], ("distinct", 1)] = [
                     Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)],
                 generator: Annotated[str, ("in", GENERATORS)]
                 = "antichain-low",
                 target_size: Annotated[int | None, (">=", 1)] = None):
    for n in n_values:
        _keyed("n_values", SetFamily, n=n, members=())
    for pv in p_values:
        _keyed("p_values", event_probability, SetFamily(n=1, members=()), pv)
    yield
    rows = []
    for n in n_values:
        rng = RngStream(config.seed, (Tag.SPERNER_FAMILIES, n)).generator()
        worst_lym = Fraction(0)
        chains_hold = True
        for _ in range(families_per_n):
            fam = generate_family(generator, n, rng,
                                  target_size=target_size)
            for pv in p_values:
                chain = sperner_bound_check(fam, pv)
                chains_hold &= chain.holds
                worst_lym = max(worst_lym, chain.lym)
        rows.append((n, families_per_n, float(worst_lym),
                     int(chains_hold)))
    out.csv("sperner.csv", ["n", "families", "max_lym", "all_chains_hold"],
            rows)


def _run_firework(config: ExperimentConfig, out: _Outputs, *,
                  eps: float = 1e-9, theta: float = 0.5,
                  c_star1: float = 0.5, c2: float = 1.0, k_min: Count = 2,
                  k_max: int = 12, runs: Count = 10 ** 5):
    ladder = build_ladder(eps, theta, c_star1)
    model = _keyed("k_max, c2", FireworkModel.default, k_max, c2=c2)
    if k_min > k_max:
        raise ValueError("k_min must be <= k_max")
    yield
    out.json("ladder.json", {
        "eps": eps, "theta": theta, "c_star1": c_star1, "K": ladder.K,
        "N": ladder.N, "M": [float(x) for x in ladder.M[1:]],
        "r": [float(x) for x in ladder.r[1:]],
        "delta_max": ladder.delta_max})
    cp = compute_crossing_probs(ladder, config.beta)
    out.csv("crossing.csv", ["i", "p_gap_jump", "p_shell_cross"],
            [(i + 1, cp.p_gap[i], cp.p_shell[i]) for i in range(ladder.K)])
    rng = RngStream(config.seed, (Tag.FIREWORK,)).generator()
    rt = reach_tail(model, range(k_min, k_max + 1), runs, rng)
    out.csv("firework.csv", ["k", "tail", "kappa_hat", "r_squared"],
            [(int(k), rt.tail[i], rt.kappa_hat, rt.r_squared)
             for i, k in enumerate(rt.ks)])


def _run_xi_coupling(config: ExperimentConfig, out: _Outputs, *,
                     eps: float = 1e-12, theta: float = 0.5,
                     c_star1: float = 0.5,
                     resolution: Annotated[int, (">=", MIN_RESOLUTION)] = 8,
                     runs: Count = 10 ** 4,
                     max_subset_size: Annotated[int | None, (">=", 1)]
                     = None):
    ladder = build_ladder(eps, theta, c_star1)
    yield
    xi = simulate_xi_vector(ladder, config.beta, resolution,
                            RngStream(config.seed,
                                      (Tag.XI_VECTOR,)).generator(),
                            runs=runs)
    cp = compute_crossing_probs(ladder, config.beta)
    emp = xi.marginal_zero_rate()
    out.csv("xi_marginals.csv",
            ["i", "empirical_cross_rate", "exact_cross_prob"],
            [(i + 1, emp[i], cp.p_shell[i]) for i in range(ladder.K)])
    checks = coupling_checks(ladder, config.beta, xi, runs_fw=runs,
                             rng=RngStream(config.seed,
                                           (Tag.XI_FIREWORK,)).generator(),
                             max_size=max_subset_size)
    out.csv("coupling.csv", ["subset", "k", "w_empirical", "firework_tail",
                             "sigma", "holds"],
            [("|".join(map(str, c.subset)), len(c.subset), c.w_empirical,
              c.fw_tail, c.sigma, int(c.holds)) for c in checks])


_RUNNERS = {
    "sample": _run_sample,
    "scaling": _run_scaling,
    "dim": _run_dim,
    "goodcubes": _run_goodcubes,
    "sperner": _run_sperner,
    "firework": _run_firework,
    "xi-coupling": _run_xi_coupling,
}
EXPERIMENT_KINDS = tuple(_RUNNERS)


# ---------------------------------------------------------------------------
# report


def verify_run(out_dir) -> dict:
    """Load the manifest and verify every recorded checksum."""
    out_dir = Path(out_dir)
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.exists():
        raise IntegrityError(f"no manifest in {out_dir}")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    if manifest.get("status") != "complete":
        raise IntegrityError(f"run status is {manifest.get('status')!r}")
    for name, digest in manifest.get("outputs", {}).items():
        path = out_dir / name
        if not path.exists():
            raise IntegrityError(f"missing output file: {name}")
        if sha256_file(path) != digest:
            raise IntegrityError(f"checksum mismatch: {name}")
    return manifest


def _load(path: Path):
    """A JSON file's object, or a CSV file's data rows as strings."""
    with open(path) as fh:
        if path.suffix == ".json":
            return json.load(fh)
        fh.readline()
        return [line.strip().split(",") for line in fh if line.strip()]


# data file -> (figure file, float data row -> (x, y, ci_lo, ci_hi))
_FIGURES = {
    "medians.csv": ("figure_scaling.tsv",
                    lambda r: [math.log(max(v, 1e-300)) for v in r[:4]]),
    "dim.csv": ("figure_dim.tsv", lambda r: (r[2], r[3], r[3], r[3])),
    "goodcubes.csv": ("figure_goodcubes.tsv",
                      lambda r: (r[0], r[2], r[3], r[4])),
    "firework.csv": ("figure_firework.tsv",
                     lambda r: (r[0], r[1], r[1], r[1])),
}
# data file -> its line of summary.txt, in summary order
_SUMMARIES = {
    "theta.json": lambda t: (f"theta_hat = {t['theta_hat']}, "
                             f"r2 = {t['r_squared']}, ci = {t['ci']}"),
    "dim.json": lambda t: (f"dim_hat = {t['dim_hat']} vs theta = "
                           f"{t['theta']} (|diff| = {t['abs_difference']})"),
    "uniqueness.csv": lambda rows: (
        "unique geodesic fraction = "
        f"{fmt(np.mean([r[1] == '1' for r in rows]))} over {len(rows)} "
        "samples, median shared-edge fraction = "
        f"{fmt(np.median([float(r[2]) for r in rows]))}, hausdorff_over_n "
        "median, 90% quantile = " + ", ".join(map(fmt, np.quantile(
            [float(r[3]) for r in rows], [0.5, 0.9])))),
    "goodcubes.csv": lambda rows: "good-cube rates: " + "; ".join(
        f"alpha={r[0]}: {r[2]}" for r in rows),
    "firework.csv": lambda rows: (f"kappa_hat = {rows[0][2]}, "
                                  f"r2 = {rows[0][3]}"),
    "coupling.csv": lambda rows: ("coupling inequality holds on all "
                                  f"subsets: {all(r[5] == '1' for r in rows)}"),
}


def report(out_dir) -> list[Path]:
    """Emit a human-readable summary and per-figure (x, y, ci) TSVs for
    the data files the run wrote."""
    out_dir = Path(out_dir)
    manifest = verify_run(out_dir)
    outputs = manifest["outputs"]
    produced = []
    for name, (figure, to_xy) in _FIGURES.items():
        if name in outputs:
            produced.append(out_dir / figure)
            with _atomic_open(produced[-1]) as fh:
                fh.write("x\ty\tci_lo\tci_hi\n")
                for row in _load(out_dir / name):
                    xy = to_xy([float(v) for v in row])
                    fh.write("\t".join(fmt(v) for v in xy) + "\n")
    lines = [f"experiment: {manifest['kind']}",
             f"status: {manifest['status']}",
             f"code_version: {manifest['code_version']}"]
    lines += [line(_load(out_dir / name))
              for name, line in _SUMMARIES.items() if name in outputs]
    produced.append(out_dir / "summary.txt")
    with _atomic_open(produced[-1]) as fh:
        fh.write("\n".join(lines) + "\n")
    return produced
