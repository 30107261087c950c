"""Command-line entry point.

Subcommands mirror the experiment kinds (sample, scaling, dim,
goodcubes, sperner, firework, xi-coupling) plus `report`.  Common flags
--config/--seed/--out/--jobs/--d/--beta; a JSON config file supplies
anything not given on the command line.  A subcommand's parameter flags
are the keys of its kind in `experiments._SCHEMA` that have a flag, so
--replicates is offered only by the kinds that take `replicates`
(scaling, dim, goodcubes).  Environment variables LRPLAB_SEED,
LRPLAB_OUT, LRPLAB_JOBS fill defaults at the lowest precedence, and
LRPLAB_REPLICATES does so for the kinds that take `replicates`: flags
beat the config file, the config file beats the environment.  A
malformed integer in the environment is a ConfigError naming the
variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .experiments import (_SCHEMA, ConfigError, ExperimentConfig,
                          IntegrityError, parse_config, report, run)

ENV_PREFIX = "LRPLAB_"
_ENV_KEYS = {"seed": int, "out": str, "jobs": int, "replicates": int}


def _env_defaults() -> dict:
    out = {}
    for key, cast in _ENV_KEYS.items():
        name = ENV_PREFIX + key.upper()
        raw = os.environ.get(name)
        if raw is not None:
            try:
                out[key] = cast(raw)
            except ValueError:
                raise ConfigError(
                    f"{name} must be an integer, got {raw!r}") from None
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrplab",
        description="critical long-range percolation metric lab")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, kind):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int)
        p.add_argument("--out")
        p.add_argument("--jobs", type=int)
        if "replicates" in _SCHEMA[kind]:
            p.add_argument("--replicates", type=int)
        p.add_argument("--d", type=int, help="lattice dimension")
        p.add_argument("--beta", type=float, help="coupling strength")

    p = sub.add_parser("sample", help="sample one configuration")
    common(p, "sample")
    p.add_argument("--n", type=int, help="box side")

    p = sub.add_parser("scaling", help="distance-exponent ladder study")
    common(p, "scaling")
    p.add_argument("--n-values", type=int, nargs="+")

    p = sub.add_parser("dim", help="geodesic box-counting dimension")
    common(p, "dim")
    p.add_argument("--n", type=int)
    p.add_argument("--scales", type=int, nargs="+",
                   help="dyadic exponents j (delta = 2^-j)")
    p.add_argument("--theta-source", choices=("fit", "manual"))
    p.add_argument("--theta", type=float)

    p = sub.add_parser("goodcubes", help="good-cube rate sweep")
    common(p, "goodcubes")
    p.add_argument("--s", type=int, help="cube scale")
    p.add_argument("--alpha", type=float, nargs="+", dest="alphas")
    p.add_argument("--b", type=float)
    p.add_argument("--theta", type=float)

    p = sub.add_parser("sperner", help="family checks and sweeps")
    p.add_argument("action", choices=("check", "bound", "sweep"))
    p.add_argument("file", nargs="?", help="family file for check/bound")
    p.add_argument("--p", default="1/2", help="rational Bernoulli parameter")
    common(p, "sperner")

    p = sub.add_parser("firework", help="spreading-process tail study")
    common(p, "firework")
    p.add_argument("--eps", type=float)
    p.add_argument("--theta", type=float)
    p.add_argument("--c-star1", type=float, dest="c_star1")
    p.add_argument("--c2", type=float)

    p = sub.add_parser("xi-coupling", help="shell-crossing coupling check")
    common(p, "xi-coupling")
    p.add_argument("--eps", type=float)
    p.add_argument("--theta", type=float)
    p.add_argument("--c-star1", type=float, dest="c_star1")
    p.add_argument("--resolution", type=int)
    p.add_argument("--runs", type=int)

    p = sub.add_parser("report", help="summaries and plot data for a run")
    p.add_argument("run_dir")
    return parser


def _given(args, keys) -> dict:
    return {key: getattr(args, key) for key in sorted(keys)
            if getattr(args, key, None) is not None}


def _assemble(args, kind: str) -> ExperimentConfig:
    env = _env_defaults()
    replicates = env.pop("replicates", None)
    raw = {"kind": kind, "model": {}, "params": {}, **env}
    if replicates is not None and "replicates" in _SCHEMA[kind]:
        raw["params"]["replicates"] = replicates
    if args.config:
        with open(args.config) as fh:
            doc = json.load(fh)
        if doc.setdefault("kind", kind) != kind:
            raise ConfigError(
                f"config kind {doc['kind']!r} does not match {kind!r}")
        raw["model"].update(doc.pop("model", {}))
        raw["params"].update(doc.pop("params", {}))
        raw.update(doc)         # parse_config names unknown keys
    raw.update(_given(args, ("seed", "out", "jobs")))
    raw["model"].update(_given(args, _SCHEMA["model"]))
    raw["params"].update(_given(args, _SCHEMA[kind]))
    return parse_config(raw)


def _sperner_file_action(args) -> int:
    from .sperner import is_sperner_family, load_family, lym_sum, \
        sperner_bound_check

    if not args.file:
        print("error: sperner check/bound needs a family file",
              file=sys.stderr)
        return 2
    family = load_family(args.file)
    if args.action == "check":
        rep = is_sperner_family(family)
        print(f"n={family.n} members={len(family.members)} "
              f"sperner={rep.is_sperner} lym={lym_sum(family)}")
        for c in rep.classifications:
            tag = ("upward" if c.upward else
                   "downward" if c.downward else "neither")
            print(f"  member={c.member:#x} class={tag}")
        return 0 if rep.is_sperner else 1
    chain = sperner_bound_check(family, Fraction(args.p))
    print(f"n={chain.n} p={chain.p} P={chain.event_prob} "
          f"central={chain.central_term} lym={chain.lym}")
    print(f"P <= central*lym: {chain.link_event_le_central_times_lym}; "
          f"lym <= 4: {chain.link_lym_le_4}; "
          f"P <= 4*central: {chain.link_event_le_4central}")
    print(f"sqrt(n)-scaled: P*sqrt(n) = {chain.scaled_prob:.6g} <= "
          f"{chain.scaled_bound:.6g}")
    return 0 if chain.holds else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "report":
            for path in report(args.run_dir):
                print(path)
            return 0
        if args.command == "sperner" and args.action in ("check", "bound"):
            return _sperner_file_action(args)
        config = _assemble(args, args.command)
        manifest = run(config)
        print(f"run complete: {config.out} "
              f"({len(manifest.outputs)} outputs)")
        return 0
    except (ConfigError, IntegrityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
