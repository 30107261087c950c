"""Command-line entry point.

Subcommands mirror the experiment kinds (sample, scaling, dim,
goodcubes, sperner, firework, xi-coupling) plus `report`.  A kind's
subcommand takes --config/--seed/--out/--jobs/--d/--beta and one flag
per parameter in `experiments.parameters(kind)`, named after it with
dashes for underscores (--alpha is kept as the older spelling of
--alphas); --help shows each default.  A JSON config file supplies
anything not given on the command line.  Environment variables
LRPLAB_SEED, LRPLAB_OUT, LRPLAB_JOBS fill defaults at the lowest
precedence, and LRPLAB_REPLICATES does so for the kinds that take
`replicates`: flags beat the config file, the config file beats the
environment.  argparse casts nothing: every value goes through
`experiments.cast`, so a bad one, like an unreadable config or family
file, is a ConfigError named before any output (exit status 2).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import typing
from fractions import Fraction

from .experiments import (_CONFIG, _MODEL, EXPERIMENT_KINDS, REQUIRED,
                          ConfigError, ExperimentConfig, IntegrityError,
                          cast, parameters, parse_config, report, run)

ENV_PREFIX = "LRPLAB_"
_ENV_KEYS = {"seed": int, "out": str, "jobs": int, "replicates": int}
_HELP = {"sample": "sample one configuration",
         "scaling": "distance-exponent ladder study",
         "dim": "geodesic box-counting dimension",
         "goodcubes": "good-cube rate sweep",
         "sperner": "family checks and sweeps",
         "firework": "spreading-process tail study",
         "xi-coupling": "shell-crossing coupling check"}
_TOP_FLAGS = ("seed", "out", "jobs")
_ALIASES = {"alphas": ("--alpha",)}


def _env_defaults() -> dict:
    out = {}
    for key, tp in _ENV_KEYS.items():
        name = ENV_PREFIX + key.upper()
        if name in os.environ:
            out[key] = cast(name, tp, os.environ[name])
    return out


def _default(default) -> str:
    if default is REQUIRED:
        return "required"
    return "default: " + " ".join(
        map(str, default if isinstance(default, list) else [default]))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrplab",
        description="critical long-range percolation metric lab")
    sub = parser.add_subparsers(dest="command", required=True)
    common = {key: _CONFIG[key] for key in _TOP_FLAGS} | _MODEL
    for kind in EXPERIMENT_KINDS:
        p = sub.add_parser(kind, help=_HELP[kind])
        if kind == "sperner":
            p.add_argument("action", choices=("check", "bound", "sweep"))
            p.add_argument("file", nargs="?",
                           help="family file for check/bound")
            p.add_argument("--p", default="1/2",
                           help="rational Bernoulli parameter")
        p.add_argument("--config", help="JSON config file")
        for name, (tp, default) in (common | parameters(kind)).items():
            p.add_argument("--" + name.replace("_", "-"),
                           *_ALIASES.get(name, ()), dest=name,
                           nargs="+" if typing.get_origin(tp) is list
                           else None, help=_default(default))
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
    if replicates is not None and "replicates" in parameters(kind):
        raw["params"]["replicates"] = replicates
    if args.config:
        try:
            with open(args.config) as fh:
                doc = cast("a config", dict, json.load(fh))
        except (OSError, ValueError) as exc:
            raise ConfigError(
                f"cannot read config {args.config}: {exc}") from None
        if doc.setdefault("kind", kind) != kind:
            raise ConfigError(
                f"config kind {doc['kind']!r} does not match {kind!r}")
        raw["model"].update(cast("model", dict, doc.pop("model", {})))
        raw["params"].update(cast("params", dict, doc.pop("params", {})))
        raw.update(doc)         # parse_config names unknown keys
    raw.update(_given(args, _TOP_FLAGS))
    raw["model"].update(_given(args, _MODEL))
    raw["params"].update(_given(args, parameters(kind)))
    return parse_config(raw)


def _sperner_file_action(args) -> int:
    from .sperner import is_sperner_family, load_family, lym_sum, \
        sperner_bound_check

    if not args.file:
        raise ConfigError("sperner check/bound needs a family file")
    try:
        family = load_family(args.file)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read family {args.file}: {exc}") from None
    if args.action == "check":
        rep = is_sperner_family(family)
        print(f"n={family.n} members={len(family.members)} "
              f"sperner={rep.is_sperner} lym={lym_sum(family)}")
        for c in rep.classifications:
            tag = ("upward" if c.upward else
                   "downward" if c.downward else "neither")
            print(f"  member={c.member:#x} class={tag}")
        return 0 if rep.is_sperner else 1
    try:
        chain = sperner_bound_check(family, cast("--p", Fraction, args.p))
    except ValueError as exc:   # p outside (0, 1), or not a Sperner family
        raise ConfigError(f"sperner bound: {exc}") from None
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
