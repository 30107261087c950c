import json
import math
import os
import subprocess
import sys
import typing
from fractions import Fraction
from pathlib import Path

import pytest

import lrplab
from lrplab.cli import _assemble, _build_parser, main
from lrplab.experiments import (_CONFIG, _RUNNERS, REQUIRED, ConfigError,
                                IntegrityError, load_config, parameters,
                                parse_config, report, run, verify_run,
                                write_json)
from lrplab.rng import RngStream, Tag


def _scaling_config(tmp_path, sub="a", seed=7):
    return parse_config({
        "kind": "scaling", "seed": seed, "out": str(tmp_path / sub),
        "model": {"d": 1, "beta": 1.0},
        "params": {"n_values": [8, 16, 32, 64], "replicates": 40}})


def _data_bytes(out_dir):
    out = {}
    for p in sorted(Path(out_dir).iterdir()):
        if p.name != "manifest.json":
            out[p.name] = p.read_bytes()
    return out


def test_identical_config_identical_outputs(tmp_path):
    m1 = run(_scaling_config(tmp_path, "a"))
    m2 = run(_scaling_config(tmp_path, "b"))
    assert m1.outputs == m2.outputs  # same checksums
    assert _data_bytes(tmp_path / "a") == _data_bytes(tmp_path / "b")


def test_different_seed_changes_outputs(tmp_path):
    m1 = run(_scaling_config(tmp_path, "a", seed=7))
    m2 = run(_scaling_config(tmp_path, "b", seed=8))
    assert m1.outputs != m2.outputs


def test_unknown_kind_rejected(tmp_path):
    with pytest.raises(ConfigError, match="kind"):
        parse_config({"kind": "nope", "out": str(tmp_path)})


def test_unknown_key_named(tmp_path):
    with pytest.raises(ConfigError, match="replicats"):
        parse_config({"kind": "scaling", "out": str(tmp_path),
                      "params": {"n_values": [8, 16], "replicats": 3}})
    with pytest.raises(ConfigError, match="betta"):
        parse_config({"kind": "scaling", "out": str(tmp_path),
                      "model": {"betta": 2.0}, "params": {}})


def test_missing_out_rejected():
    with pytest.raises(ConfigError, match="out"):
        parse_config({"kind": "sample"})


@pytest.mark.parametrize("doc, named", [
    ({"out": True}, "out must be str, got True"),
    ({"out": 12}, "out must be str, got 12"),
    ({"out": "r", "model": [["d", 2]]}, "model must be dict"),
], ids=["out-bool", "out-int", "model-pairs"])
def test_str_and_dict_keys_take_no_other_type(doc, named):
    # no run directory named `True` or `12`, no model read from pairs
    with pytest.raises(ConfigError, match=named):
        parse_config({"kind": "sample", **doc})


_MANUAL_DIM = {"n": 16, "geodesics": 2, "scales": [1, 2],
               "theta_source": "manual", "theta": 0.5}


@pytest.mark.parametrize("key, kind, params, jobs", [
    ("n_values", "scaling", {"replicates": 30}, 1),
    ("theta", "dim", {k: v for k, v in _MANUAL_DIM.items() if k != "theta"},
     1),
    ("theta_source", "dim", {**_MANUAL_DIM, "theta_source": "fitted"}, 1),
    ("geodesics", "dim", {**_MANUAL_DIM, "geodesics": 0}, 1),
    ("scales", "dim", {**_MANUAL_DIM, "scales": [2, 2]}, 1),
    ("jobs", "sample", {"n": 8}, 0),
    ("n", "dim", {**_MANUAL_DIM, "n": "eight"}, 1),
    ("jobs", "sample", {"n": 8}, "two"),
    # the layers' own bounds: fit_theta's ladder points, the ladder's
    # replicates, the model's box side at n and at 3n, the generator
    # names, good_cube_rate's replicates (met only after the a_s probe)
    ("n_values", "scaling", {"n_values": [8, 16, 32], "replicates": 30}, 1),
    ("replicates", "scaling", {"n_values": [8, 16, 32, 64],
                               "replicates": 20}, 1),
    ("n", "sample", {"n": 1}, 1),
    ("n", "dim", {**_MANUAL_DIM, "n": 10 ** 9}, 1),
    ("generator", "sperner", {"generator": "nope"}, 1),
    ("replicates", "goodcubes", {"replicates": 10}, 1),
    # an int key takes no bool and drops no fraction; a float key takes
    # no bool
    ("jobs", "sample", {"n": 8}, 1.9),
    ("jobs", "sample", {"n": 8}, True),
    ("n_values", "scaling", {"n_values": [8.9, 16, 32, 64],
                             "replicates": 30}, 1),
    ("n", "sample", {"n": True}, 1),
    ("theta", "dim", {**_MANUAL_DIM, "theta": True}, 1),
])
def test_bad_config_fails_before_any_output(tmp_path, key, kind, params,
                                            jobs):
    # a config that would crash late or write a NaN is refused by name
    # before the run makes its directory
    out = tmp_path / "run"
    with pytest.raises(ConfigError, match=key):
        run(parse_config({"kind": kind, "seed": 1, "out": str(out),
                          "jobs": jobs, "model": {"d": 1, "beta": 1.0},
                          "params": params}))
    assert not out.exists()


@pytest.mark.parametrize("key, kind, d, params", [
    # the layers' own bounds, reached through their objects or constants:
    # the ladder's largest 3n box and its boundary probe's 5n box (also
    # in a fitted `dim`), the ground-set cap, the xi sampler's
    # resolution, the annulus ladder, the good-cube parameters, the cube
    # grid and the connected-set size cap; the counts that would give a
    # NaN or divide by zero, an empty firework k range, a firework model
    # it cannot build, and dim scales whose finest box is below one
    # lattice unit
    ("n_values", "scaling", 2, {"n_values": [20000, 20001, 20002, 20003],
                                "replicates": 30}),
    ("n_values", "scaling", 2, {"n_values": [10000, 11000, 12000, 13000],
                                "replicates": 30}),
    ("n_values", "dim", 2, {"n": 8, "n_values": [10000, 11000, 12000,
                                                 13000]}),
    ("n_values", "sperner", 1, {"n_values": [4, 30]}),
    ("n_values", "sperner", 1, {"n_values": [0]}),
    ("resolution", "xi-coupling", 1, {"resolution": 4}),
    ("eps", "firework", 1, {"eps": 0.9}),
    ("eps", "xi-coupling", 1, {"eps": 0.9}),
    ("theta", "firework", 1, {"theta": 1.5}),
    ("cs_n", "goodcubes", 1, {"s": 8, "cs_n": 100}),
    ("cs_n", "goodcubes", 1, {"s": 8, "cs_n": 16}),
    ("cs_k", "goodcubes", 1, {"cs_k": 9}),
    ("cs_k", "goodcubes", 1, {"cs_k": 0}),
    ("alpha", "goodcubes", 1, {"alphas": [0.5, 1.5]}),
    ("theta", "goodcubes", 1, {"theta": 1.2}),
    ("b must", "goodcubes", 1, {"b": 0}),
    ("b must", "goodcubes", 1, {"b": -0.25}),
    ("cs_replicates", "goodcubes", 1, {"cs_replicates": 0}),
    ("a_s_replicates", "goodcubes", 1, {"a_s_replicates": 0}),
    ("runs", "firework", 1, {"runs": 0}),
    ("runs", "xi-coupling", 1, {"runs": 0}),
    ("k_min", "firework", 1, {"k_min": 2, "k_max": 1}),
    ("k_max", "firework", 1, {"k_min": 0, "k_max": 0}),
    ("c2", "firework", 1, {"c2": -1}),
    ("scales", "dim", 1, {"n": 16, "scales": [9, 10]}),
    ("scales", "dim", 1, {"n": 16, "scales": [4, 5]}),
    # a p outside (0, 1), and counts that leave a vacuous "holds" or a
    # k = 0 row in the firework fit
    ("p_values", "sperner", 1, {"p_values": [1]}),
    ("p_values", "sperner", 1, {"p_values": ["1/2", 0]}),
    ("p_values", "sperner", 1, {"p_values": ["3/2"]}),
    ("families_per_n", "sperner", 1, {"families_per_n": 0}),
    ("target_size", "sperner", 1, {"target_size": 0}),
    ("max_subset_size", "xi-coupling", 1, {"max_subset_size": 0}),
    ("k_min", "firework", 1, {"k_min": 0}),
    # a distance threshold every cube passes, and empty lists (a CLI
    # list flag takes at least one value) that finish with no rate, no
    # row or a vacuous "holds"
    ("a_s", "goodcubes", 1, {"a_s": 0}),
    ("a_s", "goodcubes", 1, {"a_s": -1}),
    ("alphas", "goodcubes", 1, {"alphas": []}),
    ("n_values", "sperner", 1, {"n_values": []}),
    ("p_values", "sperner", 1, {"p_values": []}),
])
def test_layer_bounds_refused_by_parse_config(key, kind, d, params):
    # the config alone, since a run that missed one of these could sample
    # a box of 10^9 sites before it failed
    with pytest.raises(ConfigError, match=key):
        parse_config({"kind": kind, "seed": 1, "out": "unused",
                      "model": {"d": d, "beta": 1.0}, "params": params})


def test_dim_scales_down_to_one_lattice_unit_accepted():
    # n = 16 at scale 4 is a box of side 16 * 2^-4 = 1
    cfg = parse_config({"kind": "dim", "seed": 1, "out": "unused",
                        "params": {"n": 16, "scales": [3, 4]}})
    assert cfg.params["scales"] == [3, 4]


def _edges(tp, default, op, edge):
    """[(a value at the edge of the bound (op, edge) on type `tp`, one just
    outside it)]."""
    if op == "in":
        return [(choice, "|".join(edge)) for choice in edge]
    if op == "distinct":
        inside = list(dict.fromkeys(default))[:edge]
        return [(inside, inside[:-1] * 2)]
    # from a number to its neighbour: the next int, or the next float
    step = (math.nextafter(edge, math.inf) - edge
            if float in (tp, *typing.get_args(tp)) else 1)
    return {">=": [(edge, edge - step)], ">": [(edge + step, edge)],
            "<=": [(edge, edge + step)]}[op]


def _bound_cases():
    """Every bound of every kind's parameters, and of `jobs`, from the
    `Annotated` metadata on their types."""
    schemas = [("sample", "jobs", *_CONFIG["jobs"])]
    schemas += [(kind, name, runner.__annotations__[name], default)
                for kind, runner in _RUNNERS.items()
                for name, (_, default) in parameters(kind).items()]
    return [pytest.param(kind, name, inside, outside,
                         id=f"{kind}-{name}={inside}")
            for kind, name, tp, default in schemas
            for op, edge in getattr(tp, "__metadata__", ())
            for inside, outside in _edges(tp.__origin__, default, op, edge)]


@pytest.mark.parametrize("kind, key, inside, outside", _bound_cases())
def test_every_bound_takes_its_edge_and_refuses_past_it(kind, key, inside,
                                                        outside):
    def parse(value):
        # the cross-key rules met: scaling's required ladder, a theta for
        # a manual dim
        params = {"scaling": {"n_values": [8, 16, 32, 64]},
                  "dim": {"theta": 0.5}}.get(kind, {})
        given = ({"jobs": value} if key == "jobs"
                 else {"params": {**params, key: value}})
        return parse_config({"kind": kind, "out": "unused",
                             "params": params, **given})

    config = parse(inside)
    assert (config.jobs if key == "jobs" else config.params[key]) == inside
    with pytest.raises(ConfigError, match=f"^{key} must "):
        parse(outside)


@pytest.mark.parametrize("argv", [
    ["sperner", "sweep", "--n-values", "30"],
    ["xi-coupling", "--resolution", "4"],
    ["firework", "--eps", "0.9"],
    ["xi-coupling", "--eps", "0.9"],
    ["scaling", "--d", "2", "--n-values", "20000", "20001", "20002",
     "20003", "--replicates", "30"],
    ["goodcubes", "--s", "8", "--cs-n", "100"],
    ["goodcubes", "--cs-k", "9"],
    ["goodcubes", "--alphas", "1.5"],
    ["goodcubes", "--theta", "1.2"],
    ["goodcubes", "--b", "0"],
    ["firework", "--runs", "0"],
    ["xi-coupling", "--runs", "0"],
    ["firework", "--k-min", "2", "--k-max", "1"],
    ["dim", "--n", "16", "--scales", "9", "10"],
    ["sperner", "sweep", "--n-values", "6", "--families-per-n", "2",
     "--p-values", "1"],
    ["sperner", "sweep", "--p-values", "0"],
    ["sperner", "sweep", "--p-values", "3/2"],
    ["sperner", "sweep", "--families-per-n", "0"],
    ["sperner", "sweep", "--target-size", "0"],
    ["xi-coupling", "--max-subset-size", "0"],
    ["firework", "--k-min", "0"],
    ["goodcubes", "--a-s", "0"],
], ids=lambda argv: " ".join(argv))
def test_cli_refuses_layer_bounds_before_any_output(tmp_path, capsys, argv):
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("key, model, seed", [
    ("d", {"d": 4}, 1), ("d", {"d": 0}, 1), ("beta", {"beta": -1}, 1),
    ("beta", {"beta": 0.0}, 1), ("seed", {}, -1), ("seed", {}, 2 ** 64),
    ("d", {"d": "two"}, 1), ("beta", {"beta": "high"}, 1),
    ("seed", {}, 1.5), ("seed", {}, True), ("d", {"d": 1.7}, 1),
    ("d", {"d": True}, 1), ("beta", {"beta": True}, 1),
])
def test_bad_model_value_fails_before_any_output(tmp_path, key, model,
                                                 seed):
    out = tmp_path / "run"
    with pytest.raises(ConfigError, match=key):
        run(parse_config({"kind": "sample", "seed": seed, "out": str(out),
                          "model": model, "params": {"n": 8}}))
    assert not out.exists()


def test_scaling_row_count_contract(tmp_path):
    cfg = parse_config({
        "kind": "scaling", "seed": 1, "out": str(tmp_path / "r"),
        "model": {"d": 1, "beta": 1.0},
        "params": {"n_values": [8, 16, 32, 64, 128], "replicates": 50}})
    run(cfg)
    lines = (tmp_path / "r" / "medians.csv").read_text().strip().split("\n")
    assert len(lines) == 6  # header + 5 ladder rows


def test_failed_run_removes_outputs(tmp_path, monkeypatch):
    # the atom trend fails after the ladder's data files are written
    def fail(ecdfs):
        raise ValueError("atom trend failed")

    monkeypatch.setattr("lrplab.experiments.atom_trend", fail)
    cfg = parse_config({
        "kind": "scaling", "seed": 1, "out": str(tmp_path / "bad"),
        "params": {"n_values": [8, 16, 32, 64], "replicates": 30}})
    with pytest.raises(ValueError, match="atom trend"):
        run(cfg)
    files = {p.name for p in (tmp_path / "bad").iterdir()}
    assert files == {"manifest.json"}
    manifest = json.loads((tmp_path / "bad" / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert "error" in manifest and manifest["error"]


def test_failed_write_keeps_old_file(tmp_path):
    target = tmp_path / "out.json"
    write_json(target, {"a": 1})
    before = target.read_bytes()
    with pytest.raises(TypeError):
        write_json(target, {"a": 1, "z": object()})
    assert target.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_report_empty_dir_integrity_error(tmp_path):
    with pytest.raises(IntegrityError):
        report(tmp_path / "nothing")


def test_report_checksum_mismatch(tmp_path):
    run(_scaling_config(tmp_path, "a"))
    target = tmp_path / "a" / "medians.csv"
    target.write_text(target.read_text() + "tampered\n")
    with pytest.raises(IntegrityError, match="medians.csv"):
        verify_run(tmp_path / "a")


def test_report_schema_scaling(tmp_path):
    run(_scaling_config(tmp_path, "a"))
    produced = report(tmp_path / "a")
    fig = tmp_path / "a" / "figure_scaling.tsv"
    assert fig in produced
    lines = fig.read_text().strip().split("\n")
    assert lines[0].split("\t") == ["x", "y", "ci_lo", "ci_hi"]
    assert len(lines) == 5


def test_report_schema_dim(tmp_path):
    cfg = parse_config({
        "kind": "dim", "seed": 2, "out": str(tmp_path / "d"),
        "model": {"d": 1, "beta": 1.0},
        "params": {"n": 64, "geodesics": 10, "scales": [2, 3, 4, 5],
                   "theta_source": "manual", "theta": 0.45}})
    run(cfg)
    report(tmp_path / "d")
    fig = tmp_path / "d" / "figure_dim.tsv"
    lines = fig.read_text().strip().split("\n")
    assert lines[0].split("\t") == ["x", "y", "ci_lo", "ci_hi"]
    assert len(lines) == 5


def test_load_config_round_trip(tmp_path):
    doc = {"kind": "sample", "out": str(tmp_path / "x"), "seed": 1,
           "jobs": 1, "model": {"d": 1, "beta": 0.5}, "params": {"n": 32}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert load_config(path).to_dict() == doc


# ---------------------------------------------------------------------------
# CLI


def test_cli_sample_and_env_precedence(tmp_path, monkeypatch):
    monkeypatch.setenv("LRPLAB_SEED", "123")
    out = tmp_path / "env_run"
    assert main(["sample", "--out", str(out), "--n", "32"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 123  # env fills the default
    out2 = tmp_path / "flag_run"
    assert main(["sample", "--out", str(out2), "--n", "32",
                 "--seed", "7"]) == 0
    manifest2 = json.loads((out2 / "manifest.json").read_text())
    assert manifest2["config"]["seed"] == 7  # flag beats env


def test_cli_config_beats_env(tmp_path, monkeypatch):
    monkeypatch.setenv("LRPLAB_SEED", "123")
    doc = {"kind": "sample", "out": str(tmp_path / "c"), "seed": 55,
           "params": {"n": 32}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["sample", "--config", str(cfg)]) == 0
    manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 55


def test_cli_unknown_param_error(tmp_path, capsys):
    doc = {"kind": "sample", "out": str(tmp_path / "c"),
           "params": {"m": 32}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["sample", "--config", str(cfg)]) == 2
    assert "m" in capsys.readouterr().err


def test_cli_sperner_check_and_bound(tmp_path, capsys):
    fam = tmp_path / "fam.txt"
    fam.write_text("n=4\n1,2\n1,3\n2,3\n")
    assert main(["sperner", "check", str(fam)]) == 0
    out = capsys.readouterr().out
    assert "sperner=True" in out
    assert main(["sperner", "bound", str(fam), "--p", "1/2"]) == 0
    out = capsys.readouterr().out
    assert "lym <= 4: True" in out


@pytest.mark.parametrize("text, p, named", [
    ("n=4\n1,2\n1,3\n2,3\n", "2", "p must be strictly between"),
    ("n=4\n1,2\n1,3\n2,3\n", "0", "p must be strictly between"),
    ("n=2\n\n1\n2\n1,2\n", "1/2", "not Sperner"),
], ids=["p-above-1", "p-zero", "not-sperner"])
def test_cli_sperner_bound_refusals(tmp_path, capsys, text, p, named):
    fam = tmp_path / "fam.txt"
    fam.write_text(text)
    assert main(["sperner", "bound", str(fam), "--p", p]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


def test_cli_sperner_check_rejects_power_set(tmp_path):
    fam = tmp_path / "fam.txt"
    subsets = [""] + [",".join(map(str, s)) for s in
                      [(1,), (2,), (1, 2)]]
    fam.write_text("n=2\n" + "\n".join(subsets) + "\n")
    assert main(["sperner", "check", str(fam)]) == 1


def test_cli_report(tmp_path, capsys):
    assert main(["sample", "--out", str(tmp_path / "s"), "--n", "32",
                 "--seed", "3"]) == 0
    assert main(["report", str(tmp_path / "s")]) == 0


def test_cli_repeat_run_byte_identical(tmp_path):
    for sub in ("r1", "r2"):
        assert main(["firework", "--out", str(tmp_path / sub),
                     "--seed", "11"]) == 0
    assert _data_bytes(tmp_path / "r1") == _data_bytes(tmp_path / "r2")


def test_goodcubes_outputs_with_cs_counts(tmp_path):
    cfg = parse_config({
        "kind": "goodcubes", "seed": 6, "out": str(tmp_path / "gc"),
        "model": {"d": 1, "beta": 1.0},
        "params": {"s": 16, "alphas": [0.5, 0.25], "b": 0.25,
                   "theta": 0.45, "replicates": 100, "cs_n": 128,
                   "cs_k": 4, "cs_replicates": 20}})
    manifest = run(cfg)
    assert {"goodcubes.csv", "goodcubes.json", "cs_counts.csv"} <= \
        set(manifest.outputs)
    lines = (tmp_path / "gc" / "cs_counts.csv").read_text().strip()
    rows = [ln.split(",") for ln in lines.split("\n")[1:]]
    assert len(rows) == 4
    assert all(float(r[1]) <= float(r[2]) for r in rows)
    report(tmp_path / "gc")
    fig = (tmp_path / "gc" / "figure_goodcubes.tsv").read_text()
    assert fig.startswith("x\ty\tci_lo\tci_hi")


def test_sperner_sweep_experiment(tmp_path):
    cfg = parse_config({
        "kind": "sperner", "seed": 2, "out": str(tmp_path / "sp"),
        "params": {"n_values": [4, 6, 8], "families_per_n": 20}})
    run(cfg)
    lines = (tmp_path / "sp" / "sperner.csv").read_text().strip().split("\n")
    assert len(lines) == 4
    assert all(row.endswith(",1") for row in lines[1:])  # chains hold


@pytest.mark.parametrize("kind", ["firework", "xi-coupling"])
def test_params_beta_rejected(tmp_path, kind):
    # model.beta is the one beta
    with pytest.raises(ConfigError, match="beta"):
        parse_config({"kind": kind, "out": str(tmp_path),
                      "params": {"beta": 5.0}})


def test_cli_env_replicates_only_where_taken(tmp_path, monkeypatch):
    monkeypatch.setenv("LRPLAB_REPLICATES", "40")
    assert main(["sample", "--out", str(tmp_path / "s"), "--n", "16"]) == 0
    assert main(["scaling", "--out", str(tmp_path / "sc"), "--n-values",
                 "8", "16", "32", "64"]) == 0
    manifest = json.loads((tmp_path / "sc" / "manifest.json").read_text())
    assert manifest["config"]["params"]["replicates"] == 40


def test_cli_replicates_flag_rejected_where_not_taken(tmp_path, capsys):
    # sample takes no replicates, so it offers no --replicates flag
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--out", str(tmp_path / "s"), "--n", "16",
              "--replicates", "40"])
    assert exc.value.code == 2
    assert "replicates" in capsys.readouterr().err


@pytest.mark.parametrize("var", ["LRPLAB_SEED", "LRPLAB_JOBS",
                                 "LRPLAB_REPLICATES"])
def test_cli_malformed_env_integer_named(tmp_path, monkeypatch, capsys,
                                         var):
    monkeypatch.setenv(var, "abc")
    assert main(["sample", "--out", str(tmp_path / "s"), "--n", "8"]) == 2
    assert var in capsys.readouterr().err


def test_stream_tags_distinct_from_distance_keys():
    values = [int(t) for t in Tag]
    assert len(set(values)) == len(values)
    # sample_distances keys start with its box factor, 3 or 5; 0 is the
    # default stream
    assert not {0, 3, 5} & set(values)


_LADDER = {"n_values": [8, 16, 32, 64], "replicates": 30}


@pytest.mark.parametrize("kind,params", [
    ("sample", {"n": 32}),
    ("scaling", _LADDER),
    ("dim", {"n": 64, "geodesics": 3, "scales": [2, 3, 4, 5],
             "theta_source": "fit", **_LADDER}),
    ("dim", {"n": 64, "geodesics": 3, "scales": [2, 3, 4, 5],
             "theta_source": "manual", "theta": 0.45}),
    ("goodcubes", {"s": 8, "alphas": [0.5, 0.25], "replicates": 100,
                   "a_s_replicates": 30, "cs_n": 64, "cs_k": 3,
                   "cs_replicates": 5}),
    ("sperner", {"n_values": [4, 6], "families_per_n": 5}),
    ("firework", {"runs": 200, "k_min": 1, "k_max": 4}),
    ("xi-coupling", {"runs": 200, "max_subset_size": 2}),
], ids=["sample", "scaling", "dim-fit", "dim-manual", "goodcubes",
        "sperner", "firework", "xi-coupling"])
def test_rng_streams_count_built_generators(tmp_path, monkeypatch, kind,
                                            params):
    built = []
    real = RngStream.generator
    monkeypatch.setattr(RngStream, "generator",
                        lambda self: built.append(self) or real(self))
    manifest = run(parse_config({
        "kind": kind, "seed": 3, "out": str(tmp_path / "r"), "jobs": 1,
        "model": {"d": 1, "beta": 1.0}, "params": params}))
    assert manifest.rng_streams == len(built)
    assert json.loads((tmp_path / "r" / "manifest.json").read_text())[
        "rng_streams"] == len(built)


@pytest.fixture
def executors(monkeypatch):
    """The executors a test makes, each a real spawned pool; two CPUs
    are reported, so a jobs-2 run gets two workers anywhere."""
    import concurrent.futures
    made = []
    real = concurrent.futures.ProcessPoolExecutor

    class Spy(real):
        def __init__(self, *args, **kwargs):
            made.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    return made


def test_rng_streams_count_pool_workers(tmp_path, executors):
    import multiprocessing
    streams = [run(parse_config({
        "kind": "scaling", "seed": 3, "out": str(tmp_path / f"j{jobs}"),
        "jobs": jobs, "model": {"d": 1, "beta": 1.0},
        "params": _LADDER})).rng_streams for jobs in (1, 2)]
    # 4 ladder points x 30 replicates, 30 boundary-probe replicates and
    # the one bootstrap of the ladder
    assert streams == [151, 151]
    # the five map calls of the jobs-2 run share one executor, and its
    # workers are gone once the run returns
    assert executors == [2]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("kind, params, loops", [
    ("scaling", _LADDER, [(3, 0), (3, 1), (3, 2), (3, 3), (5, 0)]),
    ("dim", {"n": 16, "geodesics": 2, "scales": [1, 2],
             "theta_source": "fit", **_LADDER},
     [(3, 0), (3, 1), (3, 2), (3, 3), (5, 0), (Tag.DIM_SAMPLE,)]),
    ("dim", {"n": 16, "geodesics": 2, "scales": [1, 2],
             "theta_source": "manual", "theta": 0.5}, [(Tag.DIM_SAMPLE,)]),
    ("goodcubes", {"s": 8, "alphas": [0.5], "replicates": 100,
                   "a_s_replicates": 30, "cs_n": 32, "cs_k": 2,
                   "cs_replicates": 3},
     [(3, Tag.A_S_PROBE), (Tag.GOOD_CUBE_SAMPLE,),
      (Tag.CONNECTED_SET_SAMPLE,)]),
], ids=["scaling", "dim-fit", "dim-manual", "goodcubes"])
def test_every_replicate_loop_takes_jobs(tmp_path, monkeypatch, kind,
                                         params, loops):
    # each loop over replicates goes through `map_replicates` while the
    # run's pool of `jobs` workers is open; the spy runs it serially
    from lrplab import dimension, experiments, graph, scaling
    calls = []

    def spy(config, keys, fn):
        calls.append((keys[0][:-1], graph._workers))
        with graph.replicate_pool(1):
            return graph.map_replicates(config, keys, fn)

    for module in (scaling, dimension, experiments):
        monkeypatch.setattr(module, "map_replicates", spy)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    run(parse_config({
        "kind": kind, "seed": 3, "out": str(tmp_path / "r"), "jobs": 3,
        "model": {"d": 1, "beta": 1.0}, "params": params}))
    assert calls == [(loop, 3) for loop in loops]
    assert graph._workers == 1


def test_failed_parallel_run_stops_its_workers(tmp_path, monkeypatch,
                                               executors):
    import multiprocessing
    from lrplab import experiments

    def fail(*args, **kwargs):
        raise RuntimeError("fit failed")

    monkeypatch.setattr(experiments, "mean_dimension_fit", fail)
    out = tmp_path / "d"
    with pytest.raises(RuntimeError, match="fit failed"):
        run(parse_config({
            "kind": "dim", "seed": 3, "out": str(out), "jobs": 2,
            "model": {"d": 1, "beta": 1.0},
            "params": {"n": 16, "geodesics": 2, "scales": [1, 2],
                       "theta_source": "fit", **_LADDER}}))
    assert executors == [2]
    assert multiprocessing.active_children() == []
    # the ladder's files were written, then removed with the failure
    assert [f.name for f in out.iterdir()] == ["manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"] == "RuntimeError: fit failed"


def test_d1_dim_fit_calls_no_linalg(tmp_path, monkeypatch):
    # the ladder's fits are closed forms and the d=1 kernel needs no
    # quadrature rule, so a d=1 `dim` run reaches no LAPACK routine
    import numpy as np

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called")

    for name in np.linalg.__all__:
        if callable(getattr(np.linalg, name)) and name != "LinAlgError":
            monkeypatch.setattr(np.linalg, name, refuse)
    run(parse_config({
        "kind": "dim", "seed": 3, "out": str(tmp_path / "d"),
        "model": {"d": 1, "beta": 1.0},
        "params": {"n": 32, "geodesics": 3, "scales": [2, 3, 4],
                   "theta_source": "fit", **_LADDER}}))
    assert json.loads((tmp_path / "d" / "theta.json").read_text())[
        "theta_hat"] > 0


# run in a fresh interpreter: the CLI imports no scipy, and once
# lrplab.experiments is imported no run imports anything more, so a
# run's time is its own work.  `scaling` is left out: its Spearman
# p-value imports scipy.stats.
_COLD_START = """
import json, sys
import lrplab.cli
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
from lrplab.experiments import parse_config, run
before = set(sys.modules)
for i, (kind, d, params) in enumerate(json.loads(sys.argv[2])):
    run(parse_config({"kind": kind, "seed": 3, "out": f"{sys.argv[1]}/{i}",
                      "model": {"d": d, "beta": 1.0}, "params": params}))
polynomial = sorted(m for m in sys.modules if m.startswith("numpy.polynomial"))
print(json.dumps([scipy, sorted(set(sys.modules) - before), polynomial]))
"""


def test_runs_import_nothing_past_the_package(tmp_path):
    runs = [("dim", 1, {"n": 16, "geodesics": 2, "scales": [1, 2],
                        "theta_source": "fit", **_LADDER}),
            ("dim", 2, {"n": 6, "geodesics": 2, "scales": [0, 1],
                        "theta_source": "manual", "theta": 0.5}),
            ("sample", 1, {"n": 32}),
            ("goodcubes", 1, {"s": 8, "alphas": [0.5], "replicates": 100,
                              "a_s_replicates": 30, "cs_n": 64, "cs_k": 3,
                              "cs_replicates": 5}),
            ("sperner", 1, {"n_values": [4], "families_per_n": 5}),
            ("firework", 1, {"runs": 200, "k_min": 1, "k_max": 4}),
            ("xi-coupling", 1, {"runs": 200, "max_subset_size": 2})]
    src = str(Path(lrplab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START, str(tmp_path), json.dumps(runs)],
        env=env, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    scipy, added, polynomial = json.loads(proc.stdout.splitlines()[-1])
    assert scipy == []
    assert added == []
    # the kernel builds its Gauss-Legendre rule without numpy.polynomial
    assert polynomial == []


# each kind's parameters, {name: (type, default)}: a new parameter or a
# changed default is a visible edit here
PARAMETERS = {
    "sample": {"n": (int, 256)},
    "scaling": {"n_values": (list[int], REQUIRED), "replicates": (int, 50)},
    "dim": {"n": (int, 2048), "geodesics": (int, 100),
            "scales": (list[int], [2, 3, 4, 5, 6]),
            "theta_source": (str, "fit"), "theta": (float | None, None),
            "n_values": (list[int], [32, 64, 128, 256, 512, 1024, 2048]),
            "replicates": (int, 200)},
    "goodcubes": {"s": (int, 32), "alphas": (list[float], [0.5, 0.25, 0.1]),
                  "b": (float, 0.25), "theta": (float, 0.45),
                  "a_s": (float | None, None), "replicates": (int, 400),
                  "a_s_replicates": (int, 200), "cs_n": (int | None, None),
                  "cs_k": (int, 5), "cs_replicates": (int, 100)},
    "sperner": {"n_values": (list[int], list(range(4, 21))),
                "families_per_n": (int, 100),
                "p_values": (list[Fraction], [Fraction(1, 4), Fraction(1, 2),
                                              Fraction(3, 4)]),
                "generator": (str, "antichain-low"),
                "target_size": (int | None, None)},
    "firework": {"eps": (float, 1e-9), "theta": (float, 0.5),
                 "c_star1": (float, 0.5), "c2": (float, 1.0),
                 "k_min": (int, 2), "k_max": (int, 12),
                 "runs": (int, 10 ** 5)},
    "xi-coupling": {"eps": (float, 1e-12), "theta": (float, 0.5),
                    "c_star1": (float, 0.5), "resolution": (int, 8),
                    "runs": (int, 10 ** 4),
                    "max_subset_size": (int | None, None)},
}


@pytest.mark.parametrize("kind", sorted(PARAMETERS))
def test_parameters_pinned(kind):
    assert dict(parameters(kind)) == PARAMETERS[kind]
    assert parameters(kind) is parameters(kind)      # read once


def test_given_params_cast_and_round_trip(tmp_path):
    doc = {"kind": "sperner", "out": str(tmp_path / "sp"), "seed": "2",
           "jobs": 1.0, "model": {"d": "1", "beta": "0.5"},
           "params": {"n_values": ["4", 5], "p_values": [0.1, "1/3"],
                      "target_size": None}}
    config = parse_config(doc)
    assert config.to_dict() == {
        "kind": "sperner", "out": str(tmp_path / "sp"), "seed": 2,
        "jobs": 1, "model": {"d": 1, "beta": 0.5},
        "params": {"n_values": [4, 5],
                   "p_values": [Fraction(1, 10), Fraction(1, 3)],
                   "target_size": None}}
    run(config)
    manifest = json.loads((tmp_path / "sp" / "manifest.json").read_text())
    assert manifest["config"]["params"]["p_values"] == ["1/10", "1/3"]
    assert parse_config(manifest["config"]) == config


@pytest.mark.parametrize("argv, expected", [
    (["sample", "--n", "32", "--seed", "5", "--jobs", "2", "--d", "2",
      "--beta", "1.5"],
     {"kind": "sample", "seed": 5, "jobs": 2, "model": {"d": 2, "beta": 1.5},
      "params": {"n": 32}}),
    (["scaling", "--n-values", "8", "16", "32", "64", "--replicates", "40"],
     {"kind": "scaling", "params": {"n_values": [8, 16, 32, 64],
                                   "replicates": 40}}),
    (["dim", "--n", "16", "--scales", "1", "2", "--theta-source", "manual",
      "--theta", "0.5", "--replicates", "7"],
     {"kind": "dim", "params": {"n": 16, "replicates": 7, "scales": [1, 2],
                                "theta": 0.5, "theta_source": "manual"}}),
    (["goodcubes", "--s", "8", "--alpha", "0.5", "0.25", "--b", "0.3",
      "--theta", "0.4", "--replicates", "100"],
     {"kind": "goodcubes", "params": {"alphas": [0.5, 0.25], "b": 0.3,
                                      "replicates": 100, "s": 8,
                                      "theta": 0.4}}),
    (["firework", "--eps", "1e-6", "--theta", "0.6", "--c-star1", "0.4",
      "--c2", "2"],
     {"kind": "firework", "params": {"c2": 2.0, "c_star1": 0.4, "eps": 1e-6,
                                     "theta": 0.6}}),
    (["xi-coupling", "--eps", "1e-9", "--theta", "0.5", "--c-star1", "0.3",
      "--resolution", "12", "--runs", "100"],
     {"kind": "xi-coupling", "params": {"c_star1": 0.3, "eps": 1e-9,
                                        "resolution": 12, "runs": 100,
                                        "theta": 0.5}}),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_cli_flags_give_the_same_config(monkeypatch, argv, expected):
    # the configs the hand-written flags of earlier versions gave
    for var in ("SEED", "OUT", "JOBS", "REPLICATES"):
        monkeypatch.delenv("LRPLAB_" + var, raising=False)
    argv = argv[:1] + ["--out", "o"] + argv[1:]
    config = _assemble(_build_parser().parse_args(argv), argv[0])
    assert config.to_dict() == {"seed": 0, "out": "o", "jobs": 1,
                                "model": {"d": 1, "beta": 1.0}, **expected}


@pytest.mark.parametrize("kind", sorted(PARAMETERS))
def test_cli_has_a_flag_per_parameter(capsys, kind):
    with pytest.raises(SystemExit):
        main([kind, "--help"])
    text = capsys.readouterr().out
    for name, (_, default) in PARAMETERS[kind].items():
        assert "--" + name.replace("_", "-") in text
    assert "default: 0" in text and "required" in text     # --seed, --out


@pytest.mark.parametrize("flags, key", [
    (["--d", "4"], "d"), (["--beta", "-1"], "beta"),
    (["--n", "eight"], "n"), (["--seed", "-3"], "seed"),
    (["--jobs", "two"], "jobs"),
])
def test_cli_bad_value_exit_2_before_output(tmp_path, capsys, flags, key):
    out = tmp_path / "s"
    assert main(["sample", "--out", str(out), "--n", "8", *flags]) == 2
    assert capsys.readouterr().err.startswith(f"error: {key}")
    assert not out.exists()


def test_cli_config_value_that_does_not_convert(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "sample", "out": str(tmp_path / "s"),
                               "jobs": "two", "params": {"n": 8}}))
    assert main(["sample", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: jobs")
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("text, named", [
    (None, "No such file"), ("{\"kind\": ", "cannot read config"),
    ("[1, 2]", "must be dict"), ('{"params": [1]}', "params"),
], ids=["missing", "not-json", "not-object", "params-not-object"])
def test_cli_bad_config_file(tmp_path, capsys, text, named):
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    assert main(["sample", "--out", str(tmp_path / "s"), "--config",
                 str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("text, named", [
    ("n=x\n1\n", "line 1"), ("n=3\n1,2\n9\n", "line 3: element 9"),
    ("1,2\n", "line 1"), ("n=3\n1,a\n", "line 2"), (None, "No such file"),
], ids=["bad-n", "element-outside", "no-header", "bad-element", "missing"])
@pytest.mark.parametrize("action", ["check", "bound"])
def test_cli_bad_family_file(tmp_path, capsys, text, named, action):
    fam = tmp_path / "fam.txt"
    if text is not None:
        fam.write_text(text)
    assert main(["sperner", action, str(fam)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
