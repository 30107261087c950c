import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lrplab
from lrplab.cli import main
from lrplab.experiments import (ConfigError, IntegrityError, load_config,
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


def test_scaling_row_count_contract(tmp_path):
    cfg = parse_config({
        "kind": "scaling", "seed": 1, "out": str(tmp_path / "r"),
        "model": {"d": 1, "beta": 1.0},
        "params": {"n_values": [8, 16, 32, 64, 128], "replicates": 50}})
    run(cfg)
    lines = (tmp_path / "r" / "medians.csv").read_text().strip().split("\n")
    assert len(lines) == 6  # header + 5 ladder rows


def test_failed_run_removes_outputs(tmp_path):
    cfg = parse_config({
        "kind": "scaling", "seed": 1, "out": str(tmp_path / "bad"),
        "params": {"n_values": [16, 8], "replicates": 40}})
    with pytest.raises(ValueError):
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


def test_rng_streams_count_pool_workers(tmp_path):
    streams = [run(parse_config({
        "kind": "scaling", "seed": 3, "out": str(tmp_path / f"j{jobs}"),
        "jobs": jobs, "model": {"d": 1, "beta": 1.0},
        "params": _LADDER})).rng_streams for jobs in (1, 2)]
    # 4 ladder points x 30 replicates, 30 boundary-probe replicates and
    # the one bootstrap of the ladder
    assert streams == [151, 151]


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
