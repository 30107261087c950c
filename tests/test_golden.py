"""Golden bytes: small runs of each sampling kind at seed 3 reproduce
recorded data files and generator counts.

The digests were recorded before replicates were sampled in batches,
from one-at-a-time sampling, so they pin that the batched sampler draws
the same bytes.  A change that alters the RNG stream layout on purpose
updates them and says so.
"""

import pytest

from lrplab.experiments import parse_config, run

_LADDER = {"n_values": [8, 16, 32, 64], "replicates": 30}

# the ladder's files, shared by `scaling` and `dim` with a fitted theta
_FIT = {
    "ecdf_8.csv":
        "016baa7e501808050c467ebb99134a250adc0500e5cf1c5c5a42552fde3332da",
    "ecdf_16.csv":
        "e4a9495ad81ac2a909d6792e6ea9e81c506dde1f83040ec61625715d18ebf851",
    "ecdf_32.csv":
        "7c9bf767fb9cff604e704ca7cc609ef7184d322b276160aafc722b4158d32f86",
    "ecdf_64.csv":
        "a9bb94556c6e1c845c21fc6e7d2bfbe8a1af3ac9ffbf789197ecc105ff6b3293",
    "medians.csv":
        "edc19ae6305dc53f70677ccaf938558429ecde5cc1849cfa67c9044fba51ccae",
    "theta.json":
        "c3a2a569987ca7ff940112cfd9042be9a7558bfb755256273ecf6424c8d09e40",
}
_SCALING = {
    **_FIT,
    "atoms.csv":
        "01082bf65f251e452dc2dc986232e57b86f49a157f7c72e102bb53bad907d829",
    "atom_trend.json":
        "6883dbe9883738b60cddb563270b7fa996ef20625861f708c4c17934b92ddb0e",
}

# (kind, d, jobs, params, {file: sha256}, rng_streams)
GOLDEN = {
    "sample-d1": ("sample", 1, 1, {"n": 256}, {
        "graph.lrpg": "687f2e259e18e51cf30e00cb47177450"
                      "f581aa362af2589bb65a7311bf9a2071",
        "edges.txt": "c8758c0fa7d45933ba20bf855050940c"
                     "f17a90701979923790e1460da20618d0"}, 1),
    "sample-d2": ("sample", 2, 1, {"n": 24}, {
        "graph.lrpg": "47c5b1e3fdf127c12ba6db8017fe240a"
                      "dab3f861d51d990766893b9100d87384",
        "edges.txt": "70eb2334c1ee74b6f065fd41ce7f1c3e"
                     "67a07076f1f0d396b9c9e26be15c2768"}, 1),
    "sample-d3": ("sample", 3, 1, {"n": 10}, {
        "graph.lrpg": "3b1879be61b86d08af4e53485b8fb424"
                      "dadedacc6444a1fdd8bb2b97c30b5c4a",
        "edges.txt": "1311e47024e895c1dc66aa7dbbfdb8ba"
                     "b83b7377fa4ed00565dd77b5fba0dab4"}, 1),
    "scaling-jobs1": ("scaling", 1, 1, _LADDER, _SCALING, 155),
    "scaling-jobs2": ("scaling", 1, 2, _LADDER, _SCALING, 155),
    "dim-d1-fit": ("dim", 1, 1, {"n": 64, "geodesics": 3,
                                 "scales": [2, 3, 4, 5],
                                 "theta_source": "fit", **_LADDER}, {
        **_FIT,
        "dim.csv": "db458b3b839e3d7d1ef9303f275a7427"
                   "9d6765ba4906d745d509362cc75594e1",
        "dim.json": "14eb5d5a6c50b6ae0448ad9b2db20564"
                    "c30af51bd86a8f042d670fa72b813946",
        "uniqueness.csv": "a08cdaf3733fe99a9efa5c36cd829790"
                          "6ab026fe2beccf0e6c21987e35191012"}, 161),
    "dim-d2-manual": ("dim", 2, 1, {"n": 8, "geodesics": 3,
                                    "scales": [0, 1, 2, 3],
                                    "theta_source": "manual",
                                    "theta": 0.5}, {
        "dim.csv": "a2ba177f6c67fa27d6667e053daf0d40"
                   "3838015e4198b655cf351c6a1b2ef12b",
        "dim.json": "15d28ca04abb5c0ab7e62c1ac4e187b2"
                    "53ce198421106323e8252e2ed2baf68b",
        "uniqueness.csv": "cf47f40dd69d08781b0af96dec0f3e1b"
                          "6bb6165e811119c592149a1853dc0fd2"}, 6),
    "goodcubes": ("goodcubes", 1, 1, {"s": 8, "alphas": [0.5, 0.25],
                                      "replicates": 100,
                                      "a_s_replicates": 30, "cs_n": 64,
                                      "cs_k": 3, "cs_replicates": 5}, {
        "goodcubes.csv": "95eacad942e39c0f52b9ef8a770317ad"
                         "e7a43c928377532480fafe2973e37e2e",
        "goodcubes.json": "e0a897fac772e6c985b3be1b1dea17de"
                          "2280436bb850fc04d5a400a5738a46cd",
        "cs_counts.csv": "adca754329a79954ab666673329ea268"
                         "1d322c6351e50454ea40dc768f057465"}, 135),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_bytes(tmp_path, name):
    kind, d, jobs, params, files, streams = GOLDEN[name]
    manifest = run(parse_config({
        "kind": kind, "seed": 3, "out": str(tmp_path / name), "jobs": jobs,
        "model": {"d": d, "beta": 1.0}, "params": params}))
    assert manifest.outputs == files
    assert manifest.rng_streams == streams
