"""Golden bytes: small runs of each sampling kind at seed 3 reproduce
recorded data files and generator counts.

The digests were recorded before replicates were sampled in batches,
from one-at-a-time sampling, so they pin that the batched sampler draws
the same bytes.  The d >= 2 digests were recorded again when a class
came to draw the edges of all its members in one binomial call, and
its integrals to be summed row by row.  The three `graph.lrpg` digests
were recorded again when the file gained its CRC-32 trailer (version
2).  A change that alters the RNG stream layout on purpose updates them
and says so.
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
        "graph.lrpg": "936c60603249bf09686eac3f8e483894"
                      "5b891497dbee9606bd0f753d4786a8bb",
        "edges.txt": "c8758c0fa7d45933ba20bf855050940c"
                     "f17a90701979923790e1460da20618d0"}, 1),
    "sample-d2": ("sample", 2, 1, {"n": 24}, {
        "graph.lrpg": "3ba198881340b4bb0ba6ccc632eef4fb"
                      "81703810758501ea33705a229c431801",
        "edges.txt": "dabe553c1ffdd85d95caa3c54207d23f"
                     "568e9760a87ed2ab919e8aaaac8fbd65"}, 1),
    "sample-d3": ("sample", 3, 1, {"n": 10}, {
        "graph.lrpg": "0a41449bff8004ab522d683854167468"
                      "78e231708fa41190847a4e4be8222cc5",
        "edges.txt": "c5af06c0a0d40a66a724318d903dac0e"
                     "2f50a710c73fd1c9405e04c12c8e70dd"}, 1),
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
        "dim.csv": "1434244e19643227147712359fd220a8"
                   "09db7f805acad7b3e1c12a40dd1fe137",
        "dim.json": "4fea58fa7f19457bdbb61d13e032448f"
                    "871d14fbcd0b0212c293ae8ab63f6305",
        "uniqueness.csv": "43050c217b1807ba3d9195d6d31823c9"
                          "b8b8ab6b5610b66588724e84897da88a"}, 6),
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
