"""Golden bytes: small runs of each experiment kind at seed 3 reproduce
recorded data files and generator counts.

The digests of the sampled kinds were recorded again when positions
came to be drawn by Floyd's algorithm alone (one draw per edge, no
replay of numpy's `choice`); class counts and generator counts kept
their values, and so did `goodcubes.json`, whose median distance a_s
came out the same.  The `sperner`, `firework` and `xi-coupling` digests
were recorded before that change and hold across it.

`medians.csv`, `theta.json`, both configs' `dim.csv` and `dim.json`,
and `firework.csv` were recorded again when the ladder came to take
its medians' CIs from the theta bootstrap (one stream per ladder in
place of one per point, so `rng_streams` fell by the 4 ladder points)
and every line fit became the closed form of `scaling.line_fit`: the
slopes moved in their last bits only.  A change that alters the RNG
stream layout on purpose updates them and says so.
"""

import pytest

from lrplab.experiments import parse_config, run

_LADDER = {"n_values": [8, 16, 32, 64], "replicates": 30}

# the ladder's files, shared by `scaling` and `dim` with a fitted theta
_FIT = {
    "ecdf_8.csv":
        "4e8a9d91fb8a0835d33ff1d9ca51d2c70f6e75f957275d9a0c1bafface7dfb81",
    "ecdf_16.csv":
        "cfb5ca2577a7f57ddd223396464b41826508258d5aa01684309fe5b3dbcd3fbd",
    "ecdf_32.csv":
        "82203353f634c8fd4b2eb37370d6f33854a5947fdfb279ad26c1fe1036ee36d3",
    "ecdf_64.csv":
        "bf56fc88e7e0f4a91d55d06417840a191b8ff2fc9e999c894b192b94c5fd54e3",
    "medians.csv":
        "0e35313a7da8997ce4ab0f94e1b4f052020f984c1c80324b00af04f78ba7fbf5",
    "theta.json":
        "d9d3be28e7c76515358e4bd237ca063fedf363e34c0973f9e8f2b7ee7635ce81",
}
_SCALING = {
    **_FIT,
    "atoms.csv":
        "f96b609015aaf440c9bf1f1ff8b58e9cf22257f4d61ee9dd90911547d7be79ec",
    "atom_trend.json":
        "ced326b8421f2ce16ca21e5e5b7689413018cce63dc8163894fd87ff8f5c100e",
}

# (kind, d, jobs, params, {file: sha256}, rng_streams)
GOLDEN = {
    "sample-d1": ("sample", 1, 1, {"n": 256}, {
        "graph.lrpg": "45921b0a64eaf8b79c4b67f78090dd59"
                      "98a9e78fb7c1c8bea5902df3f5981f21",
        "edges.txt": "2d7bc38d1eebb25e2158e70fb8c30ac8"
                     "95251c6ba0dd19e8dc92aea859d364f9"}, 1),
    "sample-d2": ("sample", 2, 1, {"n": 24}, {
        "graph.lrpg": "053a02439178364862c2f7ad18c9b20c"
                      "7d8a8c41c781a0c782eb7c072fd0c88a",
        "edges.txt": "f7f0c415f2426be365f7a041fdfa8030"
                     "544061cf35b792d35007f2756cd23c68"}, 1),
    "sample-d3": ("sample", 3, 1, {"n": 10}, {
        "graph.lrpg": "86860a2cc81e672f51dad5a88fe15342"
                      "a521ae6af6951e59fcfa7b74e9904f28",
        "edges.txt": "562c8b922474dbe89a6d0eca48d58824"
                     "d33158d5ffe88ff9a0e6fa7a42755118"}, 1),
    "scaling-jobs1": ("scaling", 1, 1, _LADDER, _SCALING, 151),
    "scaling-jobs2": ("scaling", 1, 2, _LADDER, _SCALING, 151),
    "dim-d1-fit": ("dim", 1, 1, {"n": 64, "geodesics": 3,
                                 "scales": [2, 3, 4, 5],
                                 "theta_source": "fit", **_LADDER}, {
        **_FIT,
        "dim.csv": "bb4407de3004f77881adf30bfa65c514"
                   "3dcbe472378af6402f85a95fd4aaffc4",
        "dim.json": "95dafe3821d325670220e72fbf86f6c5"
                    "d51ec418ca97fb67ca7a579be6e42974",
        "uniqueness.csv": "e0cf6c2c70fc392e693db23c8770c8be"
                          "4b2b1a67e99cb20c21060aaec9e0a68c"}, 157),
    "dim-d2-manual": ("dim", 2, 1, {"n": 8, "geodesics": 3,
                                    "scales": [0, 1, 2, 3],
                                    "theta_source": "manual",
                                    "theta": 0.5}, {
        "dim.csv": "5b17580c822cd0b8b3842ce355473b3c"
                   "33d9c469f9a44acfa6b1a52ec69c2c51",
        "dim.json": "b93eff39e373a68613fce2e659deba01"
                    "e65ad4a5e848a84e08bc2ef28baf990f",
        "uniqueness.csv": "9bb6c5e574ca8e0a5a19ca86abcd24c6"
                          "2db37074d915777c932a5c8a7ca6917b"}, 6),
    "goodcubes": ("goodcubes", 1, 1, {"s": 8, "alphas": [0.5, 0.25],
                                      "replicates": 100,
                                      "a_s_replicates": 30, "cs_n": 64,
                                      "cs_k": 3, "cs_replicates": 5}, {
        "goodcubes.csv": "667411b2130184dcea2e7a3d37f603b8"
                         "1bdefd516f764956e31704daabe06a0a",
        "goodcubes.json": "e0a897fac772e6c985b3be1b1dea17de"
                          "2280436bb850fc04d5a400a5738a46cd",
        "cs_counts.csv": "c2f5b041902926062310eafca6d6f6d8"
                         "31112232e86a0e01912175c14cd52690"}, 135),
    "sperner": ("sperner", 1, 1, {"n_values": [4, 5, 6],
                                  "families_per_n": 10}, {
        "sperner.csv": "e778caecee2191bd4a0318cb426486eb"
                       "15ebb82f92de3be0ce353cbfd4141dbf"}, 3),
    "firework": ("firework", 1, 1, {"eps": 1e-6, "k_max": 8,
                                    "runs": 2000}, {
        "ladder.json": "332a4fd17c173c21d45d4d61aa1bda37"
                       "e1028c77432fdf27371b72dbb939e070",
        "crossing.csv": "5860a74eb45466bbe7c7288d44f3e807"
                        "d101dc450007088161ff1ebcaa56d992",
        "firework.csv": "9aefaab64ddb737bc5066f250daa8315"
                        "fe5480338dc3f3f1f7c47d56440be83f"}, 1),
    "xi-coupling": ("xi-coupling", 1, 1, {"eps": 1e-6, "resolution": 8,
                                          "runs": 500,
                                          "max_subset_size": 2}, {
        "xi_marginals.csv": "37285efc44c5239c7c150bbc6190652c"
                            "710d0ac0245c994c0d2e2e99c53df4e1",
        "coupling.csv": "5b5f8eb2a59341d06c92ed485dc45d99"
                        "5700275f4c730e5e05d484301cebbac1"}, 2),
}

# at jobs 2 the replicate loops of `dim` and `goodcubes` are split over a
# process pool, and must give the bytes and generator counts of jobs 1
GOLDEN.update({f"{name}-jobs2": GOLDEN[name][:2] + (2,) + GOLDEN[name][3:]
               for name in ("dim-d1-fit", "dim-d2-manual", "goodcubes")})


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_bytes(tmp_path, name):
    kind, d, jobs, params, files, streams = GOLDEN[name]
    manifest = run(parse_config({
        "kind": kind, "seed": 3, "out": str(tmp_path / name), "jobs": jobs,
        "model": {"d": d, "beta": 1.0}, "params": params}))
    assert manifest.outputs == files
    assert manifest.rng_streams == streams
