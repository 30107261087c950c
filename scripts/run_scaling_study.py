#!/usr/bin/env python3
"""Distance-exponent ladder study: medians, theta fit, atom trend.

Runs `lrplab scaling` with the study's presets, writing medians.csv,
ecdf_<n>.csv, theta.json, atoms.csv plus a manifest into the run
directory, then `lrplab report` on it for the plot-ready TSVs.  Every
flag of `lrplab scaling` is taken and follows the presets, so it wins:

    python scripts/run_scaling_study.py --n-values 8 16 32 --out runs/s
"""

import sys

from lrplab.cli import _build_parser, main

PRESETS = ["scaling", "--out", "runs/scaling", "--seed", "88",
           "--n-values", "32", "64", "128", "256", "512", "1024", "2048",
           "--replicates", "200"]

if __name__ == "__main__":
    argv = PRESETS + sys.argv[1:]
    sys.exit(main(argv) or main(["report",
                                 _build_parser().parse_args(argv).out]))
