#!/usr/bin/env python3
"""Geodesic box-counting dimension against the fitted distance exponent.

Runs `lrplab dim` with the study's presets: the median ladder, geodesics
sampled at the largest box, the box-counting slope over dyadic scales
and |dim_hat - theta_hat|; then `lrplab report` on the run directory.
Every flag of `lrplab dim` is taken and follows the presets, so it wins:

    python scripts/run_dimension_study.py --n 64 --geodesics 5 --out runs/d
"""

import sys

from lrplab.cli import _build_parser, main

PRESETS = ["dim", "--out", "runs/dim", "--seed", "88", "--n", "2048",
           "--geodesics", "100", "--scales", "2", "3", "4", "5", "6",
           "--theta-source", "fit", "--replicates", "200"]

if __name__ == "__main__":
    argv = PRESETS + sys.argv[1:]
    sys.exit(main(argv) or main(["report",
                                 _build_parser().parse_args(argv).out]))
