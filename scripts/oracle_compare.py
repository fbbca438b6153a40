#!/usr/bin/env python3
"""Probe-by-probe comparison of the FE kernel against the cube series oracle.

Emits a CSV of (radius, direction index, fe value, oracle value, rel err) for
direct diffing against oracle sample tables.

    python3 scripts/oracle_compare.py --n 24 --cutoff 24 --out compare.csv
"""

import argparse
import csv
import sys

import numpy as np

from neumannlab.coeff import Identity, make_coefficient
from neumannlab.kernel import build_kernel
from neumannlab.mesh import build_box_mesh
from neumannlab.oracle import cube_neumann_series_batch
from neumannlab.solve import SolveConfig

CENTER = np.array([0.5, 0.5, 0.5])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=24)
    ap.add_argument("--cutoff", type=int, default=20)
    ap.add_argument("--directions", type=int, default=12)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="oracle_compare.csv")
    args = ap.parse_args(argv)

    mesh = build_box_mesh((1, 1, 1), args.n)
    kern = build_kernel(mesh, make_coefficient(Identity()), CENTER, SolveConfig())
    rng = np.random.default_rng(args.seed)
    dirs = rng.standard_normal((args.directions, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = np.geomspace(4 * mesh.h, 0.25, 5)

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["radius", "direction", "fe", "oracle", "rel_err"])
        worst = 0.0
        for r in radii:
            probes = CENTER + r * dirs
            fe = kern.magnitude_at(probes)
            oracle = np.abs(cube_neumann_series_batch(probes, CENTER, args.cutoff))
            rel = np.abs(fe - oracle) / oracle
            worst = max(worst, rel.max())
            for d in range(len(dirs)):
                writer.writerow([repr(r), d, repr(fe[d]), repr(oracle[d]), repr(rel[d])])
    print(f"wrote {args.out}; worst rel err {worst:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
