#!/usr/bin/env python3
"""Sweep random direct similarities and tabulate invariance deviations.

For each trial a random similarity is applied to the chosen base curve
and the indicatrix arc lengths, shape curvatures, and (in E^3) Sabban
geodesic curvatures are compared against the untransformed values. The
worst deviation per property and index is printed as a table; all of
them should sit many orders of magnitude below 1e-3. The sweep is
frenetsim.invariance_sweep, the same one `frenetsim verify` runs: each
image keeps the sample grid of the base curve and recomputes its own
frames, curvatures, sigma_i, kt, kt_j and kappa_g, with one derivative
pass over the radii 1/Q_i of all its indices; in E^3 each kappa_g is
read on the sigma_i of its index's signature, not integrated again. The
images share the base curve's jet source and its derivative jet,
evaluated once on that grid and mapped by lambda A D + b, so the sweep
does not test the fit.

Usage:
    python3 scripts/invariance_sweep.py --curve helix --trials 20
    python3 scripts/invariance_sweep.py --curve log_spiral --csv out.csv
"""

import argparse
import math
import sys

import numpy as np

import frenetsim as fs
from frenetsim.curves import _write_table

BASES = {
    "helix": lambda: fs.helix(3.0, 4.0, t_span=(0.0, 5.0)),
    "circle": lambda: fs.circle(2.0),
    "log_spiral": lambda: fs.log_spiral(-0.1),
    "cubic": lambda: fs.custom_poly(
        [[0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0]],
        t_span=(-1.0, 1.0)),
    "selfsim4": lambda: fs.synthesize_self_similar(fs.SelfSimilarSpec(
        dimension=4, index=2, kt=0.1, ktj=(0.7, np.sqrt(0.51), 0.5))),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--curve", choices=sorted(BASES), default="helix")
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--samples", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--csv", help="also write the table to this CSV path")
    args = ap.parse_args(argv)
    if args.trials < 1:
        # no trial would leave every deviation at zero
        ap.error("--trials must be a positive integer")

    cur = fs.arclength_reparam(BASES[args.curve](), args.samples)
    n = cur.dimension
    transforms = [fs.random_similarity(args.seed + k, n)
                  for k in range(args.trials)]
    dev = fs.invariance_sweep(cur, transforms)
    for i in range(1, n + 1):
        if i not in dev["sigma_invariance"]:
            print(f"index {i}: indicatrix degenerate, skipped")
    kg = dev.get("geodesic_invariance", {})
    rows = [(i, dev["sigma_invariance"][i], dev["shape_invariance"][i],
             kg.get(i, math.nan)) for i in dev["sigma_invariance"]]

    print(f"\n{args.curve}: {args.trials} random similarities, "
          f"{args.samples} samples")
    print(f"{'i':>3} {'sigma dev':>12} {'shape dev':>12} {'kappa_g dev':>12}")
    for i, ds, dh, dk in rows:
        print(f"{i:>3} {ds:>12.3e} {dh:>12.3e} {dk:>12.3e}")

    if args.csv:
        _write_table(args.csv, ["index", "sigma_dev", "shape_dev",
                                "kappa_g_dev"], [np.array(rows)])
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
