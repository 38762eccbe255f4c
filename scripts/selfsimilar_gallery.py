#!/usr/bin/env python3
"""Synthesize a gallery of self-similar curves and round-trip them.

Runs a grid of curvature specifications through the closed-form
synthesizer, re-analyzes each synthetic curve, and reports how well the
constants come back, plus the signature distance to an independent
realization by one matrix exponential. Optionally dumps every curve as
CSV.

Usage:
    python3 scripts/selfsimilar_gallery.py
    python3 scripts/selfsimilar_gallery.py --outdir gallery/ --oracle
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

import frenetsim as fs

RT13 = math.sqrt(13.0)

GRID = [
    (2, 1, (1.0,)),
    (3, 2, (3 / RT13, 2 / RT13)),
    (4, 2, (0.7, math.sqrt(0.51), 0.5)),
    (5, 3, (0.9, 0.6, 0.8, 0.7)),
]
KT_VALUES = (-0.2, 0.0, 0.2)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--outdir", help="write each synthesized curve CSV here")
    ap.add_argument("--oracle", action="store_true",
                    help="also check against the matrix-exponential oracle")
    ap.add_argument("--samples", type=int, default=2000)
    args = ap.parse_args(argv)

    outdir = None
    if args.outdir:
        outdir = Path(args.outdir)
        outdir.mkdir(parents=True, exist_ok=True)

    print(f"{'n':>2} {'i':>2} {'kt':>5} {'lambda':>22} "
          f"{'kt dev':>10} {'ktj dev':>10} {'oracle':>10}")
    worst = 0.0
    for n, i, ktj in GRID:
        for kt in KT_VALUES:
            spec = fs.SelfSimilarSpec(dimension=n, index=i, kt=kt, ktj=ktj,
                                      n_samples=args.samples)
            sol = fs.solve_self_similar(spec)
            cur = fs.synthesize_self_similar(spec)
            fr = fs.frenet_apparatus(fs.arclength_reparam(cur, args.samples))
            sig = fs.shape_curvatures(fr, i)
            dev_kt = float(np.abs(sig.kt - kt).max())
            dev_ktj = max(float(np.abs(sig.ktj[j] - ktj[j]).max())
                          for j in range(len(ktj)))
            dist = float("nan")
            if args.oracle:
                res = fs.similarity_test(cur, fs.frame_ode_oracle(spec), i,
                                         tol=1e-3)
                dist = res.distance
                if not res.is_similar:
                    print(f"oracle mismatch: n={n} i={i} kt={kt} ktj={ktj} "
                          f"(distance {dist:.3e})", file=sys.stderr)
                    return 1
            lam_txt = ",".join(f"{v:.4f}" for v in sol.lambdas)
            print(f"{n:>2} {i:>2} {kt:>5.2f} {lam_txt:>22} "
                  f"{dev_kt:>10.2e} {dev_ktj:>10.2e} {dist:>10.2e}")
            worst = max(worst, dev_kt, dev_ktj)
            if outdir is not None:
                name = f"selfsim_n{n}_i{i}_kt{kt:+.2f}.csv"
                fs.curve_to_csv(cur, outdir / name)
    print(f"\nworst reconstruction deviation: {worst:.3e}")
    if outdir is not None:
        print(f"curves written to {outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
