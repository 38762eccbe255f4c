"""Command-line front end.

Subcommands: analyze, transform, match, synthesize, focal, evolute,
verify. Curves travel as CSV (header t,x1,...,xn), transforms and
signatures as JSON, and every float is printed with 17 significant
digits. Exit codes: 0 success (or "similar"), 1 a decision or property
check failed, 2 usage or parse problems, 3 geometric degeneracy.
Set FRENETSIM_LOG=info (or debug) for progress logging on stderr; a
value that is not a logging level name is ignored with a warning.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from .curves import (
    TRIM,
    _read_text,
    _write_table,
    arclength_reparam,
    curve_from_csv,
    curve_to_csv,
    frenet_apparatus,
)
from .errors import BadParameters, BadRange, GeometryError, UsageError
from .evolute import evolute_e3, evolute_invariant_report
from .focal import focal_curvatures
from .indicatrix import (
    indicatrix_curve,
    indicatrix_to_csv,
    sabban_geodesic_curvature,
)
from .jsonio import (
    MALFORMED,
    dump_pretty,
    float_texts,
    json_float,
    json_floats,
    json_int,
)
from .selfsimilar import (
    SelfSimilarSpec,
    frame_ode_oracle,
    solve_self_similar,
    synthesize_self_similar,
)
from .signatures import (
    DEFAULT_MATCH_TOL,
    _signature_text,
    invariance_sweep,
    shape_curvatures,
    similarity_test,
)
from .transforms import (
    apply_similarity,
    random_similarity,
    transform_from_json,
    transform_to_json,
)

log = logging.getLogger("frenetsim.cli")

DEFAULT_SAMPLES = 2000
LAMBDA_RANGE = (0.5, 2.0)


def _load_curve(path: str, samples: int):
    raw = curve_from_csv(path)
    log.info("loaded %s: dimension %d, %d samples", path, raw.dimension,
             len(raw.t))
    return arclength_reparam(raw, samples)


def _base_path(args) -> Path:
    if args.output:
        p = Path(args.output)
        return p.with_suffix("") if p.suffix == ".csv" else p
    return Path(args.input).with_suffix("")


def cmd_analyze(args) -> int:
    fr = frenet_apparatus(_load_curve(args.input, args.samples))
    sig = shape_curvatures(fr, args.index)
    n = fr.dimension
    base = _base_path(args)
    # the columns that two or three artifacts carry are formatted once, for
    # all of them, and their texts dropped after the last of them is
    # written; the table writer formats the others as it writes them
    sigma, kt, ktj = map(float_texts, (sig.sigma, sig.kt, sig.ktj))
    sig_path = Path(f"{base}.signature.json")
    sig_path.write_text(_signature_text(n, args.index, sigma, kt, ktj) + "\n")

    sc = indicatrix_curve(fr, sig)
    kappa_g = (float_texts(sabban_geodesic_curvature(sc).kappa_g) if n == 3
               else None)
    names = ["s", "sigma", *[f"kappa_{j}" for j in range(1, n)],
             "kt", *[f"kt_{j}" for j in range(1, n)]]
    cols = [sig.s, sigma, fr.kappas[TRIM:fr.n_samples - TRIM], kt, *ktj]
    if kappa_g is not None:
        names.append("kappa_g")
        cols.append(kappa_g)
    samples_path = Path(f"{base}.samples.csv")
    _write_table(samples_path, names, cols)
    del cols, kt, ktj
    ind_path = Path(f"{base}.indicatrix.csv")
    indicatrix_to_csv(ind_path, sigma, sc.gamma, kappa_g)

    sys.stdout.write(dump_pretty({
        "input": args.input,
        "dimension": n,
        "index": args.index,
        "samples": args.samples,
        "sigma_span": sig.span,
        "kt_min": float(sig.kt.min()),
        "kt_max": float(sig.kt.max()),
        "signature": str(sig_path),
        "samples_csv": str(samples_path),
        "indicatrix_csv": str(ind_path),
    }))
    return 0


def cmd_transform(args) -> int:
    raw = curve_from_csv(args.input)
    if args.seed is not None:
        T = random_similarity(args.seed, LAMBDA_RANGE, raw.dimension)
    else:
        T = transform_from_json(_read_text(args.input_b))
    image = apply_similarity(T, raw)
    base = _base_path(args)
    out_csv = Path(f"{base}.transformed.csv") if args.output is None \
        else Path(args.output)
    curve_to_csv(image, out_csv)
    tj_path = Path(f"{base}.transform.json")
    tj_path.write_text(transform_to_json(T) + "\n")
    sys.stdout.write(dump_pretty({
        "lambda": T.lam,
        "A": T.A,
        "b": T.b,
        "output": str(out_csv),
        "transform_json": str(tj_path),
    }))
    return 0


def cmd_match(args) -> int:
    a = _load_curve(args.input, args.samples)
    b = _load_curve(args.input_b, args.samples)
    res = similarity_test(a, b, args.index, tol=args.tol)
    sys.stdout.write(dump_pretty({
        "is_similar": res.is_similar,
        "distance": res.distance,
        "lambda_est": res.lambda_est,
        "sigma_shift": res.sigma_shift,
        "index": args.index,
        "tol": args.tol,
    }))
    return 0 if res.is_similar else 1


def _spec_from_json(path: str) -> SelfSimilarSpec:
    try:
        obj = json.loads(_read_text(path))
        return SelfSimilarSpec(
            dimension=json_int(obj["dimension"], "dimension"),
            index=json_int(obj["index"], "index"),
            kt=json_float(obj["kt"], "kt"),
            ktj=tuple(json_floats(obj["ktj"], "ktj").tolist()),
            sigma_range=tuple(json_floats(obj.get("sigma_range", [0.0, 4.0]),
                                          "sigma_range").tolist()),
            n_samples=json_int(obj.get("samples", DEFAULT_SAMPLES), "samples"),
        )
    except MALFORMED as exc:
        raise BadParameters(f"malformed self-similar spec JSON: {exc}") from None


def cmd_synthesize(args) -> int:
    spec = _spec_from_json(args.input)
    sol = solve_self_similar(spec)
    cur = synthesize_self_similar(spec)
    base = _base_path(args)
    out_csv = Path(f"{base}.csv") if args.output is None else Path(args.output)
    curve_to_csv(cur, out_csv)
    oracle_path = None
    if args.oracle:
        oracle = frame_ode_oracle(spec)
        oracle_path = Path(f"{out_csv.with_suffix('')}.oracle.csv")
        curve_to_csv(oracle, oracle_path)
    sys.stdout.write(dump_pretty({
        "dimension": spec.dimension,
        "index": spec.index,
        "kt": spec.kt,
        "ktj": spec.ktj,
        "lambdas": sol.lambdas,
        "amps": sol.amps,
        "bvals": sol.bvals,
        "theta0": sol.theta0,
        "plane_spin": sol.plane_spin,
        "axial": sol.axial,
        "output": str(out_csv),
        "oracle": None if oracle_path is None else str(oracle_path),
    }))
    return 0


def cmd_focal(args) -> int:
    fr = frenet_apparatus(_load_curve(args.input, args.samples))
    fd = focal_curvatures(fr)
    n = fr.dimension
    base = _base_path(args)
    out_csv = Path(f"{base}.focal.csv")
    names = ["s"] + [f"f_{j + 1}" for j in range(n - 1)] \
        + [f"c{j + 1}" for j in range(n)]
    _write_table(out_csv, names, [fd.s, fd.f, fd.focal_points])
    center = fd.focal_points.mean(axis=0)
    radii = np.linalg.norm(fd.focal_points - center, axis=1)
    sys.stdout.write(dump_pretty({
        "dimension": n,
        "f_mean": fd.f.mean(axis=0),
        "f_min": fd.f.min(axis=0),
        "f_max": fd.f.max(axis=0),
        "focal_point_spread": float(radii.max()),
        "output": str(out_csv),
    }))
    return 0


def cmd_evolute(args) -> int:
    fr = frenet_apparatus(_load_curve(args.input, args.samples))
    ed = evolute_e3(fr, args.phi0)
    rep = evolute_invariant_report(fr, ed)
    base = _base_path(args)
    out_csv = Path(f"{base}.evolute.csv")
    _write_table(out_csv, ["s", "m1", "m2", "b1", "b2", "b3"],
                 [ed.s, ed.m1, ed.m2, ed.beta])
    sys.stdout.write(dump_pretty({
        "phi0": args.phi0,
        "residual_shape": rep.residual_shape,
        "residual_ratio": rep.residual_ratio,
        "output": str(out_csv),
    }))
    return 0


def cmd_verify(args) -> int:
    if args.trials <= 0:
        raise BadRange("trials must be a positive integer")
    if not 0 < args.tol < math.inf:
        raise BadParameters("tol must be positive and finite")
    cur = _load_curve(args.input, args.samples)
    n = cur.dimension
    transforms = []
    for trial in range(args.trials):
        transforms.append(random_similarity(args.seed + trial, LAMBDA_RANGE, n))
        log.info("trial %d: lambda = %.6g", trial, transforms[-1].lam)
    dev = invariance_sweep(cur, transforms)
    properties = {name: {str(i): v for i, v in per.items()}
                  for name, per in dev.items()}
    failing = [
        f"{name}[i={i}]"
        for name, per in properties.items()
        for i, v in per.items() if not v <= args.tol
    ]
    worst = max(v for per in properties.values() for v in per.values())
    skipped = [i for i in range(1, n + 1) if i not in dev["sigma_invariance"]]
    sys.stdout.write(dump_pretty({
        "input": args.input,
        "trials": args.trials,
        "seed": args.seed,
        "tol": args.tol,
        "samples": args.samples,
        "properties": properties,
        "degenerate_indices": skipped,
        "max_deviation": worst,
        "failing": failing,
        "pass": not failing,
    }))
    return 0 if not failing else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    p = argparse.ArgumentParser(
        prog="frenetsim",
        description="Similarity-invariant curve analysis in E^n.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(q, *, input_help="input curve CSV (header t,x1,...,xn)"):
        q.add_argument("--input", required=True, help=input_help)
        q.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                       help="arc-length resampling count (default 2000)")

    q = sub.add_parser("analyze", help="signature + per-sample CSV artifacts")
    common(q)
    q.add_argument("--index", type=int, default=1,
                   help="indicatrix index i (default 1)")
    q.add_argument("--output", help="base path for output artifacts")
    q.set_defaults(func=cmd_analyze)

    q = sub.add_parser("transform", help="apply a direct similarity")
    q.add_argument("--input", required=True, help="input curve CSV")
    source = q.add_mutually_exclusive_group(required=True)
    source.add_argument("--seed", type=int, help="generate a random similarity")
    source.add_argument("--input-b", help="transform JSON to apply instead")
    q.add_argument("--output", help="path for the transformed curve CSV")
    q.set_defaults(func=cmd_transform)

    q = sub.add_parser("match", help="decide similarity of two curves")
    common(q)
    q.add_argument("--input-b", required=True, help="second curve CSV")
    q.add_argument("--index", type=int, default=1)
    q.add_argument("--tol", type=float, default=DEFAULT_MATCH_TOL,
                   help="signature distance threshold (default %(default)g)")
    q.set_defaults(func=cmd_match)

    q = sub.add_parser("synthesize",
                       help="build a self-similar curve from constants")
    q.add_argument("--input", required=True, help="self-similar spec JSON")
    q.add_argument("--output", help="path for the synthesized curve CSV")
    q.add_argument("--oracle", action="store_true",
                   help="also write the matrix-exponential oracle as a "
                   "cross-check CSV")
    q.set_defaults(func=cmd_synthesize)

    q = sub.add_parser("focal", help="focal curvatures and focal points")
    common(q)
    q.add_argument("--output", help="base path for output artifacts")
    q.set_defaults(func=cmd_focal)

    q = sub.add_parser("evolute", help="evolute of a curve in E^3")
    common(q)
    q.add_argument("--phi0", type=float, default=math.pi / 2,
                   help="integration constant (default pi/2)")
    q.add_argument("--output", help="base path for output artifacts")
    q.set_defaults(func=cmd_evolute)

    q = sub.add_parser("verify",
                       help="invariance properties under random similarities")
    common(q)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--trials", type=int, default=20)
    q.add_argument("--tol", type=float, default=1e-3,
                   help="max allowed deviation (default 1e-3)")
    q.set_defaults(func=cmd_verify)

    return p


def main(argv=None) -> int:
    level = os.environ.get("FRENETSIM_LOG", "")
    # getLevelName maps a level name to its number and anything else to a
    # str; logging's other attributes (BASIC_FORMAT) are not levels
    number = logging.getLevelName(level.upper()) if level else None
    if isinstance(number, int):
        logging.basicConfig(
            level=number,
            stream=sys.stderr,
            format="%(levelname)s %(name)s: %(message)s",
        )
    elif level:
        print(f"warning: FRENETSIM_LOG={level!r} is not a logging level "
              "name (debug, info, warning, error, critical); logging stays off",
              file=sys.stderr)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (UsageError, GeometryError) as exc:
        kind = "error" if isinstance(exc, UsageError) else "degenerate geometry"
        print(f"{kind} ({type(exc).__name__}): {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy refuses an allocation such as a --samples of 1e15 at once
        print(f"error (MemoryError): {str(exc) or 'out of memory'}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
