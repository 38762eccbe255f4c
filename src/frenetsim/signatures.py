"""Shape curvatures: the dimensionless direct-similarity invariants.

For an indicatrix index i, with Q = sqrt(kappa_{i-1}^2 + kappa_i^2):

    kt   = -(dQ/dsigma_i) / Q = d(1/Q)/ds      (diagonal invariant)
    kt_j = kappa_j / Q                         (j = 1..n-1)

as functions of sigma_i. Since dsigma_i/ds = Q, kt is the arc-length
derivative of the V_i radius 1/Q; in the plane it is the similarity
curvature of Encheva and Georgiev (Results Math. 55, 2009). kt is
computed in that form, on the arc-length samples that every index
shares, so one field derivative serves all the indices of a Frenet
apparatus. Together kt and kt_j determine a curve up to direct
similarity, which is what similarity_test decides by aligning two
signatures over a sigma shift. The shift search scores every lag of a
common sigma grid with one FFT correlation (the sliding sum of squares
|a|^2 + |b|^2 - 2 a.b, energies from cumulative sums) and places the
shift at the vertex of the parabola through the best lag's score and
its two neighbours: two resamplings, one FFT and one signature_distance
per match.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import next_fast_len
from scipy.integrate import cumulative_simpson

from .curves import (
    TRIM,
    FrenetData,
    SampledCurve,
    field_derivative,
    frenet_apparatus,
)
from .errors import (
    BadIndex,
    BadParameters,
    IncompatibleSignatures,
    IndicatrixDegenerate,
)
from .indicatrix import indicatrix_curve, sabban_geodesic_curvature
from .jsonio import (
    MALFORMED,
    FloatTexts,
    float_texts,
    json_floats,
    json_int,
    render,
)
from .transforms import apply_similarity

log = logging.getLogger("frenetsim.signatures")

UNIT_CIRCLE_TOL = 1e-5
MIN_OVERLAP_FRACTION = 0.1
DEFAULT_MATCH_TOL = 1e-2
INDICATRIX_REL_TOL = 1e-8


def _check_index_circle(ktj, i: int, tol: float) -> None:
    """Require kt_{i-1}^2 + kt_i^2 = 1 within tol, with kt_0 = kt_n = 0.

    ktj holds kt_1..kt_{n-1} along its first axis. Q = sqrt(kappa_{i-1}^2
    + kappa_i^2) makes the pair a unit vector at every index; at i = 1 it
    is kt_1 = kappa_1/|kappa_1|, -1 on a clockwise plane curve.
    """
    ktj = np.asarray(ktj, dtype=float)
    n = len(ktj) + 1
    below = ktj[i - 2] if i > 1 else 0.0
    above = ktj[i - 1] if i < n else 0.0
    miss = np.abs(below ** 2 + above ** 2 - 1.0)
    if np.any(miss > tol):
        raise BadParameters(
            f"index {i} needs kt_{i - 1}^2 + kt_{i}^2 = 1 (kt_0 = "
            f"kt_{n} = 0); it misses by {np.max(miss):.3g}"
        )


@dataclass(frozen=True)
class ShapeSignature:
    """Sampled shape-curvature functions over the sigma_i grid.

    ktj has shape (n-1, N): row j-1 is kt_j over the grid. The s field
    carries the underlying arc lengths when the signature was computed
    from a curve (None after JSON round trips); it feeds lambda
    estimation but is not part of the serialized format.
    """

    dimension: int
    index: int
    sigma: np.ndarray
    kt: np.ndarray
    ktj: np.ndarray
    s: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        n = self.dimension
        if not 1 <= self.index <= n:
            raise BadIndex(f"index must be in 1..{n}, got {self.index}")
        sig = np.array(self.sigma, dtype=float, order="C")
        kt = np.array(self.kt, dtype=float, order="C")
        ktj = np.array(self.ktj, dtype=float, order="C")
        if kt.shape != sig.shape or ktj.shape != (n - 1, len(sig)):
            raise BadParameters("signature arrays have inconsistent shapes")
        if not np.all(np.diff(sig) > 0):
            raise BadParameters("sigma grid must be strictly increasing")
        if not (np.all(np.isfinite(sig)) and np.all(np.isfinite(kt))
                and np.all(np.isfinite(ktj))):
            raise BadParameters("signature contains non-finite entries")
        _check_index_circle(ktj, self.index, UNIT_CIRCLE_TOL)
        for name, arr in (("sigma", sig), ("kt", kt), ("ktj", ktj)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def span(self) -> float:
        return float(self.sigma[-1] - self.sigma[0])


def _ladder_signatures(kappas: np.ndarray, s: np.ndarray, indices,
                       partial: bool = False) -> dict:
    """Shape signatures of the given indices from one set of curvatures.

    kappas holds kappa_1..kappa_{n-1} as columns over the arc-length grid
    s, padded here to the ladder kappa_0..kappa_n with kappa_0 = kappa_n
    = 0; the direct and the focal route both end here. Two samples per
    end are dropped as boundary noise, and sigma_i is the cumulative
    Simpson integral of the remaining speed Q_i, anchored at 0. One hypot
    and one cumulative_simpson run over the rows of all the valid
    indices, and each row is bit-identical to the quadrature of its index
    alone. The indices are then checked in order: BadIndex unless
    1 <= i <= n, and IndicatrixDegenerate when the speed collapses, when
    sigma_i stops increasing, or when the speed is |kappa_{n-1}| (i = n,
    or n = 2) and kappa_{n-1} changes sign. With partial, a degenerate
    index is left out instead, and the last refusal is raised only when
    every index is refused. Every index keeps the same samples s[sl], so
    kt = d(1/Q_i)/ds of all the kept indices is one field_derivative of
    the matrix whose columns are 1/Q_i; each column gets its own stride
    there, so its kt does not depend on which other indices are asked
    for. Returns {i: ShapeSignature}, in the order of indices.
    """
    ladder = np.pad(kappas.T, ((1, 1), (0, 0)))
    n = len(ladder) - 1
    sl = slice(TRIM, len(s) - TRIM)
    rows = np.array([i for i in indices if 1 <= i <= n], dtype=int)
    qs = np.hypot(ladder[rows - 1, sl], ladder[rows, sl])
    sigma = cumulative_simpson(qs, x=s[sl], initial=0.0)
    lo, hi = qs.min(axis=1), qs.max(axis=1)
    scale = np.maximum(hi, 2.0 / (s[-1] - s[0]))
    stalls = np.diff(sigma, axis=1) <= 0
    last = ladder[n - 1, sl]
    flips = np.flatnonzero(last[:-1] * last[1:] < 0)
    kept, refusal = [], None
    # every index before an invalid one is valid, so r is its row
    for r, i in enumerate(indices):
        if not 1 <= i <= n:
            raise BadIndex(f"indicatrix index must be in 1..{n}, got {i}")
        stall = np.flatnonzero(stalls[r])
        if lo[r] <= INDICATRIX_REL_TOL * scale[r]:
            refusal = IndicatrixDegenerate(
                f"V_{i}-indicatrix speed collapses "
                f"(min {lo[r]:.3g} against scale {scale[r]:.3g})")
        elif len(stall):
            refusal = IndicatrixDegenerate(
                f"sigma_{i} stops increasing at sample {TRIM + stall[0] + 1} "
                f"(speed spans {lo[r]:.3g} to {hi[r]:.3g})")
        elif (i == n or n == 2) and len(flips):
            refusal = IndicatrixDegenerate(
                f"kappa_{n - 1} changes sign at sample {TRIM + flips[0] + 1}, "
                f"so the V_{i}-indicatrix speed vanishes there")
        else:
            kept.append((i, r))
            continue
        if not partial:
            raise refusal
    if not kept:
        raise refusal
    q = np.column_stack([qs[r] for _, r in kept])
    kt = field_derivative(s[sl], 1.0 / q)
    return {i: ShapeSignature(n, i, sigma[r], kt[:, c],
                              ladder[1:n, sl] / q[:, c], s=s[sl])
            for c, (i, r) in enumerate(kept)}


def shape_curvatures(fr: FrenetData, i: int) -> ShapeSignature:
    """Shape curvatures of the V_i-indicatrix, on its sigma_i grid."""
    return _ladder_signatures(fr.kappas, fr.s, [i])[i]


# ---------------------------------------------------------------------------
# matching


@dataclass(frozen=True)
class MatchResult:
    is_similar: bool
    distance: float
    lambda_est: float
    sigma_shift: float


def _interp_tuple(sig: ShapeSignature, grid: np.ndarray, shift: float = 0.0):
    x = sig.sigma + shift
    rows = [np.interp(grid, x, sig.kt)]
    for j in range(sig.ktj.shape[0]):
        rows.append(np.interp(grid, x, sig.ktj[j]))
    return np.stack(rows)


def signature_distance(a: ShapeSignature, b: ShapeSignature,
                       shift: float = 0.0) -> float:
    """RMS distance between signature tuples over the sigma overlap.

    b's grid is displaced by `shift` before comparison, and both tuples
    are read on 512 points of the overlap. Returns inf when the overlap
    is shorter than 10% of the shorter signature.
    """
    if a.dimension != b.dimension or a.index != b.index:
        raise IncompatibleSignatures(
            f"cannot compare (n={a.dimension}, i={a.index}) "
            f"with (n={b.dimension}, i={b.index})"
        )
    lo = max(a.sigma[0], b.sigma[0] + shift)
    hi = min(a.sigma[-1], b.sigma[-1] + shift)
    if hi - lo < MIN_OVERLAP_FRACTION * min(a.span, b.span):
        return math.inf
    grid = np.linspace(lo, hi, 512)
    diff = _interp_tuple(a, grid) - _interp_tuple(b, grid, shift)
    return float(np.sqrt(np.mean(np.sum(diff ** 2, axis=0))))


def _shift_scan(a: ShapeSignature, b: ShapeSignature, lo: float, hi: float):
    """Best shift in [lo, hi], read off the lags of a common sigma grid.

    Both signature tuples are resampled once with step h, the finer of
    their mean sample spacings. Lag L puts b's grid point m on a's grid
    point m + L, a shift of a.sigma[0] - b.sigma[0] + L h, and scores
    the mean of |a - b|^2 = |a|^2 + |b|^2 - 2 a.b over the overlap: the
    energy terms come from cumulative sums, the cross term for every lag
    from one FFT correlation summed over the rows. The best lag moves to
    the vertex of the parabola through its score and its two neighbours'
    (Jacovitti and Scarano, IEEE Trans. Signal Process. 41, 1993) where
    both neighbours are scored and the parabola opens upward, so the
    vertex stays within h/2 of it. Returns the shift, h, the number of
    lags scored and the vertex offset in units of h.
    """
    h = min(a.span / (len(a.sigma) - 1), b.span / (len(b.sigma) - 1))
    ma = int(a.span / h) + 1
    mb = int(b.span / h) + 1
    ga = _interp_tuple(a, a.sigma[0] + h * np.arange(ma))
    gb = _interp_tuple(b, b.sigma[0] + h * np.arange(mb))
    base = a.sigma[0] - b.sigma[0]
    lags = np.arange(math.ceil((lo - base) / h), math.floor((hi - base) / h) + 1)
    size = next_fast_len(ma + mb - 1, True)
    spectrum = np.sum(np.fft.rfft(ga, size) * np.conj(np.fft.rfft(gb, size)), axis=0)
    cross = np.fft.irfft(spectrum, size)[lags % size]
    ea = np.concatenate([[0.0], np.cumsum(np.sum(ga * ga, axis=0))])
    eb = np.concatenate([[0.0], np.cumsum(np.sum(gb * gb, axis=0))])
    k0 = np.maximum(lags, 0)
    k1 = np.minimum(ma, lags + mb)
    score = (ea[k1] - ea[k0] + eb[k1 - lags] - eb[k0 - lags] - 2.0 * cross) / (k1 - k0)
    k = int(np.argmin(score))
    offset = 0.0
    if 0 < k < len(lags) - 1:
        y0, y1, y2 = score[k - 1:k + 2]
        curv = y0 - 2.0 * y1 + y2
        if curv > 0:
            offset = float(0.5 * (y0 - y2) / curv)
    return float(base + h * (lags[k] + offset)), h, len(lags), offset


def similarity_test(curve_a: SampledCurve, curve_b: SampledCurve, i: int,
                    tol: float = DEFAULT_MATCH_TOL) -> MatchResult:
    """Decide direct-similarity equivalence through shape signatures.

    Aligns the signatures at the sigma shift that _shift_scan picks
    among the shifts that leave an overlap of at least 10% of the
    shorter signature (two resamplings, one FFT correlation), and
    reports signature_distance there. Similar iff that distance is
    <= tol.
    lambda_est is the ratio of arc lengths swept over the matched sigma
    window, which equals the similarity scale for genuinely similar
    curves.
    """
    if curve_a.dimension != curve_b.dimension:
        raise IncompatibleSignatures("curves live in different dimensions")
    if not 0 < tol < math.inf:
        raise BadParameters("tol must be positive and finite")
    fa = frenet_apparatus(curve_a)
    fb = frenet_apparatus(curve_b)
    sa = shape_curvatures(fa, i)
    sb = shape_curvatures(fb, i)

    margin = MIN_OVERLAP_FRACTION * min(sa.span, sb.span)
    lo = sa.sigma[0] - sb.sigma[-1] + margin
    hi = sa.sigma[-1] - sb.sigma[0] - margin
    shift, h, n_lags, offset = _shift_scan(sa, sb, lo, hi)
    dist = signature_distance(sa, sb, shift)

    w_lo = max(sa.sigma[0], sb.sigma[0] + shift)
    w_hi = min(sa.sigma[-1], sb.sigma[-1] + shift)
    ds_a = float(np.interp(w_hi, sa.sigma, sa.s)
                 - np.interp(w_lo, sa.sigma, sa.s))
    ds_b = float(np.interp(w_hi - shift, sb.sigma, sb.s)
                 - np.interp(w_lo - shift, sb.sigma, sb.s))
    lam = ds_b / ds_a if ds_a > 0 else math.nan
    ok = bool(dist <= tol)
    log.debug("match: distance %.3g at shift %.3g, lambda %.6g; scan step "
              "h=%.3g over %d lags, vertex offset %.3f h", dist, shift, lam,
              h, n_lags, offset)
    return MatchResult(ok, float(dist), lam, float(shift))


# ---------------------------------------------------------------------------
# invariance under direct similarities


def invariance_sweep(curve: SampledCurve, transforms) -> dict:
    """Worst deviation of each invariant over a set of direct similarities.

    Each image keeps the curve's sample grid, so sample j of the image
    matches sample j of the curve, and one Frenet apparatus per image
    serves every index. Each image recomputes its frames, curvatures,
    sigma_i, kt, kt_j and kappa_g on its own data, as the curve does:
    one sigma quadrature over the speeds Q_i of all its indices and one
    field derivative of their radii 1/Q_i, and kappa_g is read on the
    sigma_i of its index's signature. It shares the curve's jet source,
    and so its fit, mapped by lam A D + b; on an
    arclength_reparam curve the images also share the jet itself,
    evaluated once on that grid. The sweep therefore does not test the
    fit. Returns {property: {i: worst deviation}} for "sigma_invariance"
    (sigma_i), "shape_invariance" (kt and every kt_j) and, in E^3,
    "geodesic_invariance" (the Sabban kappa_g).
    Indices whose indicatrix is degenerate on the curve itself are left
    out; when every index is, that IndicatrixDegenerate is raised.
    """
    fr = frenet_apparatus(curve)
    base = _ladder_signatures(fr.kappas, fr.s, range(1, fr.dimension + 1),
                              partial=True)
    dev = {"sigma_invariance": dict.fromkeys(base, 0.0),
           "shape_invariance": dict.fromkeys(base, 0.0)}
    base_kg = {}
    if fr.dimension == 3:
        dev["geodesic_invariance"] = dict.fromkeys(base, 0.0)
        base_kg = {i: sabban_geodesic_curvature(indicatrix_curve(fr, sig)).kappa_g
                   for i, sig in base.items()}
    for T in transforms:
        fri = frenet_apparatus(apply_similarity(T, curve))
        imgs = _ladder_signatures(fri.kappas, fri.s, base)
        for i, sig in base.items():
            img = imgs[i]
            now = {"sigma_invariance": np.abs(sig.sigma - img.sigma).max(),
                   "shape_invariance": max(np.abs(sig.kt - img.kt).max(),
                                           np.abs(sig.ktj - img.ktj).max())}
            if base_kg:
                kg = sabban_geodesic_curvature(indicatrix_curve(fri, img)).kappa_g
                now["geodesic_invariance"] = np.abs(base_kg[i] - kg).max()
            for prop, value in now.items():
                dev[prop][i] = max(dev[prop][i], float(value))
    return dev


# ---------------------------------------------------------------------------
# JSON round trip


def _signature_text(dimension: int, index: int, sigma, kt, ktj) -> str:
    """Signature JSON from the float_texts of sigma, kt and the rows of ktj."""
    return render({
        "dimension": dimension,
        "index": index,
        "sigma": FloatTexts(sigma),
        "kt": FloatTexts(kt),
        "ktj": FloatTexts(ktj),
    })


def signature_to_json(sig: ShapeSignature) -> str:
    return _signature_text(sig.dimension, sig.index, float_texts(sig.sigma),
                           float_texts(sig.kt), float_texts(sig.ktj))


def signature_from_json(text: str) -> ShapeSignature:
    try:
        obj = json.loads(text)
        return ShapeSignature(
            json_int(obj["dimension"], "dimension"),
            json_int(obj["index"], "index"),
            json_floats(obj["sigma"], "sigma"),
            json_floats(obj["kt"], "kt"),
            json_floats(obj["ktj"], "ktj"),
        )
    except MALFORMED as exc:
        raise BadParameters(f"malformed signature JSON: {exc}") from None
