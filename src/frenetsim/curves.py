"""Curve models and the numerical Frenet apparatus in E^n.

The pipeline reads every curve through a jet source: an object whose
jet(tq, order) returns the derivatives of the curve at each query
parameter, entry [k] being d^k alpha/dt^k, and whose arclength(tq)
returns the arc length from tq[0] to each query parameter.

* BuiltinCurve: an analytic fixture curve with exact derivatives;
* AffineImage: a direct-similarity image of another source, whose arc
  length is the source's times the scale;
* _SplineSource: raw samples interpolated once by a B-spline whose knots
  are subsampled to keep high-order derivatives away from the roundoff
  amplification floor;
* _ReparamSource: the arclength reparameterization of another source,
  whose first derivative has unit length at each query point and whose
  parameter is its own arc length.

A SampledCurve carries its source, or gets a spline fitted to its
samples, so no finite differencing of positions ever happens. Frame and
curvatures do not depend on the parameter: one batched Householder QR
of the parameter derivatives [d^j a/dt^j] gives the Frenet frame in any
regular parameter, and the pivots give kappa_j = R_{j+1,j+1}/(R_jj R_11),
the last one signed by the projection of the n-th derivative on V_n.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import re
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.interpolate import PchipInterpolator, make_interp_spline

from .errors import (
    BadParameters,
    DimensionMismatch,
    FrameDegenerate,
    TooFewSamples,
    ZeroSpeed,
)

log = logging.getLogger("frenetsim.curves")

# boundary samples trimmed from all downstream signatures
TRIM = 2
# QR pivot threshold on |R_jj|, relative to the raw derivative magnitude
PIVOT_REL = 1e-8
# relative data noise assumed by the knot-stride rule
POSITION_NOISE = 1e-16
FIELD_NOISE = 1e-9
# knot spacing constant (calibrated on self-similar round trips)
STRIDE_C = 1.5

TAU = 2.0 * math.pi


def min_samples(dimension: int) -> int:
    """Smallest admissible sample count for an n-dimensional analysis."""
    return 2 * (dimension + 2)


def _require_samples(count: int, dimension: int) -> None:
    if count < min_samples(dimension):
        raise TooFewSamples(f"need at least {min_samples(dimension)} samples "
                            f"in E^{dimension}, got {count}")


# ---------------------------------------------------------------------------
# curve models


def _fill_exp_jet(out: np.ndarray, amp: float, mu: complex, tq: np.ndarray) -> None:
    """Write the derivatives of amp e^(mu t), read as x1 + i x2, into out[:, :, :2].

    Entry [k] is amp mu^k e^(mu t).
    """
    w = amp * mu ** np.arange(len(out))[:, None] * np.exp(mu * tq)
    out[:, :, 0] = w.real
    out[:, :, 1] = w.imag


@dataclass(frozen=True)
class BuiltinCurve:
    """Analytic fixture curve with exact derivatives of every order.

    kind is one of circle, helix, log_spiral, line, custom_poly; params
    holds the scalar parameters and t_span the default parameter window
    used when the curve is sampled or reparameterized.
    """

    kind: str
    dimension: int
    params: tuple = ()
    t_span: tuple = (0.0, TAU)

    def __post_init__(self):
        if len(self.t_span) != 2 or not self.t_span[0] < self.t_span[1]:
            raise BadParameters(
                f"t_span must be an increasing pair, got {self.t_span}")

    def jet(self, tq: np.ndarray, order: int) -> np.ndarray:
        out = np.zeros((order + 1, len(tq), self.dimension))
        if self.kind == "circle":
            _fill_exp_jet(out, self.params[0], 1j, tq)
        elif self.kind == "helix":
            a, b = self.params
            _fill_exp_jet(out, a, 1j, tq)
            out[0, :, 2] = b * tq
            out[1:2, :, 2] = b
        elif self.kind == "log_spiral":
            _fill_exp_jet(out, 1.0, self.params[0] + 1j, tq)
        elif self.kind == "line":
            out[0, :, 0] = tq
            out[1:2, :, 0] = 1.0
        elif self.kind == "custom_poly":
            from numpy.polynomial import polynomial as P

            for d, row in enumerate(self.params):
                for k in range(order + 1):
                    out[k, :, d] = P.polyval(tq, P.polyder(row, k))
        else:
            raise BadParameters(f"unknown builtin curve kind {self.kind!r}")
        return out

    def arclength(self, tq: np.ndarray) -> np.ndarray:
        return _arclength(self, tq)


def circle(r: float, t_span=(0.0, TAU)) -> BuiltinCurve:
    """Circle of radius r in E^2: (r cos t, r sin t)."""
    if not r > 0:
        raise BadParameters("circle radius must be positive")
    return BuiltinCurve("circle", 2, (float(r),), tuple(map(float, t_span)))


def helix(a: float, b: float, t_span=(0.0, TAU)) -> BuiltinCurve:
    """Circular helix in E^3: (a cos t, a sin t, b t)."""
    if not a > 0:
        raise BadParameters("helix radius a must be positive")
    if a * a + b * b <= 0:
        raise BadParameters("helix needs a^2 + b^2 > 0")
    return BuiltinCurve("helix", 3, (float(a), float(b)), tuple(map(float, t_span)))


def log_spiral(c: float, t_span=(0.0, TAU)) -> BuiltinCurve:
    """Logarithmic spiral r(phi) = e^{c phi} in E^2."""
    return BuiltinCurve("log_spiral", 2, (float(c),), tuple(map(float, t_span)))


def line(dimension: int = 3, t_span=(0.0, 1.0)) -> BuiltinCurve:
    """Straight line through the origin along the first axis."""
    if dimension < 2:
        raise BadParameters("line needs dimension >= 2")
    return BuiltinCurve("line", int(dimension), (), tuple(map(float, t_span)))


def custom_poly(coeffs, t_span=(0.0, 1.0)) -> BuiltinCurve:
    """Polynomial curve; coeffs[d] lists ascending-power coefficients of x_d."""
    coeffs = tuple(tuple(float(c) for c in row) for row in coeffs)
    if len(coeffs) < 2:
        raise BadParameters("custom_poly needs at least 2 coordinates")
    return BuiltinCurve("custom_poly", len(coeffs), coeffs, tuple(map(float, t_span)))


@dataclass(frozen=True)
class AffineImage:
    """A direct-similarity image lam * A x + b of another analytic source.

    Derivative k is lam * A D_k, plus b at k = 0.
    """

    source: object
    scale: float
    matrix: np.ndarray
    offset: np.ndarray

    def jet(self, tq: np.ndarray, order: int) -> np.ndarray:
        out = self.scale * (self.source.jet(tq, order) @ self.matrix.T)
        out[0] += self.offset
        return out

    def arclength(self, tq: np.ndarray) -> np.ndarray:
        return self.scale * self.source.arclength(tq)


@dataclass(frozen=True)
class SampledCurve:
    """Ordered (t, point) samples of a curve in E^n.

    source, when present, is a jet source that the numerical pipeline
    uses instead of refitting a spline.
    """

    dimension: int
    t: np.ndarray
    points: np.ndarray
    source: object | None = field(default=None, compare=False)

    def __post_init__(self):
        t = np.ascontiguousarray(np.asarray(self.t, dtype=float))
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=float))
        if self.dimension < 2:
            raise BadParameters("curves live in E^n with n >= 2")
        if t.ndim != 1 or len(t) < 2:
            raise BadParameters("need a 1-d parameter array with >= 2 samples")
        if pts.shape != (len(t), self.dimension):
            raise DimensionMismatch(
                f"points shape {pts.shape} does not match "
                f"{len(t)} samples in E^{self.dimension}"
            )
        for name, arr in (("parameter t", t), ("point coordinate", pts)):
            bad = np.argwhere(~np.isfinite(arr))
            if len(bad):
                raise BadParameters(f"{name} values must be finite; sample "
                                    f"{bad[0, 0]} holds NaN or Inf")
        if not np.all(np.diff(t) > 0):
            raise BadParameters("parameter values must be strictly increasing")
        t.setflags(write=False)
        pts.setflags(write=False)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "points", pts)

    @property
    def n_samples(self) -> int:
        return len(self.t)


def builtin_evaluate(curve: BuiltinCurve, t_values) -> SampledCurve:
    """Sample an analytic curve exactly at the given parameters."""
    t = np.asarray(t_values, dtype=float)
    if t.ndim != 1 or len(t) < 2 or not np.all(np.diff(t) > 0):
        raise BadParameters("t_values must be strictly increasing, length >= 2")
    pts = curve.jet(t, 0)[0]
    return SampledCurve(curve.dimension, t, pts, source=curve)


# ---------------------------------------------------------------------------
# strided splines


def _auto_stride(points: np.ndarray, k: int, noise: float) -> int:
    """Knot stride balancing spline truncation against roundoff blowup.

    Target knot spacing ~ rho * noise^(1/(k+1)) where rho is the
    polyline's length per radian of turning, a cheap feature-scale
    estimate. Fully straight data gets the widest admissible stride.
    """
    ch = np.diff(points, axis=0)
    cl = np.linalg.norm(ch, axis=1)
    total = cl.sum()
    u = ch / np.maximum(cl, 1e-300)[:, None]
    cosang = np.clip(np.einsum("jd,jd->j", u[:-1], u[1:]), -1.0, 1.0)
    turning = np.arccos(cosang).sum()
    rho = total / max(turning, 1e-12)
    target = STRIDE_C * rho * noise ** (1.0 / (k + 1))
    stride = max(1, int(round(target / max(np.median(cl), 1e-300))))
    max_stride = max(1, (len(points) - 1) // (3 * (k + 1)))
    return min(stride, max_stride)


def _strided_spline(x: np.ndarray, y: np.ndarray, graph: np.ndarray, k: int,
                    noise: float):
    """Interpolating spline of y(x) through every stride-th sample and the last.

    The stride comes from _auto_stride on the polyline graph; the degree
    is k, lowered to an odd number below the knot count.
    """
    stride = _auto_stride(graph, k, noise)
    idx = np.arange(0, len(x), stride)
    if idx[-1] != len(x) - 1:
        idx = np.append(idx, len(x) - 1)
    k = min(k, len(idx) - 1)
    if k % 2 == 0:
        k -= 1
    if k < 1:
        raise TooFewSamples(f"{len(x)} samples are too few to fit a spline")
    log.debug("spline fit: degree %d, stride %d, %d knots", k, stride, len(idx))
    return make_interp_spline(x[idx], y[idx], k=k)


@dataclass(frozen=True)
class _SplineSource:
    """Strided B-spline interpolant of raw samples, exposing its derivatives."""

    spline: object

    def jet(self, tq: np.ndarray, order: int) -> np.ndarray:
        out = np.zeros((order + 1, len(tq), self.spline.c.shape[-1]))
        for j in range(min(order, self.spline.k) + 1):
            out[j] = self.spline(tq, j)
        return out

    def arclength(self, tq: np.ndarray) -> np.ndarray:
        return _arclength(self, tq)


def _fit_spline_source(curve: SampledCurve) -> _SplineSource:
    n = curve.dimension
    _require_samples(curve.n_samples, n)
    same = np.flatnonzero(np.all(np.diff(curve.points, axis=0) == 0, axis=1))
    if len(same):
        raise ZeroSpeed(f"samples {same[0]} and {same[0] + 1} repeat one point, "
                        "so the curve speed vanishes there")
    k = n + 4
    if k % 2 == 0:
        k += 1
    return _SplineSource(_strided_spline(curve.t, curve.points, curve.points, k,
                                         POSITION_NOISE))


def _engine(curve: SampledCurve) -> object:
    """The curve's jet source, or a spline fitted to its samples."""
    return curve.source if curve.source is not None else _fit_spline_source(curve)


# ---------------------------------------------------------------------------
# jets


def parameter_speeds(source, tq: np.ndarray) -> np.ndarray:
    """||dalpha/dt|| at the query parameters."""
    return np.linalg.norm(source.jet(tq, 1)[1], axis=1)


# ---------------------------------------------------------------------------
# arc length


def _speed_antiderivative(source, t_lo: float, t_hi: float, n_hint: int):
    """Smooth spline S(t) with S' = speed, plus a pchip inverse for guesses."""
    m = max(4 * n_hint, 4096) + 1
    tt = np.linspace(t_lo, t_hi, m)
    sp = parameter_speeds(source, tt)
    mx = sp.max()
    if mx <= 0 or sp.min() <= 1e-9 * mx:
        raise ZeroSpeed("curve speed vanishes inside the parameter window")
    S = make_interp_spline(tt, sp, k=5).antiderivative()
    svals = S(tt) - S(tt[0])
    # the quintic speed fit can dip below zero between grid points when
    # the speed itself oscillates, as it does on noisy samples
    stall = np.flatnonzero(np.diff(svals) <= 0)
    if len(stall):
        raise ZeroSpeed(f"arc length stops increasing at t = {tt[stall[0]]:.6g}; "
                        "the fitted speed oscillates through zero there")
    guess = PchipInterpolator(svals, tt)
    return S, guess


def _arclength(source, t: np.ndarray) -> np.ndarray:
    S, _ = _speed_antiderivative(source, t[0], t[-1], len(t))
    return np.asarray(S(t) - S(t[0]))


def arclength_values(curve: SampledCurve) -> np.ndarray:
    """Arc length at each sample, measured from the first sample."""
    return _engine(curve).arclength(curve.t)


@dataclass(frozen=True)
class _ReparamSource:
    """Arclength reparameterization of another jet source.

    Query parameters are arc lengths; each jet call inverts s -> t by
    Newton on the speed antiderivative and returns the inner derivatives
    D_k there divided by v^k, v = |D_1|: the exact derivatives in the
    parameter that is linear in t with unit speed at the query point,
    so entry [0] is the position and entry [1] the unit tangent.
    The t grid inverted for the sample grid s_grid is kept and reused.
    Keeping the inner source alive avoids refitting splines to resampled
    data, which would destroy the high-order derivatives.
    """

    inner: object
    s_spline: object
    s0: float
    t_lo: float
    t_hi: float
    guess: object
    s_grid: np.ndarray = field(default=None, compare=False)
    t_grid: np.ndarray = field(default=None, compare=False)

    def t_of_s(self, sq: np.ndarray) -> np.ndarray:
        if self.s_grid is not None and np.array_equal(sq, self.s_grid):
            return self.t_grid
        total = float(self.s_spline(self.t_hi)) - self.s0
        t = np.clip(self.guess(np.clip(sq, 0.0, total)), self.t_lo, self.t_hi)
        target = np.asarray(sq, dtype=float) + self.s0
        for _ in range(4):
            f = self.s_spline(t) - target
            t = np.clip(t - f / np.maximum(self.s_spline(t, 1), 1e-300),
                        self.t_lo, self.t_hi)
        return t

    def jet(self, sq: np.ndarray, order: int) -> np.ndarray:
        P = self.inner.jet(self.t_of_s(sq), order)
        if order:
            v = np.linalg.norm(P[1], axis=-1, keepdims=True)
            P /= v ** np.arange(order + 1).reshape(-1, 1, 1)
        return P

    def arclength(self, sq: np.ndarray) -> np.ndarray:
        return sq - sq[0]


def arclength_reparam(curve, n_samples: int) -> SampledCurve:
    """Resample a curve uniformly in arc length.

    Accepts a SampledCurve or a BuiltinCurve (sampled over its t_span).
    The result is parameterized by arc length and carries a jet source
    so downstream analysis keeps full accuracy.
    """
    if isinstance(curve, BuiltinCurve):
        t_lo, t_hi = curve.t_span
        src = curve
    elif isinstance(curve, SampledCurve):
        t_lo, t_hi = float(curve.t[0]), float(curve.t[-1])
        src = _engine(curve)
    else:
        raise BadParameters(f"not a curve: {type(curve).__name__}")
    dim = curve.dimension
    n_samples = int(n_samples)
    _require_samples(n_samples, dim)
    S, guess = _speed_antiderivative(src, t_lo, t_hi, n_samples)
    s0 = float(S(t_lo))
    total = float(S(t_hi)) - s0
    rep = _ReparamSource(src, S, s0, t_lo, t_hi, guess)
    s_targets = np.linspace(0.0, total, n_samples)
    tk = rep.t_of_s(s_targets)
    tk.setflags(write=False)
    rep = replace(rep, s_grid=s_targets, t_grid=tk)
    pts = src.jet(tk, 0)[0]
    return SampledCurve(dim, s_targets, pts, source=rep)


# ---------------------------------------------------------------------------
# Frenet apparatus


@dataclass(frozen=True)
class FrenetData:
    """Per-sample arc length, position, frame and curvatures.

    frames[j] is the n x n matrix whose ROWS are V_1..V_n at sample j;
    kappas[j] holds kappa_1..kappa_{n-1}. kappa_1..kappa_{n-2} are
    positive; kappa_{n-1} is signed by the det = +1 orientation rule.
    """

    s: np.ndarray
    points: np.ndarray
    frames: np.ndarray
    kappas: np.ndarray

    def __post_init__(self):
        for name in ("s", "points", "frames", "kappas"):
            a = np.asarray(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        n = self.frames.shape[-1]
        if self.frames.shape != (len(self.s), n, n):
            raise DimensionMismatch("frames must be per-sample n x n matrices")
        if self.kappas.shape != (len(self.s), n - 1):
            raise DimensionMismatch("kappas must be per-sample (n-1)-vectors")

    @property
    def dimension(self) -> int:
        return self.frames.shape[-1]

    @property
    def n_samples(self) -> int:
        return len(self.s)


def frenet_apparatus(curve: SampledCurve) -> FrenetData:
    """Compute frames and curvatures at every sample of the curve.

    The curve may carry any regular parameterization t. The frame is one
    batched Householder QR of the parameter derivatives [D_1 ... D_n],
    signed so that R_jj > 0 for the first n-1 columns and det = +1. By
    Faa di Bruno D_t = D_s U with U upper triangular and U_jj = |a'|^j,
    so Q is the arc-length frame and R_jj = |a'|^j times its arc-length
    pivot, whence kappa_j = R_{j+1,j+1} / (R_jj R_11). The arc length
    is the source's own. Raises ZeroSpeed for stationary samples (|D_1|
    collapses) and FrameDegenerate when a pivot |R_jj| collapses (some
    kappa_i is effectively zero).
    """
    n = curve.dimension
    _require_samples(curve.n_samples, n)
    src = _engine(curve)
    # columns of D[q] are d^j alpha/dt^j at sample q, j = 1..n
    D = np.moveaxis(src.jet(curve.t, n)[1:], 0, -1)
    dmag = np.linalg.norm(D[:, :, : n - 1], axis=1)
    speeds = dmag[:, 0]
    if not speeds.min() > 1e-9 * speeds.max():
        raise ZeroSpeed(f"curve speed collapses at sample {int(np.argmin(speeds))}")

    Q, R = np.linalg.qr(D)
    r = np.diagonal(R, axis1=1, axis2=2).copy()
    bad = np.abs(r[:, : n - 1]) <= PIVOT_REL * dmag
    if np.any(bad):
        j = int(np.argmax(bad.any(axis=0)))
        q = int(np.argmax(bad[:, j]))
        raise FrameDegenerate(
            f"QR pivot {j + 1} collapsed at sample {q} (|R_jj|={abs(r[q, j]):.3g}"
            f" vs |d^{j + 1}a/dt^{j + 1}|={dmag[q, j]:.3g})"
        )
    # flip columns so that R_jj > 0 for j < n; V_n's sign makes det = +1
    sign = np.sign(r)
    sign[:, n - 1] = np.sign(np.linalg.det(Q)) * np.prod(sign[:, : n - 1], axis=1)
    frames = np.swapaxes(Q * sign[:, None, :], 1, 2)
    # a flipped R_jj (j < n) is the norm of D_j's part orthogonal to the
    # lower derivatives, R_nn the signed V_n-component of D_n, R_11 the
    # speed; kappa_j = R_{j+1,j+1} / (R_jj R_11)
    r *= sign
    kappas = r[:, 1:] / r[:, :-1] / r[:, :1]

    return FrenetData(src.arclength(curve.t), curve.points, frames, kappas)


def structure_skew(ktj) -> np.ndarray:
    """Skew tridiagonal acting on frame rows: +kt_j above, -kt_j below.

    ktj has shape (..., n-1) and the result (..., n, n), so a batch of
    curvature vectors gives one matrix per vector.
    """
    ktj = np.asarray(ktj, dtype=float)
    n = ktj.shape[-1] + 1
    K = np.zeros(ktj.shape[:-1] + (n, n))
    j = np.arange(n - 1)
    K[..., j, j + 1] = ktj
    K[..., j + 1, j] = -ktj
    return K


def frenet_residual_supnorm(fr: FrenetData) -> float:
    """Sup-norm residual of the frame structure equations.

    Central-differences dV_i/ds at interior samples against the
    skew-tridiagonal reconstruction -kappa_{i-1} V_{i-1} + kappa_i V_{i+1}.
    Converges to 0 at second order on smooth curves.
    """
    V = fr.frames
    ds = (fr.s[2:] - fr.s[:-2])[:, None, None]
    dV = (V[2:] - V[:-2]) / ds
    recon = structure_skew(fr.kappas[1:-1]) @ V[1:-1]
    return float(np.linalg.norm(dV - recon, axis=2).max())


# ---------------------------------------------------------------------------
# derived-field differentiation


def field_derivative(x: np.ndarray, y: np.ndarray, order: int = 1) -> np.ndarray:
    """Derivative of a sampled smooth field y(x) at the sample points.

    Same strided-knot strategy as the position spline, with a quintic
    and a noise floor matched to fields we computed ourselves (~1e-9
    relative). y may be 1-d or (N, m).
    """
    y = np.asarray(y, dtype=float)
    flat = y.reshape(len(x), -1)
    xr = x[-1] - x[0]
    scale = max(np.abs(flat).max(), 1e-300)
    graph = np.column_stack([np.asarray(x) / max(xr, 1e-300), flat / scale])
    return np.asarray(_strided_spline(x, y, graph, 5, FIELD_NOISE)(x, order))


# ---------------------------------------------------------------------------
# CSV input and output
#
# A table is written by one %-format over all of its cells and read back by
# np.loadtxt. The csv module reads only the bodies loadtxt refuses (quoted
# cells, digit separators, digits outside ASCII, malformed rows), cell by cell
# with float(), so it alone words the BadParameters messages.

_NON_BLANK = re.compile(r"\S")


def _write_table(path, header_cols, columns) -> None:
    """Write a headed CSV table of column arrays, 17 significant digits per cell.

    The bytes are those of np.savetxt(fmt="%.17g"): the same format applied
    to every cell, in one pass instead of a Python loop over rows.
    """
    data = np.column_stack(columns)
    row = ",".join(["%.17g"] * data.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header_cols) + "\n")
        fh.write((row * len(data)) % tuple(data.ravel().tolist()))


def curve_to_csv(curve: SampledCurve, path) -> None:
    """Write the `t,x1,...,xn` CSV format with 17 significant digits."""
    _write_table(path, ["t"] + [f"x{d + 1}" for d in range(curve.dimension)],
                 [curve.t, curve.points])


def _read_text(path) -> str:
    """Text of a UTF-8 input file, without a leading byte-order mark.

    BadParameters names a file that is not UTF-8, with the byte offset of
    the first invalid byte counted from the start of the file.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise BadParameters(f"{path}: not UTF-8 text ({exc.reason} "
                            f"at byte {exc.start})") from None


def curve_from_csv(path) -> SampledCurve:
    """Read a `t,x1,...,xn` CSV; dimension inferred from the header.

    The body goes to np.loadtxt first and is kept when every row holds
    n + 1 numbers. Otherwise the csv module re-reads it, and each cell is
    float() of its csv field; blank lines are skipped either way.
    """
    text = _read_text(path)
    stream = io.StringIO(text, newline="")
    rows = csv.reader(stream)
    header = next(rows, None)
    if header is None:
        raise BadParameters(f"{path}: empty curve file")
    header = [c.strip() for c in header]
    if len(header) < 3 or header[0] != "t" or header[1:] != [
        f"x{d + 1}" for d in range(len(header) - 1)
    ]:
        raise BadParameters(
            f"{path}: header must be t,x1,...,xn with n >= 2, got {header!r}"
        )
    dim = len(header) - 1
    body = stream.tell()
    data = None
    # loadtxt warns on a body without a row and reads nothing from it
    if _NON_BLANK.search(text, body):
        try:
            data = np.loadtxt(stream, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
    if data is None or data.shape[1] != dim + 1:
        stream.seek(body)
        try:
            data = np.array([[float(c) for c in row] for row in rows if row],
                            dtype=float)
        except ValueError as exc:
            raise BadParameters(f"{path}: non-numeric cell ({exc})") from None
        if not len(data):
            raise BadParameters(f"{path}: no data rows")
        if data.ndim != 2 or data.shape[1] != dim + 1:
            raise BadParameters(f"{path}: ragged rows")
    return SampledCurve(dim, data[:, 0], data[:, 1:])
