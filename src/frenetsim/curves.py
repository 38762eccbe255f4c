"""Curve models and the numerical Frenet apparatus in E^n.

The pipeline reads every curve through a jet source: an object whose
jet(tq, order) returns the derivatives of the curve at each query
parameter, entry [k] being d^k alpha/dt^k, whose velocity(tq) returns
entry [1] alone, and whose arclength(tq) returns the arc length from
tq[0] to each query parameter.

* BuiltinCurve: an analytic fixture curve with exact derivatives;
* AffineImage: a direct-similarity image of another source, whose arc
  length is the source's times the scale;
* _SplineSource: raw samples interpolated once by a B-spline whose knots
  are subsampled to keep high-order derivatives away from the roundoff
  amplification floor;
* _ReparamSource: the arclength reparameterization of another source,
  whose first derivative has unit length at each query point and whose
  parameter is its own arc length, read back to t through the inner
  source's arc-length table (_arclength_table).

The arc-length table holds t, s and the speed v = ds/dt on one uniform
grid of max(4N, 4096) + 1 parameters, or of 64 per knot span of a
position spline when that is fewer, so it is read either way by cubic
Hermite interpolation with exact slopes, v for s(t) and 1/v for t(s),
with no spline fit of its own.

A SampledCurve carries its source, or gets a spline fitted to its
samples, so no finite differencing of positions ever happens. One rule,
_auto_stride, sets the knot stride of every strided spline: the position
fit reads it off the sample polyline, and the fits of computed fields
(field_derivative, the Sabban fit of an indicatrix) off their graphs
through _field_strides. Frame and curvatures do not depend on the
parameter: the QR of the parameter derivatives [d^j a/dt^j] gives the
Frenet frame in any regular parameter, and the pivots give kappa_j =
R_{j+1,j+1}/(R_jj R_11), the last one signed by the projection of the
n-th derivative on V_n. The QR of all samples is one Householder sweep
(_householder_qr) that runs once per column, vectorized over the sample
axis; since every reflection has determinant -1, the count of
reflections it applies at a sample gives the orientation of that
sample's Q.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import re
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicHermiteSpline, make_interp_spline

from .errors import (
    BadParameters,
    BadRange,
    DimensionMismatch,
    FrameDegenerate,
    TooFewSamples,
    ZeroSpeed,
)
from .jsonio import format_rows

log = logging.getLogger("frenetsim.curves")

# boundary samples trimmed from all downstream signatures
TRIM = 2
# QR pivot threshold on |R_jj| / |D_j| and on kappa_{j-1} times arc length
PIVOT_REL = 1e-8
# relative data noise assumed by the knot-stride rule
POSITION_NOISE = 1e-16
FIELD_NOISE = 1e-9
# knot spacing constant (calibrated on self-similar round trips)
STRIDE_C = 1.5
# largest admissible sample count, the last integer a float64 holds
# exactly; numpy can size every array of a count up to it, so memory
# refuses a count too large with MemoryError (past numpy's size limit it
# would raise ValueError instead)
MAX_SAMPLES = 2**53
# arc-length table points per knot span of a position spline
TABLE_PER_SPAN = 64
# golden-section steps refining a dip of the tabulated speed: they shrink
# its two-interval bracket by 0.618^48, about 1e-10
_DIP_STEPS = 48
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

TAU = 2.0 * math.pi


def min_samples(dimension: int) -> int:
    """Smallest admissible sample count for an n-dimensional analysis."""
    return 2 * (dimension + 2)


def _require_samples(count: int, dimension: int) -> None:
    if count < min_samples(dimension):
        raise TooFewSamples(f"need at least {min_samples(dimension)} samples "
                            f"in E^{dimension}, got {count}")
    if count > MAX_SAMPLES:
        # an int past the float range has no %g text
        got = (f"{count:.3g}" if count <= sys.float_info.max
               else f"more than {sys.float_info.max:.3g}")
        raise BadRange(f"at most {MAX_SAMPLES} samples, got {got}")


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

    def velocity(self, tq: np.ndarray) -> np.ndarray:
        return self.jet(tq, 1)[1]

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
    """A direct-similarity image lam * A x + b of another jet source.

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

    def velocity(self, tq: np.ndarray) -> np.ndarray:
        return self.scale * (self.source.velocity(tq) @ self.matrix.T)

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
        # copies, so freezing them leaves the caller's arrays writable
        t = np.array(self.t, dtype=float, order="C")
        pts = np.array(self.points, dtype=float, order="C")
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


def _auto_stride(coords, k: int, noise: float):
    """Knot stride balancing spline truncation against roundoff blowup.

    coords is a sequence of coordinate arrays with the samples on the
    last axis; they may broadcast to a stack of polylines, and then one
    stride per polyline comes back. Target knot spacing ~ rho *
    noise^(1/(k+1)) where rho is the polyline's length per radian of
    turning, a cheap feature-scale estimate. Fully straight data gets the
    widest admissible stride.
    """
    ch = [np.diff(c, axis=-1) for c in coords]
    cl = np.sqrt(sum(c * c for c in ch))
    unit = [c / np.maximum(cl, 1e-300) for c in ch]
    cosang = sum(c[..., :-1] * c[..., 1:] for c in unit)
    turning = np.arccos(np.clip(cosang, -1.0, 1.0)).sum(axis=-1)
    rho = cl.sum(axis=-1) / np.maximum(turning, 1e-12)
    target = STRIDE_C * rho * noise ** (1.0 / (k + 1))
    stride = np.rint(target / np.maximum(np.median(cl, axis=-1), 1e-300))
    return np.clip(stride, 1, max(1, cl.shape[-1] // (3 * (k + 1)))).astype(int)


def _strided_spline(x: np.ndarray, y: np.ndarray, stride: int, k: int):
    """Interpolating spline of y(x) through every stride-th sample and the last.

    The stride comes from _auto_stride; the degree is k, lowered to an
    odd number below the knot count.
    """
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

    @property
    def knot_spans(self) -> int:
        """Number of polynomial pieces of the spline."""
        return len(np.unique(self.spline.t)) - 1

    def jet(self, tq: np.ndarray, order: int) -> np.ndarray:
        out = np.zeros((order + 1, len(tq), self.spline.c.shape[-1]))
        for j in range(min(order, self.spline.k) + 1):
            out[j] = self.spline(tq, j)
        return out

    def velocity(self, tq: np.ndarray) -> np.ndarray:
        return self.spline(tq, 1)

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
    # the stride rule squares chords: on the polyline scaled by a power of
    # two they stay in float64, and the stride is that of the unscaled one
    big = np.frexp(np.abs(curve.points).max())[1]
    stride = _auto_stride(np.ldexp(curve.points.T, -big), k, POSITION_NOISE)
    return _SplineSource(_strided_spline(curve.t, curve.points, stride, k))


def _engine(curve: SampledCurve) -> object:
    """The curve's jet source, or a spline fitted to its samples."""
    return curve.source if curve.source is not None else _fit_spline_source(curve)


# ---------------------------------------------------------------------------
# jets


def parameter_speeds(source, tq: np.ndarray) -> np.ndarray:
    """||dalpha/dt|| at the query parameters."""
    return np.linalg.norm(source.velocity(tq), axis=1)


# ---------------------------------------------------------------------------
# arc length


def _slowest_point(source, tt: np.ndarray, sp: np.ndarray):
    """The parameter where the curve is slowest on [tt[0], tt[-1]], and its speed.

    sp is the speed on the grid tt, which can step over a cusp: near a
    zero of the speed at c it grows like a |t - c|^p with p >= 1, so the
    slower of the two grid points around c, tt[i], has a neighbour more
    than twice as fast, the one on its far side from c. Every such
    interior minimum of sp is refined by a golden-section search of
    |alpha'|^2 over [tt[i-1], tt[i+1]], vectorized over the minima.
    """
    q = int(np.argmin(sp))
    mid = sp[1:-1]
    dips = 1 + np.flatnonzero((mid <= sp[:-2]) & (mid <= sp[2:])
                              & (2.0 * mid < np.maximum(sp[:-2], sp[2:])))
    if not len(dips):
        return tt[q], sp[q]

    def speed2(x):
        v = source.velocity(x)
        return np.einsum("qd,qd->q", v, v)

    a, b = tt[dips - 1], tt[dips + 1]
    for _ in range(_DIP_STEPS):
        x1, x2 = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
        # the minimum lies in [a, x2], or else in [x1, b]
        left = speed2(x1) < speed2(x2)
        a, b = np.where(left, a, x1), np.where(left, x2, b)
    x = (a + b) / 2
    f = speed2(x)
    j = int(np.argmin(f))
    if f[j] < sp[q] ** 2:
        return x[j], math.sqrt(f[j])
    return tt[q], sp[q]


def _arclength_table(source, t_lo: float, t_hi: float, n_hint: int):
    """Arc length s(t) from t_lo on m uniform parameters.

    m = max(4N, 4096) + 1, capped at TABLE_PER_SPAN K + 1 on a spline
    source with K knot spans, where the speed is one smooth polynomial
    expression per span. Cumulative Simpson of the speed; returns the
    grid, s there and the speed v = ds/dt there. s is strictly
    increasing, so the table is read either way by cubic Hermite with
    exact slopes: v for s(t), 1/v for t(s), each with O(h^4) error.
    ZeroSpeed refuses a speed that falls to 1e-9 of its maximum at a grid
    point or, refined by _slowest_point, between two: the pipeline's one
    speed check. A largest speed not above sqrt(float64 tiny), about
    1.5e-154, whose square underflows, raises FloatingPointError, which
    the callers' float64 guards refuse as out of range. At debug level it
    logs its point count, the total length, the stall margin
    min(ds)/mean(ds) between grid points, which is <= 0 where the stall
    refusal below fires, and the knot spans of a spline source.
    """
    spans = source.knot_spans if isinstance(source, _SplineSource) else None
    m = max(4 * n_hint, 4096)
    if spans is not None:
        m = min(m, TABLE_PER_SPAN * spans)
    m += 1
    tt = np.linspace(t_lo, t_hi, m)
    sp = parameter_speeds(source, tt)
    mx = sp.max()
    if not mx > math.sqrt(np.finfo(float).tiny):
        raise FloatingPointError("curve speed underflows float64")
    t_slow, v_slow = _slowest_point(source, tt, sp)
    if not v_slow > 1e-9 * mx:
        raise ZeroSpeed(f"curve speed vanishes at t = {t_slow:.6g}, inside the "
                        "parameter window")
    svals = cumulative_simpson(sp, x=tt, initial=0.0)
    ds = np.diff(svals)
    log.debug("arc-length table: %d points, length %.6g, stall margin %.3g%s",
              m, svals[-1], ds.min() / ds.mean(),
              "" if spans is None else f" over {spans} knot spans")
    # Simpson's panel weights are not all positive, so a speed that
    # oscillates between grid points, as on noisy samples, can step s back
    stall = np.flatnonzero(ds <= 0)
    if len(stall):
        raise ZeroSpeed(f"arc length stops increasing at t = {tt[stall[0]]:.6g}; "
                        "the speed oscillates faster than the quadrature grid there")
    return tt, svals, sp


def _arclength(source, t: np.ndarray) -> np.ndarray:
    tt, svals, sp = _arclength_table(source, t[0], t[-1], len(t))
    # the table starts at t[0] with s = 0, which the Hermite read returns
    return CubicHermiteSpline(tt, svals, sp)(t)


@dataclass(frozen=True)
class _ReparamSource:
    """Arclength reparameterization of another jet source.

    Query parameters are arc lengths; t_of_s reads the inner source's
    arc-length table backward, s -> t, by cubic Hermite with slopes
    dt/ds = 1/v. Each jet call returns the inner derivatives D_k at
    t_of_s(s) divided by v^k, v = |D_1|: the exact derivatives in the
    parameter that is linear in t with unit speed at the query point, so
    entry [0] is the position and entry [1] the unit tangent. Keeping the
    inner source alive avoids refitting splines to resampled data, which
    would destroy the high-order derivatives.

    The last jet is kept, read-only, with its query grid: a call on an
    equal grid and at most that order returns its leading entries, so
    the similarity images of one curve evaluate its spline once.
    """

    inner: object
    t_of_s: object
    _last: list = field(default_factory=list, init=False, compare=False,
                        repr=False)

    def jet(self, sq: np.ndarray, order: int) -> np.ndarray:
        if self._last and order < len(self._last[1]) \
                and np.array_equal(sq, self._last[0]):
            return self._last[1][: order + 1]
        P = self.inner.jet(self.t_of_s(sq), order)
        if order:
            v = np.linalg.norm(P[1], axis=-1, keepdims=True)
            # not in place: an inner _ReparamSource returns its kept jet
            P = P / v ** np.arange(order + 1).reshape(-1, 1, 1)
        P.setflags(write=False)
        self._last[:] = (np.array(sq), P)
        return P

    def velocity(self, sq: np.ndarray) -> np.ndarray:
        D1 = self.inner.velocity(self.t_of_s(sq))
        return D1 / np.linalg.norm(D1, axis=-1, keepdims=True)

    def arclength(self, sq: np.ndarray) -> np.ndarray:
        return sq - sq[0]


def _coordinate_extent(points: np.ndarray) -> float:
    """The widest coordinate range of the points, inf past float64."""
    lo, hi = points.min(axis=0), points.max(axis=0)
    return max(float(b) - float(a) for a, b in zip(lo, hi))


def arclength_reparam(curve, n_samples: int) -> SampledCurve:
    """Resample a curve uniformly in arc length.

    Accepts a SampledCurve or a BuiltinCurve (sampled over its t_span).
    The result is parameterized by arc length and carries a jet source
    so downstream analysis keeps full accuracy. Its t(s) is the cubic
    Hermite read of the arc-length table with slopes 1/v, so the only
    spline fit is the position fit of a raw curve. Its points are entry
    [0] of the order-n jet on the new grid (P[0] / v^0 = P[0], bit for
    bit), which the source keeps, so frenet_apparatus of the result reads
    that jet instead of evaluating t(s) and the inner source a second
    time. A speed table, t(s) or jet that would leave float64, a speed
    by underflow too, is refused with BadRange, naming the coordinate
    extent and the parameter span, before any of them leaves it.
    """
    if isinstance(curve, BuiltinCurve):
        t_lo, t_hi = curve.t_span
    elif isinstance(curve, SampledCurve):
        t_lo, t_hi = float(curve.t[0]), float(curve.t[-1])
    else:
        raise BadParameters(f"not a curve: {type(curve).__name__}")
    dim = curve.dimension
    n_samples = int(n_samples)
    try:
        with np.errstate(over="raise", invalid="raise"):
            src = curve if isinstance(curve, BuiltinCurve) else _engine(curve)
            _require_samples(n_samples, dim)
            tt, svals, sp = _arclength_table(src, t_lo, t_hi, n_samples)
            rep = _ReparamSource(src, CubicHermiteSpline(svals, tt, 1.0 / sp))
            s_targets = np.linspace(0.0, svals[-1], n_samples)
            points = rep.jet(s_targets, dim)[0]
    except FloatingPointError:
        if isinstance(curve, BuiltinCurve):
            what = f"the {curve.kind} curve {curve.params}"
        else:
            what = f"coordinates spanning {_coordinate_extent(curve.points):.3g}"
        raise BadRange(f"{what} over a parameter span of {t_hi - t_lo:.3g} put "
                       "the curve's speed or derivatives outside float64; "
                       "rescale the points or t") from None
    return SampledCurve(dim, s_targets, points, source=rep)


def _input_parameter(src, tq: float) -> float:
    """The parameter of the input curve at the query parameter tq.

    Through an arclength reparameterization, possibly under similarity
    images, that is the input t read back through t_of_s; elsewhere tq.
    """
    while isinstance(src, AffineImage):
        src = src.source
    return float(src.t_of_s(tq) if isinstance(src, _ReparamSource) else tq)


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


def _householder_qr(D: np.ndarray):
    """QR of every square matrix D[q] by one Householder sweep over q.

    The samples go on the last axis, so each step is a few whole-array
    operations on contiguous rows. Column k < n - 1 is reflected onto e_k
    in LAPACK's dlarfg form, beta = -sign(x_0) |x|, tau = (beta - x_0) /
    beta, v_0 = 1, except where its part below the diagonal is already
    zero. Each reflection is applied in place, one row at a time. Q is
    accumulated backward from the identity on its moving block only:
    before H_k acts, row and column k of Q[k:, k:] are still e_0, so H_k
    sets them from tau and v and reflects Q[k+1:, k+1:] alone (Golub and
    Van Loan, Matrix Computations, 4th ed., 5.1.6). Returns Q (N, n, n),
    the diagonal of R (N, n) and det Q = (-1)^(reflections applied) (N,).
    """
    n, N = D.shape[-1], D.shape[0]
    # a copy: for a single matrix the moved axes are already contiguous,
    # and np.ascontiguousarray would hand the sweep a view of D
    A = np.moveaxis(D, 0, -1).copy()  # A[i, j, q] = D[q, i, j]
    r, reflections, det = np.empty((n, N)), [], np.ones(N)

    def reflect_rows(M, v, w):  # M -= v w^T, with no (m, c, N) temporary
        for vi, row in zip(v, M):
            row -= vi * w

    def reflect(M, v, tau):  # M -= tau u (u^T M) with u = [1, v]
        w = np.einsum("iq,ijq->jq", v, M[1:])
        w += M[0]
        w *= tau
        M[0] -= w
        reflect_rows(M[1:], v, w)

    for k in range(n - 1):
        x0, tail = A[k, k], A[k + 1:, k]
        norm = np.sqrt(np.einsum("iq,iq->q", tail, tail))
        hit = norm > 0
        beta = np.where(hit, -np.copysign(np.hypot(x0, norm), x0), x0)
        tau = np.divide(beta - x0, beta, out=np.zeros(N), where=hit)
        v = np.divide(tail, x0 - beta, out=np.zeros_like(tail), where=hit)
        det[hit] *= -1.0
        r[k] = beta
        reflect(A[k:, k + 1:], v, tau)
        reflections.append((v, tau))
    r[n - 1] = A[n - 1, n - 1]
    Q = np.zeros_like(A)
    Q[np.arange(n), np.arange(n)] = 1.0
    for k in range(n - 2, -1, -1):
        v, tau = reflections[k]
        M = Q[k + 1:, k + 1:]
        w = np.einsum("iq,ijq->jq", v, M)
        w *= tau
        Q[k, k] -= tau
        Q[k + 1:, k] -= tau * v
        Q[k, k + 1:] -= w
        reflect_rows(M, v, w)
    return np.moveaxis(Q, -1, 0), r.T, det


def frenet_apparatus(curve: SampledCurve) -> FrenetData:
    """Compute frames and curvatures at every sample of the curve.

    The curve may carry any regular parameterization t. The frame is the
    QR of the parameter derivatives [D_1 ... D_n] by one Householder
    sweep over all samples (_householder_qr), signed so that R_jj > 0 for
    the first n-1 columns and det = +1; det Q is (-1)^(reflections the
    sweep applied at that sample), so no determinant is computed. By
    Faa di Bruno D_t = D_s U with U upper triangular and U_jj = |a'|^j,
    so Q is the arc-length frame and R_jj = |a'|^j times its arc-length
    pivot, whence kappa_j = R_{j+1,j+1} / (R_jj R_11). The arc length
    is the source's own, and its arc-length table alone judges the speed
    R_11 (ZeroSpeed, naming t). Raises FrameDegenerate when a pivot j,
    2 <= j < n, collapses, so that kappa_{j-1} is effectively zero:
    |R_jj| <= PIVOT_REL |D_j| or kappa_{j-1} L <= PIVOT_REL with L the
    total arc length, or when some V_j, 2 <= j < n, reverses between two
    samples, where kappa_{j-1} passes through zero. Each message names
    the sample and the input curve's parameter t there (_input_parameter).
    A derivative whose square leaves float64 in the norms, the sweep or
    the speed table is refused with BadRange, naming the coordinate
    extent and, where the square of the largest derivative overflows,
    its order: in arc length d^j a/ds^j grows as size^(1 - j), so a small
    curve in high dimension gets there first. A speed that underflows in
    the table is worded as arclength_reparam words it.
    """
    n = curve.dimension
    _require_samples(curve.n_samples, n)
    src = _engine(curve)
    # columns of D[q] are d^j alpha/dt^j at sample q, j = 1..n
    D = np.moveaxis(src.jet(curve.t, n)[1:], 0, -1)

    def t_in(q):
        return _input_parameter(src, curve.t[q])

    try:
        with np.errstate(over="raise", invalid="raise"):
            dmag = np.linalg.norm(D[:, :, 1 : n - 1], axis=1)
            Q, r, det = _householder_qr(D)
            s = src.arclength(curve.t)
    except FloatingPointError:
        big = np.abs(D).max(axis=(0, 1))
        j = int(np.argmax(big)) + 1
        what = (f"coordinates spanning {_coordinate_extent(curve.points):.3g} "
                f"over a parameter span of {curve.t[-1] - curve.t[0]:.3g}")
        # an order is named only where its square overflows; otherwise a
        # speed underflowed in the arc-length table
        if big[j - 1] > math.sqrt(sys.float_info.max):
            raise BadRange(
                f"{what} give |d^{j}a/dt^{j}| up to {big[j - 1]:.3g}, whose "
                "square is outside float64; rescale the points or t") from None
        raise BadRange(f"{what} put the curve's speed or derivatives outside "
                       "float64; rescale the points or t") from None
    length = s[-1] - s[0]
    # pivots 2..n-1 (column c of bad and flat is column j = c + 1 of r)
    bad = np.abs(r[:, 1 : n - 1]) <= PIVOT_REL * dmag
    # a pivot that is spline roundoff of a straight part passes the rule
    # above; it fails this one, kappa_{j-1} L <= PIVOT_REL for 2 <= j < n
    flat = (np.abs(r[:, 1 : n - 1]) * length
            <= PIVOT_REL * np.abs(r[:, : n - 2] * r[:, :1]))
    if np.any(bad | flat):
        c = int(np.argmax((bad | flat).any(axis=0)))
        q, j = int(np.argmax(bad[:, c] | flat[:, c])), c + 1
        if bad[q, c]:
            detail = (f"|R_jj|={abs(r[q, j]):.3g} vs "
                      f"|d^{j + 1}a/dt^{j + 1}|={dmag[q, c]:.3g}")
        else:
            kappa = abs(r[q, j] / (r[q, j - 1] * r[q, 0]))
            detail = f"kappa_{j} L={kappa * length:.3g} vs {PIVOT_REL:g}"
        raise FrameDegenerate(f"QR pivot {j + 1} collapsed at sample {q} ({detail}), "
                              f"t = {t_in(q):.6g}")
    # flip columns so that R_jj > 0 for j < n; V_n's sign makes det = +1
    sign = np.sign(r)
    sign[:, n - 1] = det * np.prod(sign[:, : n - 1], axis=1)
    frames = np.swapaxes(Q * sign[:, None, :], 1, 2)
    # kappa_{j-1} > 0 is an unsigned pivot, so where it vanishes between
    # two samples V_j (2 <= j < n) reverses between them instead
    turn = np.einsum("qjd,qjd->qj", frames[:-1, 1 : n - 1], frames[1:, 1 : n - 1])
    if np.any(turn < 0):
        q, j = np.argwhere(turn < 0)[0]
        raise FrameDegenerate(
            f"V_{j + 2} reverses between samples {q} and {q + 1} (t = "
            f"{t_in(q):.6g} to {t_in(q + 1):.6g}), so kappa_{j + 1} vanishes "
            "between them")
    # a flipped R_jj (j < n) is the norm of D_j's part orthogonal to the
    # lower derivatives, R_nn the signed V_n-component of D_n, R_11 the
    # speed; kappa_j = R_{j+1,j+1} / (R_jj R_11)
    r *= sign
    kappas = r[:, 1:] / r[:, :-1] / r[:, :1]

    return FrenetData(s, curve.points, frames, kappas)


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


# ---------------------------------------------------------------------------
# derived-field differentiation


def _field_strides(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Knot strides of m graphs of d coordinates each, y of shape (d, m, N).

    Graph g is the polyline [x / range, y[:, g] / max|y[:, g]|]; its
    stride is _auto_stride of it at degree 5 and the field noise floor.
    """
    u = np.asarray(x) / max(x[-1] - x[0], 1e-300)
    y = np.ascontiguousarray(y)  # the chords' median runs along the samples
    scale = np.maximum(np.abs(y).max(axis=(0, 2)), 1e-300)[:, None]
    return _auto_stride([u, *(c / scale for c in y)], 5, FIELD_NOISE)


def field_derivative(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """First derivative of a sampled smooth field y(x) at the sample points.

    Same strided-knot strategy as the position spline, with a quintic
    and a noise floor matched to fields we computed ourselves (~1e-9
    relative). y is 1-d, read as one column, or (N, m). Every column
    gets the stride of its own graph (_field_strides), so its derivative
    is bit-identical to that of a 1-d call on it; the columns that share
    a stride share one fit.
    """
    y = np.asarray(y, dtype=float)
    cols = y.reshape(len(x), -1)
    strides = _field_strides(x, cols.T[None])
    out = np.empty_like(cols)
    for stride in np.unique(strides):
        group = strides == stride
        out[:, group] = _strided_spline(x, cols[:, group], stride, 5)(x, 1)
    return out.reshape(y.shape)


# ---------------------------------------------------------------------------
# CSV input and output
#
# Every table is written by _write_table, one %-format and one write per
# block of rows through jsonio.format_rows, which holds the one float
# format of every artifact. A column is a float array, formatted as its
# block is written, or the texts of a column formatted before: a caller
# that writes a column into several artifacts formats it once
# (jsonio.float_texts) and hands each writer the same texts. A table is
# read back by np.loadtxt. The csv module reads only the bodies loadtxt
# refuses (quoted cells, digit separators, digits outside ASCII, malformed
# rows), cell by cell with float(), so it alone words the BadParameters
# messages.

_NON_BLANK = re.compile(r"\S")
# rows per %-format and write: the texts of one block are all that is
# held at a time beside the columns themselves
_ROW_BLOCK = 4096


def _write_table(path, header_cols, columns) -> None:
    """Write a headed CSV table, one %-format and one write per row block.

    A column is either a list of texts, formatted before, which goes in
    as it is, or a float array, whose cells get 17 significant digits; as
    in np.column_stack, a 1-d array is one column and a 2-d array
    contributes each of its columns. The bytes are those of
    np.savetxt(fmt="%.17g") on the values. Columns of unequal length
    raise ValueError.
    """
    text_cells, placed = [], []
    for c in columns:
        at = len(text_cells)
        if isinstance(c, list) and c and isinstance(c[0], str):
            text_cells.append(True)
        else:
            c = np.asarray(c, dtype=float)
            if c.ndim == 1:
                c = c[:, None]
            at = slice(at, at + c.shape[1])
            text_cells += [False] * c.shape[1]
        placed.append((at, c))
    lengths = {len(c) for _, c in placed}
    if len(lengths) > 1:
        raise ValueError("table columns differ in length")
    rows = lengths.pop() if lengths else 0
    cells = np.empty((min(rows, _ROW_BLOCK), len(text_cells)), dtype=object)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header_cols) + "\n")
        for start in range(0, rows, _ROW_BLOCK):
            block = cells[:min(rows - start, _ROW_BLOCK)]
            for at, c in placed:
                block[:, at] = c[start:start + len(block)]
            fh.write(format_rows(text_cells, block.ravel().tolist(), len(block)))


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
    float() of its csv field; blank lines are skipped either way. Text the
    csv module cannot split, a non-number and a ragged row: BadParameters.
    """
    text = _read_text(path)
    stream = io.StringIO(text, newline="")
    rows = csv.reader(stream)
    try:
        header = next(rows, None)
    except csv.Error as exc:
        raise BadParameters(f"{path}: malformed CSV ({exc})") from None
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
            cells = [[float(c) for c in row] for row in rows if row]
        except ValueError as exc:
            raise BadParameters(f"{path}: non-numeric cell ({exc})") from None
        except csv.Error as exc:
            raise BadParameters(f"{path}: malformed CSV ({exc})") from None
        if not cells:
            raise BadParameters(f"{path}: no data rows")
        if any(len(row) != dim + 1 for row in cells):
            raise BadParameters(f"{path}: ragged rows")
        data = np.array(cells)
    return SampledCurve(dim, data[:, 0], data[:, 1:])
