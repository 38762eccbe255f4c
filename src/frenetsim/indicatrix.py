"""Spherical V_i-indicatrices, their arc length, and Sabban geometry in E^3.

The V_i-indicatrix traces the i-th frame vector on the unit sphere;
its arc element is dsigma_i = sqrt(kappa_{i-1}^2 + kappa_i^2) ds with
the boundary conventions kappa_0 = kappa_n = 0. sigma_i is anchored at
0 on the first retained sample (two samples per end are trimmed as
boundary noise) and is invariant under direct similarities. Only
_sigma_grids decides whether a V_i-indicatrix exists. It integrates the
speeds of all the asked indices in one quadrature, then refuses, index
by index, an index outside 1..n, a collapsing speed, a sigma_i that
stops increasing, and a sign change of kappa_{n-1} where the speed is
|kappa_{n-1}|. A ShapeSignature keeps that sigma_i, and the indicatrix
with its Sabban kappa_g is built on it (_indicatrix) without a second
quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson

from .curves import (
    TRIM,
    FrenetData,
    _field_strides,
    _strided_spline,
    _write_texts,
    field_derivative,
)
from .errors import (
    BadIndex,
    DegenerateSpeed,
    DivisionDegenerate,
    IndicatrixDegenerate,
    NotThreeDimensional,
)
from .jsonio import float_texts

INDICATRIX_REL_TOL = 1e-8


def _curvature_ladder(fr: FrenetData) -> np.ndarray:
    """kappa_0..kappa_n as rows, with kappa_0 = kappa_n = 0."""
    return np.pad(fr.kappas.T, ((1, 1), (0, 0)))


def _sigma_grids(ladder: np.ndarray, s: np.ndarray, indices,
                 partial: bool = False):
    """Retained slice, trimmed speeds and sigma_i of V_i-indicatrices.

    ladder holds kappa_0..kappa_n over the arc-length grid s. Two
    samples per end are dropped as boundary noise; sigma_i is the
    cumulative Simpson integral of the remaining speed, anchored at 0.
    One hypot and one cumulative_simpson run over the rows of all the
    valid indices, and each row is bit-identical to the quadrature of its
    index alone. The indices are then checked in order: BadIndex unless
    1 <= i <= n, and IndicatrixDegenerate when the speed collapses, when
    sigma_i stops increasing, or when the speed is |kappa_{n-1}| (i = n,
    or n = 2) and kappa_{n-1} changes sign. With partial, a degenerate
    index is left out instead, and the last refusal is raised only when
    every index is refused. Returns the slice and {i: (speed, sigma_i)}
    in the order of indices.
    """
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
    grids, refusal = {}, None
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
            grids[i] = qs[r], sigma[r]
            continue
        if not partial:
            raise refusal
    if not grids:
        raise refusal
    return sl, grids


@dataclass(frozen=True)
class SphericalCurve:
    """A curve on S^{n-1} parameterized by its arc length sigma."""

    dimension: int
    source_index: int
    sigma: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        sig = np.array(self.sigma, dtype=float, order="C")
        g = np.array(self.gamma, dtype=float, order="C")
        if g.shape != (len(sig), self.dimension):
            raise BadIndex("gamma must be per-sample vectors in E^n")
        if not np.all(np.diff(sig) > 0):
            raise DegenerateSpeed("sigma must be strictly increasing")
        r = np.linalg.norm(g, axis=1)
        if np.any(np.abs(r - 1.0) > 1e-6):
            raise DegenerateSpeed("indicatrix samples left the unit sphere")
        sig.setflags(write=False)
        g.setflags(write=False)
        object.__setattr__(self, "sigma", sig)
        object.__setattr__(self, "gamma", g)


def _indicatrix(fr: FrenetData, i: int, sigma) -> SphericalCurve:
    """The V_i-indicatrix of fr on sigma_i: frame row V_i, retained samples."""
    return SphericalCurve(fr.dimension, i, sigma,
                          fr.frames[TRIM:fr.n_samples - TRIM, i - 1])


def indicatrix_curve(fr: FrenetData, i: int) -> SphericalCurve:
    """The spherical V_i-indicatrix with its arc length sigma_i.

    sigma_i integrates the indicatrix speed by cumulative Simpson
    quadrature over s, anchored at 0 on the first retained sample.
    """
    _, grids = _sigma_grids(_curvature_ladder(fr), fr.s, [i])
    return _indicatrix(fr, i, grids[i][1])


# ---------------------------------------------------------------------------
# Sabban frame and geodesic curvature (E^3 only)


@dataclass(frozen=True)
class SabbanData:
    """Per-sample Sabban triple (gamma, t_vec, rho) and geodesic curvature."""

    sigma: np.ndarray
    gamma: np.ndarray
    t_vec: np.ndarray
    rho: np.ndarray
    kappa_g: np.ndarray


def sabban_geodesic_curvature(sc: SphericalCurve) -> SabbanData:
    """Numeric geodesic curvature of a spherical curve in E^3.

    Fits gamma(sigma) once by the quintic strided spline of
    field_derivative, at one stride for all three coordinates read from
    the joint graph [sigma / range, gamma / max|gamma|] (_field_strides
    of gamma as one graph), differentiates that fit twice and evaluates
    kappa_g = det(gamma, gamma', gamma'') / |gamma'|^3, which equals
    the Sabban-frame geodesic curvature when sigma is arc length.
    """
    if sc.dimension != 3:
        raise NotThreeDimensional(
            f"Sabban frame is defined in E^3, curve lives in E^{sc.dimension}"
        )
    stride = _field_strides(sc.sigma, sc.gamma.T[:, None])[0]
    fit = _strided_spline(sc.sigma, sc.gamma, stride, 5)
    d1, d2 = fit(sc.sigma, 1), fit(sc.sigma, 2)
    speed = np.linalg.norm(d1, axis=1)
    if speed.min() <= 1e-8 * max(speed.max(), 1e-300):
        raise DegenerateSpeed("spherical curve speed collapses")
    t_vec = d1 / speed[:, None]
    rho = np.cross(sc.gamma, t_vec)
    det = np.einsum("qd,qd->q", np.cross(d1, d2), sc.gamma)
    kappa_g = det / speed**3
    return SabbanData(sc.sigma, sc.gamma, t_vec, rho, kappa_g)


def geodesic_closed_form(sig) -> np.ndarray:
    """Geodesic curvature of an E^3 indicatrix from shape curvatures.

    sig is a ShapeSignature, and its index picks the indicatrix and its
    closed form: 1 the tangent, 2 the normal, 3 the binormal.

        tangent:  kt_2 / kt_1
        normal:   kt_1^2 * d/dsigma_2 (kt_2 / kt_1)
        binormal: kt_1 / kt_2

    The binormal form carries the sign convention kappa_2 > 0; on
    curves with negative torsion the numeric Sabban value is the
    negative of this ratio.
    """
    if sig.dimension != 3:
        raise NotThreeDimensional("closed forms are specific to E^3")
    kt1, kt2 = sig.ktj
    # a ShapeSignature holds |kt_1| = 1 at index 1 and |kt_2| = 1 at index 3
    if sig.index == 1:
        return kt2 / kt1
    if sig.index == 3:
        return kt1 / kt2
    if np.any(np.abs(kt1) <= 1e-12):
        raise DivisionDegenerate("kt_1 vanishes; normal form undefined")
    return kt1**2 * field_derivative(sig.sigma, kt2 / kt1)


def _write_indicatrix(path, sigma, gamma, kappa_g) -> None:
    """Write `sigma,g1,...,gn[,kappa_g]` from the float_texts of its columns.

    gamma holds the texts of each coordinate; kappa_g None leaves its
    column out.
    """
    head = ["sigma"] + [f"g{d + 1}" for d in range(len(gamma))]
    cols = [sigma, *gamma]
    if kappa_g is not None:
        head.append("kappa_g")
        cols.append(kappa_g)
    _write_texts(path, head, cols)


def indicatrix_to_csv(sc: SphericalCurve, path, kappa_g=None) -> None:
    """Write `sigma,g1,...,gn[,kappa_g]` with 17 significant digits."""
    _write_indicatrix(path, float_texts(sc.sigma), float_texts(sc.gamma.T),
                      None if kappa_g is None else float_texts(kappa_g))
