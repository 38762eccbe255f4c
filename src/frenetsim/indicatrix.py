"""Spherical V_i-indicatrices, their arc length, and Sabban geometry in E^3.

The V_i-indicatrix traces the i-th frame vector on the unit sphere;
its arc element is dsigma_i = sqrt(kappa_{i-1}^2 + kappa_i^2) ds with
the boundary conventions kappa_0 = kappa_n = 0. sigma_i is anchored at
0 on the first retained sample (two samples per end are trimmed as
boundary noise) and is invariant under direct similarities.
signatures._ladder_signatures integrates sigma_i and decides whether a
V_i-indicatrix exists; a ShapeSignature keeps that sigma_i, and this
module only reads it: indicatrix_curve takes frame row V_i on it, so the
indicatrix needs no second quadrature, and the Sabban geometry, the E^3
closed forms and the CSV writer build on that curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import (
    TRIM,
    FrenetData,
    _field_strides,
    _strided_spline,
    _write_table,
    field_derivative,
)
from .errors import (
    BadIndex,
    DegenerateSpeed,
    DimensionMismatch,
    DivisionDegenerate,
    NotThreeDimensional,
)


@dataclass(frozen=True)
class SphericalCurve:
    """A curve on S^{n-1} parameterized by its arc length sigma."""

    dimension: int
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


def indicatrix_curve(fr: FrenetData, sig) -> SphericalCurve:
    """The V_i-indicatrix of fr on the sigma_i of sig, i = sig.index.

    sig is a ShapeSignature of fr; gamma is frame row V_i on the samples
    it keeps. DimensionMismatch refuses a signature of another apparatus,
    of another dimension or sample count.
    """
    kept = fr.n_samples - 2 * TRIM
    if sig.dimension != fr.dimension or len(sig.sigma) != kept:
        raise DimensionMismatch(f"signature of {len(sig.sigma)} samples in E^"
                                f"{sig.dimension}, apparatus keeps {kept} in "
                                f"E^{fr.dimension}")
    return SphericalCurve(fr.dimension, sig.sigma,
                          fr.frames[TRIM:fr.n_samples - TRIM, sig.index - 1])


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


def indicatrix_to_csv(path, sigma, gamma, kappa_g=None) -> None:
    """Write `sigma,g1,...,gn[,kappa_g]` with 17 significant digits.

    Each column is a float array or, when another artifact shares it,
    its float_texts, formatted once for both (_write_table). gamma has
    one row per sample; kappa_g None leaves its column out.
    """
    head = ["sigma"] + [f"g{d + 1}" for d in range(np.shape(gamma)[1])]
    cols = [sigma, gamma]
    if kappa_g is not None:
        head.append("kappa_g")
        cols.append(kappa_g)
    _write_table(path, head, cols)
