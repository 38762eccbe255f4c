"""Spherical V_i-indicatrices, their arc length, and the Sabban kappa_g in E^3.

The V_i-indicatrix traces the i-th frame vector on the unit sphere;
its arc element is dsigma_i = sqrt(kappa_{i-1}^2 + kappa_i^2) ds with
the boundary conventions kappa_0 = kappa_n = 0. sigma_i is anchored at
0 on the first retained sample (two samples per end are trimmed as
boundary noise) and is invariant under direct similarities.
signatures._ladder_signatures integrates sigma_i and decides whether a
V_i-indicatrix exists; a ShapeSignature keeps that sigma_i, and this
module only reads it. indicatrix_curve returns the frame rows V_i of the
apparatus on the samples the signature keeps, with no second quadrature.
sabban_geodesic_curvature reads the kappa_g of an E^3 indicatrix off
(fr, sig), geodesic_closed_form gives its closed form in the shape
curvatures, and indicatrix_to_csv writes it.
"""

from __future__ import annotations

import numpy as np

from .curves import (
    FrenetData,
    _write_table,
    derivative_chain,
    field_derivative,
    field_fits,
)
from .errors import (
    DegenerateSpeed,
    DimensionMismatch,
    DivisionDegenerate,
    NotThreeDimensional,
)


def indicatrix_curve(fr: FrenetData, sig) -> np.ndarray:
    """The V_i-indicatrix of fr on the sigma_i of sig, i = sig.index.

    sig is a ShapeSignature of fr; the indicatrix is frame row V_i on
    the samples it keeps, a read-only (N_kept, n) view of fr.frames.
    DimensionMismatch refuses a signature of another apparatus, of
    another dimension or sample count.
    """
    frames = fr.frames[fr.kept]
    if sig.dimension != fr.dimension or len(sig.sigma) != len(frames):
        raise DimensionMismatch(f"signature of {len(sig.sigma)} samples in E^"
                                f"{sig.dimension}, apparatus keeps {len(frames)} "
                                f"in E^{fr.dimension}")
    return frames[:, sig.index - 1]


# ---------------------------------------------------------------------------
# Sabban geodesic curvature (E^3 only)


def sabban_geodesic_curvature(fr: FrenetData, sig) -> np.ndarray:
    """The geodesic curvature kappa_g of the V_i-indicatrix in E^3, per sample.

    sig is a ShapeSignature of fr, i = sig.index. Fits the indicatrix
    gamma = indicatrix_curve(fr, sig) over sigma = sig.sigma once by
    field_fits, the fit of field_derivative, as one graph of three
    coordinates, so that the knot sites are those of the joint graph
    [sigma / range, gamma / max|gamma|]; reads gamma' and gamma'' off
    that fit's derivative chain (derivative_chain) and evaluates
    kappa_g = det(gamma, gamma', gamma'') / |gamma'|^3, which equals the
    Sabban-frame geodesic curvature when sigma is arc length. Since
    sigma is arc length, |gamma'| is about 1: DegenerateSpeed refuses a
    speed at or below 1e-8 of that unit (or of the largest speed, if
    larger), so a curve at rest is refused whatever its roundoff.
    """
    if fr.dimension != 3:
        raise NotThreeDimensional(
            f"Sabban frame is defined in E^3, curve lives in E^{fr.dimension}"
        )
    gamma = indicatrix_curve(fr, sig)
    [(_, fit)] = field_fits(sig.sigma, gamma[:, None])
    d1, d2 = (d(sig.sigma)[:, 0] for d in derivative_chain(fit, 2)[1:])
    speed = np.linalg.norm(d1, axis=1)
    # sigma is arc length, so |gamma'| is 1 up to the fit's error
    if speed.min() <= 1e-8 * max(speed.max(), 1.0):
        raise DegenerateSpeed("spherical curve speed collapses")
    det = np.einsum("qd,qd->q", np.cross(d1, d2), gamma)
    return det / speed**3


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
