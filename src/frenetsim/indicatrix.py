"""Spherical V_i-indicatrices, their arc length, and Sabban geometry in E^3.

The V_i-indicatrix traces the i-th frame vector on the unit sphere;
its arc element is dsigma_i = sqrt(kappa_{i-1}^2 + kappa_i^2) ds with
the boundary conventions kappa_0 = kappa_n = 0. sigma_i is anchored at
0 on the first retained sample (two samples per end are trimmed as
boundary noise) and is invariant under direct similarities. Only
_sigma_grid decides whether a V_i-indicatrix exists: it refuses an index
outside 1..n, a collapsing speed, a sigma_i that stops increasing, and a
sign change of kappa_{n-1} where the speed is |kappa_{n-1}|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson

from .curves import TRIM, FrenetData, _write_table, field_derivative
from .errors import (
    BadIndex,
    DegenerateSpeed,
    DivisionDegenerate,
    IndicatrixDegenerate,
    NotThreeDimensional,
)

INDICATRIX_REL_TOL = 1e-8


def _curvature_ladder(fr: FrenetData) -> np.ndarray:
    """kappa_0..kappa_n as rows, with kappa_0 = kappa_n = 0."""
    return np.pad(fr.kappas.T, ((1, 1), (0, 0)))


def _sigma_grid(ladder: np.ndarray, s: np.ndarray, i: int):
    """Retained slice, trimmed speed and sigma_i of a V_i-indicatrix.

    ladder holds kappa_0..kappa_n over the arc-length grid s. Two
    samples per end are dropped as boundary noise; sigma_i is the
    cumulative Simpson integral of the remaining speed, anchored at 0.
    Raises BadIndex unless 1 <= i <= n, and IndicatrixDegenerate when the
    speed collapses, when sigma_i stops increasing, or when the speed is
    |kappa_{n-1}| (i = n, or n = 2) and kappa_{n-1} changes sign.
    """
    n = len(ladder) - 1
    if not 1 <= i <= n:
        raise BadIndex(f"indicatrix index must be in 1..{n}, got {i}")
    sl = slice(TRIM, len(s) - TRIM)
    qs = np.hypot(ladder[i - 1, sl], ladder[i, sl])
    scale = max(qs.max(), 2.0 / (s[-1] - s[0]))
    if qs.min() <= INDICATRIX_REL_TOL * scale:
        raise IndicatrixDegenerate(
            f"V_{i}-indicatrix speed collapses "
            f"(min {qs.min():.3g} against scale {scale:.3g})"
        )
    sigma = cumulative_simpson(qs, x=s[sl], initial=0.0)
    stall = np.flatnonzero(np.diff(sigma) <= 0)
    if len(stall):
        raise IndicatrixDegenerate(
            f"sigma_{i} stops increasing at sample {TRIM + stall[0] + 1} "
            f"(speed spans {qs.min():.3g} to {qs.max():.3g})")
    if i == n or n == 2:
        last = ladder[n - 1, sl]
        flips = np.flatnonzero(last[:-1] * last[1:] < 0)
        if len(flips):
            raise IndicatrixDegenerate(
                f"kappa_{n - 1} changes sign at sample {TRIM + flips[0] + 1}, "
                f"so the V_{i}-indicatrix speed vanishes there"
            )
    return sl, qs, sigma


@dataclass(frozen=True)
class SphericalCurve:
    """A curve on S^{n-1} parameterized by its arc length sigma."""

    dimension: int
    source_index: int
    sigma: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        sig = np.ascontiguousarray(np.asarray(self.sigma, dtype=float))
        g = np.ascontiguousarray(np.asarray(self.gamma, dtype=float))
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


def indicatrix_curve(fr: FrenetData, i: int) -> SphericalCurve:
    """The spherical V_i-indicatrix with its arc length sigma_i.

    sigma_i integrates the indicatrix speed by cumulative Simpson
    quadrature over s, anchored at 0 on the first retained sample.
    """
    sl, _, sigma = _sigma_grid(_curvature_ladder(fr), fr.s, i)
    return SphericalCurve(fr.dimension, i, sigma, fr.frames[sl, i - 1, :])


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

    Differentiates gamma(sigma) by the strided spline and evaluates
    kappa_g = det(gamma, gamma', gamma'') / |gamma'|^3, which equals
    the Sabban-frame geodesic curvature when sigma is arc length.
    """
    if sc.dimension != 3:
        raise NotThreeDimensional(
            f"Sabban frame is defined in E^3, curve lives in E^{sc.dimension}"
        )
    d1 = field_derivative(sc.sigma, sc.gamma, order=1)
    d2 = field_derivative(sc.sigma, sc.gamma, order=2)
    speed = np.linalg.norm(d1, axis=1)
    if speed.min() <= 1e-8 * max(speed.max(), 1e-300):
        raise DegenerateSpeed("spherical curve speed collapses")
    t_vec = d1 / speed[:, None]
    rho = np.cross(sc.gamma, t_vec)
    det = np.einsum("qd,qd->q", np.cross(d1, d2), sc.gamma)
    kappa_g = det / speed**3
    return SabbanData(sc.sigma, sc.gamma, t_vec, rho, kappa_g)


def geodesic_closed_form(sig, which: str) -> np.ndarray:
    """Geodesic curvature of an E^3 indicatrix from shape curvatures.

    sig is a ShapeSignature whose index must match the indicatrix:
    tangent -> 1, normal -> 2, binormal -> 3. Closed forms:

        tangent:  kt_2 / kt_1
        normal:   kt_1^2 * d/dsigma_2 (kt_2 / kt_1)
        binormal: kt_1 / kt_2

    The binormal form carries the sign convention kappa_2 > 0; on
    curves with negative torsion the numeric Sabban value is the
    negative of this ratio.
    """
    if sig.dimension != 3:
        raise NotThreeDimensional("closed forms are specific to E^3")
    expected = {"tangent": 1, "normal": 2, "binormal": 3}
    if which not in expected:
        raise BadIndex(f"unknown indicatrix {which!r}")
    if sig.index != expected[which]:
        raise BadIndex(
            f"{which} indicatrix needs a signature with index "
            f"{expected[which]}, got {sig.index}"
        )
    kt1, kt2 = sig.ktj[0], sig.ktj[1]
    # a ShapeSignature holds |kt_1| = 1 at index 1 and |kt_2| = 1 at index 3
    if which == "tangent":
        return kt2 / kt1
    if which == "binormal":
        return kt1 / kt2
    if np.any(np.abs(kt1) <= 1e-12):
        raise DivisionDegenerate("kt_1 vanishes; normal form undefined")
    ratio = kt2 / kt1
    return kt1**2 * field_derivative(sig.sigma, ratio, order=1)


def indicatrix_to_csv(sc: SphericalCurve, path, kappa_g=None) -> None:
    """Write `sigma,g1,...,gn[,kappa_g]` with 17 significant digits."""
    head = ["sigma"] + [f"g{d + 1}" for d in range(sc.dimension)]
    cols = [sc.sigma, sc.gamma]
    if kappa_g is not None:
        head.append("kappa_g")
        cols.append(kappa_g)
    _write_table(path, head, cols)
