"""Focal curves (osculating-sphere centers) and focal curvatures.

The focal curve is C = alpha + f_1 V_2 + ... + f_{n-1} V_n. Its
coefficients, the focal curvatures, satisfy f_1 = 1/kappa_1 and the
recursion f_i = (f_1 f_1' + ... + f_{i-1} f_{i-1}') / (kappa_i f_{i-1})
with derivatives in arc length. shape_from_focal inverts it, the
paper's expression of the shape invariants through the focal
curvatures; it reuses the fits of the f_j, so it restates the signature
and does not check it. C' is parallel to V_n (Uribe-Vargas, Bull. Braz.
Math. Soc. 36, 2005), which curves.tangent_residual checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import PIVOT_REL, FrenetData, _frozen, field_derivative
from .errors import ZeroCurvature, ZeroFocalPivot
from .signatures import ShapeSignature, _ladder_signatures


@dataclass(frozen=True)
class FocalData:
    """Per-sample focal curvatures f_1..f_{n-1} and focal points."""

    s: np.ndarray
    f: np.ndarray
    focal_points: np.ndarray

    def __post_init__(self):
        _frozen(self, s=self.s, f=self.f, focal_points=self.focal_points)


def _check_kappa(kap_i: np.ndarray, i: int) -> None:
    mx = np.abs(kap_i).max()
    # a sign change in the (signed) last curvature is the generic way
    # this degenerates: 1/kappa blows up between samples
    if mx == 0 or np.abs(kap_i).min() <= 1e-9 * mx \
            or kap_i.max() * kap_i.min() < 0:
        raise ZeroCurvature(
            f"kappa_{i} passes through zero; focal recursion undefined"
        )


def focal_curvatures(fr: FrenetData) -> FocalData:
    """Focal curvatures and focal points at every sample."""
    n = fr.dimension
    kap = fr.kappas
    _check_kappa(kap[:, 0], 1)
    f = np.empty((fr.n_samples, n - 1))
    f[:, 0] = 1.0 / kap[:, 0]
    fscale = np.abs(f[:, 0]).max()
    for j in range(2, n):
        _check_kappa(kap[:, j - 1], j)
        pivot = f[:, j - 2]
        if np.abs(pivot).min() <= PIVOT_REL * max(fscale, 1e-300):
            raise ZeroFocalPivot(
                f"f_{j - 1} vanishes; cannot continue the recursion to f_{j}"
            )
        # running = f_1 f_1' + ... + f_{j-1} f_{j-1}'
        term = pivot * field_derivative(fr.s, pivot)
        running = term if j == 2 else running + term
        f[:, j - 1] = running / (kap[:, j - 1] * pivot)
        fscale = max(fscale, np.abs(f[:, j - 1]).max())
    centers = fr.points + np.einsum("qj,qjd->qd", f, fr.frames[:, 1:, :])
    return FocalData(fr.s, f, centers)


def shape_from_focal(fd: FocalData, i: int) -> ShapeSignature:
    """Shape curvatures expressed through focal curvatures alone.

    Inverts the focal recursion: kappa_1 = 1/f_1 and
    kappa_j = S_{j-1} / (f_{j-1} f_j) for 2 <= j < n, where
    S_j = f_1 f_1' + ... + f_j f_j'. _ladder_signatures pads these with
    kappa_0 = kappa_n = 0, so every index 1 <= i <= n is covered.
    """
    npts, ncols = fd.f.shape
    n = ncols + 1
    floor = PIVOT_REL * max(np.abs(fd.f).max(), 1e-300)
    if np.any(np.abs(fd.f) <= floor):
        col = int(np.argmax(np.any(np.abs(fd.f) <= floor, axis=0)))
        raise ZeroFocalPivot(
            f"f_{col + 1} vanishes somewhere; the focal expressions for the "
            "shape curvatures are inapplicable on this curve"
        )
    kap = np.empty((npts, n - 1))
    kap[:, 0] = 1.0 / fd.f[:, 0]
    # column j - 2 of S is S_{j-1}, summed left to right as in the recursion
    pivots = fd.f[:, : n - 2]
    S = np.cumsum(pivots * field_derivative(fd.s, pivots), axis=1)
    kap[:, 1:] = S / (pivots * fd.f[:, 1:])
    return _ladder_signatures(kap, fd.s, [i])[i]
