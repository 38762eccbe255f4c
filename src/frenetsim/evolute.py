"""Evolutes of curves in three dimensions.

An evolute beta = alpha + m1 V_2 + m2 V_3 meets every normal plane of
alpha; m1 = 1/kappa_1 is forced, and m2 = m1 cot(phi) with
phi = phi0 + integral of kappa_2 picks one member of the family per
integration constant phi0. Two identities tie the evolute back to the
source curve, and evolute_invariant_report checks them on an evolute
from evolute_e3: the first shape curvature of alpha equals m1', and
kappa_2/kappa_1 equals m1 (m1' m2 - m1 m2') / (m1^2 + m2^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson

from .curves import TRIM, FrenetData, field_derivative
from .errors import BadRange, CotSingularity, NotThreeDimensional
from .signatures import shape_curvatures

SIN_FLOOR = 1e-6


@dataclass(frozen=True)
class EvoluteData:
    """Evolute samples beta with the normal-plane coefficients m1, m2."""

    s: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    beta: np.ndarray
    phi0: float


@dataclass(frozen=True)
class EvoluteReport:
    """Sup-norm residuals of the two evolute identities."""

    residual_shape: float
    residual_ratio: float

    @property
    def max_residual(self) -> float:
        return max(self.residual_shape, self.residual_ratio)


def evolute_e3(fr: FrenetData, phi0: float = math.pi / 2) -> EvoluteData:
    """Evolute of a curve in E^3 for the integration constant phi0."""
    if fr.dimension != 3:
        raise NotThreeDimensional(
            f"evolute construction needs dimension 3, got {fr.dimension}"
        )
    if not math.isfinite(phi0):
        raise BadRange(f"phi0 must be finite, got {phi0}")
    integral = cumulative_simpson(fr.kappas[:, 1], x=fr.s, initial=0.0)
    phi = phi0 + integral - integral[TRIM]
    sphi = np.sin(phi)
    pole = (np.abs(sphi) <= SIN_FLOOR) | (sphi * sphi[0] < 0)
    if pole.any():
        q = int(np.argmax(pole))
        raise CotSingularity(
            "phi0 + integral(kappa_2) reaches or crosses a multiple of pi at "
            f"sample {q}, s = {fr.s[q]:.6g}; choose a different phi0 or a "
            "shorter arc"
        )
    m1 = 1.0 / fr.kappas[:, 0]
    m2 = m1 * np.cos(phi) / sphi
    beta = fr.points + m1[:, None] * fr.frames[:, 1, :] \
        + m2[:, None] * fr.frames[:, 2, :]
    return EvoluteData(fr.s, m1, m2, beta, phi0)


def evolute_invariant_report(fr: FrenetData, ed: EvoluteData) -> EvoluteReport:
    """Residuals of the two identities linking alpha to its evolute.

    ed is the evolute that evolute_e3(fr, phi0) built, for any phi0.
    Both residuals vanish for exact data; numerically they inherit the
    differentiation noise of m1, m2 and of the shape curvature of the
    source curve.
    """
    sig = shape_curvatures(fr, 1)
    sl = slice(TRIM, fr.n_samples - TRIM)
    m1p = field_derivative(ed.s, ed.m1)[sl]
    m1 = ed.m1[sl]
    m2 = ed.m2[sl]
    # m2 = m1 cot(phi) with phi' = kappa_2, so the chain rule gives m2'
    # from the single numeric derivative m1'; differencing cot directly
    # would be hopeless near its pole
    cot = m2 / m1
    m2p = m1p * cot - m1 * fr.kappas[sl, 1] * (1.0 + cot ** 2)
    r1 = float(np.abs(sig.kt - m1p).max())
    ratio = fr.kappas[sl, 1] / fr.kappas[sl, 0]
    recon = m1 * (m1p * m2 - m1 * m2p) / (m1 ** 2 + m2 ** 2)
    r2 = float(np.abs(ratio - recon).max())
    return EvoluteReport(r1, r2)
