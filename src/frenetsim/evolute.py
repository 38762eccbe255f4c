"""Evolutes of curves in three dimensions.

An evolute beta = alpha + m1 V_2 + m2 V_3 meets every normal plane of
alpha; m1 = 1/kappa_1 is forced, and m2 = m1 cot(phi) with
phi = phi0 + integral of kappa_2 picks one member of the family per
integration constant phi0. Its tangent line is the normal line of alpha
through beta, beta' parallel to beta - alpha, a direction the
construction never uses; curves.tangent_residual measures how far the
sampled beta' leaves it, and `frenetsim evolute` prints that check. It
grows where the spline fits have support on one side only, at the ends
of the kept samples, and where phi nears a multiple of pi, since beta
runs off to infinity at the cotangent's pole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import FrenetData, _frozen, cumulative_simpson
from .errors import BadRange, CotSingularity, NotThreeDimensional

SIN_FLOOR = 1e-6
DEFAULT_PHI0 = math.pi / 2


@dataclass(frozen=True)
class EvoluteData:
    """Evolute samples beta with the normal-plane coefficients m1, m2."""

    s: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        _frozen(self, s=self.s, m1=self.m1, m2=self.m2, beta=self.beta)


def evolute_e3(fr: FrenetData, phi0: float = DEFAULT_PHI0) -> EvoluteData:
    """Evolute of a curve in E^3 for the integration constant phi0."""
    if fr.dimension != 3:
        raise NotThreeDimensional(
            f"evolute construction needs dimension 3, got {fr.dimension}"
        )
    if not math.isfinite(phi0):
        raise BadRange(f"phi0 must be finite, got {phi0}")
    integral = cumulative_simpson(fr.kappas[:, 1], fr.s)
    phi = phi0 + integral - integral[fr.kept.start]
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
    return EvoluteData(fr.s, m1, m2, beta)

