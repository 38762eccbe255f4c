"""Self-similar curves: constant shape curvatures, in closed form.

A self-similar curve has every shape invariant constant. Its frame
satisfies d omega / d sigma = K omega with a constant skew tridiagonal
K built from kt_1..kt_{n-1}, and the position integrates
d alpha / d sigma = e^{kt sigma} V_1 (normalization constant fixed to
1, which just picks one curve in the similarity class).

The closed form diagonalizes K into m rotation planes with frequencies
lambda_p (plus a fixed axis for odd n). The eigenvectors of the
Hermitian matrix iK, phased so that their first entries are positive,
give the initial frame in that basis. For nonzero kt_j no first entry
vanishes and the frequencies are distinct, so every such signature has
a real self-similar curve. An independent realization of the same data,
one matrix exponential of a constant block system, is provided as an
oracle.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .curves import SampledCurve, _require_samples, structure_skew
from .errors import (
    BadIndex,
    BadParameters,
    NoRealSolution,
    RepeatedEigenvalue,
)
from .signatures import _check_index_circle

log = logging.getLogger("frenetsim.selfsimilar")

CONSTRAINT_TOL = 1e-9


@dataclass(frozen=True)
class SelfSimilarSpec:
    """Constant invariants (kt, kt_1..kt_{n-1}) plus a sampling window."""

    dimension: int
    index: int
    kt: float
    ktj: tuple
    sigma_range: tuple = (0.0, 4.0)
    n_samples: int = 2000

    def __post_init__(self):
        n = self.dimension
        if n < 2:
            raise BadParameters("dimension must be >= 2")
        if not 1 <= self.index <= n:
            raise BadIndex(f"index must be in 1..{n}, got {self.index}")
        ktj = tuple(float(v) for v in self.ktj)
        if len(ktj) != n - 1:
            raise BadParameters(f"need {n - 1} shape curvatures, got {len(ktj)}")
        for j, v in enumerate((float(self.kt), *ktj)):
            if not math.isfinite(v):
                raise BadParameters(
                    f"{'kt' if j == 0 else f'kt_{j}'} must be finite, got {v}")
        # the synthesis normal form needs every kt_j nonzero, including the
        # last one: a vanishing kt_{n-1} means the curve lives in E^{n-1}
        if any(v == 0.0 for v in ktj):
            raise BadParameters(
                "all kt_j must be nonzero; synthesize in a lower dimension "
                "instead of passing a zero invariant"
            )
        # kappa_1 is signed only in E^2, where kt_1 < 0 is a clockwise curve
        if n >= 3 and ktj[0] < 0:
            raise BadParameters(f"kt_1 must be positive in E^{n}, where kappa_1 > 0")
        _check_index_circle(ktj, self.index, CONSTRAINT_TOL)
        if len(self.sigma_range) != 2:
            raise BadParameters(
                f"sigma_range must be a pair, got {self.sigma_range}")
        lo, hi = float(self.sigma_range[0]), float(self.sigma_range[1])
        if not -math.inf < lo < hi < math.inf:
            raise BadParameters("sigma_range must be finite and increasing")
        _require_samples(self.n_samples, n)
        object.__setattr__(self, "kt", float(self.kt))
        object.__setattr__(self, "ktj", ktj)
        object.__setattr__(self, "sigma_range", (lo, hi))
        object.__setattr__(self, "n_samples", int(self.n_samples))


@dataclass(frozen=True)
class SelfSimilarSolution:
    """Diagonalized data of the constant structure matrix.

    lambdas: positive rotation frequencies, ascending, one per plane.
    amps: plane amplitudes a_1..a_m, plus the axial amplitude for odd
    n (the coefficient of e^{kt sigma} in the last coordinate, or the
    linear slope when kt == 0). bvals: sqrt(kt^2 + lambda_p^2).
    theta0: phase offsets so that plane p of the curve reads
    (a_p/b_p) e^{kt sigma} (sin theta_p, -cos theta_p) with
    theta_p = spin_p lambda_p sigma + theta0_p. plane_spin: +-1 per
    plane; a -1 undoes the reflection used to fix det(frame0) = +1.
    frame0: the initial frame (rows V_1..V_n), determinant +1.
    axial: the last component of V_1 for odd n (z_1), else None.
    """

    spec: SelfSimilarSpec
    lambdas: tuple
    amps: tuple
    bvals: tuple
    theta0: tuple
    plane_spin: tuple
    frame0: np.ndarray
    axial: float | None


def solve_self_similar(spec: SelfSimilarSpec) -> SelfSimilarSolution:
    """Diagonalize K into its rotation planes and read off the frame.

    The Hermitian matrix iK has eigenvalues -lambda_p, +lambda_p per
    plane and 0 for odd n. An eigenvector u of -lambda_p solves
    K u = i lambda_p u; phased so that u[0] > 0, sqrt(2) (Re u, Im u)
    are the plane's two frame columns, and for odd n the real null
    vector is the axial column. Raises RepeatedEigenvalue if two
    frequencies coincide or one vanishes, and NoRealSolution if an
    eigenvector's first entry is 0. For nonzero kt_j neither happens in
    exact arithmetic (iK is then an unreduced tridiagonal with simple
    spectrum), but both tests are relative to the largest frequency: in
    E^4, ktj = (1, 0.5, 1e-7) gives a frequency below 1e-6 of it and
    (1, 1e-160, 1) two equal ones in float64, and both are refused.
    """
    n = spec.dimension
    m = n // 2
    odd = n % 2
    w, U = np.linalg.eigh(1j * structure_skew(spec.ktj))  # ascending
    lam = -w[m - 1:: -1]
    # the null vector for odd n, then the planes by ascending lambda
    U = U[:, n - m - 1:: -1]
    lam2 = lam**2
    scale = max(lam2[-1], 1.0)
    if np.any(np.diff(lam2) <= 1e-9 * scale) or lam2[0] <= 1e-12 * scale:
        raise RepeatedEigenvalue(
            "rotation frequencies are not distinct and nonzero"
        )
    if np.any(U[0] == 0):
        raise NoRealSolution(
            "an eigenvector of K has a zero first entry; the rotation "
            "planes cannot be phased into a real frame"
        )
    U = U * (np.abs(U[0]) / U[0])
    frame0 = np.empty((n, n))
    frame0[:, 0: 2 * m: 2] = math.sqrt(2.0) * U[:, odd:].real
    frame0[:, 1: 2 * m: 2] = math.sqrt(2.0) * U[:, odd:].imag
    if odd:
        frame0[:, n - 1] = U[:, 0].real
    spin = np.ones(m)
    if np.linalg.det(frame0) < 0:
        # reflect the slowest plane; equivalently run it backwards
        frame0[:, 1] = -frame0[:, 1]
        spin[0] = -1.0

    amps = frame0[0, 0: 2 * m: 2]
    z1 = float(frame0[0, n - 1]) if odd else None
    bvals = np.hypot(spec.kt, lam)
    # V_1 starts on the first axis of every plane (u[0] > 0), so plane p
    # of the position starts at arg(1/mu_p) = theta0_p - pi/2
    theta0 = math.pi / 2.0 - np.arctan2(spin * lam, spec.kt)
    log.debug("solve: lambdas %s, amps %s, axial %s", lam, amps, z1)

    axial_amp = ()
    if odd:
        axial_amp = (z1 / spec.kt if spec.kt != 0.0 else z1,)
    return SelfSimilarSolution(
        spec,
        tuple(float(v) for v in lam),
        tuple(float(v) for v in amps) + axial_amp,
        tuple(float(v) for v in bvals),
        tuple(float(v) for v in theta0),
        tuple(float(v) for v in spin),
        frame0,
        z1,
    )


def _finite_curve(spec: SelfSimilarSpec, sigma, pts) -> SampledCurve:
    if not np.all(np.isfinite(pts)):
        raise BadParameters(f"kt = {spec.kt:g} over sigma_range "
                            f"{spec.sigma_range} overflows float64")
    return SampledCurve(spec.dimension, sigma, pts)


def synthesize_self_similar(spec: SelfSimilarSpec) -> SampledCurve:
    """Evaluate the closed form on the spec's sigma grid.

    Plane p traces (a_p/b_p) e^{kt sigma} (sin theta_p, -cos theta_p);
    for odd n the last coordinate is (z_1/kt) e^{kt sigma}, degrading
    to the linear z_1 sigma when kt == 0. The returned samples carry
    the sigma_i parameterization and no analytic source: re-analysis
    exercises the full numeric pipeline. Raises BadParameters when a
    point overflows float64.
    """
    sol = solve_self_similar(spec)
    n = spec.dimension
    m = n // 2
    kt = spec.kt
    sigma = np.linspace(*spec.sigma_range, spec.n_samples)
    pts = np.empty((spec.n_samples, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for p in range(m):
            w0 = complex(sol.frame0[0, 2 * p], sol.frame0[0, 2 * p + 1])
            mu = complex(kt, sol.plane_spin[p] * sol.lambdas[p])
            z = w0 * np.exp(mu * sigma) / mu
            pts[:, 2 * p] = z.real
            pts[:, 2 * p + 1] = z.imag
        if n % 2 == 1:
            if kt != 0.0:
                pts[:, n - 1] = (sol.axial / kt) * np.exp(kt * sigma)
            else:
                pts[:, n - 1] = sol.axial * sigma
    return _finite_curve(spec, sigma, pts)


def frame_ode_oracle(spec: SelfSimilarSpec) -> SampledCurve:
    """Independent realization by one matrix exponential.

    The frame starts at the identity at sigma_0 and solves
    d omega/d sigma = K omega, and the position d alpha/d sigma =
    e^{kt sigma} V_1 starts at 0. With W = e^{kt (sigma - sigma_0)} omega
    both are linear with constant coefficients, so the block matrix
    B = [[kt I + K, 0], [e_1^T, 0]] gives the position as the last row
    of expm((sigma - sigma_0) B), times e^{kt sigma_0} (Van Loan, IEEE
    TAC 23, 1978). The output realizes the same invariants as the
    closed form, up to a direct similarity. Raises BadParameters when a
    point overflows float64.
    """
    n = spec.dimension
    sigma = np.linspace(*spec.sigma_range, spec.n_samples)
    B = np.zeros((n + 1, n + 1))
    B[:n, :n] = spec.kt * np.eye(n) + structure_skew(spec.ktj)
    B[n, 0] = 1.0
    try:
        lead = math.exp(spec.kt * sigma[0])
    except OverflowError:
        lead = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        pts = lead * expm((sigma - sigma[0])[:, None, None] * B)[:, n, :n]
    return _finite_curve(spec, sigma, pts)
