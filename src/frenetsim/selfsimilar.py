"""Self-similar curves: constant shape curvatures, in closed form.

A self-similar curve has every shape invariant constant. Its frame
satisfies d omega / d sigma = K omega with a constant skew tridiagonal
K built from kt_1..kt_{n-1}, and the position integrates
d alpha / d sigma = e^{kt sigma} V_1 (normalization constant fixed to
1, which just picks one curve in the similarity class).

The closed form diagonalizes K into m rotation planes with frequencies
lambda_p (plus a fixed axis for odd n). Writing the initial frame in
that basis reduces the unit-norm conditions |V_r| = 1 to a LINEAR
system in the squared amplitudes, which is solved exactly; negative
squares mean no real curve exists. An independent high-order ODE
integration of the same data is provided as an oracle.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .curves import SampledCurve, min_samples, structure_skew
from .errors import (
    BadIndex,
    BadParameters,
    IntegrationFailure,
    NoRealSolution,
    RepeatedEigenvalue,
    TooFewSamples,
)

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
        i = self.index
        if i == 1:
            if abs(abs(ktj[0]) - 1.0) > CONSTRAINT_TOL:
                raise BadParameters("for index 1, kt_1 must equal 1 (or -1 in E^2)")
        elif i == n:
            if abs(abs(ktj[n - 2]) - 1.0) > CONSTRAINT_TOL:
                raise BadParameters("for index n, |kt_{n-1}| must equal 1")
        else:
            circ = ktj[i - 2] ** 2 + ktj[i - 1] ** 2
            if abs(circ - 1.0) > CONSTRAINT_TOL:
                raise BadParameters(
                    f"kt_{i - 1}^2 + kt_{i}^2 = {circ:.12g}, must equal 1"
                )
        if len(self.sigma_range) != 2:
            raise BadParameters(
                f"sigma_range must be a pair, got {self.sigma_range}")
        lo, hi = float(self.sigma_range[0]), float(self.sigma_range[1])
        if not hi > lo:
            raise BadParameters("sigma_range must be increasing")
        if self.n_samples < min_samples(n):
            raise TooFewSamples(
                f"need at least {min_samples(n)} samples in E^{n}"
            )
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
    """Solve for the rotation frequencies and plane amplitudes.

    Raises NoRealSolution when a squared amplitude comes out negative
    and RepeatedEigenvalue if two frequencies coincide (cannot happen
    for nonzero kt_j: the squared skew matrix is similar to a Jacobi
    matrix with simple spectrum; kept as a guard).
    """
    n = spec.dimension
    m = n // 2
    odd = n % 2 == 1
    K = structure_skew(spec.ktj)
    w = np.linalg.eigvalsh(-K @ K)  # ascending, >= 0
    scale = max(w.max(), 1.0)
    if odd:
        if w[0] > 1e-9 * scale:
            raise RepeatedEigenvalue("odd dimension lost its zero eigenvalue")
        w = w[1:]
    pairs = w.reshape(m, 2)
    if np.any(np.abs(pairs[:, 1] - pairs[:, 0]) > 1e-7 * scale):
        raise RepeatedEigenvalue("eigenvalues did not pair up")
    lam2 = pairs.mean(axis=1)
    if np.any(np.diff(lam2) <= 1e-9 * scale) or lam2[0] <= 1e-12 * scale:
        raise RepeatedEigenvalue(
            "rotation frequencies are not distinct and nonzero"
        )
    lam = np.sqrt(lam2)

    # initial frame rows in the rotating basis: row r has plane-p
    # components a_p (X[r,p], Y[r,p]) and axial component z_1 Z[r].
    # The Frenet recursion V_{r+1} = (D V_r + kt_{r-1} V_{r-2}) / kt_r
    # with the per-plane rotation generator D(x, y) = lambda (-y, x)
    # fills X, Y, Z columns; unit norms give a LINEAR system in the
    # squared amplitudes q_p = a_p^2 (and q_z = z_1^2 for odd n).
    X = np.zeros((n, m))
    Y = np.zeros((n, m))
    Z = np.zeros(n)
    X[0] = 1.0
    Z[0] = 1.0 if odd else 0.0
    for r in range(1, n):
        prev = spec.ktj[r - 2] if r >= 2 else 0.0
        cur = spec.ktj[r - 1]
        X[r] = (lam * (-Y[r - 1]) + prev * X[r - 2]) / cur
        Y[r] = (lam * X[r - 1] + prev * Y[r - 2]) / cur
        Z[r] = (prev * Z[r - 2]) / cur

    neq = m + (1 if odd else 0)
    C = np.empty((neq, neq))
    C[:, :m] = (X**2 + Y**2)[:neq]
    if odd:
        C[:, m] = (Z**2)[:neq]
    try:
        q = np.linalg.solve(C, np.ones(neq))
    except np.linalg.LinAlgError as exc:
        raise NoRealSolution(f"amplitude system is singular ({exc})") from None
    if np.any(q <= 0):
        raise NoRealSolution(
            f"squared amplitudes {q} are not all positive; no real "
            "self-similar curve realizes these invariants"
        )
    # remaining unit-norm rows must hold automatically
    full = (X**2 + Y**2) @ q[:m] + (Z**2) * (q[m] if odd else 0.0)
    resid = np.abs(full - 1.0).max()
    if resid > 1e-7:
        raise NoRealSolution(f"unit-norm residual {resid:.3g} too large")

    amps = np.sqrt(q[:m])
    z1 = math.sqrt(q[m]) if odd else None
    spin = np.ones(m)
    frame0 = _assemble_frame(n, m, odd, amps, z1, X, Y, Z)
    if np.linalg.det(frame0) < 0:
        # reflect the slowest plane; equivalently run it backwards
        Y[:, 0] = -Y[:, 0]
        spin[0] = -1.0
        frame0 = _assemble_frame(n, m, odd, amps, z1, X, Y, Z)
    if abs(np.linalg.det(frame0) - 1.0) > 1e-8:
        raise NoRealSolution("initial frame failed the det = +1 correction")

    bvals = np.hypot(spec.kt, lam)
    theta0 = []
    for p in range(m):
        w0 = complex(frame0[0, 2 * p], frame0[0, 2 * p + 1])
        psi = math.atan2(spin[p] * lam[p], spec.kt)
        theta0.append(float(np.angle(w0)) - psi + math.pi / 2.0)
    log.debug("solve: lambdas %s, amps %s, axial %s", lam, amps, z1)

    axial_amp = None
    if odd:
        axial_amp = z1 / spec.kt if spec.kt != 0.0 else z1
    return SelfSimilarSolution(
        spec,
        tuple(float(v) for v in lam),
        tuple(float(v) for v in amps) + ((float(axial_amp),) if odd else ()),
        tuple(float(v) for v in bvals),
        tuple(theta0),
        tuple(float(v) for v in spin),
        frame0,
        float(z1) if odd else None,
    )


def _assemble_frame(n, m, odd, amps, z1, X, Y, Z) -> np.ndarray:
    F = np.zeros((n, n))
    for p in range(m):
        F[:, 2 * p] = amps[p] * X[:, p]
        F[:, 2 * p + 1] = amps[p] * Y[:, p]
    if odd:
        F[:, n - 1] = z1 * Z
    return F


def synthesize_self_similar(spec: SelfSimilarSpec) -> SampledCurve:
    """Evaluate the closed form on the spec's sigma grid.

    Plane p traces (a_p/b_p) e^{kt sigma} (sin theta_p, -cos theta_p);
    for odd n the last coordinate is (z_1/kt) e^{kt sigma}, degrading
    to the linear z_1 sigma when kt == 0. The returned samples carry
    the sigma_i parameterization and no analytic source: re-analysis
    exercises the full numeric pipeline.
    """
    sol = solve_self_similar(spec)
    n = spec.dimension
    m = n // 2
    kt = spec.kt
    sigma = np.linspace(*spec.sigma_range, spec.n_samples)
    pts = np.empty((spec.n_samples, n))
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
    return SampledCurve(n, sigma, pts)


def frame_ode_oracle(spec: SelfSimilarSpec) -> SampledCurve:
    """Independent realization by integrating the frame ODE.

    Integrates d omega/d sigma = K omega from the identity frame and
    d alpha/d sigma = e^{kt sigma} V_1 with DOP853 at 1e-12 tolerances,
    re-orthonormalizing the frame between chunks. The output realizes
    the same invariants as the closed form, up to a direct similarity.
    """
    n = spec.dimension
    K = structure_skew(spec.ktj)
    kt = spec.kt
    sigma = np.linspace(*spec.sigma_range, spec.n_samples)

    def rhs(s, y):
        om = y[: n * n].reshape(n, n)
        dom = K @ om
        dpos = math.exp(kt * s) * om[0]
        return np.concatenate([dom.ravel(), dpos])

    y = np.concatenate([np.eye(n).ravel(), np.zeros(n)])
    pts = np.empty((spec.n_samples, n))
    pts[0] = 0.0
    n_chunks = 32
    edges = np.linspace(0, spec.n_samples - 1, n_chunks + 1).astype(int)
    for c in range(n_chunks):
        a, b = edges[c], edges[c + 1]
        if b == a:
            continue
        seg = solve_ivp(rhs, (sigma[a], sigma[b]), y, method="DOP853",
                        t_eval=sigma[a + 1: b + 1], rtol=1e-12, atol=1e-12)
        if not seg.success:
            raise IntegrationFailure(f"frame ODE failed: {seg.message}")
        pts[a + 1: b + 1] = seg.y[n * n:, :].T
        y = seg.y[:, -1].copy()
        om = y[: n * n].reshape(n, n)
        qm, rm = np.linalg.qr(om.T)
        om = (qm * np.sign(np.diag(rm))).T
        y[: n * n] = om.ravel()
    return SampledCurve(n, sigma, pts)
