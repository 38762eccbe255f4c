"""Direct similarities F(x) = lam A x + b and their JSON round trip.

Only orientation-preserving similarities are modeled: lam > 0 and A a
rotation. Applying a transform to a curve that carries a jet source (an
analytic curve, a spline fit or an arc-length reparameterization) wraps
the source in an AffineImage, so the image is the exact image of that
source: its arc length is lam times the curve's and its curvatures are
the curve's divided by lam, by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .curves import AffineImage, SampledCurve
from .errors import BadParameters, BadRange, DimensionMismatch
from .jsonio import MALFORMED, json_float, json_floats, render

ORTHO_TOL = 1e-12


@dataclass(frozen=True)
class SimilarityTransform:
    """Scale lam > 0, rotation A (det +1), translation b."""

    lam: float
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        lam = float(self.lam)
        A = np.array(self.A, dtype=float, order="C")
        b = np.array(self.b, dtype=float, order="C")
        for name, value in (("scale lambda", lam), ("matrix A", A),
                            ("offset b", b)):
            if not np.all(np.isfinite(value)):
                raise BadParameters(f"similarity {name} must be finite")
        if not lam > 0:
            raise BadParameters("similarity scale must be positive")
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise BadParameters("A must be square")
        if b.shape != (A.shape[0],):
            raise DimensionMismatch("b must match A's dimension")
        if not np.allclose(A.T @ A, np.eye(len(A)), atol=ORTHO_TOL):
            raise BadParameters("A is not orthogonal within 1e-12")
        if not abs(np.linalg.det(A) - 1.0) <= 1e-9:
            raise BadParameters("A must have determinant +1 (direct similarity)")
        A.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def dimension(self) -> int:
        return len(self.b)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.lam * (np.asarray(x, dtype=float) @ self.A.T) + self.b


def random_similarity(seed: int, lambda_range, dimension: int) -> SimilarityTransform:
    """Deterministic random direct similarity.

    Rotation from QR of a Gaussian matrix with the usual sign fix, then
    determinant corrected to +1; translation componentwise in [-10, 10].
    The seed must be a non-negative integer.
    """
    if seed < 0:
        raise BadRange(f"seed must be non-negative, got {seed}")
    lo, hi = float(lambda_range[0]), float(lambda_range[1])
    if not (0 < lo <= hi):
        raise BadRange(f"need 0 < lo <= hi, got ({lo}, {hi})")
    if dimension < 2:
        raise BadRange("dimension must be >= 2")
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((dimension, dimension)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    lam = rng.uniform(lo, hi)
    b = rng.uniform(-10.0, 10.0, size=dimension)
    return SimilarityTransform(lam, q, b)


def apply_similarity(T: SimilarityTransform, curve: SampledCurve) -> SampledCurve:
    """Pointwise image of the curve; parameter values are unchanged.

    A jet source, when the curve carries one (analytic, a spline fit or
    an arc-length reparameterization), is wrapped in an AffineImage, so
    the image's arc length is lam times the curve's.
    """
    if T.dimension != curve.dimension:
        raise DimensionMismatch(
            f"transform in E^{T.dimension}, curve in E^{curve.dimension}"
        )
    src = (None if curve.source is None
           else AffineImage(curve.source, T.lam, T.A, T.b))
    return SampledCurve(curve.dimension, curve.t, T(curve.points), source=src)


# ---------------------------------------------------------------------------
# JSON round trip


def transform_to_json(T: SimilarityTransform) -> str:
    return render({"lambda": float(T.lam), "A": T.A, "b": T.b})


def transform_from_json(text: str) -> SimilarityTransform:
    try:
        obj = json.loads(text)
        return SimilarityTransform(json_float(obj["lambda"], "lambda"),
                                   json_floats(obj["A"], "A"),
                                   json_floats(obj["b"], "b"))
    except MALFORMED as exc:
        raise BadParameters(f"malformed transform JSON: {exc}") from None
