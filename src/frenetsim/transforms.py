"""Direct similarities F(x) = lam A x + b and their transformation laws.

Only orientation-preserving similarities are modeled: lam > 0 and A a
rotation. Applying a transform to a curve that carries an analytic jet
source wraps the source, so exactness survives the mapping.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .curves import AffineImage, FrenetData, SampledCurve, frenet_apparatus
from .errors import BadParameters, BadRange, DimensionMismatch
from .jsonio import render

ORTHO_TOL = 1e-12


@dataclass(frozen=True)
class SimilarityTransform:
    """Scale lam > 0, rotation A (det +1), translation b."""

    lam: float
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.ascontiguousarray(np.asarray(self.A, dtype=float))
        b = np.ascontiguousarray(np.asarray(self.b, dtype=float))
        if not self.lam > 0:
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
        object.__setattr__(self, "lam", float(self.lam))
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
    """
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


def compose(t2: SimilarityTransform, t1: SimilarityTransform) -> SimilarityTransform:
    """The transform sending x to t2(t1(x))."""
    if t2.dimension != t1.dimension:
        raise DimensionMismatch("cannot compose transforms of different dimension")
    return SimilarityTransform(
        t2.lam * t1.lam, t2.A @ t1.A, t2.lam * (t1.b @ t2.A.T) + t2.b
    )


def apply_similarity(T: SimilarityTransform, curve: SampledCurve) -> SampledCurve:
    """Pointwise image of the curve; parameter values are unchanged.

    A jet source, when the curve carries one, is wrapped in an
    AffineImage, so the image's arc length is lam times the curve's.
    """
    if T.dimension != curve.dimension:
        raise DimensionMismatch(
            f"transform in E^{T.dimension}, curve in E^{curve.dimension}"
        )
    src = (None if curve.source is None
           else AffineImage(curve.source, T.lam, T.A, T.b))
    return SampledCurve(curve.dimension, curve.t, T(curve.points), source=src)


@dataclass(frozen=True)
class TransformReport:
    """Measured transformation laws for one (curve, transform) pair.

    arc_ratio should equal lam; curvature_dev[i] is the max relative
    deviation of lam * kappabar_{i+1} from kappa_{i+1} at matched
    samples; kappa_ds_dev is the max deviation of the invariant
    kappa_i ds from its image, normalized by its own scale.
    """

    lam: float
    arc_ratio: float
    curvature_dev: np.ndarray
    kappa_ds_dev: float


def similarity_report(curve: SampledCurve, T: SimilarityTransform,
                      fr: FrenetData | None = None) -> TransformReport:
    """Verify the arc-length and curvature scaling laws on one curve."""
    fa = fr if fr is not None else frenet_apparatus(curve)
    fb = frenet_apparatus(apply_similarity(T, curve))
    # the image keeps the parameter grid, so samples correspond 1:1
    arc_ratio = float((fb.s[-1] - fb.s[0]) / (fa.s[-1] - fa.s[0]))
    dev = np.empty(fa.kappas.shape[1])
    for i in range(fa.kappas.shape[1]):
        scale = np.abs(fa.kappas[:, i]).max()
        dev[i] = np.abs(T.lam * fb.kappas[:, i] - fa.kappas[:, i]).max() / scale
    dsa = np.diff(fa.s)[:, None]
    dsb = np.diff(fb.s)[:, None]
    mid_a = 0.5 * (fa.kappas[1:] + fa.kappas[:-1]) * dsa
    mid_b = 0.5 * (fb.kappas[1:] + fb.kappas[:-1]) * dsb
    kds = float(np.abs(mid_a - mid_b).max() / max(np.abs(mid_a).max(), 1e-300))
    return TransformReport(T.lam, arc_ratio, dev, kds)


# ---------------------------------------------------------------------------
# JSON round trip


def transform_to_json(T: SimilarityTransform) -> str:
    return render({"lambda": float(T.lam), "A": T.A, "b": T.b})


def transform_from_json(text: str) -> SimilarityTransform:
    try:
        obj = json.loads(text)
        return SimilarityTransform(obj["lambda"], np.array(obj["A"], dtype=float),
                                   np.array(obj["b"], dtype=float))
    except (KeyError, TypeError, ValueError) as exc:
        raise BadParameters(f"malformed transform JSON: {exc}") from None
