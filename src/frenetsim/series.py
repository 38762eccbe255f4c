"""Truncated Taylor (jet) arithmetic, kept only as benchmark fixtures.

A series is an ndarray of shape (M+1, ...) holding Taylor coefficients
c_0..c_M of a function of one scalar variable; trailing axes are payload
and broadcast elementwise. No library code uses this module: the
benchmark's span tests (perfbench/tests) trace series_mul and
series_compose as nested-call fixtures, and the package __init__ imports
it because the tracer wraps only the frenetsim.* modules loaded when it
is built. Order k of a Cauchy product is one whole-array product-and-sum
over j (Griewank & Walther, Evaluating Derivatives, 2nd ed., ch. 13).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "series_mul",
    "series_compose",
]

# product-and-sum over the leading (order) axis, payload broadcast
_SUM_J = "j...,j...->..."


def series_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cauchy product truncated at the common order."""
    M = a.shape[0]
    if b.shape[0] != M:
        raise ValueError("series orders differ")
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b))
    for k in range(M):
        out[k] = np.einsum(_SUM_J, a[: k + 1], b[k::-1])
    return out


def series_compose(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """outer(inner(h)) = sum_k outer_k inner^k; inner must have zero constant term.

    Each power inner^k is built once and starts at order k.
    """
    M = outer.shape[0]
    if inner.shape[0] != M:
        raise ValueError("series orders differ")
    power = np.zeros_like(inner, dtype=float)
    power[0] = 1.0
    out = outer[0] * power
    for k in range(1, M):
        power = series_mul(power, inner)
        out[k:] += outer[k] * power[k:]
    return out
