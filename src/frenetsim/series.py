"""Truncated Taylor (jet) arithmetic.

A series is an ndarray of shape (M+1, ...) holding Taylor coefficients
c_0..c_M of a function of one scalar variable; trailing axes are payload
(sample batches, coordinates) and broadcast elementwise. All operations
truncate consistently at the input order, so composing them propagates
derivatives exactly up to roundoff. This is how the library turns a
parameter-space jet of a curve into an arclength-space jet without any
finite differencing.

Products are vectorized (Griewank & Walther, Evaluating Derivatives,
2nd ed., ch. 13): order k of a Cauchy product is one whole-array
product-and-sum over j, and a composition scales every payload column
by each power of inner at once, so Python loops run over orders only.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "series_mul",
    "series_reciprocal",
    "series_sqrt",
    "series_compose",
    "series_derivative",
    "flow_series",
    "jet_to_derivatives",
    "derivatives_to_jet",
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


def series_reciprocal(a: np.ndarray) -> np.ndarray:
    """1/a(h); requires a_0 != 0."""
    M = a.shape[0]
    out = np.zeros_like(a)
    out[0] = 1.0 / a[0]
    for k in range(1, M):
        out[k] = -np.einsum(_SUM_J, a[1 : k + 1], out[k - 1 :: -1]) * out[0]
    return out


def series_sqrt(a: np.ndarray) -> np.ndarray:
    """sqrt(a(h)); requires a_0 > 0."""
    M = a.shape[0]
    out = np.zeros_like(a)
    out[0] = np.sqrt(a[0])
    inv2 = 0.5 / out[0]
    for k in range(1, M):
        out[k] = (a[k] - np.einsum(_SUM_J, out[1:k], out[k - 1 : 0 : -1])) * inv2
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


def series_derivative(a: np.ndarray) -> np.ndarray:
    """d/dh of the series, one order shorter."""
    M = a.shape[0]
    ks = np.arange(1, M).reshape((M - 1,) + (1,) * (a.ndim - 1))
    return a[1:] * ks


def flow_series(g: np.ndarray, order: int) -> np.ndarray:
    """Jet of the flow tau(h) solving dtau/dh = g(tau), tau(0) = 0.

    g holds coefficients of the right-hand side around tau = 0. The
    classical recurrence: tau_{k+1} = [g o tau]_k / (k+1). Returns a
    series of shape (order+1, ...).
    """
    tau = np.zeros((order + 1,) + g.shape[1:], dtype=g.dtype)
    for k in range(order):
        kg = min(g.shape[0] - 1, k)
        comp = np.zeros((k + 1,) + g.shape[1:], dtype=g.dtype)
        comp[0] = g[kg]
        for j in range(kg - 1, -1, -1):
            comp = series_mul(comp, tau[: k + 1])
            comp[0] += g[j]
        tau[k + 1] = comp[k] / (k + 1)
    return tau


def jet_to_derivatives(jet: np.ndarray) -> np.ndarray:
    """Convert Taylor coefficients c_k to derivative values k! c_k."""
    M = jet.shape[0]
    f = np.array([math.factorial(k) for k in range(M)], dtype=float)
    return jet * f.reshape((M,) + (1,) * (jet.ndim - 1))


def derivatives_to_jet(derivs: np.ndarray) -> np.ndarray:
    """Inverse of jet_to_derivatives."""
    M = derivs.shape[0]
    f = np.array([math.factorial(k) for k in range(M)], dtype=float)
    return derivs / f.reshape((M,) + (1,) * (derivs.ndim - 1))
