import numpy as np
import pytest

from frenetsim.series import series_compose, series_mul


def coeffs(*vals):
    return np.array(vals, dtype=float)


def test_mul_binomial():
    one_plus = coeffs(1, 1, 0, 0)
    one_minus = coeffs(1, -1, 0, 0)
    assert np.allclose(series_mul(one_plus, one_minus), coeffs(1, 0, -1, 0))


def test_mul_truncates():
    a = coeffs(0, 0, 1)  # h^2
    assert np.allclose(series_mul(a, a), coeffs(0, 0, 0))  # h^4 truncated


def test_compose_polynomial():
    outer = coeffs(1, 2, 1, 0, 0)      # (1+u)^2
    inner = coeffs(0, 1, 1, 0, 0)      # u = h + h^2
    # (1 + h + h^2)^2 = 1 + 2h + 3h^2 + 2h^3 + h^4
    assert np.allclose(series_compose(outer, inner), coeffs(1, 2, 3, 2, 1))


def test_mul_order_mismatch():
    with pytest.raises(ValueError):
        series_mul(coeffs(1, 2), coeffs(1, 2, 3))
