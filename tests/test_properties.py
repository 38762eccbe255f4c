"""Property-based checks over random inputs."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

import frenetsim as fs
from frenetsim.series import series_compose, series_mul

_t = np.linspace(0.0, 2 * math.pi, 400, endpoint=False)
BASE_CIRCLE = fs.builtin_evaluate(fs.circle(1.5, t_span=(0.0, 2 * math.pi)), _t)
BASE_FR = fs.frenet_apparatus(fs.arclength_reparam(BASE_CIRCLE, 400))
BASE_SIG = fs.shape_curvatures(BASE_FR, 1)

coeff = st.floats(min_value=-2.0, max_value=2.0,
                  allow_nan=False, allow_infinity=False)
lead = st.floats(min_value=0.5, max_value=2.0)


def series(order):
    return st.tuples(lead, st.lists(coeff, min_size=order - 1,
                                    max_size=order - 1)).map(
        lambda t: np.array([t[0]] + t[1]))


@settings(deadline=None, max_examples=25)
@given(series(5), series(5))
def test_mul_commutes(a, b):
    # summation order differs, so only near-equality holds
    assert np.abs(series_mul(a, b) - series_mul(b, a)).max() < 1e-12


payload = st.sampled_from([(), (3,), (3, 2)])


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=1, max_value=12), payload,
       st.integers(min_value=0, max_value=10 ** 6))
def test_mul_is_truncated_convolution(M, shape, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-2.0, 2.0, (M,) + shape)
    b = rng.uniform(-2.0, 2.0, (M,) + shape)
    out = series_mul(a, b)
    assert out.shape == a.shape
    for col in np.ndindex(*shape):
        want = np.convolve(a[(slice(None),) + col], b[(slice(None),) + col])[:M]
        assert np.abs(out[(slice(None),) + col] - want).max() < 1e-12


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=1, max_value=12), payload,
       st.integers(min_value=0, max_value=10 ** 6))
def test_compose_is_truncated_polynomial(M, shape, seed):
    rng = np.random.default_rng(seed)
    outer = rng.uniform(-2.0, 2.0, (M,) + shape)
    inner = rng.uniform(-1.0, 1.0, (M,) + shape)
    inner[0] = 0.0
    out = series_compose(outer, inner)

    def truncated(out_c, in_c):
        u = np.polynomial.Polynomial(in_c)
        full = sum(out_c[k] * u ** k for k in range(M)).coef[:M]
        return np.pad(full, (0, M - len(full)))

    for col in np.ndindex(*shape):
        c = (slice(None),) + col
        want = truncated(outer[c], inner[c])
        # roundoff scales with the composition of the absolute values
        scale = max(1.0, truncated(np.abs(outer[c]), np.abs(inner[c])).max())
        assert np.abs(out[c] - want).max() < 1e-12 * scale


@settings(deadline=None, max_examples=15)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_random_similarity_is_direct(seed):
    T = fs.random_similarity(seed, 3)
    assert np.abs(T.A @ T.A.T - np.eye(3)).max() < 1e-12
    assert abs(np.linalg.det(T.A) - 1.0) < 1e-9
    assert 0.5 <= T.lam <= 2.0


@settings(deadline=None, max_examples=8)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_turning_angle_invariance(seed):
    T = fs.random_similarity(seed, 2)
    fr = fs.frenet_apparatus(fs.arclength_reparam(
        fs.apply_similarity(T, BASE_CIRCLE), 400))
    sigma = fs.shape_curvatures(fr, 1).sigma
    assert np.abs(sigma - BASE_SIG.sigma).max() < 1e-3


@settings(deadline=None, max_examples=8)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_shape_signature_invariance(seed):
    T = fs.random_similarity(seed, 2)
    fr = fs.frenet_apparatus(fs.arclength_reparam(
        fs.apply_similarity(T, BASE_CIRCLE), 400))
    sig = fs.shape_curvatures(fr, 1)
    assert np.abs(sig.kt - BASE_SIG.kt).max() < 1e-3
    assert np.abs(sig.ktj[0] - BASE_SIG.ktj[0]).max() < 1e-3


@settings(deadline=None, max_examples=15)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_transform_json_round_trip(seed):
    T = fs.random_similarity(seed, 5)
    back = fs.transform_from_json(fs.transform_to_json(T))
    assert back.lam == T.lam
    assert np.array_equal(back.A, T.A)
    assert np.array_equal(back.b, T.b)
