import math

import numpy as np
import pytest

import frenetsim as fs
from frenetsim import errors as E
from frenetsim.curves import TRIM


def test_helix_signature_constants(helix_frenet):
    sig = fs.shape_curvatures(helix_frenet, 2)
    assert np.abs(sig.kt).max() < 1e-6
    assert np.abs(sig.ktj[0] - 0.6).max() < 1e-9
    assert np.abs(sig.ktj[1] - 0.8).max() < 1e-9


def test_first_index_normalization(helix_frenet, cubic_frenet):
    for fr in (helix_frenet, cubic_frenet):
        sig = fs.shape_curvatures(fr, 1)
        assert np.abs(sig.ktj[0] - 1.0).max() < 1e-12


def test_interior_index_unit_circle(cubic_frenet, selfsim4_frenet):
    for fr, i in ((cubic_frenet, 2), (selfsim4_frenet, 2), (selfsim4_frenet, 3)):
        sig = fs.shape_curvatures(fr, i)
        r = sig.ktj[i - 2] ** 2 + sig.ktj[i - 1] ** 2
        assert np.abs(r - 1.0).max() < 1e-9


def test_log_spiral_constant_kt(spiral_frenet):
    sig = fs.shape_curvatures(spiral_frenet, 1)
    assert np.abs(sig.kt + 0.1).max() < 1e-8
    assert np.abs(sig.ktj[0] - 1.0).max() < 1e-12


def test_first_index_reduction(cubic_frenet):
    # for the tangent indicatrix, kt is the arc-length derivative of
    # the curvature radius 1/kappa_1
    sig = fs.shape_curvatures(cubic_frenet, 1)
    sl = slice(TRIM, cubic_frenet.n_samples - TRIM)
    radius = 1.0 / cubic_frenet.kappas[:, 0]
    want = fs.field_derivative(cubic_frenet.s, radius, order=1)[sl]
    assert np.abs(sig.kt - want).max() < 1e-3


def test_signature_validation_rejects_bad_rows():
    sigma = np.linspace(0.0, 1.0, 50)
    kt = np.zeros(50)
    good = np.vstack([np.full(50, 0.6), np.full(50, 0.8)])
    fs.ShapeSignature(3, 2, sigma, kt, good)
    with pytest.raises(E.BadParameters):
        fs.ShapeSignature(3, 2, sigma, kt,
                          np.vstack([np.full(50, 0.5), np.full(50, 0.5)]))
    with pytest.raises(E.BadIndex):
        fs.ShapeSignature(3, 5, sigma, kt, good)


def test_self_distance_zero(helix_curve):
    res = fs.similarity_test(helix_curve, helix_curve, 2, tol=1e-2)
    assert res.is_similar
    assert res.distance < 1e-12
    assert abs(res.lambda_est - 1.0) < 1e-9


def test_scaled_helix_pair():
    a = fs.arclength_reparam(fs.helix(3.0, 4.0, t_span=(0.0, 5.0)), 2000)
    b = fs.arclength_reparam(fs.helix(6.0, 8.0, t_span=(0.0, 5.0)), 2000)
    res = fs.similarity_test(a, b, 1, tol=1e-2)
    assert res.is_similar
    assert res.distance < 1e-6
    assert abs(res.lambda_est - 2.0) < 0.02
    back = fs.similarity_test(b, a, 1, tol=1e-2)
    assert back.is_similar
    assert abs(back.lambda_est - 0.5) < 0.005


def test_subarc_match_recovers_scale():
    # a similarity image of a sub-arc matches at a non-trivial sigma shift
    cubic = fs.custom_poly([[0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.9]],
                           t_span=(-1.0, 1.0))
    T = fs.SimilarityTransform(1.0198, fs.random_similarity(3, (1.0, 2.0), 3).A,
                               np.array([0.3, -1.2, 2.0]))
    ta, tb = np.linspace(-1.0, 1.0, 2000), np.linspace(-0.8, 0.9, 1700)
    a = fs.SampledCurve(3, ta, fs.builtin_evaluate(cubic, ta).points)
    b = fs.SampledCurve(3, tb, T(fs.builtin_evaluate(cubic, tb).points))
    for i in (1, 2, 3):
        res = fs.similarity_test(a, b, i)
        assert res.is_similar
        assert res.sigma_shift > 0.1
        assert abs(res.lambda_est - 1.0198) < 1e-6


def test_different_helices_do_not_match(helix_curve):
    d = fs.arclength_reparam(fs.helix(4.0, 3.0, t_span=(0.0, 5.0)), 2000)
    res = fs.similarity_test(helix_curve, d, 1, tol=1e-2)
    assert not res.is_similar
    assert res.distance > 0.2


def test_helix_vs_spiral(helix_curve, spiral_curve):
    # different dimensions are incompatible outright
    with pytest.raises(E.IncompatibleSignatures):
        fs.similarity_test(helix_curve, spiral_curve, 1, tol=1e-2)


def test_similarity_invariance_of_signature(helix_curve, helix_frenet):
    T = fs.random_similarity(21, (0.5, 2.0), 3)
    fb = fs.frenet_apparatus(fs.apply_similarity(T, helix_curve))
    for i in (1, 2, 3):
        a = fs.shape_curvatures(helix_frenet, i)
        b = fs.shape_curvatures(fb, i)
        dev = fs.signature_supnorm_deviation(a, b)
        assert dev < 1e-3


def test_signature_distance_incompatible(helix_frenet, selfsim4_frenet):
    a = fs.shape_curvatures(helix_frenet, 1)
    c = fs.shape_curvatures(selfsim4_frenet, 1)
    with pytest.raises(E.IncompatibleSignatures):
        fs.signature_distance(a, c)
    b = fs.shape_curvatures(helix_frenet, 2)
    with pytest.raises(E.IncompatibleSignatures):
        fs.signature_distance(a, b)


def test_signature_distance_no_overlap(helix_frenet):
    a = fs.shape_curvatures(helix_frenet, 2)
    assert fs.signature_distance(a, a, shift=1e6) == math.inf
    assert fs.signature_supnorm_deviation(a, a, shift=1e6) == math.inf
    # an overlap of 5% of the span is too short to score a distance but
    # still has a sup-norm deviation
    shift = 0.95 * a.span
    assert fs.signature_distance(a, a, shift=shift) == math.inf
    assert fs.signature_supnorm_deviation(a, a, shift=shift) < 1e-9


def test_signature_json_round_trip(cubic_frenet):
    sig = fs.shape_curvatures(cubic_frenet, 2)
    back = fs.signature_from_json(fs.signature_to_json(sig))
    assert back.dimension == sig.dimension
    assert back.index == sig.index
    assert np.array_equal(back.sigma, sig.sigma)
    assert np.array_equal(back.kt, sig.kt)
    assert np.array_equal(back.ktj, sig.ktj)
    assert back.s is None


def test_signature_json_rejects_garbage():
    with pytest.raises(E.BadParameters):
        fs.signature_from_json('{"dimension": 3}')
