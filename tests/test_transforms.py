import numpy as np
import pytest

import frenetsim as fs
from frenetsim import errors as E
from frenetsim.transforms import SimilarityTransform


def test_random_similarity_deterministic():
    t1 = fs.random_similarity(7, (0.5, 2.0), 3)
    t2 = fs.random_similarity(7, (0.5, 2.0), 3)
    assert t1.lam == t2.lam
    assert np.array_equal(t1.A, t2.A)
    assert np.array_equal(t1.b, t2.b)
    t3 = fs.random_similarity(8, (0.5, 2.0), 3)
    assert t3.lam != t1.lam


def test_random_similarity_is_rotation():
    for seed in range(20):
        T = fs.random_similarity(seed, (0.5, 2.0), 4)
        assert np.abs(T.A @ T.A.T - np.eye(4)).max() < 1e-12
        assert abs(np.linalg.det(T.A) - 1.0) < 1e-9
        assert 0.5 <= T.lam <= 2.0
        assert np.all(np.abs(T.b) <= 10.0)


def test_random_similarity_range_validation():
    with pytest.raises(E.BadRange):
        fs.random_similarity(0, (2.0, 0.5), 3)
    with pytest.raises(E.BadRange):
        fs.random_similarity(0, (-1.0, 2.0), 3)
    with pytest.raises(E.BadRange):
        fs.random_similarity(0, (0.5, 2.0), 1)


def test_transform_scales_distances():
    T = fs.random_similarity(3, (0.5, 2.0), 3)
    x = np.array([1.0, 2.0, 3.0])
    y = np.array([-1.0, 0.5, 2.0])
    got = np.linalg.norm(T(x) - T(y))
    assert abs(got - T.lam * np.linalg.norm(x - y)) < 1e-12


def test_reflection_rejected():
    A = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(E.BadParameters):
        SimilarityTransform(1.0, A, np.zeros(3))
    with pytest.raises(E.BadParameters):
        SimilarityTransform(-2.0, np.eye(3), np.zeros(3))


@pytest.mark.parametrize("lam, A, b, name", [
    (np.inf, np.eye(3), np.zeros(3), "scale lambda"),
    (1.0, np.diag([np.inf, 1.0, 1.0]), np.zeros(3), "matrix A"),
    (1.0, np.eye(3), np.array([np.nan, 0.0, 0.0]), "offset b"),
])
def test_non_finite_similarity_names_its_field(lam, A, b, name):
    with pytest.raises(E.BadParameters, match=f"similarity {name} must be finite"):
        SimilarityTransform(lam, A, b)


@pytest.mark.parametrize("A, b, error, match", [
    (np.eye(3)[:2], np.zeros(3), E.BadParameters, "A must be square"),
    (np.eye(3), np.zeros(2), E.DimensionMismatch, "b must match"),
    # a shear keeps det A = 1
    (np.array([[1.0, 0.1, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), np.zeros(3),
     E.BadParameters, "not orthogonal"),
], ids=["non_square", "b_shape", "non_orthogonal"])
def test_malformed_similarity_is_refused(A, b, error, match):
    with pytest.raises(error, match=match):
        SimilarityTransform(1.0, A, b)


def test_apply_requires_matching_dimension(helix_curve):
    T = fs.random_similarity(0, (0.5, 2.0), 2)
    with pytest.raises(E.DimensionMismatch):
        fs.apply_similarity(T, helix_curve)


def test_raw_curvature_is_not_invariant(helix_curve, helix_frenet):
    # the scaling law is kappa_bar = kappa / lambda, so kappa itself
    # moves; this is the control that makes the invariance tests mean
    # something
    T = SimilarityTransform(2.0, np.eye(3), np.zeros(3))
    fb = fs.frenet_apparatus(fs.apply_similarity(T, helix_curve))
    dev = np.abs(fb.kappas[:, 0] - helix_frenet.kappas[:, 0]).max()
    assert dev > 0.05


def test_transform_json_round_trip():
    T = fs.random_similarity(42, (0.5, 2.0), 4)
    back = fs.transform_from_json(fs.transform_to_json(T))
    assert back.lam == T.lam
    assert np.array_equal(back.A, T.A)
    assert np.array_equal(back.b, T.b)


def test_transform_json_rejects_garbage():
    with pytest.raises(E.BadParameters):
        fs.transform_from_json('{"lambda": 1.0}')
