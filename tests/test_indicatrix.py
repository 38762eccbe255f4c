import numpy as np
import pytest

import frenetsim as fs
from frenetsim import curves
from frenetsim import errors as E
from frenetsim.curves import TRIM, FrenetData
from frenetsim.indicatrix import SphericalCurve
from frenetsim.transforms import SimilarityTransform


def trimmed_span(fr):
    return fr.s[fr.n_samples - TRIM - 1] - fr.s[TRIM]


def indicatrix(fr, i):
    # built as the commands build it, on the sigma_i of its signature
    return fs.indicatrix_curve(fr, fs.shape_curvatures(fr, i))


def test_helix_sigma_totals(helix_frenet):
    # constant speeds of the three unit-vector curves: kappa_1,
    # hypot(kappa_1, kappa_2), |kappa_2| = 0.12, 0.2, 0.16
    for i, rate in ((1, 0.12), (2, 0.2), (3, 0.16)):
        sc = indicatrix(helix_frenet, i)
        assert sc.sigma[0] == 0.0
        want = rate * trimmed_span(helix_frenet)
        assert abs(sc.sigma[-1] - want) < 1e-8


def test_indicatrix_on_unit_sphere(helix_frenet, cubic_frenet):
    for fr in (helix_frenet, cubic_frenet):
        for i in range(1, 4):
            sc = indicatrix(fr, i)
            norms = np.linalg.norm(sc.gamma, axis=1)
            assert np.abs(norms - 1.0).max() < 1e-9
            assert np.all(np.diff(sc.sigma) > 0)


def test_indicatrix_bad_index(helix_frenet):
    with pytest.raises(E.BadIndex):
        indicatrix(helix_frenet, 0)
    with pytest.raises(E.BadIndex):
        indicatrix(helix_frenet, 4)


def test_degenerate_indicatrix(planar_circle_frenet):
    # the last unit vector of a plane curve in E^3 never moves, and the
    # signature that would carry its sigma_3 is refused
    with pytest.raises(E.IndicatrixDegenerate):
        indicatrix(planar_circle_frenet, 3)


def _spiky_frenet():
    # kappa_1 = 1 at every third sample and 1e-3 between: no speed
    # collapses, but Simpson's rule through the spikes steps sigma back
    n = 200
    kappa = np.where(np.arange(n) % 3 == 0, 1.0, 1e-3)[:, None]
    return FrenetData(np.linspace(0.0, 1.0, n), np.zeros((n, 2)),
                      np.tile(np.eye(2), (n, 1, 1)), kappa)


_SIGMA = np.linspace(0.0, 1.0, 50)
_POLE = np.tile([1.0, 0.0, 0.0], (50, 1))


@pytest.mark.parametrize("build, error, match", [
    (lambda: fs.shape_curvatures(_spiky_frenet(), 1), E.IndicatrixDegenerate,
     "sigma_1 stops increasing at sample 5"),
    (lambda: SphericalCurve(3, _SIGMA, _POLE[:, :2]), E.BadIndex,
     "per-sample vectors in E"),
    (lambda: SphericalCurve(3, _SIGMA[::-1], _POLE), E.DegenerateSpeed,
     "strictly increasing"),
    (lambda: SphericalCurve(3, _SIGMA, 2.0 * _POLE), E.DegenerateSpeed,
     "left the unit sphere"),
    # a curve resting at the pole has no Sabban frame
    (lambda: fs.sabban_geodesic_curvature(SphericalCurve(3, _SIGMA, _POLE)),
     E.DegenerateSpeed, "speed collapses"),
    (lambda: fs.geodesic_closed_form(fs.ShapeSignature(
        2, 1, _SIGMA, np.zeros(50), np.ones((1, 50)))),
     E.NotThreeDimensional, "specific to E\\^3"),
    # kappa_2 of a helix of pitch 1e-9 is about 1e-10, so the V_3 speed
    # |kappa_2| collapses against kappa_1
    (lambda: fs.shape_curvatures(fs.frenet_apparatus(fs.arclength_reparam(
        fs.helix(3.0, 1e-9, t_span=(0.0, 4 * np.pi)), 2000)), 3),
     E.IndicatrixDegenerate, "V_3-indicatrix speed collapses \\(min 1.11e-10 "),
], ids=["sigma_stall", "gamma_shape", "sigma_order", "off_sphere",
        "sabban_at_rest", "closed_form_in_e2", "v3_speed_collapse"])
def test_spherical_refusals_name_their_cause(build, error, match):
    with pytest.raises(error, match=match):
        build()


def test_indicatrix_refuses_another_apparatus(helix_frenet, cubic_frenet,
                                              selfsim4_frenet, spiral_frenet):
    # the signature must come from the apparatus whose frames it reads: one
    # of another dimension, or of another sample count, is refused
    coarse = fs.frenet_apparatus(fs.arclength_reparam(
        fs.helix(3.0, 4.0, t_span=(0.0, 5.0)), 500))
    for fr, other in ((helix_frenet, fs.shape_curvatures(selfsim4_frenet, 4)),
                      (helix_frenet, fs.shape_curvatures(spiral_frenet, 2)),
                      (helix_frenet, fs.shape_curvatures(coarse, 2)),
                      (coarse, fs.shape_curvatures(cubic_frenet, 3))):
        with pytest.raises(E.DimensionMismatch, match="apparatus keeps"):
            fs.indicatrix_curve(fr, other)


def test_sigma_invariance_random(helix_curve):
    for seed in (1, 2, 3):
        T = fs.random_similarity(seed, (0.5, 2.0), 3)
        dev = fs.invariance_sweep(helix_curve, [T])["sigma_invariance"]
        assert sorted(dev) == [1, 2, 3]
        assert max(dev.values()) < 1e-9


def test_sigma_invariance_identity_and_pure_scale(helix_curve):
    ident = SimilarityTransform(1.0, np.eye(3), np.zeros(3))
    assert fs.invariance_sweep(helix_curve, [ident])["sigma_invariance"][2] < 1e-12
    scale5 = SimilarityTransform(5.0, np.eye(3), np.zeros(3))
    assert fs.invariance_sweep(helix_curve, [scale5])["sigma_invariance"][2] < 1e-9


@pytest.mark.parametrize("coeffs, i", [
    # kappa_2 of (t, t^2, t^4) changes sign at t = 0: the V_3 speed |kappa_2|
    ([[0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0, 1.0]], 3),
    # kappa_1 of the plane curve (t, t^3) changes sign at t = 0, and in
    # E^2 both indicatrix speeds are |kappa_1|
    ([[0.0, 1.0], [0.0, 0.0, 0.0, 1.0]], 1),
    ([[0.0, 1.0], [0.0, 0.0, 0.0, 1.0]], 2),
], ids=["t_t2_t4_index3", "t_t3_index1", "t_t3_index2"])
def test_indicatrix_refuses_cusp(coeffs, i):
    cur = fs.arclength_reparam(fs.custom_poly(coeffs, t_span=(-1.0, 1.0)), 2000)
    fr = fs.frenet_apparatus(cur)
    with pytest.raises(E.IndicatrixDegenerate, match="changes sign"):
        indicatrix(fr, i)


def test_frame_equations_residual(helix_frenet, cubic_frenet,
                                  frenet_residual_supnorm):
    assert frenet_residual_supnorm(helix_frenet) < 1e-5
    assert frenet_residual_supnorm(cubic_frenet) < 1e-3


def test_great_circle_geodesic_curvature(planar_circle_frenet):
    sc = indicatrix(planar_circle_frenet, 1)
    sd = fs.sabban_geodesic_curvature(sc)
    assert np.abs(sd.kappa_g).max() < 1e-6


def test_helix_geodesic_curvatures(helix_frenet):
    # closed-form constants for the circular helix: 4/3, 0, 3/4
    want = {1: 4.0 / 3.0, 2: 0.0, 3: 0.75}
    for i, w in want.items():
        sc = indicatrix(helix_frenet, i)
        sd = fs.sabban_geodesic_curvature(sc)
        assert np.abs(sd.kappa_g - w).max() < 1e-3


def test_sabban_frame_is_orthonormal(helix_frenet):
    sc = indicatrix(helix_frenet, 1)
    sd = fs.sabban_geodesic_curvature(sc)
    for a, b in ((sd.gamma, sd.t_vec), (sd.gamma, sd.rho), (sd.t_vec, sd.rho)):
        assert np.abs(np.einsum("qd,qd->q", a, b)).max() < 1e-6
    assert np.abs(np.linalg.norm(sd.rho, axis=1) - 1.0).max() < 1e-6


def test_sabban_fits_gamma_once(cubic_frenet, monkeypatch):
    # gamma' and gamma'' are two derivatives of one spline fit of all
    # three coordinates
    sc = indicatrix(cubic_frenet, 2)
    fits = []
    fit = curves.make_interp_spline

    def counted(x, y, *args, **kwargs):
        fits.append(y.shape[1:])
        return fit(x, y, *args, **kwargs)

    monkeypatch.setattr(curves, "make_interp_spline", counted)
    fs.sabban_geodesic_curvature(sc)
    assert fits == [(3,)]


def test_closed_forms_match_numeric(helix_frenet, cubic_frenet):
    # the signature's index picks the tangent, normal or binormal form
    for fr in (helix_frenet, cubic_frenet):
        for i in (1, 2, 3):
            sc = indicatrix(fr, i)
            kg = fs.sabban_geodesic_curvature(sc).kappa_g
            cf = fs.geodesic_closed_form(fs.shape_curvatures(fr, i))
            assert np.abs(kg - cf).max() < 1e-3


def test_normal_form_refuses_vanishing_kt1():
    # index 2 allows kt_1 = 0 when |kt_2| = 1; d/dsigma (kt_2/kt_1) is
    # then undefined
    sigma = np.linspace(0.0, 1.0, 50)
    sig = fs.ShapeSignature(3, 2, sigma, np.zeros(50),
                            np.vstack([np.zeros(50), np.ones(50)]))
    with pytest.raises(E.DivisionDegenerate):
        fs.geodesic_closed_form(sig)


def test_sabban_needs_three_dimensions(selfsim4_frenet):
    sc = indicatrix(selfsim4_frenet, 2)
    with pytest.raises(E.NotThreeDimensional):
        fs.sabban_geodesic_curvature(sc)


def test_geodesic_invariance_under_similarity(helix_curve, helix_frenet):
    T = fs.random_similarity(9, (0.5, 2.0), 3)
    fb = fs.frenet_apparatus(fs.apply_similarity(T, helix_curve))
    for i in (1, 2, 3):
        kg_a = fs.sabban_geodesic_curvature(
            indicatrix(helix_frenet, i)).kappa_g
        kg_b = fs.sabban_geodesic_curvature(
            indicatrix(fb, i)).kappa_g
        assert np.abs(kg_a - kg_b).max() < 1e-3


def test_indicatrix_csv(tmp_path, helix_frenet):
    sc = indicatrix(helix_frenet, 2)
    sd = fs.sabban_geodesic_curvature(sc)
    p = tmp_path / "ind.csv"
    fs.indicatrix_to_csv(p, sc.sigma, sc.gamma, kappa_g=sd.kappa_g)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "sigma,g1,g2,g3,kappa_g"
    assert len(lines) == 1 + len(sc.sigma)
