import math

import numpy as np
import pytest

import frenetsim as fs
from frenetsim import errors as E
from frenetsim.curves import TRIM

RT13 = math.sqrt(13.0)


def constraint_residuals(spec, sol):
    n = spec.dimension
    m = n // 2
    plane = np.array(sol.amps[:m])
    lam = np.array(sol.lambdas)
    unit = plane @ plane + (sol.axial ** 2 if n % 2 else 0.0)
    second = plane ** 2 @ lam ** 2
    return abs(unit - 1.0), abs(second - spec.ktj[0] ** 2)


def test_two_dimensional_solution():
    spec = fs.SelfSimilarSpec(dimension=2, index=1, kt=-0.1, ktj=(1.0,))
    sol = fs.solve_self_similar(spec)
    assert sol.lambdas == (1.0,)
    assert abs(sol.amps[0] - 1.0) < 1e-12
    assert abs(sol.bvals[0] - math.hypot(0.1, 1.0)) < 1e-12


def test_initial_frame_is_special_orthogonal(selfsim3_spec, selfsim4_spec):
    for spec in (selfsim3_spec, selfsim4_spec):
        F = fs.solve_self_similar(spec).frame0
        assert np.abs(F @ F.T - np.eye(spec.dimension)).max() < 1e-9
        assert abs(np.linalg.det(F) - 1.0) < 1e-9


def test_constraint_residuals_small(selfsim3_spec, selfsim4_spec):
    for spec in (selfsim3_spec, selfsim4_spec):
        sol = fs.solve_self_similar(spec)
        r_unit, r_second = constraint_residuals(spec, sol)
        assert r_unit < 1e-9
        assert r_second < 1e-9


def test_reference_three_dimensional_example(selfsim3_spec):
    # kt_1 = 3/sqrt(13), kt_2 = 2/sqrt(13): the skew matrix has the
    # single rotation frequency lambda^2 = kt_1^2 + kt_2^2 = 1, and the
    # unit-norm system forces a_1 = kt_1, axial = kt_2
    sol = fs.solve_self_similar(selfsim3_spec)
    assert abs(sol.lambdas[0] ** 2 - 1.0) < 1e-12
    assert abs(sol.amps[0] - 3 / RT13) < 1e-12
    assert abs(sol.axial - 2 / RT13) < 1e-12
    # the commonly quoted reference values for this example cannot be
    # right: they fail the unit-norm constraint outright
    assert (3 / math.sqrt(5)) ** 2 + (2 / math.sqrt(5)) ** 2 > 1.0 + 0.5
    assert abs(5.0 / 13.0 - sol.lambdas[0] ** 2) > 0.5


def test_golden_ratio_spectrum():
    c = 1 / math.sqrt(2.0)
    spec = fs.SelfSimilarSpec(dimension=4, index=2, kt=0.0, ktj=(c, c, c))
    sol = fs.solve_self_similar(spec)
    want = sorted(math.sqrt((3 + s * math.sqrt(5)) / 2) * c for s in (-1, 1))
    assert np.abs(np.array(sol.lambdas) - want).max() < 1e-12


def test_round_trip_recovers_constants(selfsim3_spec, selfsim3_frenet):
    sig = fs.shape_curvatures(selfsim3_frenet, selfsim3_spec.index)
    assert np.abs(sig.kt - selfsim3_spec.kt).max() < 1e-4
    assert sig.kt.std() < 1e-4
    for j, v in enumerate(selfsim3_spec.ktj):
        assert np.abs(sig.ktj[j] - v).max() < 1e-4


def test_normalization_identity(selfsim3_spec, selfsim3_frenet):
    # hypot(kappa_1, kappa_2) decays like e^{-kt sigma} along the curve
    fr = selfsim3_frenet
    sl = slice(TRIM, fr.n_samples - TRIM)
    q = np.hypot(fr.kappas[sl, 0], fr.kappas[sl, 1])
    sigma = fs.indicatrix_curve(fr, selfsim3_spec.index).sigma
    want = np.exp(-selfsim3_spec.kt * sigma)
    assert np.abs(q / q[0] - want).max() < 1e-3


def test_zero_kt_gives_circle():
    spec = fs.SelfSimilarSpec(dimension=2, index=1, kt=0.0, ktj=(1.0,),
                              sigma_range=(0.0, 2 * math.pi), n_samples=1500)
    cur = fs.synthesize_self_similar(spec)
    radii = np.linalg.norm(cur.points, axis=1)
    assert np.abs(radii - 1.0).max() < 1e-12
    assert np.abs(cur.points[0] - cur.points[-1]).max() < 1e-9
    fr = fs.frenet_apparatus(fs.arclength_reparam(cur, 1000))
    assert np.abs(fr.kappas[:, 0] - 1.0).max() < 1e-6


def test_mirrored_invariants_round_trip():
    spec = fs.SelfSimilarSpec(dimension=3, index=2, kt=-0.05,
                              ktj=(3 / RT13, -2 / RT13))
    sol = fs.solve_self_similar(spec)
    assert abs(np.linalg.det(sol.frame0) - 1.0) < 1e-9
    cur = fs.arclength_reparam(fs.synthesize_self_similar(spec), 2000)
    sig = fs.shape_curvatures(fs.frenet_apparatus(cur), 2)
    assert np.abs(sig.kt - spec.kt).max() < 1e-4
    assert np.abs(sig.ktj[0] - 3 / RT13).max() < 1e-4
    assert np.abs(sig.ktj[1] + 2 / RT13).max() < 1e-4


def test_reported_phase_matches_curve(selfsim3_spec):
    sol = fs.solve_self_similar(selfsim3_spec)
    cur = fs.synthesize_self_similar(selfsim3_spec)
    a, b = sol.amps[0], sol.bvals[0]
    th0 = sol.theta0[0]
    assert abs(cur.points[0, 0] - (a / b) * math.sin(th0)) < 1e-12
    assert abs(cur.points[0, 1] + (a / b) * math.cos(th0)) < 1e-12


def test_axial_amplitude_convention():
    withkt = fs.solve_self_similar(
        fs.SelfSimilarSpec(dimension=3, index=2, kt=0.2,
                           ktj=(3 / RT13, 2 / RT13)))
    assert abs(withkt.amps[-1] - withkt.axial / 0.2) < 1e-12
    flat = fs.solve_self_similar(
        fs.SelfSimilarSpec(dimension=3, index=2, kt=0.0,
                           ktj=(3 / RT13, 2 / RT13)))
    assert abs(flat.amps[-1] - flat.axial) < 1e-12


def test_oracle_similar_to_closed_form(selfsim3_spec):
    cur = fs.synthesize_self_similar(selfsim3_spec)
    orc = fs.frame_ode_oracle(selfsim3_spec)
    res = fs.similarity_test(cur, orc, selfsim3_spec.index, tol=1e-3)
    assert res.is_similar
    assert res.distance < 1e-4


def test_oracle_zero_kt_unit_circle():
    spec = fs.SelfSimilarSpec(dimension=2, index=1, kt=0.0, ktj=(1.0,),
                              sigma_range=(0.0, 2 * math.pi), n_samples=1200)
    orc = fs.frame_ode_oracle(spec)
    # the final sample repeats sigma = 0, so leave it out of the mean
    center = orc.points[:-1].mean(axis=0)
    assert np.abs(np.linalg.norm(orc.points - center, axis=1) - 1.0).max() < 1e-6
    assert np.abs(orc.points[0] - orc.points[-1]).max() < 1e-8


def test_structure_skew_layout():
    K = fs.structure_skew((0.6, 0.8))
    want = np.array([[0.0, 0.6, 0.0], [-0.6, 0.0, 0.8], [0.0, -0.8, 0.0]])
    assert np.array_equal(K, want)


def test_structure_skew_batched():
    ktj = np.random.default_rng(7).normal(size=(4, 3))
    want = np.stack([fs.structure_skew(row) for row in ktj])
    assert np.array_equal(fs.structure_skew(ktj), want)


def test_spec_validation():
    with pytest.raises(E.BadParameters):
        fs.SelfSimilarSpec(dimension=3, index=2, kt=0.1, ktj=(0.0, 1.0))
    with pytest.raises(E.BadParameters):
        fs.SelfSimilarSpec(dimension=2, index=1, kt=0.1, ktj=(0.5,))
    # kappa_1 > 0 in E^3, so no curve there has kt_1 = -1 at index 1
    with pytest.raises(E.BadParameters):
        fs.SelfSimilarSpec(dimension=3, index=1, kt=0.1, ktj=(-1.0, 0.5))
    # nor kt_1 < 0 at an interior index
    with pytest.raises(E.BadParameters, match="positive"):
        fs.SelfSimilarSpec(3, 2, 0.1, (-0.6, 0.8))
    with pytest.raises(E.BadParameters):
        fs.SelfSimilarSpec(dimension=4, index=2, kt=0.1, ktj=(0.5, 0.5, 1.0))
    with pytest.raises(E.BadParameters):
        fs.SelfSimilarSpec(dimension=3, index=3, kt=0.1, ktj=(0.7, 0.9))
    with pytest.raises(E.BadIndex):
        fs.SelfSimilarSpec(dimension=3, index=4, kt=0.1, ktj=(0.6, 0.8))
    with pytest.raises(E.BadParameters):
        fs.SelfSimilarSpec(dimension=3, index=2, kt=0.1,
                           ktj=(3 / RT13, 2 / RT13), sigma_range=(1.0, 1.0))
    with pytest.raises(E.TooFewSamples):
        fs.SelfSimilarSpec(dimension=3, index=2, kt=0.1,
                           ktj=(3 / RT13, 2 / RT13), n_samples=4)
    with pytest.raises(E.BadParameters):
        fs.SelfSimilarSpec(dimension=1, index=1, kt=0.1, ktj=())


def test_clockwise_spiral_round_trip():
    # a clockwise plane curve has kt_1 = kappa_1/|kappa_1| = -1
    spec = fs.SelfSimilarSpec(dimension=2, index=1, kt=0.1, ktj=(-1.0,))
    cur = fs.arclength_reparam(fs.synthesize_self_similar(spec), 2000)
    sig = fs.shape_curvatures(fs.frenet_apparatus(cur), 1)
    assert np.abs(sig.ktj[0] + 1.0).max() < 1e-12
    assert np.abs(sig.kt - 0.1).max() < 1e-7
