import math

import numpy as np
import pytest
from scipy.linalg import expm

import frenetsim as fs
from frenetsim import errors as E
from frenetsim.curves import TRIM, structure_skew

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
    sigma = fs.indicatrix_curve(fr, fs.shape_curvatures(fr, selfsim3_spec.index)).sigma
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


@pytest.mark.parametrize("kt, sigma_range", [
    (0.1, (0.0, 1e4)),
    # kt sigma = 709 alone fits, but the axial amplitude 1/kt does not
    (0.01, (0.0, 70900.0)),
    # e^{kt sigma_0} alone overflows
    (1.0, (800.0, 801.0)),
])
def test_overflowing_spec_refused(kt, sigma_range):
    spec = fs.SelfSimilarSpec(dimension=3, index=2, kt=kt, ktj=(0.6, 0.8),
                              sigma_range=sigma_range)
    for build in (fs.synthesize_self_similar, fs.frame_ode_oracle):
        with pytest.raises(E.BadParameters, match="kt = .* over sigma_range"):
            build(spec)


@pytest.mark.parametrize("ktj", [(1.0, 0.5, 1e-7), (1.0, 1e-160, 1.0)],
                         ids=["vanishing_frequency", "repeated_frequency"])
def test_indistinct_frequencies_refused(ktj):
    # nonzero kt_j give distinct nonzero frequencies in exact arithmetic;
    # these two, in E^4, give one below 1e-6 of the other and two equal ones
    spec = fs.SelfSimilarSpec(dimension=4, index=1, kt=0.0, ktj=ktj)
    with pytest.raises(E.RepeatedEigenvalue, match="not distinct and nonzero"):
        fs.solve_self_similar(spec)


def test_structure_skew_layout():
    K = structure_skew((0.6, 0.8))
    want = np.array([[0.0, 0.6, 0.0], [-0.6, 0.0, 0.8], [0.0, -0.8, 0.0]])
    assert np.array_equal(K, want)


def test_structure_skew_batched():
    ktj = np.random.default_rng(7).normal(size=(4, 3))
    want = np.stack([structure_skew(row) for row in ktj])
    assert np.array_equal(structure_skew(ktj), want)


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
    with pytest.raises(E.BadParameters, match="need 2 shape curvatures, got 3"):
        fs.SelfSimilarSpec(dimension=3, index=2, kt=0.1, ktj=(0.6, 0.8, 0.5))


def test_clockwise_spiral_round_trip():
    # a clockwise plane curve has kt_1 = kappa_1/|kappa_1| = -1
    spec = fs.SelfSimilarSpec(dimension=2, index=1, kt=0.1, ktj=(-1.0,))
    cur = fs.arclength_reparam(fs.synthesize_self_similar(spec), 2000)
    sig = fs.shape_curvatures(fs.frenet_apparatus(cur), 1)
    assert np.abs(sig.ktj[0] + 1.0).max() < 1e-12
    assert np.abs(sig.kt - 0.1).max() < 1e-7


def _drawn_specs():
    """Specs for n = 2..9: fixed ones, and E^5..E^9 ones drawn as the
    benchmark draws them (index 2, kt_1 = cos theta, kt_2 = sin theta,
    the rest of either sign in [0.5, 1.2], 0.02 <= |kt| <= 0.1)."""
    specs = [fs.SelfSimilarSpec(2, 1, -0.1, (1.0,)),
             fs.SelfSimilarSpec(2, 2, 0.0, (-1.0,)),
             fs.SelfSimilarSpec(3, 2, -0.05, (3 / RT13, 2 / RT13)),
             fs.SelfSimilarSpec(3, 3, 0.2, (0.5, -1.0)),
             fs.SelfSimilarSpec(4, 2, 0.1, (0.7, math.sqrt(0.51), 0.5)),
             fs.SelfSimilarSpec(5, 3, 0.0, (0.9, 0.6, 0.8, 0.7))]
    rng = np.random.default_rng(2024)
    for n in (4, 5, 6, 7, 8, 9, 9, 9):
        th = rng.uniform(0.35, 1.22)
        rest = rng.uniform(0.5, 1.2, n - 3) * rng.choice((-1.0, 1.0), n - 3)
        kt = rng.uniform(0.02, 0.1) * rng.choice((-1.0, 1.0))
        specs.append(fs.SelfSimilarSpec(
            n, 2, kt, (math.cos(th), math.sin(th)) + tuple(rest),
            n_samples=400))
    return specs


DRAWN_SPECS = _drawn_specs()


@pytest.mark.parametrize("spec", DRAWN_SPECS,
                         ids=lambda s: f"E{s.dimension}i{s.index}")
def test_normal_form(spec):
    # frame0 is the eigenbasis of K: orthonormal, det +1, and each plane's
    # column pair spans an invariant plane on which K rotates at spin lambda
    n = spec.dimension
    m = n // 2
    sol = fs.solve_self_similar(spec)
    F = sol.frame0
    assert np.abs(F @ F.T - np.eye(n)).max() < 1e-13
    assert abs(np.linalg.det(F) - 1.0) < 1e-13
    J = np.zeros((n, n))
    for p in range(m):
        w = sol.plane_spin[p] * sol.lambdas[p]
        J[2 * p, 2 * p + 1], J[2 * p + 1, 2 * p] = w, -w
    assert np.abs(structure_skew(spec.ktj) @ F - F @ J).max() < 1e-13
    for p in range(m):
        assert abs(F[0, 2 * p + 1]) < 1e-13
        assert sol.amps[p] > 0 and abs(F[0, 2 * p] - sol.amps[p]) < 1e-13


@pytest.mark.parametrize("sigma0", (0.0, 1.0))
@pytest.mark.parametrize("spec", DRAWN_SPECS,
                         ids=lambda s: f"E{s.dimension}i{s.index}")
def test_oracle_matches_closed_form_pointwise(spec, sigma0):
    # the oracle's frame is the identity at sigma_0, where the closed
    # form's frame is expm(K sigma_0) frame0, and its position starts at 0
    spec = fs.SelfSimilarSpec(spec.dimension, spec.index, spec.kt, spec.ktj,
                              (sigma0, sigma0 + 4.0), 400)
    sol = fs.solve_self_similar(spec)
    synth = fs.synthesize_self_similar(spec).points
    orc = fs.frame_ode_oracle(spec).points
    rot = expm(structure_skew(spec.ktj) * sigma0) @ sol.frame0
    want = synth - synth[0]
    assert np.abs(orc @ rot - want).max() < 1e-12 * np.abs(want).max()
