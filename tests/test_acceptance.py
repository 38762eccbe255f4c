"""Acceptance criteria, one test and one printed PASS/FAIL line each.

Every tolerance below is the contract value, not a tuned-down one. The
lines print straight to the terminal (bypassing capture) so a plain
``pytest -v`` run shows the measured margins next to the verdicts.
"""

import math

import numpy as np
import pytest

import frenetsim as fs
from frenetsim import errors as E

RT13 = math.sqrt(13.0)
TOL = 1e-3


def report(capsys, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[acceptance] {name}: {verdict} ({detail})", flush=True)
    assert ok, f"{name}: {detail}"


def image_apparatus(curve, seed, dim):
    T = fs.random_similarity(seed, (0.5, 2.0), dim)
    return T, fs.frenet_apparatus(
        fs.arclength_reparam(fs.apply_similarity(T, curve), 2000))


@pytest.fixture(scope="module")
def helix_images(helix_curve):
    return [image_apparatus(helix_curve, 100 + k, 3) for k in range(20)]


def indicatrix(fr, i):
    # built as the commands build it, on the sigma_i of its signature
    return fs.indicatrix_curve(fr, fs.shape_curvatures(fr, i))


def valid_indices(fr):
    out = []
    for i in range(1, fr.dimension + 1):
        try:
            indicatrix(fr, i)
        except E.IndicatrixDegenerate:
            continue
        out.append(i)
    return out


def test_criterion_1_curvature_scaling(helix_frenet, helix_images, capsys):
    # kappa_j of the image equals kappa_j / lambda, across 20 random
    # direct similarities of the reference helix
    dev = 0.0
    for T, fri in helix_images:
        dev = max(dev, float(
            np.abs(T.lam * fri.kappas - helix_frenet.kappas).max()))
    report(capsys, "curvature scaling under 20 random similarities",
           dev <= TOL, f"max dev {dev:.3e}, tol {TOL:g}")


def test_criterion_2_sigma_invariance(helix_frenet, helix_images, capsys):
    dev = 0.0
    for i in (1, 2, 3):
        base = indicatrix(helix_frenet, i).sigma
        for _, fri in helix_images:
            dev = max(dev, float(
                np.abs(indicatrix(fri, i).sigma - base).max()))
    report(capsys, "indicatrix arc length invariance (i = 1, 2, 3)",
           dev <= TOL, f"max dev {dev:.3e}, tol {TOL:g}")


def test_criterion_3_shape_invariance(helix_curve, spiral_curve,
                                      selfsim3_curve, selfsim4_spec, capsys):
    selfsim4_curve = fs.arclength_reparam(
        fs.synthesize_self_similar(selfsim4_spec), 2000)
    corpus = [
        ("helix", helix_curve, 500),
        ("log spiral", spiral_curve, 510),
        ("self-similar E3", selfsim3_curve, 520),
        ("self-similar E4", selfsim4_curve, 530),
    ]
    dev = 0.0
    for label, cur, seed0 in corpus:
        base_fr = fs.frenet_apparatus(cur)
        indices = valid_indices(base_fr)
        base = {i: fs.shape_curvatures(base_fr, i) for i in indices}
        for k in range(5):
            _, fri = image_apparatus(cur, seed0 + k, cur.dimension)
            for i in indices:
                sig = fs.shape_curvatures(fri, i)
                d = np.abs(sig.kt - base[i].kt).max()
                d = max(d, np.abs(np.array(sig.ktj) - np.array(base[i].ktj)).max())
                dev = max(dev, float(d))
    report(capsys, "shape curvature invariance on 4 curves, all indices",
           dev <= TOL, f"max dev {dev:.3e}, tol {TOL:g}")


GRID_BASE = [
    (2, 1, (1.0,)),
    (3, 2, (3 / RT13, 2 / RT13)),
    (4, 2, (0.7, math.sqrt(1 - 0.49), 0.5)),
    (5, 3, (0.9, 0.6, 0.8, 0.7)),
]


def test_criterion_4_synthesis_grid(capsys):
    worst_std = worst_mean = worst_dist = 0.0
    for n, i, ktj in GRID_BASE:
        for kt in (-0.2, 0.0, 0.2):
            spec = fs.SelfSimilarSpec(dimension=n, index=i, kt=kt, ktj=ktj)
            cur = fs.synthesize_self_similar(spec)
            fr = fs.frenet_apparatus(fs.arclength_reparam(cur, 2000))
            sig = fs.shape_curvatures(fr, i)
            fields = [(sig.kt, kt)] + [(sig.ktj[j], ktj[j])
                                       for j in range(len(ktj))]
            for vals, want in fields:
                worst_std = max(worst_std, float(vals.std()))
                worst_mean = max(worst_mean, abs(float(vals.mean()) - want))
            res = fs.similarity_test(cur, fs.frame_ode_oracle(spec), i,
                                     tol=TOL)
            assert res.is_similar, (n, i, kt, res.distance)
            worst_dist = max(worst_dist, res.distance)
    ok = worst_std <= TOL and worst_mean <= TOL and worst_dist <= TOL
    report(capsys, "12-spec synthesis grid round trip + ODE oracle", ok,
           f"std {worst_std:.3e}, mean dev {worst_mean:.3e}, "
           f"oracle distance {worst_dist:.3e}, tol {TOL:g}")


def test_criterion_5_geodesic_curvature(helix_frenet, helix_images, capsys):
    closed = {1: 4.0 / 3.0, 2: 0.0, 3: 3.0 / 4.0}
    dev_val = dev_form = dev_inv = 0.0
    for i in (1, 2, 3):
        sig = fs.shape_curvatures(helix_frenet, i)
        kg = fs.sabban_geodesic_curvature(
            fs.indicatrix_curve(helix_frenet, sig)).kappa_g
        dev_val = max(dev_val, float(np.abs(kg - closed[i]).max()))
        form = fs.geodesic_closed_form(sig)
        dev_form = max(dev_form, float(np.abs(kg - form).max()))
        for _, fri in helix_images[:5]:
            kgi = fs.sabban_geodesic_curvature(
                indicatrix(fri, i)).kappa_g
            dev_inv = max(dev_inv, float(np.abs(kgi - kg).max()))
    ok = max(dev_val, dev_form, dev_inv) <= TOL
    report(capsys, "Sabban geodesic curvature: helix values 4/3, 0, 3/4",
           ok, f"value dev {dev_val:.3e}, closed-form dev {dev_form:.3e}, "
           f"invariance dev {dev_inv:.3e}, tol {TOL:g}")


def test_criterion_6_focal_curvatures(helix_frenet, spiral_frenet,
                                      selfsim3_frenet, capsys):
    dev_f1 = 0.0
    for fr in (helix_frenet, spiral_frenet, selfsim3_frenet):
        fd = fs.focal_curvatures(fr)
        dev_f1 = max(dev_f1, float(
            np.abs(fd.f[:, 0] - 1.0 / fr.kappas[:, 0]).max()))
    hd = fs.focal_curvatures(helix_frenet)
    dev_f2 = float(np.abs(hd.f[:, 1]).max())
    radius = np.hypot(hd.focal_points[:, 0], hd.focal_points[:, 1])
    dev_radius = float(np.abs(radius - 16.0 / 3.0).max())
    dev_cross = 0.0
    sd = fs.focal_curvatures(selfsim3_frenet)
    for i in (1, 2, 3):
        via = fs.shape_from_focal(sd, i)
        direct = fs.shape_curvatures(selfsim3_frenet, i)
        dev_cross = max(dev_cross, float(np.abs(via.kt - direct.kt).max()))
        for j in range(len(direct.ktj)):
            dev_cross = max(dev_cross, float(
                np.abs(via.ktj[j] - direct.ktj[j]).max()))
    ok = dev_f1 <= 1e-6 and dev_f2 <= 1e-4 and dev_radius <= TOL \
        and dev_cross <= TOL
    report(capsys, "focal curvatures: f_1 = 1/kappa_1, helix f_2 = 0, "
           "focal radius 16/3, focal-vs-direct shape", ok,
           f"f1 dev {dev_f1:.3e} (tol 1e-06), f2 {dev_f2:.3e} (tol 1e-04), "
           f"radius dev {dev_radius:.3e}, crosspath dev {dev_cross:.3e}, "
           f"tol {TOL:g}")


def test_criterion_7_evolute_residuals(selfsim3_frenet, capsys):
    t = np.linspace(0.0, 1.8, 400)
    cur = fs.builtin_evaluate(fs.helix(3.0, 4.0, t_span=(0.0, 1.8)), t)
    helix_fr = fs.frenet_apparatus(fs.arclength_reparam(cur, 2000))
    r_helix = fs.evolute_invariant_report(helix_fr, fs.evolute_e3(helix_fr))
    r_sim = fs.evolute_invariant_report(
        selfsim3_frenet, fs.evolute_e3(selfsim3_frenet, phi0=0.6))
    worst = max(r_helix.max_residual, r_sim.max_residual)
    report(capsys, "evolute invariant residuals (helix + nonconstant curve)",
           worst <= TOL,
           f"helix {r_helix.max_residual:.3e}, "
           f"self-similar {r_sim.max_residual:.3e}, tol {TOL:g}")


def test_criterion_8_reference_example(selfsim3_spec, selfsim3_frenet, capsys):
    # E^3 example with kt_1 = 3/sqrt(13), kt_2 = 2/sqrt(13), kt = -1/20.
    # The solver's constants satisfy both normalization constraints:
    #   lambda_1^2 = kt_1^2 + kt_2^2 = 1,  a_1 = 3/sqrt(13),
    #   axial amplitude z_1 = 2/sqrt(13).
    # The commonly quoted reference values (lambda_1^2 = 5/13,
    # a_1 = 3/sqrt(5), a_2 = 2/sqrt(5)) do not satisfy either
    # constraint (9/5 + 4/5 = 13/5 != 1), so the computed values are
    # documented here as the consistent ones.
    sol = fs.solve_self_similar(selfsim3_spec)
    ok_sol = (abs(sol.lambdas[0] ** 2 - 1.0) < 1e-9
              and abs(sol.amps[0] - 3 / RT13) < 1e-9
              and abs(sol.axial - 2 / RT13) < 1e-9)
    quoted_norm = (3 / math.sqrt(5)) ** 2 + (2 / math.sqrt(5)) ** 2
    ok_doc = abs(quoted_norm - 1.0) > 0.5 and abs(5 / 13 - 1.0) > 0.4

    sig = fs.shape_curvatures(selfsim3_frenet, 2)
    dev = max(abs(float(sig.kt.mean()) - selfsim3_spec.kt),
              abs(float(sig.ktj[0].mean()) - 3 / RT13),
              abs(float(sig.ktj[1].mean()) - 2 / RT13),
              float(sig.kt.std()))
    ok = ok_sol and ok_doc and dev <= TOL
    report(capsys, "reference E3 example: computed constants + round trip",
           ok,
           f"lambda_1^2 = {sol.lambdas[0] ** 2:.12g}, a_1 = {sol.amps[0]:.12g}, "
           f"z_1 = {sol.axial:.12g}; quoted a-norm {quoted_norm:.4g} != 1; "
           f"round-trip dev {dev:.3e}, tol {TOL:g}")
