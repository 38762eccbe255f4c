import math
import re

import numpy as np
import pytest

import frenetsim as fs
from frenetsim import errors as E
from frenetsim.curves import TRIM, tangent_residual


@pytest.fixture(scope="module")
def short_helix_frenet():
    t = np.linspace(0.0, 1.8, 400)
    cur = fs.builtin_evaluate(fs.helix(3.0, 4.0, t_span=(0.0, 1.8)), t)
    return fs.frenet_apparatus(fs.arclength_reparam(cur, 2000))


@pytest.fixture(scope="module")
def short_cubic_frenet():
    coeffs = [[0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0]]
    t = np.linspace(-0.5, 0.5, 400)
    cur = fs.builtin_evaluate(fs.custom_poly(coeffs, t_span=(-0.5, 0.5)), t)
    return fs.frenet_apparatus(fs.arclength_reparam(cur, 2000))


def test_helix_evolute_closed_form(short_helix_frenet):
    ev = fs.evolute_e3(short_helix_frenet)
    assert np.abs(ev.m1 - 25.0 / 3.0).max() < 1e-9
    # the torsion integral is anchored at the first retained sample
    phi = 0.16 * (ev.s - ev.s[TRIM]) + math.pi / 2
    want = ev.m1 * np.cos(phi) / np.sin(phi)
    assert np.abs(ev.m2 - want).max() < 1e-6
    assert ev.s.shape == ev.m1.shape == ev.m2.shape
    assert ev.beta.shape == (ev.s.shape[0], 3)


def evolute_check(fr, phi0):
    ev = fs.evolute_e3(fr, phi0)
    return tangent_residual(fr, ev.beta, ev.beta - fr.points)


def test_helix_evolute_residuals(short_helix_frenet):
    # beta' lies along beta - alpha; at phi0 = 1 the phase stays 0.70 from
    # a multiple of pi
    assert evolute_check(short_helix_frenet, 1.0) < 1e-4


def test_cubic_evolute_residuals(short_cubic_frenet):
    # the torsion integral sweeps 2.15, so phi0 = 0.5 keeps the phase
    # 0.49 from both poles
    assert evolute_check(short_cubic_frenet, 0.5) < 1e-4


def test_self_similar_evolute_residuals(selfsim3_frenet):
    # the worst sample is the last kept one, where the phase is nearest
    # pi: 0.33 from it at phi0 = 0.6 and 0.027 at phi0 = 0.9, where beta
    # runs off towards the cotangent's pole and the check grows with it
    near = evolute_check(selfsim3_frenet, 0.6)
    assert near < 5e-3
    assert evolute_check(selfsim3_frenet, 0.9) > 30 * near


def test_still_curves_read_roundoff(circle_frenet, planar_circle_frenet):
    # the focal curve of a circle in E^2 and the evolute of a planar
    # circle are its center, so their derivatives are roundoff; over
    # max |C'| alone the check read about 1 and 0.4 on them
    fd = fs.focal_curvatures(circle_frenet)
    assert tangent_residual(circle_frenet, fd.focal_points,
                            circle_frenet.frames[:, -1]) < 1e-12
    assert evolute_check(planar_circle_frenet, 1.0) < 1e-8


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: the field fits have "
                   "one-sided support at the ends of the kept samples")
def test_twisted_cubic_tangent_checks_within_tol():
    # (t, t^2, t^3), t in [0.2, 1.5], 2000 exact rows: the focal check
    # reads 1.8e-3 and the evolute check at phi0 = 1 reads 2.6e-3, both at
    # the first kept sample
    t = np.linspace(0.2, 1.5, 2000)
    raw = fs.SampledCurve(3, t, np.column_stack([t, t * t, t ** 3]))
    fr = fs.frenet_apparatus(fs.arclength_reparam(raw, 2000))
    fd = fs.focal_curvatures(fr)
    assert tangent_residual(fr, fd.focal_points, fr.frames[:, -1]) < 1e-3
    assert evolute_check(fr, 1.0) < 1e-3


def test_planar_circle_evolute(planar_circle_frenet):
    # zero torsion keeps the phase frozen at pi/2, so the second
    # coefficient vanishes and the evolute degenerates to the center
    ev = fs.evolute_e3(planar_circle_frenet)
    assert np.abs(ev.m2).max() < 1e-12
    assert np.abs(ev.beta).max() < 1e-8


def test_planar_initial_phase_rejected(planar_circle_frenet):
    # zero torsion freezes the phase at phi0, so a phi0 within SIN_FLOOR
    # of a multiple of pi puts the cotangent's pole on every sample
    for phi0 in (0.0, math.pi, 1e-7, -2 * math.pi):
        with pytest.raises(E.CotSingularity, match="reaches or crosses a "
                           "multiple of pi at sample 0, s = 0;"):
            fs.evolute_e3(planar_circle_frenet, phi0=phi0)
    assert np.isfinite(fs.evolute_e3(planar_circle_frenet, phi0=1e-5).m2).all()


def test_phase_pole_rejected(helix_frenet):
    # the accumulated torsion integral of the long helix sweeps the
    # phase through pi where the cotangent blows up; the first sample
    # past the pole is named
    with pytest.raises(E.CotSingularity, match="reaches or crosses") as info:
        fs.evolute_e3(helix_frenet)
    q = int(re.search(r"at sample (\d+), s = ", str(info.value))[1])
    phi = math.pi / 2 + helix_frenet.kappas[0, 1] * (
        helix_frenet.s - helix_frenet.s[TRIM])
    assert phi[q - 1] < math.pi <= phi[q]


def test_dimension_guard(circle_frenet):
    with pytest.raises(E.NotThreeDimensional):
        fs.evolute_e3(circle_frenet)


def test_beta_offset_consistency(short_helix_frenet):
    fr = short_helix_frenet
    ev = fs.evolute_e3(fr)
    want = (fr.points
            + ev.m1[:, None] * fr.frames[:, 1, :]
            + ev.m2[:, None] * fr.frames[:, 2, :])
    assert np.abs(ev.beta - want).max() < 1e-10
    assert ev.s.shape[0] == fr.n_samples
