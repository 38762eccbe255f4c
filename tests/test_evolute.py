import math
import re

import numpy as np
import pytest

import frenetsim as fs
from frenetsim import errors as E
from frenetsim.curves import TRIM


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


def test_helix_evolute_residuals(short_helix_frenet):
    rep = fs.evolute_invariant_report(short_helix_frenet,
                                      fs.evolute_e3(short_helix_frenet))
    assert rep.residual_shape < 1e-4
    assert rep.residual_ratio < 1e-3
    assert rep.max_residual == max(rep.residual_shape, rep.residual_ratio)


def test_cubic_evolute_residuals(short_cubic_frenet):
    ev = fs.evolute_e3(short_cubic_frenet, phi0=math.pi / 2 - 0.6)
    rep = fs.evolute_invariant_report(short_cubic_frenet, ev)
    assert rep.residual_shape < 1e-3
    assert rep.residual_ratio < 1e-3


def test_self_similar_evolute_residuals(selfsim3_frenet):
    rep = fs.evolute_invariant_report(selfsim3_frenet,
                                      fs.evolute_e3(selfsim3_frenet, phi0=0.6))
    assert rep.residual_shape < 1e-3
    assert rep.residual_ratio < 1e-3


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
