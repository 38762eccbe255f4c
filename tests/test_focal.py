import numpy as np
import pytest

import frenetsim as fs
from frenetsim import errors as E
from frenetsim.curves import TRIM, FrenetData


def test_circle_focal_center(circle_frenet):
    fd = fs.focal_curvatures(circle_frenet)
    assert np.abs(fd.f[:, 0] - 2.0).max() < 1e-9
    # every focal point collapses onto the circle's own center
    assert np.abs(fd.focal_points).max() < 1e-8
    assert len(fd.s) == circle_frenet.n_samples


def test_helix_focal_values(helix_frenet):
    fd = fs.focal_curvatures(helix_frenet)
    assert np.abs(fd.f[:, 0] - 25.0 / 3.0).max() < 1e-9
    assert np.abs(fd.f[:, 1]).max() < 1e-6


def test_helix_focal_axis_distance(helix_frenet):
    # focal points of a helix trace the complementary helix at radius
    # |r - 1/(r kappa_1^2 / ... )| = a^2/r with a=4, r=3 -> 16/3
    fd = fs.focal_curvatures(helix_frenet)
    dist = np.hypot(fd.focal_points[:, 0], fd.focal_points[:, 1])
    assert np.abs(dist - 16.0 / 3.0).max() < 1e-9


def test_inflection_rejected():
    t = np.linspace(-1.0, 1.0, 901)
    cur = fs.SampledCurve(2, t, np.column_stack([t, t ** 3]))
    fr = fs.frenet_apparatus(fs.arclength_reparam(cur, 900))
    with pytest.raises(E.ZeroCurvature):
        fs.focal_curvatures(fr)


def test_vanishing_pivot_rejected(helix_frenet):
    # f_2 = 0 identically on a helix, so the inversion cannot proceed
    fd = fs.focal_curvatures(helix_frenet)
    with pytest.raises(E.ZeroFocalPivot):
        fs.shape_from_focal(fd, 2)
    # in E^4, kappa = (2 + cos s, 1, 0.5) gives f_2 = f_1' = sin s /
    # (2 + cos s)^2, which vanishes at s = 0 and pi, so the recursion
    # cannot divide by it to reach f_3
    s = np.linspace(0.0, 2.0 * np.pi, 401)
    kappas = np.column_stack([2.0 + np.cos(s), np.ones_like(s),
                              np.full_like(s, 0.5)])
    fr = FrenetData(s, np.zeros((len(s), 4)),
                    np.broadcast_to(np.eye(4), (len(s), 4, 4)), kappas)
    with pytest.raises(E.ZeroFocalPivot,
                       match="f_2 vanishes; cannot continue the recursion to f_3"):
        fs.focal_curvatures(fr)


def test_focal_index_bounds(spiral_frenet):
    fd = fs.focal_curvatures(spiral_frenet)
    with pytest.raises(E.BadIndex):
        fs.shape_from_focal(fd, 0)
    with pytest.raises(E.BadIndex):
        fs.shape_from_focal(fd, 3)


@pytest.mark.parametrize("index", [1, 2, 3])
def test_crosspath_three_dimensional(selfsim3_frenet, index):
    fd = fs.focal_curvatures(selfsim3_frenet)
    via_focal = fs.shape_from_focal(fd, index)
    direct = fs.shape_curvatures(selfsim3_frenet, index)
    assert np.abs(via_focal.kt - direct.kt).max() < 1e-3
    for j in range(len(direct.ktj)):
        assert np.abs(via_focal.ktj[j] - direct.ktj[j]).max() < 1e-3


@pytest.mark.parametrize("index", [1, 2, 3, 4])
def test_crosspath_four_dimensional(selfsim4_frenet, index):
    fd = fs.focal_curvatures(selfsim4_frenet)
    via_focal = fs.shape_from_focal(fd, index)
    direct = fs.shape_curvatures(selfsim4_frenet, index)
    assert np.abs(via_focal.kt - direct.kt).max() < 1e-3
    for j in range(len(direct.ktj)):
        assert np.abs(via_focal.ktj[j] - direct.ktj[j]).max() < 1e-3


def test_focal_matches_reciprocal_curvature(spiral_frenet, cubic_frenet):
    for fr in (spiral_frenet, cubic_frenet):
        fd = fs.focal_curvatures(fr)
        assert np.abs(fd.f[:, 0] - 1.0 / fr.kappas[:, 0]).max() < 1e-9


def test_trim_alignment(selfsim3_frenet):
    fd = fs.focal_curvatures(selfsim3_frenet)
    sig = fs.shape_from_focal(fd, 3)
    # the focal route keeps the samples of the direct one
    assert sig.sigma.shape[0] == selfsim3_frenet.n_samples - 2 * TRIM
