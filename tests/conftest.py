import math

import numpy as np
import pytest

import frenetsim as fs
from frenetsim.curves import structure_skew

RT13 = math.sqrt(13.0)


@pytest.fixture(scope="session")
def frenet_residual_supnorm():
    """Sup-norm residual of the frame structure equations of a FrenetData.

    Central-differences dV_i/ds at interior samples against the
    skew-tridiagonal reconstruction -kappa_{i-1} V_{i-1} + kappa_i V_{i+1}.
    Converges to 0 at second order on smooth curves.
    """
    def residual(fr):
        V = fr.frames
        ds = (fr.s[2:] - fr.s[:-2])[:, None, None]
        dV = (V[2:] - V[:-2]) / ds
        recon = structure_skew(fr.kappas[1:-1]) @ V[1:-1]
        return float(np.linalg.norm(dV - recon, axis=2).max())
    return residual


@pytest.fixture(scope="session")
def helix_curve():
    # radius 3, pitch 4: speed 5, kappa_1 = 0.12, kappa_2 = 0.16
    return fs.arclength_reparam(fs.helix(3.0, 4.0, t_span=(0.0, 5.0)), 2000)


@pytest.fixture(scope="session")
def helix_frenet(helix_curve):
    return fs.frenet_apparatus(helix_curve)


@pytest.fixture(scope="session")
def circle_frenet():
    cur = fs.arclength_reparam(fs.circle(2.0), 1200)
    return fs.frenet_apparatus(cur)


@pytest.fixture(scope="session")
def spiral_curve():
    return fs.arclength_reparam(fs.log_spiral(-0.1), 2000)


@pytest.fixture(scope="session")
def spiral_frenet(spiral_curve):
    return fs.frenet_apparatus(spiral_curve)


@pytest.fixture(scope="session")
def cubic_frenet():
    # (t, t^2, t^3): nonconstant curvatures, torsion positive
    cur = fs.arclength_reparam(
        fs.custom_poly([[0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0]],
                       t_span=(-1.0, 1.0)), 2000)
    return fs.frenet_apparatus(cur)


@pytest.fixture(scope="session")
def selfsim3_spec():
    return fs.SelfSimilarSpec(dimension=3, index=2, kt=-0.05,
                              ktj=(3 / RT13, 2 / RT13))


@pytest.fixture(scope="session")
def selfsim3_curve(selfsim3_spec):
    return fs.arclength_reparam(fs.synthesize_self_similar(selfsim3_spec), 2000)


@pytest.fixture(scope="session")
def selfsim3_frenet(selfsim3_curve):
    return fs.frenet_apparatus(selfsim3_curve)


@pytest.fixture(scope="session")
def selfsim4_spec():
    return fs.SelfSimilarSpec(dimension=4, index=2, kt=0.1,
                              ktj=(0.7, math.sqrt(1 - 0.49), 0.5))


@pytest.fixture(scope="session")
def selfsim4_frenet(selfsim4_spec):
    cur = fs.arclength_reparam(fs.synthesize_self_similar(selfsim4_spec), 2000)
    return fs.frenet_apparatus(cur)


@pytest.fixture(scope="session")
def selfsim9_curve():
    # kappa_8 sits near zero, so the columns 1/Q_i choose strides from 1
    # to 110 and the V_9-indicatrix is refused (kappa_8 changes sign)
    th = 0.95
    spec = fs.SelfSimilarSpec(dimension=9, index=2, kt=-0.025,
                              ktj=(math.cos(th), math.sin(th), -0.7, -1.1,
                                   -0.6, 0.7, 0.9, -1.1))
    return fs.arclength_reparam(fs.synthesize_self_similar(spec), 2000)


@pytest.fixture(scope="session")
def selfsim9_frenet(selfsim9_curve):
    return fs.frenet_apparatus(selfsim9_curve)


@pytest.fixture(scope="session")
def planar_circle_frenet():
    # radius-2 circle embedded in the z = 0 plane of E^3
    th = np.linspace(0.0, 1.5 * math.pi, 1500)
    pts = np.column_stack([2 * np.cos(th), 2 * np.sin(th), np.zeros_like(th)])
    cur = fs.SampledCurve(3, th, pts)
    return fs.frenet_apparatus(fs.arclength_reparam(cur, 1500))


@pytest.fixture(scope="session")
def interior_flat_curves():
    """Raw curves in E^3 and E^4 whose kappa_{n-2} vanishes at t = 0.

    (t, t^3, 0.1 t), 300 rows, is a plane curve in E^3 with an
    inflection; (t, t^2, t^4, 0.3 t^5), 2000 rows, has kappa_2(0) = 0.
    """
    t3 = np.linspace(-1.0, 1.0, 300)
    t4 = np.linspace(-1.0, 1.0, 2000)
    return {
        3: fs.SampledCurve(3, t3, np.column_stack([t3, t3 ** 3, 0.1 * t3])),
        4: fs.SampledCurve(4, t4, np.column_stack([t4, t4 ** 2, t4 ** 4,
                                                   0.3 * t4 ** 5])),
    }


@pytest.fixture(scope="session")
def data_dir(tmp_path_factory):
    """CSV and JSON inputs shared by the CLI tests."""
    d = tmp_path_factory.mktemp("cli_data")
    t = np.linspace(0.0, 5.0, 400)
    fs.curve_to_csv(fs.builtin_evaluate(fs.helix(3.0, 4.0, t_span=(0.0, 5.0)), t),
                    d / "helix.csv")
    fs.curve_to_csv(fs.builtin_evaluate(fs.helix(6.0, 8.0, t_span=(0.0, 5.0)), t),
                    d / "helix_double.csv")
    fs.curve_to_csv(fs.builtin_evaluate(fs.helix(4.0, 3.0, t_span=(0.0, 5.0)), t),
                    d / "helix_swapped.csv")
    ts = np.linspace(0.0, 1.8, 400)
    fs.curve_to_csv(fs.builtin_evaluate(fs.helix(3.0, 4.0, t_span=(0.0, 1.8)), ts),
                    d / "helix_short.csv")
    tl = np.linspace(0.0, 1.0, 60)
    fs.curve_to_csv(fs.builtin_evaluate(fs.line(3), tl), d / "line.csv")
    (d / "spec3.json").write_text(
        '{"dimension": 3, "index": 2, "kt": -0.05, '
        f'"ktj": [{3 / RT13!r}, {2 / RT13!r}], '
        '"sigma_range": [0.0, 4.0], "samples": 2000}\n')
    (d / "bad_spec.json").write_text(
        '{"dimension": 3, "index": 2, "kt": 0.1, "ktj": [0.0, 1.0]}\n')
    (d / "broken.json").write_text('{"dimension": 3,\n')
    (d / "broken.csv").write_text("t,x1,x2\n0.0,1.0\n")
    return d
