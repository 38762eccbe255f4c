import csv
import io
import math

import numpy as np
import pytest

import frenetsim as fs
from frenetsim import errors as E
from frenetsim import cli, curves
from frenetsim.curves import _engine, min_samples

TAU = 2 * math.pi


def test_arclength_circle():
    cur = fs.builtin_evaluate(fs.circle(2.0), np.linspace(0, TAU, 800))
    s = fs.arclength_values(cur)
    assert s[0] == 0.0
    assert abs(s[-1] - 4 * math.pi) < 1e-8


def test_arclength_helix():
    cur = fs.builtin_evaluate(fs.helix(3.0, 4.0, t_span=(0.0, 5.0)),
                              np.linspace(0, 5, 600))
    s = fs.arclength_values(cur)
    assert abs(s[-1] - 25.0) < 1e-8


def test_arclength_line():
    cur = fs.builtin_evaluate(fs.line(3), np.linspace(0, 1, 50))
    s = fs.arclength_values(cur)
    assert abs(s[-1] - 1.0) < 1e-10


def test_reparam_is_unit_speed(helix_curve):
    ds = np.diff(helix_curve.t)
    assert np.allclose(ds, ds[0], atol=1e-12)
    chords = np.linalg.norm(np.diff(helix_curve.points, axis=0), axis=1)
    assert np.abs(chords / ds - 1.0).max() < 1e-6


def test_parameter_speeds_of_builtin():
    h = fs.helix(3.0, 4.0, t_span=(0.0, 5.0))
    sp = fs.parameter_speeds(h, np.linspace(0.5, 4.5, 7))
    assert np.allclose(sp, 5.0, atol=1e-12)


def test_circle_curvature(circle_frenet):
    assert np.abs(circle_frenet.kappas[:, 0] - 0.5).max() < 1e-9


def test_helix_curvatures(helix_frenet):
    assert np.abs(helix_frenet.kappas[:, 0] - 0.12).max() < 1e-9
    assert np.abs(helix_frenet.kappas[:, 1] - 0.16).max() < 1e-9


def test_frames_orthonormal_and_oriented(helix_frenet):
    F = helix_frenet.frames
    gram = np.einsum("qik,qjk->qij", F, F)
    eye = np.eye(3)
    assert np.abs(gram - eye).max() < 1e-9
    dets = np.linalg.det(F)
    assert np.abs(dets - 1.0).max() < 1e-9


def test_structure_residual_converges():
    # frame derivatives vs the curvature reconstruction: second order in
    # the step, so quadrupling samples should cut the residual ~4x
    devs = {}
    for n in (400, 800):
        cur = fs.arclength_reparam(fs.helix(3.0, 4.0, t_span=(0.0, 5.0)), n)
        devs[n] = fs.frenet_residual_supnorm(fs.frenet_apparatus(cur))
    assert devs[400] / devs[800] > 2.5
    assert devs[800] < 1e-4


def test_line_is_degenerate():
    cur = fs.arclength_reparam(fs.line(3), 200)
    # d^2a/ds^2 vanishes, so the second pivot collapses at once
    with pytest.raises(E.FrameDegenerate, match="pivot 2 collapsed at sample 0"):
        fs.frenet_apparatus(cur)


def test_reparam_jet_has_unit_speed(helix_curve):
    rep = _engine(helix_curve)
    tangent = rep.jet(helix_curve.t, 1)[1]
    assert np.abs(np.linalg.norm(tangent, axis=1) - 1.0).max() < 1e-12
    T = fs.random_similarity(4, (0.5, 2.0), 3)
    img = fs.AffineImage(rep, T.lam, T.A, T.b)
    assert np.abs(fs.parameter_speeds(img, helix_curve.t) - T.lam).max() < 1e-12
    s = T.lam * (helix_curve.t - helix_curve.t[0])
    assert np.abs(img.arclength(helix_curve.t) - s).max() < 1e-12


def test_twisted_cubic_curvatures_in_its_own_parameter():
    # (t, t^2, t^3) has speed sqrt(1 + 4t^2 + 9t^4), so R_11 != 1
    cubic = fs.custom_poly([[0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0]],
                           t_span=(-1.0, 1.0))
    t = np.linspace(-1.0, 1.0, 401)
    cur = fs.builtin_evaluate(cubic, t)
    w = 9 * t**4 + 9 * t**2 + 1
    want = np.column_stack([2 * np.sqrt(w) / (1 + 4 * t**2 + 9 * t**4) ** 1.5,
                            3 / w])
    assert np.abs(fs.frenet_apparatus(cur).kappas - want).max() < 1e-12
    T = fs.random_similarity(9, (0.5, 2.0), 3)
    img = fs.frenet_apparatus(fs.apply_similarity(T, cur))
    assert np.abs(T.lam * img.kappas - want).max() < 1e-12


_TQ = np.linspace(0.5, 4.5, 7)


def _exp_derivatives(amp, mu, order):
    w = amp * mu ** np.arange(order + 1)[:, None] * np.exp(mu * _TQ)
    return np.stack([w.real, w.imag], axis=-1)


def _helix_derivatives(order):
    # (3 cos t, 3 sin t, 4 t)
    z = np.zeros((order + 1, len(_TQ), 1))
    z[0, :, 0] = 4.0 * _TQ
    z[1] = 4.0
    return np.concatenate([_exp_derivatives(3.0, 1j, order), z], axis=-1)


def _cubic_derivatives(order):
    # (t, t^2, t^3)
    t, one, zero = _TQ, np.ones_like(_TQ), np.zeros_like(_TQ)
    rows = [[t, t**2, t**3], [one, 2 * t, 3 * t**2], [zero, 2 * one, 6 * t],
            [zero, zero, 6 * one]] + [[zero] * 3] * (order - 3)
    return np.array(rows).transpose(0, 2, 1)


def _raw_helix_spline():
    t = np.linspace(0.0, 5.0, 400)
    raw = fs.builtin_evaluate(fs.helix(3.0, 4.0, t_span=(0.0, 5.0)), t)
    return _engine(fs.SampledCurve(3, t, raw.points))


_RAW_HELIX = _raw_helix_spline()


@pytest.mark.parametrize("source, want, tol", [
    (fs.circle(2.0), _exp_derivatives(2.0, 1j, 4), 1e-12),
    (fs.helix(3.0, 4.0), _helix_derivatives(4), 1e-12),
    (fs.log_spiral(-0.1), _exp_derivatives(1.0, -0.1 + 1j, 4), 1e-12),
    (fs.custom_poly([[0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0]]),
     _cubic_derivatives(4), 1e-12),
    # scipy's derivative spline and de Boor evaluation differ by ~1e-8
    # at order 4, still far below a stray factor k! or 1/k!
    (_RAW_HELIX, [_RAW_HELIX.spline.derivative(k)(_TQ) for k in range(5)], 1e-7),
], ids=["circle", "helix", "log_spiral", "custom_poly", "raw_spline"])
def test_jets_are_derivatives(source, want, tol):
    # entry [k] of every jet source is d^k alpha/dt^k
    assert np.abs(source.jet(_TQ, 4) - np.asarray(want)).max() < tol


def test_affine_image_jet(helix_curve):
    T = fs.random_similarity(4, (0.5, 2.0), 3)
    img = fs.AffineImage(helix_curve.source, T.lam, T.A, T.b)
    tq = helix_curve.t[10:20]
    want = T.lam * np.einsum("ij,kqj->kqi", T.A, helix_curve.source.jet(tq, 4))
    want[0] += T.b
    assert np.abs(img.jet(tq, 4) - want).max() < 1e-12


def test_raw_curve_fits_one_position_spline(monkeypatch):
    t = np.linspace(0.0, 5.0, 2000)
    raw = fs.builtin_evaluate(fs.helix(3.0, 4.0, t_span=(0.0, 5.0)), t)
    fits = []
    fit = curves.make_interp_spline

    def counting_fit(x, y, k):
        fits.append(len(x))
        return fit(x, y, k=k)

    monkeypatch.setattr(curves, "make_interp_spline", counting_fit)
    fs.frenet_apparatus(fs.SampledCurve(3, t, raw.points))
    # the position spline, then the speed antiderivative on 8001 points
    assert len(fits) == 2 and fits[1] == 8001


def _gram_schmidt_frenet(D):
    """Classical Gram-Schmidt frames and curvatures from derivatives D[j-1].

    Each projection is applied twice: one pass loses orthogonality in
    the last E^9 vectors by about 1e-12. D holds derivatives in any
    regular parameter; the first pivot is the speed, which turns the
    pivot ratios into curvatures per unit arc length.
    """
    n = len(D)
    F = np.zeros((D.shape[1], n, n))
    pivots = []
    for j in range(n):
        w = D[j].copy()
        for _ in range(2):
            w -= np.einsum("qk,qkd->qd", np.einsum("qkd,qd->qk", F, w), F)
        pivots.append(np.linalg.norm(w, axis=1))
        F[:, j] = w / pivots[-1][:, None]
    # the last vector completes a positively oriented frame
    F[:, -1] *= np.sign(np.linalg.det(F))[:, None]
    kap = [pivots[j + 1] / pivots[j] for j in range(n - 2)]
    kap.append(np.einsum("qd,qd->q", D[-1], F[:, -1]) / pivots[n - 2])
    return F, np.stack(kap, axis=1) / pivots[0][:, None]


@pytest.mark.parametrize("ktj", [
    (math.cos(0.6), math.sin(0.6), 0.8, -0.7),
    (math.cos(0.6), math.sin(0.6), 0.8, -0.7, 0.9, 0.6, -1.0, 0.75),
])
def test_qr_frames_match_gram_schmidt(ktj):
    n = len(ktj) + 1
    spec = fs.SelfSimilarSpec(n, 2, 0.05, ktj)
    cur = fs.arclength_reparam(fs.synthesize_self_similar(spec), 600)
    fr = fs.frenet_apparatus(cur)
    D = _engine(cur).jet(cur.t, n)[1:]
    F, kap = _gram_schmidt_frenet(D)
    assert np.abs(fr.frames - F).max() < 1e-12
    assert np.abs(fr.kappas - kap).max() < 1e-12
    assert np.abs(np.linalg.det(fr.frames) - 1.0).max() < 1e-12


def test_reversal_keeps_curvatures(helix_curve):
    rev = fs.SampledCurve(3, -helix_curve.t[::-1],
                          helix_curve.points[::-1].copy())
    fr = fs.frenet_apparatus(fs.arclength_reparam(rev, 1000))
    assert np.abs(fr.kappas[:, 0] - 0.12).max() < 1e-6
    assert np.abs(fr.kappas[:, 1] - 0.16).max() < 1e-6


def test_mirror_flips_last_curvature(helix_curve):
    mir = fs.SampledCurve(3, helix_curve.t,
                          helix_curve.points * np.array([1.0, 1.0, -1.0]))
    fr = fs.frenet_apparatus(fs.arclength_reparam(mir, 1000))
    assert np.abs(fr.kappas[:, 0] - 0.12).max() < 1e-6
    assert np.abs(fr.kappas[:, 1] + 0.16).max() < 1e-6


def test_planar_curve_in_e3_analyzable(planar_circle_frenet):
    # a plane curve sits inside E^3 without tripping the frame pivot;
    # its second curvature just comes out zero
    assert np.abs(planar_circle_frenet.kappas[:, 0] - 0.5).max() < 1e-8
    assert np.abs(planar_circle_frenet.kappas[:, 1]).max() < 1e-8


def test_csv_round_trip(tmp_path, helix_curve):
    p = tmp_path / "c.csv"
    fs.curve_to_csv(helix_curve, p)
    back = fs.curve_from_csv(p)
    assert back.dimension == 3
    assert np.array_equal(back.t, helix_curve.t)
    assert np.array_equal(back.points, helix_curve.points)


# (file body, the BadParameters message after "{path}: ")
MALFORMED_CSV = [
    ("", "empty curve file"),
    ("a,b,c\n0.0,1.0,2.0\n1.0,2.0,3.0\n",
     "header must be t,x1,...,xn with n >= 2, got ['a', 'b', 'c']"),
    ("t,x1\n0.0,1.0\n1.0,2.0\n",
     "header must be t,x1,...,xn with n >= 2, got ['t', 'x1']"),
    ("t,x1,x2\n0,1,2\n1,abc,3\n",
     "non-numeric cell (could not convert string to float: 'abc')"),
    ("t,x1,x2\n0,1,2\n   \n1,2,3\n",
     "non-numeric cell (could not convert string to float: '   ')"),
    ("t,x1,x2\n0,1,2,\n1,2,3,\n",
     "non-numeric cell (could not convert string to float: '')"),
    ("t,x1,x2\n0,0x1p3,2\n1,2,3\n",
     "non-numeric cell (could not convert string to float: '0x1p3')"),
    ("t,x1,x2\n0.0,1.0\n1.0,2.0\n", "ragged rows"),
    ("t,x1,x2\n", "no data rows"),
    ("t,x1,x2\r\n\r\n\n", "no data rows"),
]


# a warning would reach the CLI's stderr as a second line
@pytest.mark.filterwarnings("error")
def test_csv_rejects_malformed(tmp_path):
    p = tmp_path / "bad.csv"
    for body, message in MALFORMED_CSV:
        p.write_bytes(body.encode())
        with pytest.raises(E.BadParameters) as info:
            fs.curve_from_csv(p)
        assert str(info.value) == f"{p}: {message}"
    # rows of two lengths: the message is numpy's, which varies by version
    p.write_text("t,x1,x2\n0,1,2\n1,2\n")
    with pytest.raises(E.BadParameters, match="non-numeric cell"):
        fs.curve_from_csv(p)


def _csv_module_rows(text):
    """The reference parse: csv rows of float() cells, blank rows skipped."""
    rows = list(csv.reader(io.StringIO(text, newline="")))[1:]
    return np.array([[float(c) for c in row] for row in rows if row])


@pytest.mark.parametrize("body", [
    pytest.param("t,x1,x2\n0,1,2\n\n1,2,3\n\n", id="blank-lines"),
    pytest.param("t,x1,x2\r\n0,1,2\r\n\r\n1,2,3\r\n", id="crlf"),
    pytest.param("t,x1,x2\r0,1,2\r1,2,3\r", id="lone-cr"),
    pytest.param("t,x1,x2\n0,1,2\n1,2,3", id="no-final-newline"),
    pytest.param(" t , x1 ,x2\n 0 , 1 ,\t2\t\n+1,-2.5e-3,.5\n", id="padded"),
    pytest.param('t,x1,x2\n"0",1,"2"\n1,"2.5",3\n', id="quoted"),
    pytest.param("t,x1,x2\n0,1_0,2\n1,2,3\n", id="underscore"),
    pytest.param("t,x1,x2\n\xa00,\uff11,2\n1,2,3\n", id="non-ascii"),
    pytest.param("t,x1,x2\n0,5e-324,-0.0\n1,1e308,-1e308\n", id="extremes"),
    pytest.param("t,x1,x2,x3\n0,1,2,3\n", id="one-row"),
])
def test_csv_parses_like_csv_module(tmp_path, body):
    # cells are whatever float() makes of each csv field
    p = tmp_path / "c.csv"
    p.write_bytes(body.encode())
    data = _csv_module_rows(body)
    if len(data) < 2:
        with pytest.raises(E.BadParameters, match=">= 2 samples"):
            fs.curve_from_csv(p)
        return
    cur = fs.curve_from_csv(p)
    assert cur.dimension == data.shape[1] - 1
    assert cur.t.tobytes() == data[:, 0].tobytes()
    assert cur.points.tobytes() == np.ascontiguousarray(data[:, 1:]).tobytes()


def test_too_few_samples(tmp_path):
    t = np.linspace(0.0, 1.0, min_samples(3) - 1)
    pts = np.column_stack([np.cos(t), np.sin(t), t])
    cur = fs.SampledCurve(3, t, pts)
    with pytest.raises(E.TooFewSamples):
        fs.frenet_apparatus(cur)
    # raw samples are refused before a spline is fitted through them
    with pytest.raises(E.TooFewSamples, match="got 9"):
        fs.arclength_reparam(cur, 2000)
    path = tmp_path / "short.csv"
    fs.curve_to_csv(fs.SampledCurve(3, t[:4], pts[:4]), path)
    assert cli.main(["analyze", "--input", str(path),
                        "--output", str(tmp_path / "out")]) == 2


def test_noisy_spiral_arclength_stalls():
    # the quintic speed fit of heavily noisy samples dips through zero,
    # so the arc length stops increasing
    t = np.linspace(0.0, 2 * TAU, 2000)
    pts = np.column_stack([np.exp(0.1 * t) * np.cos(t), np.exp(0.1 * t) * np.sin(t)])
    diam = np.linalg.norm(np.ptp(pts, axis=0))
    pts = pts + np.random.default_rng(0).normal(0.0, 1e-3 * diam, pts.shape)
    with pytest.raises(E.ZeroSpeed, match="stops increasing"):
        fs.arclength_reparam(fs.SampledCurve(2, t, pts), 2000)


def test_zero_speed_cusp():
    t = np.linspace(0.0, 1.0, 51)
    pts = np.column_stack([(t - 0.5) ** 3, (t - 0.5) ** 4])
    cur = fs.SampledCurve(2, t, pts)
    with pytest.raises(E.ZeroSpeed):
        fs.arclength_reparam(cur, 200)
    # (t^2, t^3) stops at t = 0, sample 100 of the grid, before any pivot
    cusp = fs.custom_poly([[0, 0, 1], [0, 0, 0, 1]])
    cur = fs.builtin_evaluate(cusp, np.linspace(-1, 1, 201))
    with pytest.raises(E.ZeroSpeed, match="sample 100"):
        fs.frenet_apparatus(cur)


def test_sampled_curve_validation():
    t = np.array([0.0, 1.0, 1.0, 2.0])
    pts = np.zeros((4, 2))
    with pytest.raises(E.BadParameters):
        fs.SampledCurve(2, t, pts)
    with pytest.raises(E.DimensionMismatch):
        fs.SampledCurve(3, np.array([0.0, 1.0]), np.zeros((2, 2)))


def test_builtin_validation():
    with pytest.raises(E.BadParameters):
        fs.circle(-1.0)
    with pytest.raises(E.BadParameters):
        fs.helix(0.0, 0.0)
    with pytest.raises(E.BadParameters):
        fs.circle(1.0, t_span=(2.0, 1.0))
    with pytest.raises(E.BadParameters):
        fs.custom_poly([])


def test_custom_poly_against_hand_values():
    # (t, t^2) at t=0 has curvature 2
    par = fs.custom_poly([[0.0, 1.0], [0.0, 0.0, 1.0]], t_span=(-1.0, 1.0))
    fr = fs.frenet_apparatus(fs.arclength_reparam(par, 2000))
    mid = np.argmin(np.abs(fr.s - fr.s[-1] / 2))
    assert abs(fr.kappas[mid, 0] - 2.0) < 1e-4


def test_field_derivative_polynomial():
    x = np.linspace(0.0, 2.0, 400)
    y = x ** 3 - x
    d = fs.field_derivative(x, y, order=1)
    assert np.abs(d - (3 * x ** 2 - 1)).max() < 1e-7


def test_coarse_circle_still_accurate():
    cur = fs.SampledCurve(
        2, np.linspace(0, TAU, 40),
        np.column_stack([np.cos(np.linspace(0, TAU, 40)),
                         np.sin(np.linspace(0, TAU, 40))]))
    fr = fs.frenet_apparatus(fs.arclength_reparam(cur, 400))
    assert np.abs(fr.kappas[:, 0] - 1.0).max() < 1e-5
