import csv
import io
import logging
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicHermiteSpline

import frenetsim as fs
from frenetsim import errors as E
from frenetsim import cli, curves
from frenetsim.curves import (
    FIELD_NOISE,
    POSITION_NOISE,
    TRIM,
    AffineImage,
    BuiltinCurve,
    FrenetData,
    _engine,
    _knot_sites,
    field_derivative,
    field_fits,
    min_samples,
    parameter_speeds,
)
from frenetsim.transforms import SimilarityTransform

TAU = 2 * math.pi


def test_arclength_circle():
    cur = fs.builtin_evaluate(fs.circle(2.0), np.linspace(0, TAU, 800))
    s = cur.source.arclength(cur.t)
    assert s[0] == 0.0
    assert abs(s[-1] - 4 * math.pi) < 1e-8


def test_arclength_helix():
    cur = fs.builtin_evaluate(fs.helix(3.0, 4.0, t_span=(0.0, 5.0)),
                              np.linspace(0, 5, 600))
    s = cur.source.arclength(cur.t)
    assert abs(s[-1] - 25.0) < 1e-8


def test_arclength_line():
    cur = fs.builtin_evaluate(fs.line(3), np.linspace(0, 1, 50))
    s = cur.source.arclength(cur.t)
    assert abs(s[-1] - 1.0) < 1e-10


@pytest.mark.parametrize("n", [2000, 20000])
def test_arclength_inverse_closed_forms(n):
    # helix(3, 4) has speed 5, so t = s/5; e^{(c + i)t} has speed
    # sqrt(1 + c^2) e^{ct}, so t = log(1 + c s / sqrt(1 + c^2)) / c
    c = -0.1
    for curve, t_of_s in (
            (fs.helix(3.0, 4.0), lambda s: s / 5.0),
            (fs.log_spiral(c), lambda s: np.log1p(c * s / math.hypot(1.0, c)) / c)):
        cur = fs.arclength_reparam(curve, n)
        # the sample grid and the midpoints between its samples
        s = np.linspace(0.0, cur.t[-1], 2 * n - 1)
        assert np.abs(cur.source.t_of_s(s) - t_of_s(s)).max() < 5e-12


@pytest.mark.parametrize("n", [2000, 20000])
def test_arclength_inverse_closed_forms_of_raw_samples(n):
    # the same closed forms through the position spline of raw samples,
    # whose arc-length table is sized by the fit's knot spans
    c = -0.1
    for curve, t_of_s in (
            (fs.helix(3.0, 4.0), lambda s: s / 5.0),
            (fs.log_spiral(c), lambda s: np.log1p(c * s / math.hypot(1.0, c)) / c)):
        t = np.linspace(*curve.t_span, n)
        raw = fs.SampledCurve(curve.dimension, t, curve.jet(t, 0)[0])
        cur = fs.arclength_reparam(raw, n)
        s = np.linspace(0.0, cur.t[-1], 2 * n - 1)
        assert np.abs(cur.source.t_of_s(s) - t_of_s(s)).max() < 5e-12


def _raw_table_inputs(data_dir, interior_flat_curves):
    """Raw curves of the conftest fixtures and two of 20k samples.

    A raw 20k-sample helix is left to the closed-form test above: its
    speed is constant, so the float64 running sum of either table rounds
    the same way at every step and drifts by 1e-13 to 6e-13 of the
    length, as much as the two tables differ there.
    """
    raws = [fs.curve_from_csv(data_dir / f"{name}.csv") for name in
            ("helix", "helix_double", "helix_swapped", "helix_short", "line")]
    raws += [interior_flat_curves[3], interior_flat_curves[4]]
    t = np.linspace(0.0, TAU, 20000)
    big = [fs.SampledCurve(2, t, fs.log_spiral(-0.1).jet(t, 0)[0]),
           fs.synthesize_self_similar(fs.SelfSimilarSpec(
               dimension=4, index=2, kt=0.1, ktj=(0.7, math.sqrt(1 - 0.49), 0.5),
               n_samples=20000))]
    return raws + big


def _reference_table(src, t_lo, t_hi, n_hint):
    """The arc-length table at max(4N, 4096) + 1 points, whatever the fit."""
    tt = np.linspace(t_lo, t_hi, max(4 * n_hint, 4096) + 1)
    sp = curves.parameter_speeds(src, tt)
    return tt, cumulative_simpson(sp, x=tt, initial=0.0), sp


def test_cumulative_simpson_is_scipys_bit_for_bit():
    # the in-house rule repeats scipy's arithmetic, so every sigma_i, s(t)
    # and evolute phase is the one scipy's would give, sign of zero too
    rng = np.random.default_rng(11)

    def grids(n):
        yield np.linspace(0.0, 3.0, n)
        yield np.cumsum(rng.uniform(0.01, 2.0, n)) - 5.0

    for n in [*range(3, 10), 8001]:
        for x in grids(n):
            for y in (rng.normal(size=n), rng.normal(size=(5, n)),
                      np.zeros(n), np.full((2, n), -0.0),
                      rng.normal(size=(3, n)) * 1e200,
                      rng.normal(size=n) * 1e-200,
                      -rng.uniform(size=n) * 1e-200):
                want = cumulative_simpson(y, x=x, initial=0.0)
                got = curves.cumulative_simpson(y, x)
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (n, y.shape)
    # a zero integral starts at +0.0 and stays +0.0
    zero = curves.cumulative_simpson(np.full(5, -0.0), np.arange(5.0))
    assert not np.signbit(zero).any()


def test_fit_sized_table_agrees_with_the_4n_table(data_dir, interior_flat_curves):
    for raw in _raw_table_inputs(data_dir, interior_flat_curves):
        n = raw.n_samples
        cur = fs.arclength_reparam(raw, n)
        src = cur.source.inner
        if n == 20000:
            # the fit-sized table is the smaller one on these
            assert curves.TABLE_PER_SPAN * src.knot_spans < 4 * n
        t_lo, t_hi = raw.t[0], raw.t[-1]
        tt, sv, sp = _reference_table(src, t_lo, t_hi, n)
        t_of_s = CubicHermiteSpline(sv, tt, 1.0 / sp)
        length = cur.t[-1]
        # the total length, and t(s) at the samples and the midpoints
        assert abs(length - sv[-1]) < 1e-13 * sv[-1]
        s = np.linspace(0.0, min(length, sv[-1]), 2 * n - 1)
        assert np.abs(cur.source.t_of_s(s) - t_of_s(s)).max() < 1e-13 * (t_hi - t_lo)
        # s(t) at the samples and the midpoints
        tq = np.empty(2 * n - 1)
        tq[::2] = raw.t
        tq[1::2] = (raw.t[1:] + raw.t[:-1]) / 2
        tt, sv, sp = _reference_table(src, t_lo, t_hi, len(tq))
        s_ref = CubicHermiteSpline(tt, sv, sp)(tq)
        assert np.abs(src.arclength(tq) - s_ref).max() < 1e-13 * s_ref[-1]
        # the resampled points
        want = src.jet(t_of_s(np.linspace(0.0, length, n)), 0)[0]
        diam = np.linalg.norm(np.ptp(want, axis=0))
        assert np.abs(cur.points - want).max() < 1e-13 * diam


def test_arclength_forward_closed_form():
    # helix(3, 4) has speed 5, so s(t) = 5 (t - t0) on its spline fit too;
    # the error is the position spline's (1.4e-12), not the table read's
    t = np.linspace(0.0, 5.0, 2000)
    raw = fs.builtin_evaluate(fs.helix(3.0, 4.0, t_span=(0.0, 5.0)), t)
    src = _engine(fs.SampledCurve(3, t, raw.points))
    # the samples and the midpoints between them
    tq = np.linspace(0.0, 5.0, 2 * len(t) - 1)
    assert np.abs(src.arclength(tq) - 5.0 * (tq - tq[0])).max() < 3e-12


def test_position_stride_does_not_depend_on_the_scale():
    # the stride rule squares chords; scaled by 2^600 they would overflow
    # and by 2^-600 underflow to 0, yet the fit keeps the knots of the
    # unscaled samples and its coefficients scale exactly
    t = np.linspace(0.0, 4.0 * np.pi, 400)
    pts = np.column_stack([3.0 * np.cos(t), 3.0 * np.sin(t), 0.6 * t])
    base = _engine(fs.SampledCurve(3, t, pts)).chain[0]
    for k in (-600, 600):
        fit = _engine(fs.SampledCurve(3, t, np.ldexp(pts, k))).chain[0]
        assert np.array_equal(fit.t, base.t)
        assert np.array_equal(fit.c, np.ldexp(base.c, k))


def test_reparam_is_unit_speed(helix_curve):
    ds = np.diff(helix_curve.t)
    assert np.allclose(ds, ds[0], atol=1e-12)
    chords = np.linalg.norm(np.diff(helix_curve.points, axis=0), axis=1)
    assert np.abs(chords / ds - 1.0).max() < 1e-6


def test_parameter_speeds_of_builtin():
    h = fs.helix(3.0, 4.0, t_span=(0.0, 5.0))
    sp = parameter_speeds(h, np.linspace(0.5, 4.5, 7))
    assert np.allclose(sp, 5.0, atol=1e-12)


def test_velocity_is_the_jets_first_entry(helix_curve):
    # parameter_speeds reads velocity(tq) alone, which must be entry [1]
    # of the source's jet, bit for bit, on every kind of jet source
    raw = fs.SampledCurve(3, helix_curve.t, helix_curve.points)
    spline = _engine(raw)
    rep = _engine(fs.arclength_reparam(raw, 500))
    T = fs.random_similarity(4, 3)
    tq = np.linspace(0.1, 24.9, 301)
    for src in (fs.helix(3.0, 4.0), spline, rep,
                AffineImage(spline, T.lam, T.A, T.b),
                AffineImage(rep, T.lam, T.A, T.b)):
        v = src.velocity(tq)
        assert np.array_equal(v, src.jet(tq, 4)[1])
        assert np.array_equal(parameter_speeds(src, tq),
                              np.linalg.norm(v, axis=1))


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


def test_structure_residual_converges(frenet_residual_supnorm):
    # frame derivatives vs the curvature reconstruction: second order in
    # the step, so quadrupling samples should cut the residual ~4x
    devs = {}
    for n in (400, 800):
        cur = fs.arclength_reparam(fs.helix(3.0, 4.0, t_span=(0.0, 5.0)), n)
        devs[n] = frenet_residual_supnorm(fs.frenet_apparatus(cur))
    assert devs[400] / devs[800] > 2.5
    assert devs[800] < 1e-4


def test_line_is_degenerate():
    cur = fs.arclength_reparam(fs.line(3), 200)
    # d^2a/ds^2 vanishes, so the second pivot collapses at once
    with pytest.raises(E.FrameDegenerate, match="pivot 2 collapsed at sample 0"):
        fs.frenet_apparatus(cur)


def test_relative_pivot_rule_refuses_first():
    # the y and z terms of (t^4, 1e-9 t^2, 1e-12 t^3) are tiny beside
    # d^2a/dt^2 at once, but kappa_1 L stays above PIVOT_REL until sample
    # 67, so only the rule relative to |d^2a/dt^2| names sample 0
    poly = fs.custom_poly([[0, 0, 0, 0, 1], [0, 0, 1e-9], [0, 0, 0, 1e-12]],
                          (1.0, 10.0))
    cur = fs.builtin_evaluate(poly, np.linspace(1.0, 10.0, 400))
    with pytest.raises(E.FrameDegenerate, match=re.escape(
            "QR pivot 2 collapsed at sample 0 (|R_jj|=")):
        fs.frenet_apparatus(cur)


def test_reparam_jet_has_unit_speed(helix_curve):
    rep = _engine(helix_curve)
    tangent = rep.jet(helix_curve.t, 1)[1]
    assert np.abs(np.linalg.norm(tangent, axis=1) - 1.0).max() < 1e-12
    T = fs.random_similarity(4, 3)
    img = AffineImage(rep, T.lam, T.A, T.b)
    assert np.abs(parameter_speeds(img, helix_curve.t) - T.lam).max() < 1e-12
    s = T.lam * (helix_curve.t - helix_curve.t[0])
    assert np.abs(img.arclength(helix_curve.t) - s).max() < 1e-12


def test_reparam_jet_memo(helix_curve):
    shared = _engine(helix_curve)
    t, n = helix_curve.t, helix_curve.dimension

    def new_source(grid, order=n):
        return curves._ReparamSource(shared.inner, shared.t_of_s, grid.copy(),
                                     order)

    rep = new_source(t)
    kept = rep.grid_jet
    assert np.array_equal(kept, shared.grid_jet)
    assert not kept.flags.writeable and not rep.grid.flags.writeable
    # the grid jet comes back as it was built, bit for bit and read-only,
    # at every order up to n
    for order in range(n + 1):
        got = rep.jet(t.copy(), order)
        assert got.shape[0] == order + 1 and np.shares_memory(got, kept)
        assert np.array_equal(got, kept[: order + 1]) and not got.flags.writeable
    # another grid, or a higher order, gets a fresh jet equal to that of a
    # source built there, and the stored jet stays
    moved = t + 0.25 * (t[1] - t[0])
    off = rep.jet(moved, n)
    assert not np.shares_memory(off, kept)
    assert np.array_equal(off, new_source(moved).grid_jet)
    higher = rep.jet(t, n + 1)
    assert not np.shares_memory(higher, kept)
    assert np.array_equal(higher, new_source(t, n + 1).grid_jet)
    assert np.array_equal(higher[: n + 1], kept)
    assert rep.grid_jet is kept and np.shares_memory(rep.jet(t, n), kept)
    # resampling a resampled curve reads the inner source off its grid
    twice = fs.frenet_apparatus(fs.arclength_reparam(helix_curve, 500))
    assert np.abs(twice.kappas - [0.12, 0.16]).max() < 1e-8


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
    T = fs.random_similarity(9, 3)
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
    # the jet evaluates the chain of derivative splines, which a single
    # derivative(k) makes to roundoff; a stray factor k! or 1/k! is far
    # above the tolerance
    (_RAW_HELIX, [_RAW_HELIX.chain[0].derivative(k)(_TQ) for k in range(5)], 1e-7),
], ids=["circle", "helix", "log_spiral", "custom_poly", "raw_spline"])
def test_jets_are_derivatives(source, want, tol):
    # entry [k] of every jet source is d^k alpha/dt^k
    assert np.abs(source.jet(_TQ, 4) - np.asarray(want)).max() < tol


def _exact_jet(spline, x, order):
    """d^j S/dt^j at the points x, j = 0..order, in exact arithmetic.

    The float64 knots, coefficients and points of the B-spline S are
    read as the rationals they are; the coefficients are differenced
    exactly, c'_i = k (c_{i+1} - c_i) / (t_{i+k+1} - t_{i+1}) on the
    knots t[1:-1], and each derivative is evaluated by de Boor's
    algorithm, so the result is the exact derivative of S rounded once.
    """
    t = [Fraction(v) for v in spline.t]
    k = spline.k
    c = [[Fraction(v) for v in row] for row in spline.c[: len(t) - k - 1]]
    out = np.empty((order + 1, len(x), len(c[0])))
    for j in range(order + 1):
        n = len(c)
        for q, xq in enumerate(map(Fraction, x)):
            l = min(max(i for i in range(k, n) if t[i] <= xq), n - 1)
            d = [list(c[i + l - k]) for i in range(k + 1)]
            for r in range(1, k + 1):
                for i in range(k, r - 1, -1):
                    lo = t[i + l - k]
                    a = (xq - lo) / (t[i + 1 + l - r] - lo)
                    d[i] = [(1 - a) * p + a * v for p, v in zip(d[i - 1], d[i])]
            out[j, q] = [float(v) for v in d[k]]
        c = [[k * (b - a) / (t[i + k + 1] - t[i + 1]) for a, b in zip(c[i], c[i + 1])]
             for i in range(n - 1)]
        t, k = t[1:-1], k - 1
    return out


def _raw_e9_spline(kt, ktj, t_span=(0.0, 4.0)):
    spec = fs.SelfSimilarSpec(9, 2, kt, ktj, t_span, 2000)
    cur = fs.synthesize_self_similar(spec)
    return _engine(fs.SampledCurve(9, cur.t, cur.points))


# the position fits of raw samples: the E^3 helix above, the E^9 curve of
# the selfsim9_curve fixture, and that of the small E^9 CLI test
_POSITION_FITS = {
    "e3_degree7": lambda: _RAW_HELIX,
    "e9_degree13": lambda: _raw_e9_spline(
        -0.025, (math.cos(0.95), math.sin(0.95), -0.7, -1.1, -0.6, 0.7, 0.9,
                 -1.1)),
    "e9_degree13_cli": lambda: _raw_e9_spline(
        0.05879554615818304,
        (0.44724213674813557, 0.8944129198065969, 0.7007720463612888,
         0.9222037050360933, -1.044273858044125, -1.0012522407224957,
         1.1407660843433551, -1.1022755544280192), (0.0, 8.0)),
}


# per-order bounds on the error relative to max|D_j|, set between the
# two routes' errors measured on other fits of these degrees: above the
# chain's (3.9e-16, 1.1e-14 and 6.2e-13 at E^3 orders 1 to 3; 3.9e-14,
# 1.3e-11, 2.5e-9 and 3.1e-8 at E^9 orders 3, 5, 7 and 9), below those
# of evaluating S at degree k with j derivative steps (6.8e-14, 2.8e-12
# and 5.7e-10; 8.1e-12, 3.5e-8, 1.4e-6 and 4.1e-5)
_JET_BOUNDS = {
    3: [1e-14, 1e-14, 1e-12, 1e-11],
    9: [1e-13, 1e-13, 3e-13, 1e-12, 2e-11, 3e-10, 4e-9, 5e-8, 2e-7, 1e-6],
}


@pytest.mark.parametrize("fit", sorted(_POSITION_FITS))
def test_spline_jet_matches_exact_derivatives(fit):
    # every order 0..n of the position fit's jet against the exact
    # derivatives of the same float64 spline
    source = _POSITION_FITS[fit]()
    spline = source.chain[0]
    n = spline.c.shape[-1]
    bounds = _JET_BOUNDS[n]
    assert spline.k == n + 4
    lo, hi = spline.t[spline.k], spline.t[-spline.k - 1]
    x = lo + (hi - lo) * np.array([0.0, 0.013, 0.26, 0.5, 0.77, 0.991, 1.0])
    exact = _exact_jet(spline, x, n)

    def errors(jet):
        return [np.abs(jet[j] - exact[j]).max() / np.abs(exact[j]).max()
                for j in range(n + 1)]

    got = errors(source.jet(x, n))
    assert all(e < b for e, b in zip(got, bounds)), got
    # the bounds can fail: some order of the evaluation of S at its full
    # degree with j derivative steps falls outside them (on the helix and
    # the fixture's E^9 curve the top order, 4.3e-10 and 5.8e-5)
    steps = errors(np.array([spline(x, j) for j in range(n + 1)]))
    assert any(e > b for e, b in zip(steps, bounds)), steps


def test_affine_image_jet(helix_curve):
    T = fs.random_similarity(4, 3)
    img = AffineImage(helix_curve.source, T.lam, T.A, T.b)
    tq = helix_curve.t[10:20]
    want = T.lam * np.einsum("ij,kqj->kqi", T.A, helix_curve.source.jet(tq, 4))
    want[0] += T.b
    assert np.abs(img.jet(tq, 4) - want).max() < 1e-12


def test_raw_curve_fits_one_position_spline(monkeypatch):
    t = np.linspace(0.0, 5.0, 2000)
    raw = fs.SampledCurve(3, t, fs.builtin_evaluate(
        fs.helix(3.0, 4.0, t_span=(0.0, 5.0)), t).points)
    fits = []
    fit = curves.make_interp_spline

    def counting_fit(x, y, k):
        fits.append((y.shape[-1], k))
        return fit(x, y, k=k)

    monkeypatch.setattr(curves, "make_interp_spline", counting_fit)
    # the degree-7 position spline of the E^3 samples and nothing else: the
    # arc-length table is read both ways by cubic Hermite, not fitted
    for resample in (fs.frenet_apparatus, lambda c: fs.arclength_reparam(c, 500)):
        fits.clear()
        resample(raw)
        assert fits == [(3, 7)]


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


def _qr_against_lapack(D):
    """Largest gaps of the sweep's sign-fixed Q and |diag R| from
    np.linalg.qr, and its departure from orthonormality."""
    Q, r, det = curves._householder_qr(D)
    Q0, R0 = np.linalg.qr(D)
    r0 = np.diagonal(R0, axis1=1, axis2=2)
    assert np.array_equal(det, np.sign(np.linalg.det(Q)))
    n = D.shape[-1]
    return (np.abs(Q * np.sign(r)[:, None] - Q0 * np.sign(r0)[:, None]).max(),
            np.abs(np.abs(r) - np.abs(r0)).max(),
            np.abs(np.swapaxes(Q, 1, 2) @ Q - np.eye(n)).max())


@pytest.mark.parametrize("n", range(2, 10))
def test_householder_sweep_matches_lapack_qr(n):
    D = np.random.default_rng(n).standard_normal((200, n, n))
    dq, dr, orth = _qr_against_lapack(D)
    assert dq <= 1e-13 and dr <= 1e-13 and orth <= 1e-14


def test_householder_sweep_matches_lapack_qr_on_e9_jet(selfsim9_curve):
    cur = selfsim9_curve
    D = np.moveaxis(_engine(cur).jet(cur.t, 9)[1:], 0, -1)
    dq, dr, orth = _qr_against_lapack(D)
    assert dq <= 1e-13 and dr <= 1e-13 and orth <= 1e-14


def _reference_householder_qr(D):
    """The sweep before its in-place kernel: each reflection builds an
    (m, c, N) temporary, and Q is reflected on its whole trailing block."""
    n, N = D.shape[-1], D.shape[0]
    A = np.moveaxis(D, 0, -1).copy()
    r, reflections, det = np.empty((n, N)), [], np.ones(N)

    def reflect(M, v, tau):
        w = tau * (M[0] + np.einsum("iq,ijq->jq", v, M[1:]))
        M[0] -= w
        M[1:] -= v[:, None] * w

    for k in range(n - 1):
        x0, tail = A[k, k], A[k + 1:, k]
        norm = np.sqrt(np.einsum("iq,iq->q", tail, tail))
        hit = norm > 0
        beta = np.where(hit, -np.copysign(np.hypot(x0, norm), x0), x0)
        tau = np.divide(beta - x0, beta, out=np.zeros(N), where=hit)
        v = np.divide(tail, x0 - beta, out=np.zeros_like(tail), where=hit)
        det[hit] *= -1.0
        r[k] = beta
        reflect(A[k:, k + 1:], v, tau)
        reflections.append((v, tau))
    r[n - 1] = A[n - 1, n - 1]
    Q = np.zeros_like(A)
    Q[np.arange(n), np.arange(n)] = 1.0
    for k in range(n - 2, -1, -1):
        reflect(Q[k:, k:], *reflections[k])
    return np.moveaxis(Q, -1, 0), r.T, det


def _assert_same_bits(got, want):
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


def _zero_riddled_stack(rng, n):
    """Random matrices with exact +0 and -0 entries, and with sub-columns
    that are already zero, so that some columns are not reflected."""
    D = rng.standard_normal((int(rng.integers(1, 60)), n, n))
    D[rng.random(D.shape) < 0.2] = 0.0
    D[rng.random(D.shape) < 0.1] = -0.0
    for q in np.flatnonzero(rng.random(len(D)) < 0.3):
        k = int(rng.integers(0, n))
        D[q, k + 1:, k] = rng.choice([0.0, -0.0], size=n - k - 1)
    return D


def test_householder_sweep_is_bit_identical_to_reference(selfsim9_curve):
    # the in-place kernel and the moving-block accumulation of Q change
    # no bit of Q, r or det, signs of zero included
    rng = np.random.default_rng(22)
    for trial in range(320):
        D = _zero_riddled_stack(rng, 2 + trial % 8)
        _assert_same_bits(curves._householder_qr(D), _reference_householder_qr(D))
    cur = selfsim9_curve
    D = np.moveaxis(_engine(cur).jet(cur.t, 9)[1:], 0, -1)
    _assert_same_bits(curves._householder_qr(D), _reference_householder_qr(D))


@pytest.mark.parametrize("writable", [True, False])
def test_householder_sweep_leaves_a_single_matrix_alone(writable):
    # for N = 1 the sample axis moved last is already contiguous, so a
    # sweep that only asked for a contiguous array would work in D itself
    D = np.random.default_rng(5).standard_normal((1, 4, 4))
    D0 = D.copy()
    D.setflags(write=writable)
    dq, dr, orth = _qr_against_lapack(D)
    assert np.array_equal(D, D0)
    assert dq <= 1e-14 and dr <= 1e-14 and orth <= 1e-15


def test_householder_sweep_counts_its_reflections():
    # a column that already lies along e_k is not reflected, so det Q
    # is (-1)^(reflections applied), not (-1)^(n-1)
    D = np.stack([np.diag([1.0, 2.0, 6.0, 24.0]), np.triu(np.ones((4, 4))),
                  np.ones((4, 4)) + np.eye(4)])
    Q, r, det = curves._householder_qr(D)
    assert np.array_equal(Q[0], np.eye(4)) and np.array_equal(r[0], [1, 2, 6, 24])
    assert np.array_equal(det, [1.0, 1.0, -1.0])
    assert np.abs(np.linalg.det(Q) - det).max() < 1e-14


def test_frenet_apparatus_needs_no_lapack_qr_or_det(monkeypatch, selfsim9_curve,
                                                    helix_curve):
    def refuse(*args, **kwargs):
        raise AssertionError("frenet_apparatus called LAPACK")

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "qr", refuse)
        m.setattr(np.linalg, "det", refuse)
        frs = [fs.frenet_apparatus(c) for c in (helix_curve, selfsim9_curve)]
    for fr in frs:
        assert np.abs(np.linalg.det(fr.frames) - 1.0).max() < 1e-12


@pytest.mark.parametrize("coeffs", [
    [[0, 1], [0, 0, 1]],
    [[0, 1], [0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 0, 1]],
])
def test_triangular_jet_keeps_orientation(coeffs):
    # at t = 0 the jet of (t, t^2, ..., t^n) is diagonal, diag(k!), so no
    # column is reflected there: the frame is the identity, det = +1, and
    # kappa_j = (j + 1)! / (j! 1!) = j + 1 with kappa_{n-1} positive
    n = len(coeffs)
    t = np.linspace(-0.5, 0.5, 201)
    assert t[100] == 0.0
    fr = fs.frenet_apparatus(fs.builtin_evaluate(fs.custom_poly(coeffs), t))
    assert np.abs(np.linalg.det(fr.frames) - 1.0).max() < 1e-12
    assert np.array_equal(fr.frames[100], np.eye(n))
    assert np.array_equal(fr.kappas[100], np.arange(2.0, n + 1))


@pytest.mark.parametrize("sampled", [False, True])
def test_left_handed_helix_keeps_negative_torsion(sampled):
    # (a cos t, a sin t, b t) has kappa_2 = b / (a^2 + b^2) < 0 for b < 0
    cur = fs.helix(3.0, -4.0)
    cur = (fs.arclength_reparam(cur, 1000) if sampled
           else fs.builtin_evaluate(cur, np.linspace(0.0, TAU, 1000)))
    fr = fs.frenet_apparatus(cur)
    assert np.abs(fr.kappas[:, 0] - 0.12).max() < 1e-9
    assert np.abs(fr.kappas[:, 1] + 0.16).max() < 1e-9
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


@pytest.mark.parametrize("n", (3, 4))
def test_vanishing_interior_curvature_is_degenerate(interior_flat_curves, n):
    # kappa_{n-2} is an unsigned QR pivot, so its zero between two samples
    # shows only as V_{n-1} reversing there
    cur = interior_flat_curves[n]
    for sampled in (cur, fs.arclength_reparam(cur, 2000)):
        with pytest.raises(E.FrameDegenerate,
                           match=f"V_{n - 1} reverses between samples"):
            fs.frenet_apparatus(sampled)


def test_degeneracy_message_names_input_t_of_image(interior_flat_curves):
    # the image keeps the arc-length grid of the resampled curve; the
    # message reads it back, through the image, to the CSV-side t
    cur = fs.arclength_reparam(interior_flat_curves[3], 2000)
    image = fs.apply_similarity(fs.random_similarity(2, 3), cur)
    with pytest.raises(E.FrameDegenerate, match="V_2 reverses") as info:
        fs.frenet_apparatus(image)
    m = re.search(r"\(t = (\S+) to (\S+)\)", str(info.value))
    assert m and abs(float(m[1])) < 0.01 and abs(float(m[2])) < 0.01


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
    ("t,x1,x2\n0,1,2\n1,2\n", "ragged rows"),
    ("t,x1,x2,x3\n0,1,2,3\n1,2,3\n", "ragged rows"),
    ('t,x1,x2\n"' + "1" * 200000 + '",1,2\n1,2,3\n',
     "malformed CSV (field larger than field limit (131072))"),
    ('"' + "t" * 200000 + '",x1,x2\n0,1,2\n',
     "malformed CSV (field larger than field limit (131072))"),
    # a '"' anywhere in the file sends an over-long unquoted cell to the
    # csv module too
    ('"t","x1","x2"\n0.' + "0" * 200000 + "1,1,2\n1,2,3\n",
     "malformed CSV (field larger than field limit (131072))"),
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


@pytest.fixture(scope="module")
def long_body():
    """A t,x1,x2,x3 CSV text of 20000 LF-ended rows, 17 digits a cell.

    Every other row has a minus sign more, so each two rows hold an odd
    count of bytes with any line end: the ends of the 10000 row pairs
    fall on every residue modulo 8192, and some CR ends, or some CRLF
    straddles, the end of a block of a read in blocks of a power of two
    up to 8192 bytes.
    """
    rows = 20000
    cells = 1.0 + np.random.default_rng(7).random((rows, 4))
    cells[:, 0] = 1.0 + np.arange(rows) / rows
    cells[1::2, 1] *= -1.0
    return "t,x1,x2,x3\n" + "".join(
        ",".join("%.17e" % v for v in row) + "\n" for row in cells.tolist())


LONG_BODY_VARIANTS = {
    "lf": lambda s: s,
    "crlf": lambda s: s.replace("\n", "\r\n"),
    "lone-cr": lambda s: s.replace("\n", "\r"),
    "bom": lambda s: "\ufeff" + s,
    "quoted": lambda s: re.sub(r"[^,\n]+", r'"\g<0>"', s),
}


@pytest.mark.parametrize("variant", LONG_BODY_VARIANTS)
def test_csv_long_body_parses_like_csv_module(tmp_path, long_body, variant):
    # the file is read in blocks: a line, a CRLF or a quoted cell split
    # between two blocks is read as the csv module reads it whole
    text = LONG_BODY_VARIANTS[variant](long_body)
    raw = text.encode()
    block = io.DEFAULT_BUFFER_SIZE
    if variant == "crlf":
        assert any(raw[k - 1:k + 1] == b"\r\n"
                   for k in range(block, len(raw), block))
    p = tmp_path / "c.csv"
    p.write_bytes(raw)
    data = _csv_module_rows(text)
    cur = fs.curve_from_csv(p)
    assert cur.dimension == 3 and len(cur.t) == 20000
    assert cur.t.tobytes() == data[:, 0].tobytes()
    assert cur.points.tobytes() == np.ascontiguousarray(data[:, 1:]).tobytes()


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
def test_csv_read_memory_bound(tmp_path, quoted):
    # the reader holds the file's bytes and the table, and decodes the
    # text as loadtxt reads it: no copy of the whole text (io.StringIO
    # holds four bytes a character) exists, and quoted cells go through
    # loadtxt too, not into lists of floats
    rng = np.random.default_rng(3)
    t = np.arange(20000) / 20000
    p = tmp_path / "c.csv"
    fs.curve_to_csv(fs.SampledCurve(4, t, rng.normal(size=(20000, 4))), p)
    if quoted:
        p.write_bytes(re.sub(rb"[^,\n]+", rb'"\g<0>"', p.read_bytes()))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fs.curve_from_csv(p)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * p.stat().st_size


def test_too_few_samples(tmp_path):
    t = np.linspace(0.0, 1.0, min_samples(3) - 1)
    pts = np.column_stack([np.cos(t), np.sin(t), t])
    cur = fs.SampledCurve(3, t, pts)
    with pytest.raises(E.TooFewSamples):
        fs.frenet_apparatus(cur)
    # raw samples are refused before a spline is fitted through them
    with pytest.raises(E.TooFewSamples, match="got 9"):
        fs.arclength_reparam(cur, 2000)
    # a field fit needs two samples, and two give a line
    with pytest.raises(E.TooFewSamples, match="1 samples are too few"):
        field_derivative(t[:1], pts[:1, 2])
    assert np.array_equal(field_derivative(t[:2], pts[:2, 2]), [1.0, 1.0])
    path = tmp_path / "short.csv"
    fs.curve_to_csv(fs.SampledCurve(3, t[:4], pts[:4]), path)
    assert cli.main(["analyze", "--input", str(path),
                        "--output", str(tmp_path / "out")]) == 2


def test_noisy_spiral_arclength_stalls(caplog):
    # the speed of heavily noisy samples oscillates faster than the
    # quadrature grid, and a Simpson panel with a negative weight on the
    # peak steps the arc length back
    caplog.set_level(logging.DEBUG, logger="frenetsim.curves")
    t = np.linspace(0.0, 2 * TAU, 2000)
    pts = np.column_stack([np.exp(0.1 * t) * np.cos(t), np.exp(0.1 * t) * np.sin(t)])
    diam = np.linalg.norm(np.ptp(pts, axis=0))
    pts = pts + np.random.default_rng(0).normal(0.0, 1e-3 * diam, pts.shape)
    with pytest.raises(E.ZeroSpeed, match="stops increasing"):
        fs.arclength_reparam(fs.SampledCurve(2, t, pts), 2000)
    # the table's debug line, logged before the refusal, shows why; the
    # noise is fitted at stride 1, so the knot spans keep the 4N + 1 grid
    m = re.findall(r"(\d+) points, .* stall margin (\S+)", caplog.text)[-1]
    assert int(m[0]) == 8001 and float(m[1]) <= 0


def test_arclength_table_debug_line(caplog):
    caplog.set_level(logging.DEBUG, logger="frenetsim.curves")
    # helix(3, 4) has speed 5 everywhere, so every step of s is as long
    fs.arclength_reparam(fs.helix(3.0, 4.0, t_span=(0.0, 5.0)), 2000)
    m = re.search(r"arc-length table: (\d+) points, length (\S+), "
                  r"stall margin (\S+)", caplog.text)
    assert m, caplog.text
    assert int(m[1]) == 8001
    assert float(m[2]) == pytest.approx(25.0, rel=1e-6)
    assert float(m[3]) == pytest.approx(1.0, abs=1e-6)
    # an analytic source has no knot spans to name
    assert "knot spans" not in caplog.text
    # raw samples: 64 points per knot span of the position spline, fewer
    # than 4N + 1 = 80001
    caplog.clear()
    t = np.linspace(0.0, 5.0, 20000)
    raw = fs.SampledCurve(3, t, fs.helix(3.0, 4.0).jet(t, 0)[0])
    spans = len(np.unique(_engine(raw).chain[0].t)) - 1
    fs.arclength_reparam(raw, 20000)
    m = re.search(r"arc-length table: (\d+) points, length (\S+), "
                  r"stall margin (\S+) over (\d+) knot spans", caplog.text)
    assert m, caplog.text
    assert int(m[4]) == spans and int(m[1]) == 64 * spans + 1 < 80001
    assert float(m[2]) == pytest.approx(25.0, rel=1e-6)


def test_zero_speed_cusp():
    t = np.linspace(0.0, 1.0, 51)
    pts = np.column_stack([(t - 0.5) ** 3, (t - 0.5) ** 4])
    cur = fs.SampledCurve(2, t, pts)
    with pytest.raises(E.ZeroSpeed):
        fs.arclength_reparam(cur, 200)
    # (t^2, t^3) stops at t = 0: the arc-length table of the analytic
    # source, or of the spline fitted to its samples, refuses it before
    # any pivot is read
    cusp = fs.custom_poly([[0, 0, 1], [0, 0, 0, 1]])
    cur = fs.builtin_evaluate(cusp, np.linspace(-1, 1, 201))
    with pytest.raises(E.ZeroSpeed, match="vanishes at t = 0,"):
        fs.frenet_apparatus(cur)
    with pytest.raises(E.ZeroSpeed, match="vanishes at t = "):
        fs.frenet_apparatus(fs.SampledCurve(2, cur.t, cur.points))


# a warning would escape past the range refusal
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("e", [-200, -170, 200])
def test_scaled_raw_helix_frame_is_out_of_range(e):
    # the speeds of the 1e-170 and 1e-200 helices square to 0, which the
    # arc-length table refuses as out of range, not as a cusp; those of
    # the 1e200 helix overflow in the frame's norms, before the table
    t = np.linspace(0.0, 4.0 * np.pi, 400)
    pts = np.column_stack([3.0 * np.cos(t), 3.0 * np.sin(t), 0.6 * t])
    with pytest.raises(E.BadRange, match=re.escape(f"spanning 7.54e{e:+04d} ")
                       + ".*outside float64") as info:
        fs.frenet_apparatus(fs.SampledCurve(3, t, pts * 10.0 ** e))
    # an underflowing speed names no derivative order; an overflow does
    assert ("|d^" in str(info.value)) == (e > 0), info.value


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tiny_builtin_helix_is_out_of_range():
    # a > 0 is all the helix asks; its speed, 1.4e-170, squares to 0
    with pytest.raises(E.BadRange, match=r"the helix curve \(1e-170, 1e-170\) "
                                         "over a parameter span of 6.28 put"):
        fs.arclength_reparam(fs.helix(1e-170, 1e-170), 200)


def test_cusp_between_grid_points():
    # ((t - c)^2, (t - c)^3) stops at t = c, which the table's grid steps
    # over: the speed is refined between grid points, and t named
    t = np.linspace(0.0, 1.0, 51)
    for c in np.random.default_rng(7).uniform(0.3, 0.7, 8):
        cur = fs.SampledCurve(2, t, np.column_stack([(t - c) ** 2, (t - c) ** 3]))
        with pytest.raises(E.ZeroSpeed, match=f"vanishes at t = {c:.6g},"):
            fs.arclength_reparam(cur, 200)


def test_slow_regular_curve_is_not_a_cusp():
    # (u^3/3 + eps u, u^2/2), u = t - c: the slowest speed, eps at u = 0,
    # is about 1e-3 of the fastest; refined, it is eps, not zero
    eps = 1e-3
    for n in (51, 201, 2001):
        t = np.linspace(0.0, 1.0, n)
        for c in np.random.default_rng(7).uniform(0.3, 0.7, 8):
            u = t - c
            cur = fs.SampledCurve(2, t, np.column_stack([u ** 3 / 3 + eps * u,
                                                         u ** 2 / 2]))
            fs.arclength_reparam(cur, n)
    # on a grid that misses u = 0 the search finds the slowest point
    src = fs.custom_poly([[0.0, eps, 0.0, 1 / 3], [0.0, 0.0, 0.5]],
                         t_span=(-1.0, 1.0))
    tt = np.linspace(-1.0, 1.0, 20)
    t_slow, v_slow = curves._slowest_point(src, tt, curves.parameter_speeds(src, tt))
    assert abs(t_slow) < 1e-9 and v_slow == pytest.approx(eps, rel=1e-9)


def test_sampled_curve_validation():
    t = np.array([0.0, 1.0, 1.0, 2.0])
    pts = np.zeros((4, 2))
    with pytest.raises(E.BadParameters):
        fs.SampledCurve(2, t, pts)
    with pytest.raises(E.DimensionMismatch):
        fs.SampledCurve(3, np.array([0.0, 1.0]), np.zeros((2, 2)))
    with pytest.raises(E.BadParameters, match="n >= 2"):
        fs.SampledCurve(1, np.array([0.0, 1.0]), np.zeros((2, 1)))
    with pytest.raises(E.BadParameters, match="not a curve: ndarray"):
        fs.arclength_reparam(pts, 200)
    s, frames = np.linspace(0.0, 1.0, 4), np.tile(np.eye(3), (4, 1, 1))
    with pytest.raises(E.DimensionMismatch, match="frames"):
        FrenetData(s, np.zeros((4, 3)), frames[:3], np.zeros((4, 2)))
    with pytest.raises(E.DimensionMismatch, match="kappas"):
        FrenetData(s, np.zeros((4, 3)), frames, np.zeros((4, 3)))
    with pytest.raises(E.DimensionMismatch, match="points"):
        FrenetData(s, np.zeros((20, 2)), frames, np.zeros((4, 2)))


def test_frozen_values_leave_the_callers_arrays_writable():
    # each value object freezes a copy (curves._frozen): the caller may
    # still write to the arrays it passed in, and the object does not see
    # the write
    t = np.linspace(0.0, 1.0, 50)
    plane = np.column_stack([np.cos(t), np.sin(t)])
    sphere = np.column_stack([plane, np.zeros(50)])
    kt, ktj, A, b = np.zeros(50), np.ones((1, 50)), np.eye(3), np.ones(3)
    frames, kappas = np.tile(np.eye(3), (50, 1, 1)), np.ones((50, 2))
    made = [(fs.SampledCurve(2, t, plane), ("t", "points")),
            (fs.ShapeSignature(2, 1, t, kt, ktj), ("sigma", "kt", "ktj")),
            (SimilarityTransform(2.0, A, b), ("A", "b")),
            (FrenetData(t, sphere, frames, kappas),
             ("s", "points", "frames", "kappas")),
            (curves._ReparamSource(fs.helix(3.0, 4.0), lambda s: s, t, 2),
             ("grid",))]
    kept = [[getattr(obj, name).copy() for name in names] for obj, names in made]
    for arr in (t, plane, sphere, kt, ktj, A, b, frames, kappas):
        arr[...] = 7.0
    for (obj, names), values in zip(made, kept):
        for name, value in zip(names, values):
            got = getattr(obj, name)
            assert np.array_equal(got, value) and not got.flags.writeable


def test_builtin_validation():
    with pytest.raises(E.BadParameters):
        fs.circle(-1.0)
    with pytest.raises(E.BadParameters):
        fs.helix(0.0, 0.0)
    with pytest.raises(E.BadParameters):
        fs.circle(1.0, t_span=(2.0, 1.0))
    with pytest.raises(E.BadParameters):
        fs.custom_poly([])
    with pytest.raises(E.BadParameters, match="dimension >= 2"):
        fs.line(1)
    with pytest.raises(E.BadParameters, match="strictly increasing"):
        fs.builtin_evaluate(fs.circle(1.0), [0.0, 1.0, 1.0])
    with pytest.raises(E.BadParameters, match="unknown builtin curve kind"):
        BuiltinCurve("spiral", 3).jet(np.zeros(1), 1)


def test_custom_poly_against_hand_values():
    # (t, t^2) at t=0 has curvature 2
    par = fs.custom_poly([[0.0, 1.0], [0.0, 0.0, 1.0]], t_span=(-1.0, 1.0))
    fr = fs.frenet_apparatus(fs.arclength_reparam(par, 2000))
    mid = np.argmin(np.abs(fr.s - fr.s[-1] / 2))
    assert abs(fr.kappas[mid, 0] - 2.0) < 1e-4


def test_field_derivative_polynomial():
    x = np.linspace(0.0, 2.0, 400)
    y = x ** 3 - x
    d = field_derivative(x, y)
    assert np.abs(d - (3 * x ** 2 - 1)).max() < 1e-7


def _radii(fr):
    """Arc length s and the V_i radii 1/Q_i on the trimmed grid."""
    k = np.pad(fr.kappas, ((0, 0), (1, 1)))[TRIM:-TRIM]
    return fr.s[TRIM:-TRIM], 1.0 / np.hypot(k[:, :-1], k[:, 1:])


def test_field_derivative_columns_are_their_own_calls(selfsim9_frenet):
    # the radii 1/Q_i of an E^9 ladder choose several knot sites: each
    # column must come out as its own 1-d call, which one fit of all the
    # columns on the sites of their joint graph does not give
    x, y = _radii(selfsim9_frenet)
    assert len(field_fits(x, y[:, :, None])) >= 3
    d = field_derivative(x, y)
    for c, col in enumerate(y.T):
        assert np.array_equal(d[:, c], field_derivative(x, col))
    [(_, joint)] = field_fits(x, y[:, None])
    assert not np.array_equal(d, joint(x, 1)[:, 0])


def test_a_stack_of_graphs_gets_each_graphs_own_stride(selfsim9_frenet):
    # a stack of graphs gets each graph's own knot sites: field_fits
    # picks the sites of all its graphs in one _knot_sites call
    def check(x, y):
        for graphs, fit in field_fits(x, y[:, :, None]):
            for c in np.flatnonzero(graphs):
                [(_, own)] = field_fits(x, y[:, c, None, None])
                assert np.array_equal(own.t, fit.t)

    check(*_radii(selfsim9_frenet))
    rng = np.random.default_rng(5)
    for trial in range(60):
        N, m = int(rng.integers(20, 2500)), int(rng.integers(1, 6))
        x = np.sort(rng.uniform(0.0, rng.uniform(0.1, 100.0), N))
        y = (rng.standard_normal((N, m)).cumsum(axis=0) if trial % 2 else
             np.sin(np.outer(x / x[-1], rng.uniform(0.1, 30.0, m)))
             * rng.uniform(1e-3, 1e3, m))
        check(x, y)


def _reference_stride(coords, k, noise):
    """Knot stride of the site rule, one per polyline, kept as a reference.

    The rule's own form before it returned sites: target knot spacing
    ~ rho * noise^(1/(k+1)), rho the polyline's length per radian of
    turning, clipped to [1, chords // (3(k + 1))].
    """
    ch = [np.diff(c, axis=-1) for c in coords]
    cl = np.sqrt(sum(c * c for c in ch))
    unit = [c / np.maximum(cl, 1e-300) for c in ch]
    cosang = sum(c[..., :-1] * c[..., 1:] for c in unit)
    turning = np.arccos(np.clip(cosang, -1.0, 1.0)).sum(axis=-1)
    rho = cl.sum(axis=-1) / np.maximum(turning, 1e-12)
    target = curves.STRIDE_C * rho * noise ** (1.0 / (k + 1))
    stride = np.rint(target / np.maximum(np.median(cl, axis=-1), 1e-300))
    return np.clip(stride, 1, max(1, cl.shape[-1] // (3 * (k + 1)))).astype(int)


def _reference_sites(coords, k, noise):
    """Every stride-th sample and the last, as a mask per polyline."""
    stride = _reference_stride(coords, k, noise)
    n = np.broadcast_shapes(*(np.shape(c) for c in coords))[-1]
    rows = []
    for st in stride.ravel():
        idx = np.arange(0, n, st)
        if idx[-1] != n - 1:
            idx = np.append(idx, n - 1)
        rows.append(np.isin(np.arange(n), idx))
    return np.reshape(rows, stride.shape + (n,))


def _reference_field_graph(x, y):
    """The graphs [x / range, y[:, g] / max|y[:, g]|] of y (N, m, d)."""
    y = np.ascontiguousarray(np.transpose(y, (2, 1, 0)))
    scale = np.maximum(np.abs(y).max(axis=(0, 2)), 1e-300)[:, None]
    return [np.asarray(x) / max(x[-1] - x[0], 1e-300), *(c / scale for c in y)]


def test_knot_sites_are_the_stride_rule(selfsim9_frenet, cubic_frenet,
                                        monkeypatch):
    # random walks and sines, alone or in stacks of up to 6 graphs
    rng = np.random.default_rng(11)
    for trial in range(300):
        N, m, d = (int(rng.integers(20, 2501)), int(rng.integers(1, 7)),
                   int(rng.integers(1, 4)))
        x = np.sort(rng.uniform(0.0, rng.uniform(0.1, 100.0), N))
        y = (rng.standard_normal((d, m, N)).cumsum(axis=-1) if trial % 2 else
             np.sin(x / x[-1] * rng.uniform(0.1, 30.0, (d, m, 1)))
             * rng.uniform(1e-3, 1e3, (d, m, 1)))
        graph = [x / (x[-1] - x[0]), *(y[:, 0] if trial % 3 == 0 else y)]
        for k, noise in ((5 + 2 * (trial % 5), POSITION_NOISE), (5, FIELD_NOISE)):
            assert np.array_equal(_knot_sites(graph, k, noise),
                                  _reference_sites(graph, k, noise))
    # every fit of the pipeline is made on those sites: the position fit
    # of raw helix samples, the E^9 radii (several fits) and a Sabban
    # gamma (one fit of three coordinates)
    sites = []
    fit = curves.make_interp_spline

    def recording(x, y, k):
        sites.append(x)
        return fit(x, y, k=k)

    monkeypatch.setattr(curves, "make_interp_spline", recording)
    t = np.linspace(0.0, 4.0 * np.pi, 2000)
    pts = np.column_stack([3.0 * np.cos(t), 3.0 * np.sin(t), 0.6 * t])
    _engine(fs.SampledCurve(3, t, pts))
    want = _reference_sites(pts.T, 7, POSITION_NOISE)
    assert len(sites) == 1 and np.array_equal(sites[0], t[want])
    assert len(sites[0]) < len(t)
    x, y = _radii(selfsim9_frenet)
    sig = fs.shape_curvatures(cubic_frenet, 2)
    gamma = fs.indicatrix_curve(cubic_frenet, sig)
    for x, y, fit_counts in ((x, y[:, :, None], range(3, 9)),
                             (sig.sigma, gamma[:, None], [1])):
        sites.clear()
        fits = field_fits(x, y)
        want = _reference_sites(_reference_field_graph(x, y), 5, FIELD_NOISE)
        assert len(fits) in fit_counts and len(sites) == len(fits)
        assert sum(graphs.sum() for graphs, _ in fits) == y.shape[1]
        for (graphs, _), got in zip(fits, sites):
            for c in np.flatnonzero(graphs):
                assert np.array_equal(got, x[want[c]])


def test_spline_fit_debug_line(caplog):
    # each fit names its degree, knot count, sample count and the range
    # of its knot gaps in samples: every stride-th sample and the last
    caplog.set_level(logging.DEBUG, logger="frenetsim.curves")
    t = np.linspace(0.0, 4.0 * np.pi, 400)
    pts = np.column_stack([3.0 * np.cos(t), 3.0 * np.sin(t), 0.6 * t])
    position = _engine(fs.SampledCurve(3, t, pts)).chain[0]
    x = np.linspace(0.0, 2.0, 400)
    [(_, field)] = field_fits(x, (x ** 3 - x)[:, None, None])
    caplog.clear()
    _engine(fs.SampledCurve(3, t, pts))
    field_derivative(x, x ** 3 - x)
    lines = re.findall(r"spline fit: degree (\d+), (\d+) knots of (\d+) "
                       r"samples, gaps (\d+) to (\d+)", caplog.text)
    assert len(lines) == 2
    for spline, line in zip((position, field), lines):
        k, knots, n, lo, hi = map(int, line)
        assert k == spline.k and knots == len(spline.t) - k - 1 and n == 400
        assert 1 <= lo <= hi < n and (knots - 2) * hi + lo == n - 1


def test_coarse_circle_still_accurate():
    cur = fs.SampledCurve(
        2, np.linspace(0, TAU, 40),
        np.column_stack([np.cos(np.linspace(0, TAU, 40)),
                         np.sin(np.linspace(0, TAU, 40))]))
    fr = fs.frenet_apparatus(fs.arclength_reparam(cur, 400))
    assert np.abs(fr.kappas[:, 0] - 1.0).max() < 1e-5
