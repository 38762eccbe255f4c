import logging
import math
import re

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson

import frenetsim as fs
from frenetsim import errors as E
from frenetsim import signatures
from frenetsim.cli import main
from frenetsim.curves import TRIM, field_derivative
from frenetsim.signatures import _ladder_signatures, signature_distance
from frenetsim.transforms import SimilarityTransform


def test_helix_signature_constants(helix_frenet):
    sig = fs.shape_curvatures(helix_frenet, 2)
    assert np.abs(sig.kt).max() < 1e-6
    assert np.abs(sig.ktj[0] - 0.6).max() < 1e-9
    assert np.abs(sig.ktj[1] - 0.8).max() < 1e-9


def test_first_index_normalization(helix_frenet, cubic_frenet):
    for fr in (helix_frenet, cubic_frenet):
        sig = fs.shape_curvatures(fr, 1)
        assert np.abs(sig.ktj[0] - 1.0).max() < 1e-12


def test_interior_index_unit_circle(cubic_frenet, selfsim4_frenet):
    for fr, i in ((cubic_frenet, 2), (selfsim4_frenet, 2), (selfsim4_frenet, 3)):
        sig = fs.shape_curvatures(fr, i)
        r = sig.ktj[i - 2] ** 2 + sig.ktj[i - 1] ** 2
        assert np.abs(r - 1.0).max() < 1e-9


def test_log_spiral_constant_kt(spiral_frenet):
    sig = fs.shape_curvatures(spiral_frenet, 1)
    assert np.abs(sig.kt + 0.1).max() < 1e-8
    assert np.abs(sig.ktj[0] - 1.0).max() < 1e-12


def test_kt_is_arclength_derivative_of_radius(helix_frenet, cubic_frenet,
                                             selfsim4_frenet):
    # kt = -(dQ/dsigma_i)/Q = d(1/Q_i)/ds since dsigma_i/ds = Q_i: the
    # derivative of the V_i radius on the trimmed arc-length grid, at
    # every index (at i = 1 the curvature radius 1/kappa_1)
    sl = slice(TRIM, -TRIM)
    for fr in (helix_frenet, cubic_frenet, selfsim4_frenet):
        k = np.pad(fr.kappas, ((0, 0), (1, 1)))
        for i in range(1, fr.dimension + 1):
            q = np.hypot(k[sl, i - 1], k[sl, i])
            sig = fs.shape_curvatures(fr, i)
            assert np.array_equal(sig.kt, field_derivative(fr.s[sl], 1.0 / q))
            # the paper's form, differentiated along sigma_i instead
            kt_sigma = q * field_derivative(sig.sigma, 1.0 / q)
            scale = max(1.0, np.abs(sig.kt).max())
            assert np.abs(sig.kt - kt_sigma).max() < 1e-4 * scale


def test_ladder_signatures_match_one_index_at_a_time(selfsim9_frenet):
    # invariance_sweep asks for every index at once; each sigma_i row of
    # the one batched quadrature must be the quadrature of that index
    # alone, each signature the one shape_curvatures gives alone, its
    # indicatrix frame row V_i on that same row, and a refused index is
    # left out only when asked to
    fr = selfsim9_frenet
    ladder = np.pad(fr.kappas.T, ((1, 1), (0, 0)))
    sl = slice(TRIM, len(fr.s) - TRIM)
    every = range(1, fr.dimension + 1)
    sigs = _ladder_signatures(fr.kappas, fr.s, every, partial=True)
    assert list(sigs) == list(range(1, 9))
    for i, sig in sigs.items():
        alone = cumulative_simpson(np.hypot(ladder[i - 1, sl], ladder[i, sl]),
                                   x=fr.s[sl], initial=0.0)
        assert np.array_equal(sig.sigma, alone)
        one = fs.shape_curvatures(fr, i)
        for name in ("sigma", "kt", "ktj", "s"):
            assert np.array_equal(getattr(sig, name), getattr(one, name))
        sc = fs.indicatrix_curve(fr, sig)
        assert np.array_equal(sc.sigma, sig.sigma)
        assert np.array_equal(sc.gamma, fr.frames[sl, i - 1])
    with pytest.raises(E.IndicatrixDegenerate, match="kappa_8 changes sign"):
        _ladder_signatures(fr.kappas, fr.s, every)
    with pytest.raises(E.IndicatrixDegenerate, match="kappa_8 changes sign"):
        _ladder_signatures(fr.kappas, fr.s, [9], partial=True)
    # refusals come in index order: a degenerate index before a bad one
    # raises first unless it may be left out
    with pytest.raises(E.IndicatrixDegenerate, match="kappa_8 changes sign"):
        _ladder_signatures(fr.kappas, fr.s, [9, 10])
    with pytest.raises(E.BadIndex, match="got 10"):
        _ladder_signatures(fr.kappas, fr.s, [9, 10], partial=True)


def test_ladder_signatures_run_one_sigma_quadrature(selfsim9_frenet,
                                                    helix_curve, data_dir,
                                                    tmp_path, capsys,
                                                    monkeypatch):
    # one sigma quadrature per Frenet apparatus, whatever the number of
    # indices; the indicatrix and its Sabban kappa_g of analyze and of
    # the E^3 sweep read the signature's sigma_i instead of a second one
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return cumulative_simpson(*args, **kwargs)

    monkeypatch.setattr(signatures, "cumulative_simpson", counted)
    fr = selfsim9_frenet
    for indices in ([3], range(1, 9), range(1, 10)):
        calls.clear()
        _ladder_signatures(fr.kappas, fr.s, indices, partial=True)
        assert len(calls) == 1
    calls.clear()
    assert main(["analyze", "--input", str(data_dir / "helix.csv"),
                 "--index", "2", "--samples", "700",
                 "--output", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert len(calls) == 1
    # the input curve and each of 3 images: one quadrature per apparatus
    calls.clear()
    fs.invariance_sweep(helix_curve, [fs.random_similarity(seed, (0.5, 2.0), 3)
                                      for seed in range(3)])
    assert len(calls) == 4


def test_signature_validation_rejects_bad_rows():
    sigma = np.linspace(0.0, 1.0, 50)
    kt = np.zeros(50)
    good = np.vstack([np.full(50, 0.6), np.full(50, 0.8)])
    fs.ShapeSignature(3, 2, sigma, kt, good)
    with pytest.raises(E.BadParameters):
        fs.ShapeSignature(3, 2, sigma, kt,
                          np.vstack([np.full(50, 0.5), np.full(50, 0.5)]))
    # at index n the padded kt_n = 0 leaves |kt_{n-1}| = 1
    with pytest.raises(E.BadParameters, match="index 3 needs"):
        fs.ShapeSignature(3, 3, sigma, kt, good)
    # at index 1 the padded kt_0 = 0 leaves |kt_1| = 1, so the tangent
    # ratio of geodesic_closed_form never divides by zero
    with pytest.raises(E.BadParameters, match="index 1 needs"):
        fs.ShapeSignature(3, 1, sigma, kt, good)
    with pytest.raises(E.BadIndex):
        fs.ShapeSignature(3, 5, sigma, kt, good)
    with pytest.raises(E.BadParameters, match="inconsistent shapes"):
        fs.ShapeSignature(3, 2, sigma, kt[1:], good)
    with pytest.raises(E.BadParameters, match="inconsistent shapes"):
        fs.ShapeSignature(3, 2, sigma, kt, good[:1])
    with pytest.raises(E.BadParameters, match="strictly increasing"):
        fs.ShapeSignature(3, 2, sigma[::-1], kt, good)
    with pytest.raises(E.BadParameters, match="non-finite"):
        fs.ShapeSignature(3, 2, sigma, np.full(50, np.nan), good)


def test_self_distance_zero(helix_curve):
    res = fs.similarity_test(helix_curve, helix_curve, 2, tol=1e-2)
    assert res.is_similar
    assert res.distance < 1e-12
    assert abs(res.lambda_est - 1.0) < 1e-9


def test_scaled_helix_pair():
    a = fs.arclength_reparam(fs.helix(3.0, 4.0, t_span=(0.0, 5.0)), 2000)
    b = fs.arclength_reparam(fs.helix(6.0, 8.0, t_span=(0.0, 5.0)), 2000)
    res = fs.similarity_test(a, b, 1, tol=1e-2)
    assert res.is_similar
    assert res.distance < 1e-6
    assert abs(res.lambda_est - 2.0) < 0.02
    back = fs.similarity_test(b, a, 1, tol=1e-2)
    assert back.is_similar
    assert abs(back.lambda_est - 0.5) < 0.005


def test_subarc_match_recovers_scale():
    # a similarity image of a sub-arc matches at a non-trivial sigma shift
    cubic = fs.custom_poly([[0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.9]],
                           t_span=(-1.0, 1.0))
    T = SimilarityTransform(1.0198, fs.random_similarity(3, (1.0, 2.0), 3).A,
                            np.array([0.3, -1.2, 2.0]))
    ta, tb = np.linspace(-1.0, 1.0, 2000), np.linspace(-0.8, 0.9, 1700)
    a = fs.SampledCurve(3, ta, fs.builtin_evaluate(cubic, ta).points)
    b = fs.SampledCurve(3, tb, T(fs.builtin_evaluate(cubic, tb).points))
    for i in (1, 2, 3):
        res = fs.similarity_test(a, b, i)
        assert res.is_similar
        assert res.sigma_shift > 0.1
        assert abs(res.lambda_est - 1.0198) < 1e-6


def _brute_force_shift(a, b, i):
    """similarity_test's shift, with every lag scored by plain sums.

    Both signature tuples are read on a common sigma grid of step h, the
    finer mean sample spacing; each lag that keeps 10% of the shorter
    span in the overlap is scored by the mean of |a - b|^2 over the
    overlap, with no FFT, and the best lag moves to the vertex of the
    parabola through its score and its neighbours'. Returns the shift
    and h.
    """
    sa = fs.shape_curvatures(fs.frenet_apparatus(a), i)
    sb = fs.shape_curvatures(fs.frenet_apparatus(b), i)
    h = min(sa.span / (len(sa.sigma) - 1), sb.span / (len(sb.sigma) - 1))

    def grid_tuple(sig, m):
        x = sig.sigma[0] + h * np.arange(m)
        return np.array([np.interp(x, sig.sigma, row)
                         for row in (sig.kt, *sig.ktj)])

    ga = grid_tuple(sa, int(sa.span / h) + 1)
    gb = grid_tuple(sb, int(sb.span / h) + 1)
    margin = 0.1 * min(sa.span, sb.span)
    base = sa.sigma[0] - sb.sigma[0]
    lo = sa.sigma[0] - sb.sigma[-1] + margin - base
    hi = sa.sigma[-1] - sb.sigma[0] - margin - base
    lags = range(math.ceil(lo / h), math.floor(hi / h) + 1)
    score = []
    for lag in lags:
        k0, k1 = max(lag, 0), min(ga.shape[1], lag + gb.shape[1])
        d = ga[:, k0:k1] - gb[:, k0 - lag:k1 - lag]
        score.append(np.sum(d * d) / (k1 - k0))
    k = int(np.argmin(score))
    y0, y1, y2 = score[k - 1:k + 2]
    assert 0 < k < len(score) - 1 and y0 - 2 * y1 + y2 > 0
    return base + h * (lags[k] + 0.5 * (y0 - y2) / (y0 - 2 * y1 + y2)), h


def _cubic_pairs():
    """Pairs of (t, t^2, a t^3) cubics, 2000 samples each, half similar.

    b is a random direct-similarity image of a cubic over a random
    sub-range of [-1, 1], as in the match_pairs benchmark workload; the
    last pair's b covers t in [0.05, 0.5], about 15% of a's arc length.
    Each pair is (a, b, the scale lambda of b's similarity, similar).
    """
    def cubic(c, t):
        return np.column_stack([t, t * t, c * t ** 3])

    def image(rng, c, tb):
        T = fs.random_similarity(int(rng.integers(1 << 30)), (0.5, 2.0), 3)
        return (fs.arclength_reparam(fs.SampledCurve(3, tb, T(cubic(c, tb))),
                                     2000), T.lam)

    t = np.linspace(-1.0, 1.0, 2000)
    pairs = []
    for k in range(8):
        rng = np.random.default_rng([7, k])
        similar = k % 2 == 0
        c = rng.uniform(0.5, 1.25)
        c_b = c if similar else c * rng.uniform(1.6, 2.5) ** rng.choice((-1, 1))
        tb = np.linspace(rng.uniform(-1.0, -0.6), rng.uniform(0.6, 1.0), 2000)
        a = fs.arclength_reparam(fs.SampledCurve(3, t, cubic(c, t)), 2000)
        pairs.append((a, *image(rng, c_b, tb), similar))
    rng = np.random.default_rng([7, 8])
    a = fs.arclength_reparam(fs.SampledCurve(3, t, cubic(0.9, t)), 2000)
    pairs.append((a, *image(rng, 0.9, np.linspace(0.05, 0.5, 2000)), True))
    return pairs


def test_shift_scan_matches_brute_force():
    # nine pairs in both argument orders: the FFT scan scores every lag as
    # the plain sums do, so both parabolas put the shift at one place, and
    # the arc lengths over the window it aligns give lambda
    for a, b, lam, similar in _cubic_pairs():
        for x, y, want in ((a, b, lam), (b, a, 1.0 / lam)):
            got = fs.similarity_test(x, y, 2)
            shift, h = _brute_force_shift(x, y, 2)
            assert got.is_similar == similar
            assert abs(got.sigma_shift - shift) <= 1e-6 * h
            if similar:
                assert abs(got.lambda_est / want - 1.0) <= 1e-6


def test_match_debug_line_reports_scan(caplog):
    cubic = fs.custom_poly([[0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.9]],
                           t_span=(-1.0, 1.0))
    T = fs.random_similarity(3, (1.0, 2.0), 3)
    ta, tb = np.linspace(-1.0, 1.0, 2000), np.linspace(-0.8, 0.9, 1700)
    a = fs.SampledCurve(3, ta, fs.builtin_evaluate(cubic, ta).points)
    b = fs.SampledCurve(3, tb, T(fs.builtin_evaluate(cubic, tb).points))
    caplog.set_level(logging.DEBUG, logger="frenetsim.signatures")
    fs.similarity_test(a, b, 2)
    m = re.search(r"scan step h=(\S+) over (\d+) lags, vertex offset (\S+) h",
                  caplog.text)
    assert m, caplog.text
    h, lags, offset = float(m[1]), int(m[2]), float(m[3])
    sa = fs.shape_curvatures(fs.frenet_apparatus(a), 2)
    sb = fs.shape_curvatures(fs.frenet_apparatus(b), 2)
    spacing = min(sa.span / (len(sa.sigma) - 1), sb.span / (len(sb.sigma) - 1))
    assert h == pytest.approx(spacing, rel=1e-2)
    # the admissible shifts keep 10% of the shorter span in the overlap
    width = sa.span + sb.span - 0.2 * min(sa.span, sb.span)
    assert abs(lags - width / spacing) <= 2
    assert abs(offset) <= 0.5


def test_different_helices_do_not_match(helix_curve):
    d = fs.arclength_reparam(fs.helix(4.0, 3.0, t_span=(0.0, 5.0)), 2000)
    res = fs.similarity_test(helix_curve, d, 1, tol=1e-2)
    assert not res.is_similar
    assert res.distance > 0.2


def test_helix_vs_spiral(helix_curve, spiral_curve):
    # different dimensions are incompatible outright
    with pytest.raises(E.IncompatibleSignatures):
        fs.similarity_test(helix_curve, spiral_curve, 1, tol=1e-2)


def test_similarity_invariance_of_signature(helix_curve, helix_frenet):
    # the image keeps the sample grid, so the arrays compare sample by sample
    T = fs.random_similarity(21, (0.5, 2.0), 3)
    fb = fs.frenet_apparatus(fs.apply_similarity(T, helix_curve))
    for i in (1, 2, 3):
        a = fs.shape_curvatures(helix_frenet, i)
        b = fs.shape_curvatures(fb, i)
        assert np.abs(a.sigma - b.sigma).max() < 1e-3
        assert np.abs(a.kt - b.kt).max() < 1e-3
        assert np.abs(a.ktj - b.ktj).max() < 1e-3


def test_signature_distance_incompatible(helix_frenet, selfsim4_frenet):
    a = fs.shape_curvatures(helix_frenet, 1)
    c = fs.shape_curvatures(selfsim4_frenet, 1)
    with pytest.raises(E.IncompatibleSignatures):
        signature_distance(a, c)
    b = fs.shape_curvatures(helix_frenet, 2)
    with pytest.raises(E.IncompatibleSignatures):
        signature_distance(a, b)


def test_signature_distance_no_overlap(helix_frenet):
    a = fs.shape_curvatures(helix_frenet, 2)
    assert signature_distance(a, a, shift=1e6) == math.inf
    # an overlap of 5% of the span is too short to score a distance
    assert signature_distance(a, a, shift=0.95 * a.span) == math.inf


def test_signature_json_round_trip(cubic_frenet):
    sig = fs.shape_curvatures(cubic_frenet, 2)
    back = fs.signature_from_json(fs.signature_to_json(sig))
    assert back.dimension == sig.dimension
    assert back.index == sig.index
    assert np.array_equal(back.sigma, sig.sigma)
    assert np.array_equal(back.kt, sig.kt)
    assert np.array_equal(back.ktj, sig.ktj)
    assert back.s is None


def test_signature_json_rejects_garbage():
    with pytest.raises(E.BadParameters):
        fs.signature_from_json('{"dimension": 3}')
    # integer fields are not cut to an integer, and an infinite one is
    # refused as malformed
    arrays = '"sigma": [0, 1], "kt": [0, 0], "ktj": [[1, 1], [0, 0]]'
    for head, field in (('"dimension": 3.5, "index": 1', "dimension"),
                        ('"dimension": 3, "index": 1.5', "index"),
                        ('"dimension": 3, "index": true', "index")):
        with pytest.raises(E.BadParameters, match=f"{field} must be an integer"):
            fs.signature_from_json("{" + head + ", " + arrays + "}")
    with pytest.raises(E.BadParameters, match="malformed"):
        fs.signature_from_json('{"dimension": Infinity, "index": 1, '
                               + arrays + "}")


@pytest.mark.parametrize("field, arrays", [
    ("sigma", '"sigma": [0, %s, 2], "kt": [0, 0, 0], "ktj": [[1, 1, 1]]'),
    ("kt", '"sigma": [0, 1, 2], "kt": [0, %s, 0], "ktj": [[1, 1, 1]]'),
    ("ktj", '"sigma": [0, 1, 2], "kt": [0, 0, 0], "ktj": [[1, %s, 1]]'),
], ids=["sigma", "kt", "ktj"])
def test_signature_json_refuses_strings_booleans_and_nulls(field, arrays):
    # the number 1 in the slot reads; "1", true and null, which float()
    # and np.array would take, are refused at any depth, naming the field
    doc = '{"dimension": 2, "index": 1, ' + arrays + "}"
    assert fs.signature_from_json(doc % "1").dimension == 2
    for bad in ('"1"', "true", "null"):
        with pytest.raises(E.BadParameters, match=f"{field} must hold numbers"):
            fs.signature_from_json(doc % bad)
