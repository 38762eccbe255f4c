"""kt and kt_j against exact truths on curves whose kt varies (ROADMAP item 3).

Each curve is 2000 exact rows with no jet source, so the pipeline fits
them as it fits a CSV, then resamples them to 2000 samples. The truth
takes the curve's exact derivatives: kappa = |a' x a''| / |a'|^3 and
tau = det(a', a'', a''') / |a' x a''|^2 with |x| = sqrt(x . x), so both
stay analytic in t; the indicatrix speeds Q_1 = kappa, Q_2 =
sqrt(kappa^2 + tau^2) and Q_3 = sqrt(tau^2); kt_i = d(1/Q_i)/ds by one
complex step, Im(1/Q_i(t + ih)) / h / |a'| with h = 1e-30; and kt_j =
kappa_j / Q_i. The t of each kept sample inverts the exact arc length
(Gauss-Legendre quadrature and Newton steps) at the sample's s. The
tolerance is the contract's 1e-3.
"""

import functools
import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

import frenetsim as fs
from frenetsim import errors as E

TOL = 1e-3
ROWS = SAMPLES = 2000
STEP = 1e-30


def coordinate(coeffs, amp=0.0, freq=0):
    """k-th derivative of the polynomial coeffs plus amp sin(freq t)."""
    coeffs = np.asarray(coeffs, dtype=float)

    def derivative(t, k):
        value = P.polyval(t, P.polyder(coeffs, k)) if k < len(coeffs) else 0 * t
        return value + amp * freq ** k * np.sin(freq * t + k * math.pi / 2)
    return derivative


CUBIC = (coordinate([0, 1]), coordinate([0, 0, 1]), coordinate([0, 0, 0, 1]))


def near_inflection(eps):
    """(t, t^3, eps t^2): kappa_1 dips to 2 eps at t = 0."""
    return coordinate([0, 1]), coordinate([0, 0, 0, 1]), coordinate([0, 0, eps])


# (t + 0.3 sin t, t^2/4 + 0.3 sin 2t, t^3/9 + 0.3 sin 3t)
TRIG = (coordinate([0, 1], 0.3, 1), coordinate([0, 0, 0.25], 0.3, 2),
        coordinate([0, 0, 0, 1 / 9], 0.3, 3))

CURVES = {
    "cubic": (CUBIC, (-1.0, 1.0)),
    "near_inflection_0.1": (near_inflection(0.1), (-1.0, 1.0)),
    "near_inflection_0.03": (near_inflection(0.03), (-1.0, 1.0)),
    "trigonometric": (TRIG, (0.0, 2 * math.pi)),
    "cubic_off_centre": (CUBIC, (0.2, 1.5)),
}


def jet(curve, t, k):
    return np.stack([c(t, k) for c in curve], axis=-1)


def dot(a, b):
    return np.sum(a * b, axis=-1)


def speed(curve, t):
    d1 = jet(curve, t, 1)
    return np.sqrt(dot(d1, d1))


def curvatures(curve, t):
    """kappa and tau, analytic in t: no absolute value, no conjugate."""
    d1, d2, d3 = (jet(curve, t, k) for k in (1, 2, 3))
    c = np.cross(d1, d2)
    kappa = np.sqrt(dot(c, c)) / dot(d1, d1) ** 1.5
    tau = np.linalg.det(np.stack([d1, d2, d3], axis=-2)) / dot(c, c)
    return kappa, tau


def truth(curve, t, i):
    """Exact kt and kt_j rows of index i at the parameters t."""
    def q(t):
        kappa, tau = curvatures(curve, t)
        return (kappa, np.sqrt(kappa * kappa + tau * tau), np.sqrt(tau * tau))[i - 1]

    kt = (1.0 / q(t + 1j * STEP)).imag / STEP / speed(curve, t)
    return kt, np.array(curvatures(curve, t)) / q(t)


def parameters_at(curve, span, s):
    """t with exact arc length s from span[0], by Newton steps."""
    nodes, weights = np.polynomial.legendre.leggauss(64)
    t0, t1 = span

    def arclength(t):
        tt = t0 + (t[:, None] - t0) * (nodes + 1) / 2
        return (speed(curve, tt) * weights).sum(axis=1) * (t - t0) / 2

    t = t0 + (t1 - t0) * s / arclength(np.array([t1]))[0]
    for _ in range(50):
        step = (arclength(t) - s) / speed(curve, t)
        t = t - step
        if np.abs(step).max() <= 1e-15 * (t1 - t0):
            return t
    raise AssertionError("the arc-length inversion did not converge")


@functools.cache
def apparatus(name):
    curve, span = CURVES[name]
    t = np.linspace(*span, ROWS)
    raw = fs.SampledCurve(3, t, jet(curve, t, 0))
    return fs.frenet_apparatus(fs.arclength_reparam(raw, SAMPLES))


def errors(name, i):
    """Largest kt and kt_j errors of index i over the kept samples."""
    fr = apparatus(name)
    sig = fs.shape_curvatures(fr, i)
    curve, span = CURVES[name]
    kt, ktj = truth(curve, parameters_at(curve, span, fr.s[fr.kept]), i)
    return np.abs(sig.kt - kt).max(), np.abs(sig.ktj - ktj).max()


def item_3(reason):
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP item 3: {reason}")


# every case answers within the contract, or is a strict xfail that
# names its error at 2000 rows and samples
CASES = [
    pytest.param("cubic", 1, id="cubic-1"),  # 3.0e-5
    pytest.param("cubic", 2, id="cubic-2"),  # 1.2e-5
    pytest.param("cubic", 3, id="cubic-3"),  # 4.0e-6
    pytest.param("near_inflection_0.1", 2, id="eps0.1-2"),  # 5.4e-5
    pytest.param("near_inflection_0.1", 3, id="eps0.1-3"),  # 1.4e-5
    pytest.param("near_inflection_0.03", 2, id="eps0.03-2"),  # 8.8e-4
    pytest.param("near_inflection_0.03", 3, id="eps0.03-3"),  # 4.8e-5
    pytest.param("near_inflection_0.1", 1, id="eps0.1-1", marks=item_3(
        "one field stride smooths the peak of 1/kappa at the inflection; "
        "kt is 6.2 off")),
    pytest.param("near_inflection_0.03", 1, id="eps0.03-1", marks=item_3(
        "one field stride smooths the peak of 1/kappa at the inflection; "
        "kt is 653 off")),
    pytest.param("trigonometric", 1, id="trig-1", marks=item_3(
        "one field stride smooths the narrow peak of 1/Q where kappa_1 is "
        "small; kt is 15.1 off")),
    pytest.param("trigonometric", 2, id="trig-2", marks=item_3(
        "one field stride smooths the narrow peak of 1/Q; kt is 1.03e-2 "
        "off")),
    pytest.param("cubic_off_centre", 1, id="off_centre-1", marks=item_3(
        "the field fit has one-sided support at the ends: kt is 3.1e-2 "
        "off at the first kept sample, 4.7e-3 on the inner 90%")),
    pytest.param("cubic_off_centre", 2, id="off_centre-2", marks=item_3(
        "end error of the field fit: kt is 4.3e-3 off")),
    pytest.param("cubic_off_centre", 3, id="off_centre-3", marks=item_3(
        "end error of the field fit: kt is 1.5e-2 off at the first kept "
        "sample")),
]


@pytest.mark.parametrize("name, i", CASES)
def test_kt_within_tol(name, i):
    assert errors(name, i)[0] <= TOL


@pytest.mark.parametrize("name, i", [case.values for case in CASES],
                         ids=[case.id for case in CASES])
def test_ktj_within_tol(name, i):
    # kt_j = kappa_j / Q_i needs no derivative of the fields: within 8e-5
    # on every case, the trigonometric curve at index 1 the largest
    assert errors(name, i)[1] <= TOL


def test_trigonometric_torsion_sign_change_is_refused():
    with pytest.raises(E.IndicatrixDegenerate, match="kappa_2 changes sign"):
        fs.shape_curvatures(apparatus("trigonometric"), 3)


def test_truth_of_the_parabola_and_the_arc_length():
    # (t, t^2, 0): kt_1 = 6t (tests/test_signatures.py), and the parabola's
    # arc length has a closed form
    parabola = (coordinate([0, 1]), coordinate([0, 0, 1]), coordinate([0]))
    t = np.linspace(-1.0, 1.0, 101)
    kt, ktj = truth(parabola, t, 1)
    assert np.abs(kt - 6 * t).max() <= 1e-12
    assert np.array_equal(ktj, [np.ones_like(t), np.zeros_like(t)])

    def arclength(t):
        return (2 * t * np.sqrt(1 + 4 * t * t) + np.arcsinh(2 * t)) / 4

    got = parameters_at(parabola, (-1.0, 1.0), arclength(t) - arclength(-1.0))
    assert np.abs(got - t).max() <= 1e-13
