"""Tests of the benchmark's own parts: references, inputs, checkers, listing.

Run with: python -m pytest -q perfbench/tests
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import frenetsim as fs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402


def _signature(curve, index):
    sig = fs.shape_curvatures(fs.frenet_apparatus(curve), index)
    return sig.kt, sig.ktj


def _deviation(sig, ref):
    kt, ktj = sig
    return max(np.abs(kt - ref[0]).max(),
               np.abs(ktj - np.asarray(ref[1])[:, None]).max())


@pytest.mark.parametrize("a, b", [(2.0, 1.0), (1.5, -0.7)])
def test_helix_reference_matches_exact_path(a, b):
    curve = fs.helix(a, b, (0.0, 4.0 * math.pi))
    u = np.linspace(0.0, 4.0 * math.pi, 50)
    np.testing.assert_allclose(W.helix_points(a, b, u),
                               fs.builtin_evaluate(curve, u).points, atol=1e-12)
    sig = _signature(fs.arclength_reparam(curve, 2000), 2)
    assert _deviation(sig, W.helix_signature(a, b)) <= 1e-6


@pytest.mark.parametrize("c", [0.1, -0.15])
def test_spiral_reference_matches_exact_path(c):
    curve = fs.log_spiral(c, (0.0, 4.0 * math.pi))
    u = np.linspace(0.0, 4.0 * math.pi, 50)
    np.testing.assert_allclose(W.spiral_points(c, u),
                               fs.builtin_evaluate(curve, u).points, atol=1e-12)
    sig = _signature(fs.arclength_reparam(curve, 2000), 1)
    assert _deviation(sig, W.spiral_signature(c)) <= 1e-6


@pytest.mark.parametrize("n", [3, 4, 9])
def test_self_similar_points_are_the_package_closed_form(n):
    spec = W.draw_self_similar(np.random.default_rng(n), n)
    cur = fs.synthesize_self_similar(spec)
    np.testing.assert_allclose(W.self_similar_points(spec, cur.t), cur.points,
                               rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("n", [3, 4])
def test_self_similar_reference_matches_spline_path(n):
    # no analytic source exists for these curves, so the spline path on
    # exact uniformly sampled data stands in for it; that path is less
    # exact than an analytic one (6.5e-6 on the E^4 curve), hence 1e-5
    spec = W.draw_self_similar(np.random.default_rng(n), n)
    sigma = np.linspace(0.0, 8.0, 2000)
    cur = fs.SampledCurve(n, sigma, W.self_similar_points(spec, sigma))
    sig = _signature(fs.arclength_reparam(cur, 2000), 2)
    assert _deviation(sig, (spec.kt, spec.ktj)) <= 1e-5


def _input_bytes(workload, seed, workdir):
    cycle, _ = W.WORKLOADS[workload]
    out = []
    for k in list(range(cycle)) + [W.WARMUP]:
        op = W.make_op(workload, seed, k, workdir)
        out += [p.read_bytes() for p in op.files if p.is_file()]
    return out


@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_seed_regenerates_identical_inputs(workload, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "c").mkdir()
    first = _input_bytes(workload, 7, tmp_path / "a")
    assert first == _input_bytes(workload, 7, tmp_path / "b")
    other = _input_bytes(workload, 8, tmp_path / "c")
    assert all(x != y for x, y in zip(first, other))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_match_pairs_are_far_apart(seed, tmp_path):
    for k in range(2):
        op = W.make_op("match_pairs", seed, k, tmp_path)
        a, b = (fs.arclength_reparam(fs.curve_from_csv(p), W.MATCH_SAMPLES)
                for p in op.files)
        res = fs.similarity_test(a, b, 2)
        if k % 2 == 0:
            assert res.distance <= 1e-4
        else:
            assert res.distance >= 1e-1


def test_checkers_reject_wrong_answers(tmp_path):
    similar = W.make_op("match_pairs", 0, 0, tmp_path)
    assert similar.check(1, "")[0] is False
    different = W.make_op("match_pairs", 0, 1, tmp_path)
    assert different.check(0, "")[0] is False
    assert different.check(1, "")[0] is True

    verify = W.make_op("verify_highdim", 0, 0, tmp_path)
    failing = json.dumps({"pass": False, "max_deviation": 0.5})
    assert verify.check(1, failing) == (False, 0.5)

    analyze = W.make_op("analyze_sampled", 0, 1, tmp_path)
    assert analyze.exact
    assert analyze.check(3, "")[0] is False  # exact data may not be refused


def test_noisy_analyze_ops_are_one_in_four(tmp_path):
    noisy = [not W.make_op("analyze_sampled", 0, k, tmp_path).exact
             for k in range(32)]
    assert all(sum(noisy[i:i + 4]) == 1 for i in range(0, 32, 4))
    # each family is noisy equally often, and cycles 2j and 2j+1 (one
    # untraced, one traced) share their noisy family
    assert [sum(noisy[f::4]) for f in range(4)] == [2, 2, 2, 2]
    assert noisy[:4] == noisy[4:8]
    assert W.make_op("analyze_sampled", 0, W.WARMUP, tmp_path).exact


def test_benchmark_json_lists_what_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(W.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == spans.metric_names()


def test_tracer_self_time_excludes_children():
    tracer = spans.Tracer()
    a = np.arange(1.0, 13.0).reshape(4, 3)
    inner = np.vstack([np.zeros(3), a[1:]])
    with tracer.op(0):
        fs.series.series_compose(a, inner)
    names = [s[1] for s in tracer.spans]
    assert names == ["series.series_compose"] + ["series.series_mul"] * 3
    assert [s[4] for s in tracer.spans] == [-1, 0, 0, 0]
    dur = [s[3] - s[2] for s in tracer.spans]
    summary = tracer.summary({0: 1.0}, dur[0] / 1e9)
    assert summary["series.series_compose.ms"] == (dur[0] - sum(dur[1:])) / 1e6
    assert summary["series.series_mul.calls"] == 3
    assert summary["cli.self.ms"] == 0.0
    assert tracer.summary({0: 2.0}, 0.0)["series.series_mul.ms"] \
        == 2 * summary["series.series_mul.ms"]
    # bindings are restored once the op ends
    assert "span" not in fs.series.series_mul.__code__.co_name


def test_tracer_folds_recursion():
    tracer = spans.Tracer()
    with tracer.op(0):
        fs.signature_to_json(fs.ShapeSignature(
            2, 1, np.linspace(0.0, 1.0, 8), np.zeros(8), np.ones((1, 8))))
    # render's recursion folds into the one span opened from signatures
    assert [s[1] for s in tracer.spans] == ["jsonio.render"]


def test_tracer_folds_field_derivative_fit():
    tracer = spans.Tracer()
    x = np.linspace(0.0, 1.0, 200)
    with tracer.op(0):
        fs.curves.field_derivative(x, np.sin(x))
    # the fit inside field_derivative counts in its self time
    assert [s[1] for s in tracer.spans] == ["curves.field_derivative"]
