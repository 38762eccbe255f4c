"""The text codec: CSV tables, JSON float arrays and the artifacts they carry."""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import frenetsim as fs
from frenetsim.cli import main
from frenetsim.curves import _ROW_BLOCK, TRIM, _write_table
from frenetsim.jsonio import FloatTexts, float_texts, format_rows, render

EXTREMES = np.array([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308,
                     -1e308, np.nan, np.inf, -np.inf, 1 / 3, -2.5e-17, 1e22])


def _savetxt_bytes(path, header_cols, columns):
    """The reference writer: np.savetxt with the same header and format."""
    np.savetxt(path, np.column_stack(columns), delimiter=",", comments="",
               header=",".join(header_cols), fmt="%.17g")
    return path.read_bytes()


def test_write_table_matches_savetxt(tmp_path):
    out, ref = tmp_path / "out.csv", tmp_path / "ref.csv"
    rng = np.random.default_rng(3)
    long = _ROW_BLOCK + 7
    big = rng.normal(size=(long, 2)) * np.logspace(-300, 300, long)[:, None]
    big[::97, 0] = EXTREMES[np.arange(len(big[::97])) % len(EXTREMES)]
    mixed = np.resize(EXTREMES, 24)
    tables = [
        (["t", "x1"], [EXTREMES, EXTREMES[::-1]]),
        (["a", "b", "c", "d"], [EXTREMES[:1], EXTREMES[1:4][None, :]]),
        (["s", "v1", "v2", "w"], [rng.normal(size=50),
                                  rng.normal(size=(50, 2)) * 1e-300,
                                  rng.standard_cauchy(50)]),
        # texts formatted before go in as they are, beside 1-d and 2-d
        # float columns
        (["a", "b", "c1", "c2", "c3", "d"],
         [float_texts(mixed), mixed[::-1], np.resize(EXTREMES[::-1], (24, 3)),
          float_texts(-mixed)]),
        # more rows than one %-format block, texts last
        (["s", "f1", "f2", "g"], [np.arange(long) * 0.1, big,
                                  float_texts(big[::-1, 1])]),
        (["s", "g1", "g2"], [np.empty(0), np.empty((0, 2))]),
        (["s", "t"], [[], np.empty(0)]),
    ]
    for header, columns in tables:
        _write_table(out, header, columns)
        values = [np.array(c, dtype=float) if isinstance(c, list) else c
                  for c in columns]
        assert out.read_bytes() == _savetxt_bytes(ref, header, values)
    with pytest.raises(ValueError):
        _write_table(out, ["a", "b"], [np.zeros(3), float_texts(np.zeros(4))])


def _float_text(v: float) -> str:
    """The reference JSON number: one value at a time, %.17g with JSON spellings."""
    if math.isnan(v):
        return "NaN"
    if math.isinf(v):
        return "Infinity" if v > 0 else "-Infinity"
    text = f"{v:.17g}"
    return "-0.0" if text == "-0" else text


def _render_per_element(a):
    if a.ndim == 1:
        return "[" + ", ".join(_float_text(float(v)) for v in a) + "]"
    return "[" + ", ".join(_render_per_element(row) for row in a) + "]"


# texts the JSON spelling lookup must catch, first, last and alone, and
# texts that hold "-0" or "e-0" without being -0
JSON_EDGES = [np.array(v) for v in (
    [-0.0], [-0.0, 1.5], [1.5, 2.0, -0.0], [np.nan], [np.inf], [-np.inf],
    [1e-05, -1e-300, -0.05], [-0.5, 2e-05, -0.0, 3.0],
    [[1.0, -0.0], [np.nan, -1e-05]])]


@settings(deadline=None, max_examples=60)
@example(JSON_EDGES[0])
@example(JSON_EDGES[1])
@example(JSON_EDGES[2])
@example(JSON_EDGES[3])
@example(JSON_EDGES[4])
@example(JSON_EDGES[5])
@example(JSON_EDGES[6])
@example(JSON_EDGES[7])
@example(JSON_EDGES[8])
@given(hnp.arrays(np.float64,
                  hnp.array_shapes(min_dims=1, max_dims=3, min_side=0,
                                   max_side=5),
                  elements=st.floats(width=64) | st.sampled_from(EXTREMES)))
def test_render_float_arrays(a):
    text = render(a)
    assert text == _render_per_element(a)
    # json.loads reads an integral float such as "3" as an int
    back = np.array(json.loads(text), dtype=float).reshape(a.shape)
    nan = np.isnan(a)
    assert np.array_equal(np.isnan(back), nan)
    # bit-exact, signed zeros included, wherever the value is a number
    assert back[~nan].tobytes() == a[~nan].tobytes()


def test_analyze_artifacts_load_back_bit_exact(data_dir, tmp_path, capsys):
    path = str(data_dir / "helix.csv")
    base = tmp_path / "helix"
    assert main(["analyze", "--input", path, "--index", "2",
                 "--samples", "800", "--output", str(base)]) == 0
    capsys.readouterr()
    fr = fs.frenet_apparatus(fs.arclength_reparam(fs.curve_from_csv(path), 800))
    sig = fs.shape_curvatures(fr, 2)
    back = fs.signature_from_json(
        (tmp_path / "helix.signature.json").read_text())
    for name in ("sigma", "kt", "ktj"):
        assert getattr(back, name).tobytes() == getattr(sig, name).tobytes()
    sl = slice(TRIM, fr.n_samples - TRIM)
    samples = np.loadtxt(tmp_path / "helix.samples.csv", delimiter=",",
                         skiprows=1)
    expect = np.column_stack([sig.s, sig.sigma, fr.kappas[sl], sig.kt,
                              sig.ktj.T])
    assert samples[:, :expect.shape[1]].tobytes() == expect.tobytes()
    indicatrix = np.loadtxt(tmp_path / "helix.indicatrix.csv", delimiter=",",
                            skiprows=1)
    assert indicatrix[:, 0].tobytes() == sig.sigma.tobytes()
    frame = np.ascontiguousarray(fr.frames[sl, 1])
    assert np.ascontiguousarray(indicatrix[:, 1:4]).tobytes() == frame.tobytes()


def test_json_layout_of_float_texts_is_render():
    # the texts a CSV table shares, laid out as JSON, spell -0.0, NaN and
    # the infinities as render does
    for a in (EXTREMES, EXTREMES.reshape(3, 4), EXTREMES[:0].reshape(0, 2),
              EXTREMES[:0].reshape(2, 0), *JSON_EDGES):
        assert render(FloatTexts(float_texts(a))) == _render_per_element(a)
        assert render(a) == _render_per_element(a)
    for v in EXTREMES:
        assert render(v) == _float_text(float(v))


def _self_similar_e4_csv(path):
    spec = fs.SelfSimilarSpec(dimension=4, index=2, kt=0.1,
                              ktj=(0.7, math.sqrt(1 - 0.49), 0.5),
                              n_samples=600)
    fs.curve_to_csv(fs.synthesize_self_similar(spec), path)


def _log_spiral_csv(path):
    t = np.linspace(0.0, 6.0, 500)
    fs.curve_to_csv(fs.builtin_evaluate(fs.log_spiral(0.15, (0.0, 6.0)), t),
                    path)


@pytest.mark.parametrize("dimension", [2, 3, 4])
def test_analyze_artifacts_are_the_writers_bytes(dimension, data_dir, tmp_path,
                                                 capsys):
    # the artifacts analyze writes from shared texts are byte for byte those
    # of signature_to_json, indicatrix_to_csv and the table writer: E^2 at
    # index 1, E^3 (with kappa_g) and E^4 at index 2
    path = data_dir / "helix.csv" if dimension == 3 else tmp_path / "in.csv"
    if dimension == 2:
        _log_spiral_csv(path)
    elif dimension == 4:
        _self_similar_e4_csv(path)
    index = 1 if dimension == 2 else 2
    base, samples = tmp_path / "out", 700
    assert main(["analyze", "--input", str(path), "--index", str(index),
                 "--samples", str(samples), "--output", str(base)]) == 0
    capsys.readouterr()
    fr = fs.frenet_apparatus(fs.arclength_reparam(fs.curve_from_csv(path),
                                                  samples))
    n = fr.dimension
    sig = fs.shape_curvatures(fr, index)
    sc = fs.indicatrix_curve(fr, sig)
    kappa_g = fs.sabban_geodesic_curvature(sc).kappa_g if n == 3 else None
    assert (tmp_path / "out.signature.json").read_text() \
        == fs.signature_to_json(sig) + "\n"
    ref = tmp_path / "ref.csv"
    fs.indicatrix_to_csv(ref, sc.sigma, sc.gamma, kappa_g=kappa_g)
    assert (tmp_path / "out.indicatrix.csv").read_bytes() == ref.read_bytes()
    names = ["s", "sigma", *[f"kappa_{j}" for j in range(1, n)],
             "kt", *[f"kt_{j}" for j in range(1, n)]]
    cols = [sig.s, sig.sigma, fr.kappas[TRIM:fr.n_samples - TRIM], sig.kt,
            sig.ktj.T]
    if kappa_g is not None:
        names.append("kappa_g")
        cols.append(kappa_g)
    _write_table(ref, names, cols)
    assert (tmp_path / "out.samples.csv").read_bytes() == ref.read_bytes()


def test_analyze_formats_each_column_once(data_dir, tmp_path, monkeypatch,
                                          capsys):
    # an E^3 index-2 run carries 11 distinct columns in its three artifacts:
    # s, sigma, kappa_1, kappa_2, kt, kt_1, kt_2, kappa_g and gamma_1..3
    # (17 column formats when each artifact formats its own); every float
    # cell passes through the one holder of the float format
    cells = []

    def counted(text_cells, values, rows, *args):
        cells.append(rows * sum(not t for t in text_cells))
        return format_rows(text_cells, values, rows, *args)

    for name, module in list(sys.modules.items()):
        if (name == "frenetsim" or name.startswith("frenetsim.")) \
                and vars(module).get("format_rows") is format_rows:
            monkeypatch.setattr(module, "format_rows", counted)
    samples = 400
    assert main(["analyze", "--input", str(data_dir / "helix.csv"),
                 "--index", "2", "--samples", str(samples),
                 "--output", str(tmp_path / "helix")]) == 0
    capsys.readouterr()
    # stdout's sigma_span, kt_min and kt_max are three floats more
    assert sum(cells) == 11 * (samples - 2 * TRIM) + 3, cells
