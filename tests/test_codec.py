"""The text codec: CSV tables, JSON float arrays and the artifacts they carry."""

import json

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import frenetsim as fs
from frenetsim.cli import main
from frenetsim.curves import TRIM, _write_table
from frenetsim.jsonio import _float_text, render

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
    tables = [
        (["t", "x1"], [EXTREMES, EXTREMES[::-1]]),
        (["a", "b", "c", "d"], [EXTREMES[:1], EXTREMES[1:4][None, :]]),
        (["s", "v1", "v2", "w"], [rng.normal(size=50),
                                  rng.normal(size=(50, 2)) * 1e-300,
                                  rng.standard_cauchy(50)]),
    ]
    for header, columns in tables:
        _write_table(out, header, columns)
        assert out.read_bytes() == _savetxt_bytes(ref, header, columns)


def _render_per_element(a):
    if a.ndim == 1:
        return "[" + ", ".join(_float_text(float(v)) for v in a) + "]"
    return "[" + ", ".join(_render_per_element(row) for row in a) + "]"


@settings(deadline=None, max_examples=60)
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
