"""End-to-end checks of the command line, run in process."""

import json

import numpy as np
import pytest

import frenetsim as fs
from frenetsim.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_analyze_artifacts(data_dir, tmp_path, capsys):
    base = tmp_path / "helix"
    rc, out = run(capsys, "analyze", "--input", str(data_dir / "helix.csv"),
                  "--index", "2", "--samples", "800",
                  "--output", str(base))
    assert rc == 0
    info = json.loads(out)
    assert info["dimension"] == 3
    # a helix has constant curvatures, so kt vanishes along the whole arc
    assert abs(info["kt_min"]) < 1e-6 and abs(info["kt_max"]) < 1e-6
    sig = (tmp_path / "helix.signature.json").read_text()
    assert json.loads(sig)["index"] == 2
    header = (tmp_path / "helix.samples.csv").read_text().splitlines()[0]
    assert header.split(",") == ["s", "sigma", "kappa_1", "kappa_2",
                                 "kt", "kt_1", "kt_2", "kappa_g"]
    ind_header = (tmp_path / "helix.indicatrix.csv").read_text().splitlines()[0]
    assert ind_header.split(",") == ["sigma", "g1", "g2", "g3", "kappa_g"]


def test_analyze_is_deterministic(data_dir, tmp_path, capsys):
    args = ("analyze", "--input", str(data_dir / "helix.csv"),
            "--index", "1", "--samples", "600")
    rc1, _ = run(capsys, *args, "--output", str(tmp_path / "a"))
    rc2, _ = run(capsys, *args, "--output", str(tmp_path / "b"))
    assert rc1 == rc2 == 0
    assert (tmp_path / "a.signature.json").read_bytes() == \
        (tmp_path / "b.signature.json").read_bytes()


def test_analyze_bad_index(data_dir, capsys):
    rc, _ = run(capsys, "analyze", "--input", str(data_dir / "helix.csv"),
                "--index", "7")
    assert rc == 2


def test_analyze_degenerate_curve(data_dir, capsys):
    rc, _ = run(capsys, "analyze", "--input", str(data_dir / "line.csv"))
    assert rc == 3


def test_analyze_missing_file(tmp_path, capsys):
    rc, _ = run(capsys, "analyze", "--input", str(tmp_path / "nope.csv"))
    assert rc == 2


def test_analyze_malformed_csv(data_dir, capsys):
    rc, _ = run(capsys, "analyze", "--input", str(data_dir / "broken.csv"))
    assert rc == 2


def test_analyze_noisy_csv_refused(tmp_path, capsys):
    # noise of 1e-5 of the diameter leaves no trustworthy invariant: the
    # indicatrix arc length stops increasing, a clean exit 3
    t = np.linspace(0.0, 4 * np.pi, 2000)
    pts = np.column_stack([3 * np.cos(t), 3 * np.sin(t), 4 * t / (2 * np.pi)])
    diam = np.linalg.norm(np.ptp(pts, axis=0))
    pts += np.random.default_rng(0).normal(0.0, 1e-5 * diam, pts.shape)
    path = tmp_path / "noisy.csv"
    fs.curve_to_csv(fs.SampledCurve(3, t, pts), path)
    rc = main(["analyze", "--input", str(path), "--index", "2",
               "--output", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.count("\n") == 1 and "Traceback" not in err


def test_analyze_non_utf8_csv(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"t,x1,x2\n0.0,1.0,\xff\n")
    rc = main(["analyze", "--input", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and "latin1.csv: not UTF-8" in err
    assert "invalid start byte at byte 16)" in err
    # the offset counts from the start of the file, byte-order mark included
    path.write_bytes(b"\xef\xbb\xbft,x1,x2\n0.0,1.0,\xff\n")
    assert main(["analyze", "--input", str(path)]) == 2
    assert "invalid start byte at byte 19)" in capsys.readouterr().err


def test_utf8_bom_accepted(data_dir, tmp_path, capsys):
    # spreadsheet programs export text with a UTF-8 byte-order mark
    bom = b"\xef\xbb\xbf"
    bom_csv = tmp_path / "bom.csv"
    bom_csv.write_bytes(bom + (data_dir / "helix.csv").read_bytes())
    for name, path in (("plain", data_dir / "helix.csv"), ("bom", bom_csv)):
        rc, _ = run(capsys, "analyze", "--input", str(path), "--index", "2",
                    "--samples", "800", "--output", str(tmp_path / name))
        assert rc == 0
    for suffix in ("signature.json", "samples.csv", "indicatrix.csv"):
        assert (tmp_path / f"bom.{suffix}").read_bytes() \
            == (tmp_path / f"plain.{suffix}").read_bytes()
    bom_spec = tmp_path / "spec3.json"
    bom_spec.write_bytes(bom + (data_dir / "spec3.json").read_bytes())
    outs = []
    for spec in (data_dir / "spec3.json", bom_spec):
        rc, out = run(capsys, "synthesize", "--input", str(spec),
                      "--output", str(tmp_path / "sim3.csv"))
        assert rc == 0
        outs.append((out, (tmp_path / "sim3.csv").read_bytes()))
    assert outs[0] == outs[1]


def test_transform_deterministic_and_reappliable(data_dir, tmp_path, capsys):
    helix = str(data_dir / "helix.csv")
    out_a = tmp_path / "a.csv"
    rc, out = run(capsys, "transform", "--input", helix, "--seed", "5",
                  "--samples", "600", "--output", str(out_a))
    assert rc == 0
    first = out_a.read_bytes()
    info = json.loads(out)
    assert 0.5 <= info["lambda"] <= 2.0
    assert abs(info["arc_ratio"] - info["lambda"]) < 1e-6
    assert max(abs(v) for v in info["curvature_dev"]) < 1e-6

    rc, _ = run(capsys, "transform", "--input", helix, "--seed", "5",
                "--samples", "600", "--output", str(out_a))
    assert rc == 0 and out_a.read_bytes() == first

    # feeding the emitted transform JSON back reproduces the same image
    out_b = tmp_path / "b.csv"
    rc, _ = run(capsys, "transform", "--input", helix,
                "--input-b", str(tmp_path / "a.transform.json"),
                "--samples", "600", "--output", str(out_b))
    assert rc == 0 and out_b.read_bytes() == first


def test_transform_requires_one_source(data_dir, tmp_path, capsys):
    helix = str(data_dir / "helix.csv")
    rc, _ = run(capsys, "transform", "--input", helix,
                "--output", str(tmp_path / "x.csv"))
    assert rc == 2
    rc, _ = run(capsys, "transform", "--input", helix, "--seed", "1",
                "--input-b", str(tmp_path / "x.json"),
                "--output", str(tmp_path / "x.csv"))
    assert rc == 2


def test_match_scaled_copy(data_dir, capsys):
    rc, out = run(capsys, "match", "--input", str(data_dir / "helix.csv"),
                  "--input-b", str(data_dir / "helix_double.csv"),
                  "--index", "2", "--samples", "800")
    assert rc == 0
    info = json.loads(out)
    assert info["is_similar"] is True
    assert abs(info["lambda_est"] - 2.0) < 0.02


def test_match_rejects_different_shape(data_dir, capsys):
    rc, out = run(capsys, "match", "--input", str(data_dir / "helix.csv"),
                  "--input-b", str(data_dir / "helix_swapped.csv"),
                  "--index", "2", "--samples", "800")
    assert rc == 1
    assert json.loads(out)["is_similar"] is False


def test_synthesize_and_oracle_match(data_dir, tmp_path, capsys):
    out_csv = tmp_path / "sim3.csv"
    rc, out = run(capsys, "synthesize", "--input", str(data_dir / "spec3.json"),
                  "--output", str(out_csv), "--oracle")
    assert rc == 0
    info = json.loads(out)
    assert abs(info["lambdas"][0] ** 2 - 1.0) < 1e-9
    cur = fs.curve_from_csv(out_csv)
    assert cur.dimension == 3
    oracle_csv = tmp_path / "sim3.oracle.csv"
    assert oracle_csv.exists()
    rc, out = run(capsys, "match", "--input", str(out_csv),
                  "--input-b", str(oracle_csv), "--index", "2",
                  "--tol", "1e-3", "--samples", "800")
    assert rc == 0
    assert json.loads(out)["distance"] < 1e-3


def test_synthesize_clockwise_spiral(tmp_path, capsys):
    spec = tmp_path / "cw.json"
    spec.write_text('{"dimension": 2, "index": 1, "kt": 0.1, "ktj": [-1.0]}\n')
    rc, out = run(capsys, "synthesize", "--input", str(spec),
                  "--output", str(tmp_path / "cw.csv"))
    assert rc == 0 and json.loads(out)["ktj"] == [-1.0]


def test_synthesize_rejects_bad_spec(data_dir, capsys):
    rc, _ = run(capsys, "synthesize", "--input", str(data_dir / "bad_spec.json"))
    assert rc == 2


def test_synthesize_rejects_unpaired_sigma_range(tmp_path, capsys):
    path = tmp_path / "one_end.json"
    path.write_text('{"dimension": 2, "index": 1, "kt": 0.1, "ktj": [1.0], '
                    '"sigma_range": [0]}')
    rc = main(["synthesize", "--input", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and "sigma_range must be a pair" in err


def test_synthesize_rejects_garbage_json(data_dir, capsys):
    rc, _ = run(capsys, "synthesize", "--input", str(data_dir / "broken.json"))
    assert rc == 2


def test_focal_command(data_dir, tmp_path, capsys):
    rc, out = run(capsys, "focal", "--input", str(data_dir / "helix.csv"),
                  "--samples", "800", "--output", str(tmp_path / "h"))
    assert rc == 0
    info = json.loads(out)
    assert abs(info["f_mean"][0] - 25.0 / 3.0) < 1e-6
    header = (tmp_path / "h.focal.csv").read_text().splitlines()[0]
    assert header.split(",") == ["s", "f_1", "f_2", "c1", "c2", "c3"]


def test_evolute_command(data_dir, tmp_path, capsys):
    rc, out = run(capsys, "evolute", "--input", str(data_dir / "helix_short.csv"),
                  "--samples", "800", "--output", str(tmp_path / "e"))
    assert rc == 0
    info = json.loads(out)
    assert info["residual_shape"] < 1e-3
    assert info["residual_ratio"] < 1e-3
    header = (tmp_path / "e.evolute.csv").read_text().splitlines()[0]
    assert header.split(",") == ["s", "m1", "m2", "b1", "b2", "b3"]


def test_evolute_phase_pole_exit(data_dir, capsys):
    # the long helix drives the phase integral past the cotangent pole
    rc, _ = run(capsys, "evolute", "--input", str(data_dir / "helix.csv"),
                "--samples", "800")
    assert rc == 3


def test_verify_passes(data_dir, capsys):
    args = ("verify", "--input", str(data_dir / "helix.csv"),
            "--trials", "5", "--samples", "800", "--tol", "1e-3")
    rc, out = run(capsys, *args)
    assert rc == 0
    info = json.loads(out)
    assert info["pass"] is True and info["failing"] == []
    assert info["max_deviation"] < 1e-3
    rc2, out2 = run(capsys, *args)
    assert rc2 == 0 and out2 == out


def test_verify_reports_failures(data_dir, capsys):
    rc, out = run(capsys, "verify", "--input", str(data_dir / "helix.csv"),
                  "--trials", "2", "--samples", "600", "--tol", "1e-12")
    assert rc == 1
    info = json.loads(out)
    assert info["failing"]
    assert any("invariance[i=" in name for name in info["failing"])


def test_verify_rejects_zero_trials(data_dir, capsys):
    rc, _ = run(capsys, "verify", "--input", str(data_dir / "helix.csv"),
                "--trials", "0")
    assert rc == 2


def test_unknown_command(capsys):
    assert main(["frobnicate"]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["analyze", "--help"]) == 0


def test_verify_properties_match_invariance_sweep(data_dir, capsys):
    path = str(data_dir / "helix.csv")
    rc, out = run(capsys, "verify", "--input", path, "--trials", "2",
                  "--seed", "4", "--samples", "600")
    assert rc == 0
    cur = fs.arclength_reparam(fs.curve_from_csv(path), 600)
    transforms = [fs.random_similarity(4 + k, (0.5, 2.0), 3) for k in range(2)]
    dev = fs.invariance_sweep(cur, transforms)
    assert json.loads(out)["properties"] == {
        name: {str(i): v for i, v in per.items()} for name, per in dev.items()}


def test_inflection_exits_degenerate(tmp_path, capsys):
    # kappa_1 of (t, t^3) changes sign at t = 0, where both indicatrix
    # speeds |kappa_1| vanish
    t = np.linspace(-1.0, 1.0, 901)
    path = tmp_path / "inflection.csv"
    fs.curve_to_csv(fs.SampledCurve(2, t, np.column_stack([t, t ** 3])), path)
    for index in ("1", "2"):
        rc = main(["analyze", "--input", str(path), "--index", index,
                   "--samples", "900", "--output", str(tmp_path / "out")])
        assert rc == 3
        assert "kappa_1 changes sign" in capsys.readouterr().err


@pytest.mark.parametrize("row", ["1.0,nan,1.0", "nan,2.0,1.0"])
def test_nonfinite_cell_exits_usage(tmp_path, capsys, row):
    path = tmp_path / "nan.csv"
    fs.curve_to_csv(fs.builtin_evaluate(fs.circle(1.0),
                                        np.linspace(0.0, 2.0, 40)), path)
    lines = path.read_text().splitlines()
    lines[5] = row
    path.write_text("\n".join(lines) + "\n")
    rc = main(["analyze", "--input", str(path)])
    assert rc == 2
    assert "must be finite; sample 4" in capsys.readouterr().err


def test_clockwise_circle(tmp_path, capsys):
    # kt_1 = kappa_1/|kappa_1| is -1 on a clockwise plane curve; its mirror
    # image is not a direct-similar copy
    t = np.linspace(0.0, 5.0, 400)
    cw, ccw = tmp_path / "cw.csv", tmp_path / "ccw.csv"
    fs.curve_to_csv(fs.SampledCurve(
        2, t, np.column_stack([2 * np.cos(t), -2 * np.sin(t)])), cw)
    fs.curve_to_csv(fs.SampledCurve(
        2, t, np.column_stack([2 * np.cos(t), 2 * np.sin(t)])), ccw)
    base = tmp_path / "cw"
    rc, _ = run(capsys, "analyze", "--input", str(cw), "--index", "1",
                "--samples", "800", "--output", str(base))
    assert rc == 0
    sig = json.loads((tmp_path / "cw.signature.json").read_text())
    assert np.abs(np.asarray(sig["ktj"][0]) + 1.0).max() < 1e-9
    rc, out = run(capsys, "verify", "--input", str(cw), "--trials", "3",
                  "--samples", "800")
    assert rc == 0 and json.loads(out)["pass"] is True
    rc, out = run(capsys, "match", "--input", str(cw), "--input-b", str(ccw),
                  "--samples", "800")
    assert rc == 1 and json.loads(out)["is_similar"] is False


def test_repeated_points_exit_degenerate(tmp_path, capsys):
    t = np.linspace(0.0, 5.0, 400)
    pts = fs.builtin_evaluate(fs.helix(3.0, 4.0, t_span=(0.0, 5.0)), t).points.copy()
    pts[100:110] = pts[100]
    path = tmp_path / "stall.csv"
    fs.curve_to_csv(fs.SampledCurve(3, t, pts), path)
    rc = main(["analyze", "--input", str(path), "--output", str(tmp_path / "out")])
    assert rc == 3
    assert "samples 100 and 101 repeat one point" in capsys.readouterr().err
