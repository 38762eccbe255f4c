"""End-to-end checks of the command line, run in process."""

import inspect
import json
import logging
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import frenetsim as fs
from frenetsim import cli, curves, signatures
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
    # resampled frame turns over (V_2 reverses between the first two
    # samples), a clean exit 3
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
    # spreadsheet programs export text with a UTF-8 byte-order mark, CRLF
    # or lone-CR line ends, or every cell quoted
    bom = b"\xef\xbb\xbf"
    plain = (data_dir / "helix.csv").read_bytes()
    lines = plain.split(b"\n")
    variants = {
        "bom": bom + plain,
        "crlf": plain.replace(b"\n", b"\r\n"),
        "cr": plain.replace(b"\n", b"\r"),
        "quoted": b"\n".join(b",".join(b'"%s"' % c for c in line.split(b","))
                             if line else line for line in lines),
    }
    for name, body in variants.items():
        (tmp_path / f"{name}.csv").write_bytes(body)
    inputs = [("plain", data_dir / "helix.csv")] + [
        (name, tmp_path / f"{name}.csv") for name in variants]
    for name, path in inputs:
        rc, _ = run(capsys, "analyze", "--input", str(path), "--index", "2",
                    "--samples", "800", "--output", str(tmp_path / name))
        assert rc == 0
    for name in variants:
        for suffix in ("signature.json", "samples.csv", "indicatrix.csv"):
            assert (tmp_path / f"{name}.{suffix}").read_bytes() \
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
                  "--output", str(out_a))
    assert rc == 0
    first = out_a.read_bytes()
    info = json.loads(out)
    assert 0.5 <= info["lambda"] <= 2.0

    rc, _ = run(capsys, "transform", "--input", helix, "--seed", "5",
                "--output", str(out_a))
    assert rc == 0 and out_a.read_bytes() == first

    # feeding the emitted transform JSON back reproduces the same image
    out_b = tmp_path / "b.csv"
    rc, _ = run(capsys, "transform", "--input", helix,
                "--input-b", str(tmp_path / "a.transform.json"),
                "--output", str(out_b))
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


@pytest.mark.parametrize("source, seed", [("helix", 3), ("spec3", 1)])
def test_match_leaves_the_shift_of_a_constant_signature_null(
        source, seed, data_dir, tmp_path, capsys):
    # a constant signature fits every shift equally: the scan scores every
    # lag within tol^2 and singles none out. A shift d scales the ratio of
    # arc lengths by e^(kt d): the helix's kt is 0, so its scale is still
    # read, while the spec curve's kt = -0.05 leaves it as free as the shift
    curve = data_dir / "helix.csv"
    if source == "spec3":
        curve = tmp_path / "spec3.csv"
        assert main(["synthesize", "--input", str(data_dir / "spec3.json"),
                     "--output", str(curve)]) == 0
    image = tmp_path / "image.csv"
    assert main(["transform", "--input", str(curve),
                 "--seed", str(seed), "--output", str(image)]) == 0
    capsys.readouterr()
    rc, out = run(capsys, "match", "--input", str(curve),
                  "--input-b", str(image), "--index", "2", "--samples", "800")
    info = json.loads(out)
    assert rc == 0 and info["sigma_shift"] is None
    if source == "spec3":
        assert info["lambda_est"] is None
    else:
        assert abs(info["lambda_est"] - fs.random_similarity(3, 3).lam) < 1e-6


def test_match_takes_a_tol_above_the_root_of_float_max(data_dir, capsys):
    # tol^2 overflows a float above 1.34e154; every shift then fits within
    # it, and the command answers similar instead of failing
    helix = str(data_dir / "helix.csv")
    rc = main(["match", "--input", helix, "--input-b", helix,
               "--tol", "1e200"])
    out, err = capsys.readouterr()
    assert rc == 0 and err == ""
    assert json.loads(out)["sigma_shift"] is None


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


def test_synthesize_repeated_frequency_exits_degenerate(tmp_path, capsys):
    spec = tmp_path / "repeated.json"
    spec.write_text('{"dimension": 4, "index": 1, "kt": 0.0, '
                    '"ktj": [1.0, 1e-160, 1.0]}\n')
    rc = main(["synthesize", "--input", str(spec)])
    err = capsys.readouterr().err
    assert rc == 3 and err.count("\n") == 1 and "Traceback" not in err
    assert "(RepeatedEigenvalue): rotation frequencies are not distinct" in err


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
    rc = main(["synthesize", "--input", str(data_dir / "broken.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and "malformed self-similar spec JSON" in err


# the slot of each document takes the number 1 in a valid file; float()
# reads "1" and true as 1.0, and np.array reads them inside arrays
NUMBER_SLOTS = [
    ("synthesize", "kt", '{"dimension": 2, "index": 1, "kt": %s, "ktj": [1]}'),
    ("synthesize", "ktj", '{"dimension": 2, "index": 1, "kt": 0.1, "ktj": [%s]}'),
    ("synthesize", "sigma_range", '{"dimension": 2, "index": 1, "kt": 0.1, '
     '"ktj": [1], "sigma_range": [0, %s]}'),
    ("transform", "lambda", '{"lambda": %s, "A": [[1, 0, 0], [0, 1, 0], '
     '[0, 0, 1]], "b": [0, 0, 0]}'),
    ("transform", "A", '{"lambda": 2, "A": [[1, 0, 0], [0, 1, 0], '
     '[0, 0, %s]], "b": [0, 0, 0]}'),
    ("transform", "b", '{"lambda": 2, "A": [[1, 0, 0], [0, 1, 0], '
     '[0, 0, 1]], "b": [0, %s, 0]}'),
]


@pytest.mark.parametrize("command, field, doc", NUMBER_SLOTS,
                         ids=[f"{c}-{f}" for c, f, _ in NUMBER_SLOTS])
def test_json_numbers_refuse_strings_booleans_and_nulls(command, field, doc,
                                                        data_dir, tmp_path,
                                                        capsys):
    path = tmp_path / "in.json"
    argv = {"synthesize": ["synthesize", "--input", str(path),
                           "--output", str(tmp_path / "out.csv")],
            "transform": ["transform", "--input", str(data_dir / "helix.csv"),
                          "--input-b", str(path),
                          "--output", str(tmp_path / "out.csv")]}[command]
    path.write_text(doc % "1")
    assert main(argv) == 0
    capsys.readouterr()
    for bad in ('"1"', "true", "null"):
        path.write_text(doc % bad)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert re.search(rf"\b{field} must (be a number|hold numbers only)", err)


def test_focal_command(data_dir, tmp_path, capsys):
    rc, out = run(capsys, "focal", "--input", str(data_dir / "helix.csv"),
                  "--samples", "800", "--output", str(tmp_path / "h"))
    assert rc == 0
    info = json.loads(out)
    assert abs(info["f_mean"][0] - 25.0 / 3.0) < 1e-6
    assert info["tangent_residual"] < 1e-4
    header = (tmp_path / "h.focal.csv").read_text().splitlines()[0]
    assert header.split(",") == ["s", "f_1", "f_2", "c1", "c2", "c3"]


def test_evolute_command(data_dir, tmp_path, capsys):
    rc, out = run(capsys, "evolute", "--input", str(data_dir / "helix_short.csv"),
                  "--samples", "800", "--phi0", "1.0", "--output", str(tmp_path / "e"))
    assert rc == 0
    info = json.loads(out)
    assert list(info) == ["phi0", "pole_margin", "tangent_residual", "output"]
    assert info["tangent_residual"] < 1e-4
    # the helix (3 cos t, 3 sin t, 4t) has torsion 4/25, so the phase is
    # 1 + 4 (s - s_0) / 25, and the margin is its least |sin| over the
    # kept samples
    s = np.loadtxt(tmp_path / "e.evolute.csv", delimiter=",",
                   skiprows=1)[curves.TRIM:-curves.TRIM, 0]
    phase = 1.0 + 0.16 * (s - s[0])
    assert abs(info["pole_margin"] - np.abs(np.sin(phase)).min()) < 1e-6
    header = (tmp_path / "e.evolute.csv").read_text().splitlines()[0]
    assert header.split(",") == ["s", "m1", "m2", "b1", "b2", "b3"]


def test_evolute_phase_pole_exit(data_dir, capsys):
    # the long helix drives the phase integral past the cotangent pole
    rc, _ = run(capsys, "evolute", "--input", str(data_dir / "helix.csv"),
                "--samples", "800")
    assert rc == 3


def test_command_defaults_are_the_library_defaults():
    # each default has one owner: the parser reads it from the library, and
    # the scale range of random_similarity is a constant of transforms
    parser = cli._build_parser()
    assert parser.parse_args(["evolute", "--input", "x"]).phi0 \
        == inspect.signature(fs.evolute_e3).parameters["phi0"].default
    assert parser.parse_args(["verify", "--input", "x"]).tol == cli.CONTRACT_TOL
    assert list(inspect.signature(fs.random_similarity).parameters) \
        == ["seed", "dimension"]


def test_tangent_check_within_the_contract_exits_0(tmp_path, capsys):
    # the elliptic helix (2 cos t, sin t, t/2), t in [0, 3], meets the
    # tangent-line contract by a factor of 20 or more at every phase
    t = np.linspace(0.0, 3.0, 400)
    path = tmp_path / "ellipse.csv"
    fs.curve_to_csv(fs.SampledCurve(
        3, t, np.column_stack([2.0 * np.cos(t), np.sin(t), t / 2.0])), path)
    out = ["--input", str(path), "--output", str(tmp_path / "o")]
    for argv in (["focal"], *(["evolute", "--phi0", repr(phi0)]
                              for phi0 in (0.6, 1.0, math.pi / 2))):
        rc = main([*argv, *out])
        captured = capsys.readouterr()
        assert (rc, captured.err) == (0, ""), argv
        assert json.loads(captured.out)["tangent_residual"] < 1e-4


def test_tangent_check_past_the_contract_exits_1(data_dir, tmp_path, capsys):
    # the evolute of the short helix at the default phase pi/2 ends 0.13
    # from the pole of its cotangent, and the focal curve of the twisted
    # cubic carries the end error of its field fits: each prints its
    # summary as always, stderr stays empty, and the exit is 1
    t = np.linspace(0.2, 1.5, 2000)
    cubic = tmp_path / "cubic.csv"
    fs.curve_to_csv(fs.SampledCurve(3, t, np.column_stack([t, t * t, t ** 3])),
                    cubic)
    for argv in (["evolute", "--input", str(data_dir / "helix_short.csv")],
                 ["focal", "--input", str(cubic)]):
        rc = main([*argv, "--output", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert (rc, captured.err) == (1, ""), argv
        assert json.loads(captured.out)["tangent_residual"] > cli.CONTRACT_TOL


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


def test_cached_parser_keeps_no_state_between_calls(data_dir, capsys):
    # main builds its parser once per process; each call in a sequence
    # must answer as it would with a parser of its own
    pair = ("match", "--input", str(data_dir / "helix.csv"),
            "--input-b", str(data_dir / "helix_double.csv"),
            "--index", "2", "--samples", "400")
    calls = [("match", "--input", str(data_dir / "helix.csv")),
             (*pair, "--tol", "0.5"), pair, ("--help",)]

    def answers(fresh):
        got = []
        for argv in calls:
            if fresh:
                cli._build_parser.cache_clear()
            rc = main(list(argv))
            got.append((rc, *capsys.readouterr()))
        return got

    fresh = answers(True)
    assert answers(False) == fresh
    assert cli._build_parser() is cli._build_parser()
    (usage, _, err), (tol, out_tol, _), (default, out, _), (help_rc, _, _) = fresh
    assert usage == 2 and "--input-b" in err
    assert tol == default == 0 and help_rc == 0
    assert json.loads(out_tol)["tol"] == 0.5
    assert json.loads(out)["tol"] == signatures.DEFAULT_MATCH_TOL


@pytest.mark.parametrize("value, level", [
    ("debug", logging.DEBUG), ("INFO", logging.INFO),
    # logging.BASIC_FORMAT is an attribute of logging, but not a level
    ("basic_format", None), ("nonsense", None)])
def test_log_variable_takes_level_names_only(value, level, data_dir,
                                             monkeypatch, capsys):
    levels = []
    monkeypatch.setattr(logging, "basicConfig",
                        lambda **kwargs: levels.append(kwargs["level"]))
    monkeypatch.setenv("FRENETSIM_LOG", value)
    assert main(["analyze", "--input", str(data_dir / "helix.csv"),
                 "--samples", "200"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert levels == ([] if level is None else [level])
    assert err == ([] if level else [
        f"warning: FRENETSIM_LOG={value!r} is not a logging level name "
        "(debug, info, warning, error, critical); logging stays off"])


def test_verify_properties_match_invariance_sweep(data_dir, capsys):
    path = str(data_dir / "helix.csv")
    rc, out = run(capsys, "verify", "--input", path, "--trials", "2",
                  "--seed", "4", "--samples", "600")
    assert rc == 0
    cur = fs.arclength_reparam(fs.curve_from_csv(path), 600)
    transforms = [fs.random_similarity(4 + k, 3) for k in range(2)]
    dev = fs.invariance_sweep(cur, transforms)
    assert json.loads(out)["properties"] == {
        name: {str(i): v for i, v in per.items()} for name, per in dev.items()}


def test_verify_evaluates_the_spline_jet_once(tmp_path, monkeypatch, capsys):
    # the similarity images map the base curve's jet, so only the base
    # curve's frames read the spline's derivatives up to order n
    spec = fs.SelfSimilarSpec(dimension=5, index=3, kt=0.2,
                              ktj=(0.9, 0.6, 0.8, 0.7))
    path = tmp_path / "e5.csv"
    fs.curve_to_csv(fs.synthesize_self_similar(spec), path)
    orders = []
    jet = curves._SplineSource.jet

    def counted(self, tq, order):
        orders.append(order)
        return jet(self, tq, order)

    monkeypatch.setattr(curves._SplineSource, "jet", counted)
    rc, _ = run(capsys, "verify", "--input", str(path), "--trials", "3",
                "--samples", "600")
    assert rc == 0
    assert sum(order >= 5 for order in orders) == 1, orders


def test_verify_differentiates_each_apparatus_once(tmp_path, monkeypatch,
                                                   capsys):
    # kt = d(1/Q_i)/ds of every index lives on the one grid s, so the
    # base curve and each of the 3 images take one field_derivative for
    # all their indices (20 calls with one per index)
    spec = fs.SelfSimilarSpec(dimension=5, index=3, kt=0.2,
                              ktj=(0.9, 0.6, 0.8, 0.7))
    path = tmp_path / "e5.csv"
    fs.curve_to_csv(fs.synthesize_self_similar(spec), path)
    calls = []
    derivative = signatures.field_derivative

    def counted(*args, **kwargs):
        calls.append(args[1].shape)
        return derivative(*args, **kwargs)

    monkeypatch.setattr(signatures, "field_derivative", counted)
    rc, out = run(capsys, "verify", "--input", str(path), "--trials", "3",
                  "--samples", "600")
    assert rc == 0
    assert json.loads(out)["degenerate_indices"] == []
    assert calls == [(596, 5)] * 4, calls


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


def test_scaled_curve_runs_or_is_refused_as_out_of_range(tmp_path, capsys):
    # the helix (3 cos t, 3 sin t, 0.6 t) scaled by 10^e: each command exits
    # as it does on the unscaled curve, or exits 2 naming the coordinate
    # extent, where the speed, t(s) or the resampled jet would leave
    # float64 (the squared speeds underflow below 1e-170, which is no
    # cusp); never with NaN arithmetic or a NaN read back from the points
    t = np.linspace(0.0, 4.0 * np.pi, 400)
    helix = np.column_stack([3.0 * np.cos(t), 3.0 * np.sin(t), 0.6 * t])

    def codes(e):
        path = tmp_path / f"h{e}.csv"
        fs.curve_to_csv(fs.SampledCurve(3, t, helix * 10.0 ** e), path)
        common = ["--input", str(path), "--samples", "400"]
        out = ["--output", str(tmp_path / f"o{e}")]
        runs = {"analyze": ["analyze", *common, "--index", "2", *out],
                "match": ["match", *common, "--input-b", str(path), "--index", "2"],
                "verify": ["verify", *common, "--trials", "2"],
                "focal": ["focal", *common, *out],
                "evolute": ["evolute", *common, *out]}
        got = {}
        for name, argv in runs.items():
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got[name] = main(argv)
            err = capsys.readouterr().err
            assert "NaN or Inf" not in err
            if got[name] == 2:
                assert "coordinates spanning" in err and "outside float64" in err
        return got

    unscaled = codes(0)
    for e in (-100, 100):
        assert codes(e) == unscaled
    for e in (-200, -170, -150, -120, 120, 150, 155, 160, 200, 300):
        for name, rc in codes(e).items():
            assert rc in (unscaled[name], 2), (e, name, rc)


def test_t_scaled_curve_runs_or_is_refused_as_out_of_range(tmp_path, capsys):
    # the helix of the test above with its t column scaled by 10^e: the
    # derivatives d^j a/dt^j scale by 10^(-je), so the derivative chain of
    # the position fit, its speed or its jet may leave float64. Each
    # command exits as it does on the unscaled curve, or exits 2 naming
    # the coordinate extent and "outside float64"; never with a traceback
    # or a RuntimeWarning
    u = np.linspace(0.0, 4.0 * np.pi, 400)
    helix = np.column_stack([3.0 * np.cos(u), 3.0 * np.sin(u), 0.6 * u])

    def codes(e):
        path = tmp_path / f"h{e}.csv"
        fs.curve_to_csv(fs.SampledCurve(3, u * 10.0 ** e, helix), path)
        common = ["--input", str(path), "--samples", "400"]
        out = ["--output", str(tmp_path / f"o{e}")]
        runs = {"analyze": ["analyze", *common, "--index", "2", *out],
                "match": ["match", *common, "--input-b", str(path), "--index", "2"],
                "verify": ["verify", *common, "--trials", "2"],
                "focal": ["focal", *common, *out],
                "evolute": ["evolute", *common, *out]}
        got = {}
        for name, argv in runs.items():
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got[name] = main(argv)
            err = capsys.readouterr().err
            if got[name] == 2:
                assert "coordinates spanning" in err and "outside float64" in err
        return got

    unscaled = codes(0)
    for e in (-300, -250, -200, -150, -120, -100, -60, 60, 100, 120, 150,
              200, 300):
        for name, rc in codes(e).items():
            assert rc in (unscaled[name], 2), (e, name, rc)


def test_t_column_far_from_zero_is_refused_as_out_of_range(tmp_path, capsys):
    # 400 helix rows at t = 1e12 + 2 ulp k span 0.0974, which holds fewer
    # float64 values than the arc-length table has points: every command
    # exits 2 on one line naming the offset, the span and the table size
    t0 = 1e12
    u = 2.0 * np.spacing(t0) * np.arange(400)
    path = tmp_path / "far.csv"
    fs.curve_to_csv(fs.SampledCurve(3, t0 + u, fs.helix(1.0, 0.5).jet(u, 0)[0]),
                    path)
    out = ["--output", str(tmp_path / "o")]
    for argv in (["analyze", *out], ["match", "--input-b", str(path)],
                 ["verify"], ["focal", *out], ["evolute", *out]):
        assert main([*argv, "--input", str(path)]) == 2, argv
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert err.startswith("error (BadRange): a parameter span of 0.0974 "
                              "at t = 1e+12 "), err
        assert re.search(r"for the \d+-point arc-length table; subtract an "
                         r"offset from t$", err), err


@pytest.mark.parametrize("e, want", [(-25, 2), (-22, 2), (-20, 0), (0, 0),
                                     (20, 0)])
def test_small_e9_curve_is_refused_as_out_of_range(tmp_path, capsys, e, want):
    # in arc length d^j a/ds^j grows as size^(1 - j), so below a scale of
    # about 1e-21 the squares of this E^9 curve's highest derivatives leave
    # float64 in the frame: a range refusal naming the extent and the order,
    # with no RuntimeWarning on the way
    spec = fs.SelfSimilarSpec(
        9, 2, 0.05879554615818304,
        (0.44724213674813557, 0.8944129198065969, 0.7007720463612888,
         0.9222037050360933, -1.044273858044125, -1.0012522407224957,
         1.1407660843433551, -1.1022755544280192), (0.0, 8.0), 2000)
    cur = fs.synthesize_self_similar(spec)
    path = tmp_path / "e9.csv"
    fs.curve_to_csv(fs.SampledCurve(9, cur.t, cur.points * 10.0 ** e), path)
    for argv in (["analyze", "--index", "2", "--output", str(tmp_path / "o")],
                 ["verify", "--trials", "2"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(argv + ["--input", str(path)])
        out, err = capsys.readouterr()
        assert rc == want, err
        if rc == 2:
            assert err.count("\n") == 1
            assert (f"coordinates spanning 7.79e{e:+03d}" in err
                    and "|d^9a/dt^9| up to" in err and "outside float64" in err)
        elif argv[0] == "analyze":
            assert json.loads(out)["kt_min"] == pytest.approx(spec.kt, rel=1e-4)


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


def test_fitted_line_exits_degenerate(tmp_path, capsys):
    # the spline's second derivative along a raw line in a generic
    # direction is roundoff, so only kappa_1 L against PIVOT_REL catches it
    t = np.linspace(0.0, 1.0, 200)
    path = tmp_path / "line.csv"
    fs.curve_to_csv(fs.SampledCurve(
        3, t, np.outer(t, [0.48, 0.6, 0.64]) + [1.0, 2.0, 3.0]), path)
    for command in (["analyze", "--index", "2"], ["verify"], ["focal"]):
        rc = main(command + ["--input", str(path)])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "(FrameDegenerate): QR pivot 2 collapsed at sample 0 (kappa_1 L=" in err


@pytest.fixture(scope="module")
def edge_csvs(tmp_path_factory, interior_flat_curves):
    """Raw CSVs at the edges of what the pipeline accepts."""
    d = tmp_path_factory.mktemp("edge_data")
    tl = np.linspace(0.0, 1.0, 200)
    tc = np.linspace(0.0, 5.0, 400)
    ti = np.linspace(-1.0, 1.0, 301)
    th = np.linspace(0.0, 4 * np.pi, 2000)
    helix = np.column_stack([3 * np.cos(th), 3 * np.sin(th), 0.6 * th])
    diam = np.linalg.norm(np.ptp(helix, axis=0))
    curves = {
        "axis_line": (tl, np.outer(tl, [1.0, 0.0, 0.0])),
        "clockwise_circle": (tc, np.column_stack([2 * np.cos(tc), -2 * np.sin(tc)])),
        "planar_circle_e3": (tc, np.column_stack([2 * np.cos(tc), 2 * np.sin(tc),
                                                  0.0 * tc])),
        "inflection_e2": (ti, np.column_stack([ti, ti ** 3])),
        "noisy_helix": (th, helix + np.random.default_rng(1).normal(
            0.0, 1e-3 * diam, helix.shape)),
    }
    for name, (t, pts) in curves.items():
        fs.curve_to_csv(fs.SampledCurve(pts.shape[1], t, pts), d / f"{name}.csv")
    for n, cur in interior_flat_curves.items():
        fs.curve_to_csv(cur, d / f"interior_flat_e{n}.csv")
    return d


# exit codes of analyze --index 2, verify and focal on each edge input
EDGE_EXITS = {
    "axis_line": (3, 3, 3),
    "clockwise_circle": (0, 0, 0),
    # kappa_2 vanishes, so the focal recursion stops at f_2
    "planar_circle_e3": (0, 0, 3),
    "inflection_e2": (3, 3, 3),
    # kappa_{n-2} passes through zero, so V_{n-1} reverses
    "interior_flat_e3": (3, 3, 3),
    "interior_flat_e4": (3, 3, 3),
    "noisy_helix": (3, 3, 3),
}


@pytest.mark.parametrize("name", sorted(EDGE_EXITS))
def test_edge_input_exit_codes(edge_csvs, capsys, name):
    path = str(edge_csvs / f"{name}.csv")
    commands = (["analyze", "--index", "2"], ["verify", "--trials", "3"],
                ["focal"])
    for command, want in zip(commands, EDGE_EXITS[name]):
        rc = main(command + ["--input", path, "--samples", "800"])
        err = capsys.readouterr().err
        assert rc == want, (command, err)
        assert err.count("\n") == (rc != 0) and "Traceback" not in err


def test_planar_evolute_phase_zero_exits_degenerate(edge_csvs, capsys):
    # zero torsion freezes the evolute phase at phi0 = 0, a pole of cot
    rc = main(["evolute", "--phi0", "0", "--samples", "800", "--input",
               str(edge_csvs / "planar_circle_e3.csv")])
    err = capsys.readouterr().err
    assert rc == 3 and err.count("\n") == 1 and "Traceback" not in err
    assert ("(CotSingularity): phi0 + integral(kappa_2) reaches or crosses "
            "a multiple of pi at sample 0, s = 0;") in err


@pytest.mark.parametrize("n", (51, 201, 2001))
def test_cusp_between_grid_points_exits_degenerate(tmp_path, capsys, n):
    # ((t - c)^3, (t - c)^4, 0.1 (t - c)^5) stops at t = c; the arc-length
    # table's grid steps over most of these c, so its speed is refined
    # between grid points
    t = np.linspace(0.0, 1.0, n)
    path = tmp_path / "cusp.csv"
    for c in np.random.default_rng(7).uniform(0.3, 0.7, 8):
        u = t - c
        fs.curve_to_csv(fs.SampledCurve(3, t, np.column_stack([u ** 3, u ** 4,
                                                               0.1 * u ** 5])),
                        path)
        rc = main(["analyze", "--index", "2", "--input", str(path),
                   "--output", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 3 and err.count("\n") == 1, (c, err)
        assert f"ZeroSpeed): curve speed vanishes at t = {c:.6g}," in err


@pytest.mark.parametrize("n", (3, 4))
def test_frame_message_names_input_parameter(edge_csvs, capsys, n):
    # kappa_{n-2} vanishes at t = 0; the sample numbers are those of the
    # arc-length grid, the t values are the CSV's own
    rc = main(["analyze", "--index", "2", "--input",
               str(edge_csvs / f"interior_flat_e{n}.csv")])
    err = capsys.readouterr().err
    assert rc == 3 and err.count("\n") == 1
    m = re.search(r"V_\d reverses between samples \d+ and \d+ "
                  r"\(t = (\S+) to (\S+)\)", err)
    assert m, err
    assert abs(float(m[1])) < 0.01 and abs(float(m[2])) < 0.01


def test_transform_only_maps_points(tmp_path, capsys):
    # transform analyses nothing, so inputs that analyze refuses (a fitted
    # line, too few rows for a frame, heavy noise) still map and exit 0
    t = np.linspace(0.0, 1.0, 200)
    t6 = np.linspace(0.0, 5.0, 6)
    th = np.linspace(0.0, 4 * np.pi, 2000)
    helix = np.column_stack([3 * np.cos(th), 3 * np.sin(th), 0.6 * th])
    diam = np.linalg.norm(np.ptp(helix, axis=0))
    inputs = {
        "line": (t, np.outer(t, [0.48, 0.6, 0.64]) + [1.0, 2.0, 3.0]),
        "six_rows": (t6, np.column_stack([3 * np.cos(t6), 3 * np.sin(t6),
                                          0.8 * t6])),
        "noisy_helix": (th, helix + np.random.default_rng(1).normal(
            0.0, 1e-3 * diam, helix.shape)),
    }
    want_T = fs.random_similarity(1, 3)
    for name, (tt, pts) in inputs.items():
        path = tmp_path / f"{name}.csv"
        fs.curve_to_csv(fs.SampledCurve(3, tt, pts), path)
        rc = main(["transform", "--input", str(path), "--seed", "1"])
        out, err = capsys.readouterr()
        assert rc == 0 and err == "", (name, err)
        info = json.loads(out)
        assert list(info) == ["lambda", "A", "b", "output", "transform_json"]
        T = fs.transform_from_json(
            (tmp_path / f"{name}.transform.json").read_text())
        assert T.lam == want_T.lam == info["lambda"]
        assert np.array_equal(T.A, want_T.A) and np.array_equal(T.A, info["A"])
        assert np.array_equal(T.b, want_T.b) and np.array_equal(T.b, info["b"])
        raw = fs.curve_from_csv(path)
        image = fs.curve_from_csv(info["output"])
        assert np.array_equal(image.t, raw.t)
        want = T.lam * raw.points @ T.A.T + T.b
        assert np.abs(image.points - want).max() <= 1e-12 * np.abs(want).max()


SPEC3 = ('"dimension": 3, "index": 2, '
         '"ktj": [0.8320502943378437, 0.5547001962252291]')
TRANSFORM = ["transform", "--input", "{data}/helix.csv", "--input-b",
             "{tmp}/spec.json", "--output", "{tmp}/image.csv"]
EYE3 = '"A": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]'
# a 401-digit integer, past the float range, and nesting past the
# recursion limit
HUGE = "1" + "0" * 400
DEEP = "[" * 100_000


# every value here comes from outside the program: a flag, a spec field or
# a field of a transform JSON
@pytest.mark.parametrize("argv, spec", [
    pytest.param(["transform", "--input", "{data}/helix.csv", "--seed", "-1"],
                 None, id="transform_seed_negative"),
    pytest.param(TRANSFORM, f'"lambda": Infinity, {EYE3}, "b": [0, 0, 0]',
                 id="transform_lambda_inf"),
    pytest.param(TRANSFORM, f'"lambda": 1, {EYE3}, "b": [NaN, 0, 0]',
                 id="transform_b_nan"),
    pytest.param(TRANSFORM, '"lambda": 1, "A": [[Infinity, 0, 0], [0, 1, 0], '
                 '[0, 0, 1]], "b": [0, 0, 0]', id="transform_A_inf"),
    pytest.param(["verify", "--input", "{data}/helix.csv", "--seed", "-3"],
                 None, id="verify_seed_negative"),
    pytest.param(["evolute", "--input", "{data}/helix_short.csv",
                  "--phi0", "nan"], None, id="evolute_phi0_nan"),
    pytest.param(["evolute", "--input", "{data}/helix_short.csv",
                  "--phi0", "inf"], None, id="evolute_phi0_inf"),
    pytest.param(["verify", "--input", "{data}/helix.csv", "--tol", "nan"],
                 None, id="verify_tol_nan"),
    pytest.param(["verify", "--input", "{data}/helix.csv", "--tol", "-1"],
                 None, id="verify_tol_negative"),
    pytest.param(["match", "--input", "{data}/helix.csv", "--input-b",
                  "{data}/helix_double.csv", "--tol", "inf"],
                 None, id="match_tol_inf"),
    pytest.param(["synthesize", "--input", "{tmp}/spec.json"],
                 SPEC3 + ', "kt": NaN', id="spec_kt_nan"),
    pytest.param(["synthesize", "--input", "{tmp}/spec.json"],
                 SPEC3 + ', "kt": Infinity', id="spec_kt_inf"),
    pytest.param(["synthesize", "--input", "{tmp}/spec.json"],
                 '"dimension": 4, "index": 1, "kt": 0.1, "ktj": [1.0, NaN, 0.5]',
                 id="spec_ktj_nan"),
    pytest.param(["synthesize", "--input", "{tmp}/spec.json"],
                 '"dimension": 4, "index": 1, "kt": 0.1, '
                 '"ktj": [1.0, -Infinity, 0.5]', id="spec_ktj_inf"),
    pytest.param(["synthesize", "--input", "{tmp}/spec.json"],
                 SPEC3 + ', "kt": 0.1, "samples": Infinity',
                 id="spec_samples_inf"),
    pytest.param(["synthesize", "--input", "{tmp}/spec.json"],
                 SPEC3 + ', "kt": 0.1, "sigma_range": [0, Infinity]',
                 id="spec_sigma_range_inf"),
    # int() would cut a fraction off an integer field
    pytest.param(["synthesize", "--input", "{tmp}/spec.json"],
                 SPEC3.replace('"dimension": 3', '"dimension": 3.7')
                 + ', "kt": 0.1', id="spec_dimension_fraction"),
    pytest.param(["synthesize", "--input", "{tmp}/spec.json"],
                 SPEC3.replace('"index": 2', '"index": 2.9') + ', "kt": 0.1',
                 id="spec_index_fraction"),
    pytest.param(["synthesize", "--input", "{tmp}/spec.json"],
                 SPEC3 + ', "kt": 0.1, "samples": 2000.5',
                 id="spec_samples_fraction"),
    # finite numbers whose closed form e^{kt sigma} overflows float64
    pytest.param(["synthesize", "--input", "{tmp}/spec.json"],
                 SPEC3 + ', "kt": 0.1, "sigma_range": [0, 10000]',
                 id="spec_overflows"),
    # numpy refuses arrays this large at once, so nothing is allocated
    pytest.param(["analyze", "--input", "{data}/helix.csv",
                  "--samples", "1000000000000000"], None,
                 id="analyze_samples_unallocatable"),
    pytest.param(["match", "--input", "{data}/helix.csv", "--input-b",
                  "{data}/helix_double.csv", "--samples", "1000000000000000"],
                 None, id="match_samples_unallocatable"),
    pytest.param(["verify", "--input", "{data}/helix.csv",
                  "--samples", "1000000000000000"], None,
                 id="verify_samples_unallocatable"),
    # counts past numpy's size limit, which it would meet with ValueError
    pytest.param(["analyze", "--input", "{data}/helix.csv",
                  "--samples", "100000000000000000000"], None,
                 id="analyze_samples_unsizable"),
    pytest.param(["match", "--input", "{data}/helix.csv", "--input-b",
                  "{data}/helix_double.csv",
                  "--samples", "100000000000000000000"],
                 None, id="match_samples_unsizable"),
    pytest.param(["verify", "--input", "{data}/helix.csv",
                  "--samples", "100000000000000000000"], None,
                 id="verify_samples_unsizable"),
    pytest.param(["focal", "--input", "{data}/helix.csv",
                  "--samples", "100000000000000000000"], None,
                 id="focal_samples_unsizable"),
    pytest.param(["evolute", "--input", "{data}/helix_short.csv",
                  "--samples", "100000000000000000000"], None,
                 id="evolute_samples_unsizable"),
    pytest.param(["synthesize", "--input", "{tmp}/spec.json"],
                 SPEC3 + ', "kt": 0.1, "samples": 1e300',
                 id="spec_samples_unsizable"),
    # integers that float() cannot hold, and documents json.loads cannot
    # descend
    pytest.param(["analyze", "--input", "{data}/helix.csv",
                  "--samples", HUGE], None, id="analyze_samples_huge"),
    pytest.param(["match", "--input", "{data}/helix.csv", "--input-b",
                  "{data}/helix_double.csv", "--samples", HUGE],
                 None, id="match_samples_huge"),
    pytest.param(["verify", "--input", "{data}/helix.csv",
                  "--samples", HUGE], None, id="verify_samples_huge"),
    pytest.param(["focal", "--input", "{data}/helix.csv",
                  "--samples", HUGE], None, id="focal_samples_huge"),
    pytest.param(["evolute", "--input", "{data}/helix_short.csv",
                  "--samples", HUGE], None, id="evolute_samples_huge"),
    pytest.param(TRANSFORM, f'"lambda": {HUGE}, {EYE3}, "b": [0, 0, 0]',
                 id="transform_lambda_huge"),
    pytest.param(TRANSFORM, f'"lambda": 1, "A": [[{HUGE}, 0, 0], [0, 1, 0], '
                 '[0, 0, 1]], "b": [0, 0, 0]', id="transform_A_huge"),
    pytest.param(TRANSFORM, f'"lambda": 1, {EYE3}, "b": [0, {HUGE}, 0]',
                 id="transform_b_huge"),
    pytest.param(TRANSFORM, f'"lambda": 1, "A": {DEEP}',
                 id="transform_nested_deep"),
    pytest.param(["synthesize", "--input", "{tmp}/spec.json"],
                 f'"dimension": {DEEP}', id="spec_nested_deep"),
])
def test_out_of_range_value_exits_usage(data_dir, tmp_path, capsys, argv, spec):
    if spec is not None:
        (tmp_path / "spec.json").write_text("{" + spec + "}\n")
    rc = main([a.format(data=data_dir, tmp=tmp_path) for a in argv])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err, err


# flag values a user can type: negative, zero, non-finite and fractional
FUZZ_VALUES = ("-1", "0", "0.5", "1", "3", "nan", "inf", "-inf")
# the options each command takes a fuzzed value for; for synthesize, the
# spec fields
FUZZ_FLAGS = {
    "analyze": ("--index", "--samples"),
    "transform": ("--seed",),
    "match": ("--index", "--tol", "--samples"),
    "synthesize": ("kt", "ktj", "samples", "sigma_range"),
    "focal": ("--samples",),
    "evolute": ("--phi0", "--samples"),
    "verify": ("--seed", "--trials", "--tol", "--samples"),
}
# defaults that keep one call short, unless the flag itself is fuzzed
FUZZ_DEFAULTS = {"--samples": "300", "--trials": "2"}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    for rows in (5, 30, 200):
        t = np.linspace(0.0, 1.8, rows)
        fs.curve_to_csv(fs.builtin_evaluate(
            fs.helix(3.0, 4.0, t_span=(0.0, 1.8)), t), d / f"helix{rows}.csv")
    return d


@st.composite
def cli_calls(draw):
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    flags = draw(st.lists(st.sampled_from(FUZZ_FLAGS[command]),
                          min_size=1, max_size=2, unique=True))
    values = {f: draw(st.sampled_from(FUZZ_VALUES)) for f in flags}
    return command, values, draw(st.sampled_from((5, 30, 200)))


def _fuzz_argv(d, command, values, rows):
    if command == "synthesize":
        # json.dumps writes NaN, Infinity and -Infinity, and json.loads
        # reads them back
        v = {k: json.dumps(float(x)) for k, x in values.items()}
        path = d / "spec.json"
        path.write_text(
            f'{{"dimension": 3, "index": 2, "kt": {v.get("kt", "-0.05")}, '
            f'"ktj": [{v.get("ktj", "0.8320502943378437")}, '
            f'0.5547001962252291], "samples": {v.get("samples", "400")}, '
            f'"sigma_range": [0.0, {v.get("sigma_range", "4.0")}]}}')
        return ["synthesize", "--input", str(path),
                "--output", str(d / "out.csv")]
    argv = [command, "--input", str(d / f"helix{rows}.csv")]
    for flag, default in FUZZ_DEFAULTS.items():
        if flag in FUZZ_FLAGS[command] and flag not in values:
            argv += [flag, default]
    for flag, value in values.items():
        argv.append(f"{flag}={value}")
    if command == "match":
        argv += ["--input-b", str(d / f"helix{rows}.csv")]
    if command not in ("match", "verify"):
        argv += ["--output", str(d / "out")]
    return argv


@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cli_calls())
def test_cli_fuzz_exit_codes(fuzz_dir, capsys, call):
    # NaN arithmetic anywhere on the path, numpy's own included, raises
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(_fuzz_argv(fuzz_dir, *call))
    out, err = capsys.readouterr()
    assert rc in (0, 1, 2, 3)
    assert bool(err) == (rc >= 2) and "Traceback" not in err
    if rc == 0:
        assert "NaN" not in out and "Infinity" not in out
