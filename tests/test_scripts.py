"""Smoke runs of the scripts in scripts/, on small inputs."""

import importlib.util
import re
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
# a number in e-notation, as the scripts print their deviations
DEVIATION = re.compile(r"\d\.\d+e[+-]\d+")


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def deviations(text):
    return [float(v) for v in DEVIATION.findall(text)]


def test_invariance_sweep_script(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    rc = load("invariance_sweep").main(
        ["--curve", "helix", "--trials", "2", "--samples", "400",
         "--csv", str(out_csv)])
    assert rc == 0
    devs = deviations(capsys.readouterr().out)
    assert len(devs) == 9 and max(devs) < 1e-3
    lines = out_csv.read_bytes().split(b"\n")
    assert lines[0] == b"index,sigma_dev,shape_dev,kappa_g_dev"
    assert len(lines) == 5 and lines[-1] == b"" and b"\r" not in lines[1]


def test_selfsimilar_gallery_script(tmp_path, capsys):
    rc = load("selfsimilar_gallery").main(
        ["--samples", "300", "--outdir", str(tmp_path)])
    assert rc == 0
    devs = deviations(capsys.readouterr().out)
    assert len(devs) == 2 * 12 + 1 and max(devs) < 1e-3
    written = sorted(tmp_path.glob("selfsim_*.csv"))
    assert len(written) == 12
    assert written[0].read_text().startswith("t,x1,x2\n")


def test_selfsimilar_gallery_oracle(capsys):
    # --oracle asserts that every closed-form curve matches its oracle
    rc = load("selfsimilar_gallery").main(["--samples", "300", "--oracle"])
    assert rc == 0
    devs = deviations(capsys.readouterr().out)
    assert len(devs) == 3 * 12 + 1 and max(devs) < 1e-3
