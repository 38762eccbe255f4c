"""The README's python blocks run as written and print what they say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    ns = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), ns)
    capsys.readouterr()
    # quickstart: kt vanishes on a helix, and at index 2 kt_1 is
    # kappa_1 / hypot(kappa_1, kappa_2) = 0.12 / 0.2
    sig, res, T = ns["sig"], ns["res"], ns["T"]
    assert abs(sig.kt).max() < 1e-9
    assert abs(sig.ktj[0].mean() - 0.6) < 1e-9
    assert res.is_similar
    assert abs(res.lambda_est / T.lam - 1.0) < 1e-9
