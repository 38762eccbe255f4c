"""JSON text output with a fixed float format.

Every float is rendered as %.17g so that files are reproducible
byte-for-byte and round-trip through float() without loss. Non-finite
values follow the json module's own spelling (Infinity, NaN), which
json.loads accepts back. A float array is rendered a row at a time: one
join over the formatted values of each 1-d row, with no call of render
per element.
"""

from __future__ import annotations

import json
import math

import numpy as np


def _float_text(v: float) -> str:
    if math.isnan(v):
        return "NaN"
    if math.isinf(v):
        return "Infinity" if v > 0 else "-Infinity"
    return f"{v:.17g}"


def render(obj) -> str:
    """Compact JSON text for nested dicts/lists/arrays/scalars."""
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _float_text(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "f" and obj.ndim:
        if obj.ndim == 1:
            return "[" + ", ".join(map(_float_text, obj.tolist())) + "]"
        return "[" + ", ".join(render(row) for row in obj) + "]"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(render(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(
            f"{json.dumps(str(k))}: {render(v)}" for k, v in obj.items()
        ) + "}"
    raise TypeError(f"cannot render {type(obj).__name__} as JSON")


def dump_pretty(obj: dict) -> str:
    """One top-level key per line; nested values stay compact."""
    lines = [f"  {json.dumps(str(k))}: {render(v)}" for k, v in obj.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"
