"""Float texts, and JSON text output laid out from them.

float_texts is the one float format of every artifact: it turns a float
array into the %.17g text of each value in a single %-format pass, so
files are reproducible byte-for-byte and round-trip through float()
without loss. A CSV table joins the texts of a row with ","
(curves._write_texts). render lays out texts wrapped as FloatTexts as a
JSON array joined with ", ", after spelling -0 as -0.0 (json.loads reads
"-0" as the int 0) and nan, inf, -inf as the json module's NaN,
Infinity, -Infinity, which json.loads accepts back. A float or a float
array given to render takes the same two steps, so a caller that formats
a column once and writes it into both a CSV table and a JSON document
gets the bytes that formatting it for each would give.
"""

from __future__ import annotations

import json

import numpy as np

_JSON_SPELLING = {"-0": "-0.0", "nan": "NaN", "inf": "Infinity",
                  "-inf": "-Infinity"}


def float_texts(a):
    """The %.17g text of every value of a float array, nested as a.tolist().

    One %-format over all the values, split at the separators; a float
    or a 0-d array gives one text.
    """
    a = np.asarray(a, dtype=float)
    flat = a.ravel().tolist()
    texts = ("%.17g," * len(flat) % tuple(flat)).split(",")[:-1]
    if a.ndim == 1:
        return texts
    return np.array(texts, dtype=object).reshape(a.shape).tolist()


class FloatTexts(list):
    """float_texts of an array, which render lays out as its JSON array."""


def _json_floats(texts) -> str:
    """JSON text of float_texts output: one number, or arrays nested alike."""
    if isinstance(texts, str):
        return _JSON_SPELLING.get(texts, texts)
    if texts and not isinstance(texts[0], str):
        return "[" + ", ".join(map(_json_floats, texts)) + "]"
    return "[" + ", ".join(map(_JSON_SPELLING.get, texts, texts)) + "]"


def render(obj) -> str:
    """Compact JSON text for nested dicts/lists/arrays/scalars."""
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)) or (
            isinstance(obj, np.ndarray) and obj.dtype.kind == "f"):
        return _json_floats(float_texts(obj))
    if isinstance(obj, FloatTexts):
        return _json_floats(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
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
