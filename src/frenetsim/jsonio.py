"""Float texts, and JSON text output laid out from them.

format_rows holds the one float format of every artifact, %.17g, so
files are reproducible byte-for-byte and round-trip through float()
without loss: it writes rows of ","-separated cells in a single
%-format pass, each cell either a float, given its %.17g text, or a text
formatted before, which goes in as it is. A CSV table is one such pass
per block of rows (curves._write_table); float_texts is one such pass
over an array with "," ending each value, split into the text of each.
render lays out texts wrapped as FloatTexts as a JSON array joined with
", ", after spelling -0 as -0.0 (json.loads reads "-0" as the int 0) and
nan, inf, -inf as the json module's NaN, Infinity, -Infinity, which
json.loads accepts back; the spelling is looked up only for an array
that holds such a text. A float or a float array given to render takes
the same two steps, so a caller that formats a column once and writes it
into both a CSV table and a JSON document gets the bytes that formatting
it for each would give. json_int reads an integer field of a parsed
document and refuses a fraction or a boolean; json_float and json_floats
read a number or nested arrays of numbers and refuse a string, a
boolean or a null, which float() and np.array would take. MALFORMED
holds what json.loads and these readers raise on a malformed document;
each document reader (transform, signature, self-similar spec) turns it
into BadParameters.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import BadParameters

# a missing key, a wrong type or value, an integer past the float range,
# or nesting deeper than the recursion limit
MALFORMED = (KeyError, TypeError, ValueError, OverflowError, RecursionError)

_JSON_SPELLING = {"-0": "-0.0", "nan": "NaN", "inf": "Infinity",
                  "-inf": "-Infinity"}


def format_rows(text_cells, values, rows: int, end: str = "\n") -> str:
    """Text of rows of ","-separated cells, each row ending with end.

    text_cells holds a flag per cell of a row: True for a text that goes
    in as it is, False for a float that goes in as its %.17g text. values
    lists the cells of all rows, row after row; one %-operation formats
    them.
    """
    row = ",".join("%s" if t else "%.17g" for t in text_cells) + end
    return row * rows % tuple(values)


def float_texts(a):
    """The %.17g text of every value of a float array, nested as a.tolist().

    One format_rows pass over all the values, split at the separators; a
    float or a 0-d array gives one text.
    """
    a = np.asarray(a, dtype=float)
    flat = a.ravel().tolist()
    texts = format_rows((False,), flat, len(flat), ",").split(",")[:-1]
    if a.ndim == 1:
        return texts
    return np.array(texts, dtype=object).reshape(a.shape).tolist()


def json_int(value, name: str) -> int:
    """The JSON value of the field name as an int, refusing a fraction.

    int() alone would read 3.7 as 3 and true as 1; an integral float such
    as 3.0 passes.
    """
    n = int(value)
    if n != value or isinstance(value, bool):
        raise BadParameters(f"{name} must be an integer, got {value!r}")
    return n


def json_float(value, name: str) -> float:
    """The JSON number of the field name as a float."""
    if type(value) not in (int, float):
        raise BadParameters(f"{name} must be a number, got {value!r}")
    return float(value)


def json_floats(value, name: str) -> np.ndarray:
    """A JSON number or nested arrays of numbers as a float array.

    Every value at every depth must be a number: float() would read "2"
    as 2.0 and true as 1.0. Ragged arrays raise ValueError from np.array.
    """
    values = [value]
    for v in values:  # the loop also visits the items it appends
        if type(v) is list:
            values.extend(v)
        elif type(v) not in (int, float):
            raise BadParameters(f"{name} must hold numbers only, got {v!r}")
    return np.array(value, dtype=float)


class FloatTexts(list):
    """float_texts of an array, which render lays out as its JSON array."""


def _json_text(texts) -> str:
    """JSON text of float_texts output: one number, or arrays nested alike."""
    if isinstance(texts, str):
        return _JSON_SPELLING.get(texts, texts)
    if texts and not isinstance(texts[0], str):
        return "[" + ", ".join(map(_json_text, texts)) + "]"
    body = ", ".join(texts)
    # only nan and inf hold an "n", and only -0 ends in "-0" (an exponent
    # has two digits at least), so most arrays need no spelling lookup
    if "n" in body or "-0, " in body or body.endswith("-0"):
        body = ", ".join(map(_JSON_SPELLING.get, texts, texts))
    return "[" + body + "]"


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
        return _json_text(float_texts(obj))
    if isinstance(obj, FloatTexts):
        return _json_text(obj)
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
