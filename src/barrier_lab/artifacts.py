"""Deterministic JSON/CSV artifact writers.

Floats are rendered with '%.17g' (round-trips every float64), keys keep
insertion order and arrays keep element order, so rerunning a task writes
byte-identical files. Non-finite floats become null in JSON and nan/inf
tokens in CSV. Complex values are written as {"re": ..., "im": ...}.
"""

import json
import os
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import InvalidParameterError

JsonValue = Union[None, bool, int, float, str, complex, dict, list, tuple]

FLOAT_FORMAT = "%.17g"
JSON_INDENT = 2
COLUMN_GAP = "  "


def fmt_float(value: float) -> str:
    """Fixed 17-significant-digit rendering of a finite float."""
    return FLOAT_FORMAT % float(value)


def _render(value: JsonValue, out: list, level: int) -> None:
    pad = " " * (JSON_INDENT * level)
    inner = " " * (JSON_INDENT * (level + 1))
    if value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(str(int(value)))
    elif isinstance(value, float):
        v = float(value)
        out.append(fmt_float(v) if np.isfinite(v) else "null")
    elif isinstance(value, complex):
        _render({"re": float(value.real), "im": float(value.imag)}, out, level)
    elif isinstance(value, str):
        out.append(json.dumps(value, ensure_ascii=False))
    elif isinstance(value, dict):
        out.append("{\n")
        items = list(value.items())
        for i, (key, item) in enumerate(items):
            if not isinstance(key, str):
                raise InvalidParameterError("JSON object keys must be strings, got %r" % (key,))
            out.append(inner)
            out.append(json.dumps(key, ensure_ascii=False))
            out.append(": ")
            _render(item, out, level + 1)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        seq = list(value)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(seq):
            out.append(inner)
            _render(item, out, level + 1)
            out.append(",\n" if i + 1 < len(seq) else "\n")
        out.append(pad + "]")
    else:
        raise InvalidParameterError("cannot serialize %r to JSON" % (type(value).__name__,))


def json_dumps(value: JsonValue) -> str:
    out: list = []
    _render(value, out, 0)
    return "".join(out) + "\n"


def write_json(path: str, value: JsonValue) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(json_dumps(value))


def _csv_cell(value) -> str:
    # '%.17g' renders nan (of either sign), inf and -inf as those tokens
    if isinstance(value, float):
        return FLOAT_FORMAT % value
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return FLOAT_FORMAT % float(value)


# the _csv_cell token of a cell of exactly this type, as a % conversion
_CELL_FORMATS = {float: FLOAT_FORMAT, int: "%d", str: "%s"}


def _csv_line(row: Sequence) -> str:
    return ",".join(map(_csv_cell, row)) + "\n"


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write rows as they come, one line each; rows may be any iterable.

    The first row's cell types fix one line format when each is exactly
    float, int or str: a row of those same types is rendered by one %
    operation, with the tokens _csv_cell gives. Any other row, and every
    row when the first holds another type (bool, numpy scalars), is
    rendered cell by cell.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        rows = iter(rows)
        first = next(rows, None)
        if first is None:
            return
        handle.write(_csv_line(first))
        types = tuple(map(type, first))
        if not all(t in _CELL_FORMATS for t in types):
            handle.writelines(map(_csv_line, rows))
            return
        line = ",".join(_CELL_FORMATS[t] for t in types) + "\n"
        handle.writelines(line % tuple(row) if tuple(map(type, row)) == types
                          else _csv_line(row) for row in rows)


def write_text(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text if text.endswith("\n") else text + "\n")


def table(lines: Sequence[Sequence[str]]) -> str:
    """Align a nonempty list of string rows into fixed-width columns."""
    widths = [max(len(row[i]) for row in lines) for i in range(len(lines[0]))]
    out = []
    for row in lines:
        out.append(COLUMN_GAP.join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    return "\n".join(out)

