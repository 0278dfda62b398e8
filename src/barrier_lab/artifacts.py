"""Deterministic JSON/CSV artifact writers.

Floats are rendered with '%.17g' (round-trips every float64), keys keep
insertion order and arrays keep element order, so rerunning a task writes
byte-identical files. Non-finite floats become null in JSON and nan/inf
tokens in CSV. Complex values are written as {"re": ..., "im": ...}.
"""

import json
import os
from typing import Sequence, Union

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


# the cell format of a column, by its dtype kind: float, signed int, str
_COLUMN_FORMATS = {"f": FLOAT_FORMAT, "i": "%d", "U": "%s"}


def write_csv(path: str, header: Sequence[str], columns: Sequence) -> None:
    """Write one line per row from one array per column.

    A column's dtype fixes its cell format once: a float column is written
    with '%.17g' (nan of either sign, inf and -inf as those tokens), an int
    column in decimal and a str column as it is, unquoted. Any other dtype
    (bool, object, ...) raises InvalidParameterError, as do a column count
    other than the header's and columns of unequal length.
    """
    columns = [np.asarray(column) for column in columns]
    if len(columns) != len(header):
        raise InvalidParameterError("CSV header has %d columns, got %d"
                                    % (len(header), len(columns)))
    if len({len(column) for column in columns}) > 1:
        raise InvalidParameterError("CSV columns differ in length: %s"
                                    % [len(column) for column in columns])
    for name, column in zip(header, columns):
        if column.dtype.kind not in _COLUMN_FORMATS:
            raise InvalidParameterError("cannot write CSV column %r of dtype %s"
                                        % (name, column.dtype))
    line = ",".join(_COLUMN_FORMATS[column.dtype.kind] for column in columns) + "\n"
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(line % row for row in zip(*(column.tolist() for column in columns)))


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

