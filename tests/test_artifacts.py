"""CSV cell tokens and the streaming CSV writer."""

import math

import numpy as np

from barrier_lab.artifacts import _csv_cell, fmt_float, write_csv


def reference_cell(value) -> str:
    """The cell rendering the '%.17g' fast path replaced, kept as the reference."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if np.isnan(v):
        return "nan"
    if np.isinf(v):
        return "inf" if v > 0 else "-inf"
    return fmt_float(v)


CELLS = [
    (math.nan, "nan"),
    (-math.nan, "nan"),
    (np.float64("nan"), "nan"),
    (np.float32("-nan"), "nan"),
    (math.inf, "inf"),
    (-math.inf, "-inf"),
    (np.float64("-inf"), "-inf"),
    (np.float32("inf"), "inf"),
    (-0.0, "-0"),
    (0.0, "0"),
    (5e-324, "4.9406564584124654e-324"),
    (1e300, "1.0000000000000001e+300"),
    (0.1, "0.10000000000000001"),
    (np.float64(0.1), "0.10000000000000001"),
    (np.float32(0.1), "0.10000000149011612"),
    (-3.0, "-3"),
    (True, "true"),
    (False, "false"),
    (np.bool_(True), "true"),
    (np.bool_(False), "false"),
    (7, "7"),
    (-2, "-2"),
    (np.int64(-3), "-3"),
    (np.int32(12), "12"),
    (np.uint8(255), "255"),
    ("converged-to(0;0)", "converged-to(0;0)"),
    ("", ""),
]


def test_cell_tokens_are_pinned_and_match_the_reference():
    for value, token in CELLS:
        assert _csv_cell(value) == token, (value, token)
        assert reference_cell(value) == token, (value, token)


def test_streamed_rows_are_byte_identical_to_the_reference(tmp_path):
    values = [value for value, _ in CELLS]
    rows = [values[i:i + 3] for i in range(0, len(values), 3)]
    path = tmp_path / "sub" / "cells.csv"
    # a generator of tuples, as the CLI's zip of columns hands over
    write_csv(str(path), ["a", "b", "c"], (tuple(row) for row in rows))
    expected = "a,b,c\n" + "".join(",".join(reference_cell(v) for v in row) + "\n"
                                   for row in rows)
    assert path.read_bytes() == expected.encode("utf-8")


def test_empty_rows_write_the_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(str(path), ["x1", "x2", "label"], iter(()))
    assert path.read_bytes() == b"x1,x2,label\n"
