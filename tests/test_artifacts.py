"""CSV cell tokens, the streaming CSV writer, and the JSON values a run writes."""

import math

import numpy as np
import pytest

from barrier_lab import InvalidParameterError, builtin_scenario, validate_config
from barrier_lab.artifacts import _csv_cell, fmt_float, json_dumps, write_csv
from barrier_lab.cli import ScenarioRun


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


def test_row_format_is_byte_identical_to_the_cell_join(tmp_path):
    # the rows the CLI writes are float/int/str tuples: one % format per row,
    # fixed by the first row; any other row goes cell by cell
    big = 2 ** 63 + 7
    rows = [
        (0.5, -0.0, math.nan, 3, "label"),
        (math.inf, -math.inf, -math.nan, big, "a%sb,%d"),
        (1e-310, 0.1, -0.0, -big, ""),
        (1.0, 2.0, 3.0, True, "bool in an int column"),
        (np.float64(0.25), 2.0, 3.0, 4, "numpy float in a float column"),
        [1.5, 2.5, 3.5, 4, "a list row"],
        (1.0, 2, 3.0, 4, "an int in a float column"),
        (1.0, 2.0, 3.0, 4.0, "a float in an int column"),
        ("x", 2.0, 3.0, 4, "a str in a float column"),
        (1.0, 2.0, 3.0, 4),
        (1.0, 2.0, 3.0, 4, "five", "six"),
    ]
    leading = [
        [(True, 1.0, 2), (False, 2.0, 3), (1.0, 2.0, 3)],        # bool first: every row by cell
        [(np.float64(1.0), 1.0, 2), (1.0, 2.0, 3), (np.int64(-1), math.nan, 5)],
        [(), ()],
    ]
    for i, case in enumerate([rows] + leading):
        path = tmp_path / ("rows-%d.csv" % i)
        write_csv(str(path), ["h"], iter(case))
        expected = "h\n" + "".join(",".join(map(_csv_cell, row)) + "\n" for row in case)
        assert path.read_bytes() == expected.encode("utf-8"), i


# case: (value, message); JSON takes None, bool, int, float, complex, str, and
# dicts with string keys, lists and tuples of those, and nothing else
RAISES = {
    "int-key": ({1: 2}, "JSON object keys must be strings, got 1"),
    "object": (object(), "cannot serialize 'object' to JSON"),
    "numpy-int": ([np.int64(3)], "cannot serialize 'int64' to JSON"),
}


@pytest.mark.parametrize("case", RAISES)
def test_each_raise_names_what_failed(case):
    value, message = RAISES[case]
    with pytest.raises(InvalidParameterError) as excinfo:
        json_dumps(value)
    assert type(excinfo.value) is InvalidParameterError and str(excinfo.value) == message


def test_a_run_without_equilibria_writes_an_empty_array(tmp_path):
    # fig3's plant under a rotation gain: its one equilibrium, the origin,
    # is inside the ball, so the run finds none
    data = builtin_scenario("fig3").to_json_dict()
    data["system"]["K"] = [[0, -1], [1, 0]]
    data["cbfs"][0]["center"] = [0, 0]
    run = ScenarioRun(validate_config(data), out_dir=str(tmp_path))
    assert run.run() == 0
    assert (tmp_path / "equilibria.json").read_bytes() == (
        b'{\n  "scenario": "fig3",\n  "controller": "safety-filter",\n  "reports": []\n}\n')
