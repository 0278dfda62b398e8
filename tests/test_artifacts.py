"""CSV cell tokens, the column CSV writer, and the JSON values a run writes."""

import math

import numpy as np
import pytest

from barrier_lab import InvalidParameterError, builtin_scenario, validate_config
from barrier_lab.artifacts import json_dumps, write_csv
from barrier_lab.cli import ScenarioRun
from conftest import reference_cell, reference_csv


# (column, its tokens): a column's dtype fixes its cell format
COLUMNS = [
    (np.array([math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, 0.1, -3.0]),
     ["nan", "nan", "inf", "-inf", "-0", "0", "4.9406564584124654e-324",
      "1.0000000000000001e+300", "0.10000000000000001", "-3"]),
    (np.array([0.1], dtype=np.float32), ["0.10000000149011612"]),
    (np.array([7, -2, -1]), ["7", "-2", "-1"]),
    (np.array(["converged-to(0;0)", "", "a%sb,%d"]), ["converged-to(0;0)", "", "a%sb,%d"]),
]


def test_cell_tokens_are_pinned_and_match_the_reference(tmp_path):
    for i, (column, tokens) in enumerate(COLUMNS):
        path = tmp_path / ("column-%d.csv" % i)
        write_csv(str(path), ["c"], [column])
        assert path.read_text().splitlines() == ["c", *tokens], i
        assert [reference_cell(value) for value in column] == tokens, i


def test_columns_are_byte_identical_to_the_reference(tmp_path):
    # a float, an int and a str column with a tuple of str, as roa.csv passes its labels
    floats = np.array([0.5, -0.0, math.nan, math.inf, 1e-310, 1.0])
    ints = np.array([3, -1, 0, 2 ** 62, -2 ** 63, 4])
    labels = ("label", "a%sb,%d", "", "max-time", "converged-to(3;0)", "x")
    path = tmp_path / "sub" / "columns.csv"
    write_csv(str(path), ["a", "b", "c"], [floats, ints, labels])
    assert path.read_text() == reference_csv(["a", "b", "c"], [floats, ints, labels])


def test_empty_rows_write_the_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(str(path), ["x1", "x2", "label"], [np.zeros(0), np.zeros(0), np.array([], str)])
    assert path.read_bytes() == b"x1,x2,label\n"


# case: (call on a path, message). JSON takes None, bool, int, float, complex,
# str, and dicts with string keys, lists and tuples of those, and nothing else;
# CSV takes one float, int or str column per header name, all of one length
RAISES = {
    "int-key": (lambda path: json_dumps({1: 2}), "JSON object keys must be strings, got 1"),
    "object": (lambda path: json_dumps(object()), "cannot serialize 'object' to JSON"),
    "numpy-int": (lambda path: json_dumps([np.int64(3)]), "cannot serialize 'int64' to JSON"),
    "csv-column-count": (lambda path: write_csv(path, ["x1", "x2"], [np.zeros(2)]),
                         "CSV header has 2 columns, got 1"),
    "csv-unequal-lengths": (lambda path: write_csv(path, ["x1", "x2"], [np.zeros(2), np.zeros(3)]),
                            "CSV columns differ in length: [2, 3]"),
    "csv-bool-column": (lambda path: write_csv(path, ["masked"], [np.array([True, False])]),
                        "cannot write CSV column 'masked' of dtype bool"),
    "csv-object-column": (lambda path: write_csv(path, ["n"], [[2 ** 64, 1]]),
                          "cannot write CSV column 'n' of dtype object"),
}


@pytest.mark.parametrize("case", RAISES)
def test_each_raise_names_what_failed(case, tmp_path):
    call, message = RAISES[case]
    path = tmp_path / "raised.csv"
    with pytest.raises(InvalidParameterError) as excinfo:
        call(str(path))
    assert type(excinfo.value) is InvalidParameterError and str(excinfo.value) == message
    assert not path.exists()


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
