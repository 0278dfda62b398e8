"""Golden `roa` labels: write them from the current tree, or check the tree against them.

    python tests/roa_label_gate.py write   # rewrite both label files from src/
    python tests/roa_label_gate.py check   # compare the 41x41 grids, exit 1 on a mismatch

`tests/data/roa_labels.json` holds the label tuples that Tier-1 asserts
(tests/test_acceptance.py): TestBasinShift's two 13x13 grids at t_final = 20
and fig3's grid at t_final = 2 and 5. `tests/data/roa_labels_41.json` holds
41x41 grids of fig3, fig3-h2a1 and fig2 at t_final in {2, 5, 20}, each node as
one character that indexes the case's legend; the attractors there are every
equilibrium the scenario run finds, saddles included. The check takes about
half a minute, so it runs as its own CI step, outside Tier-1. Needs numpy and
the barrier_lab package on the path (PYTHONPATH=src).
"""

import json
import string
import sys
import time
from pathlib import Path

import numpy as np

from barrier_lab import (build_clf, build_controller, build_model, build_pairs,
                         builtin_scenario, find_boundary_equilibria,
                         find_interior_equilibria, roa_grid)
from barrier_lab.equilibria import state_sort_key

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "roa_labels.json"
GATE = DATA / "roa_labels_41.json"

BASIN_BOX = ((0.5, 4.5), (-2.0, 2.0))       # TestBasinShift's grid
BASIN_ATTRACTORS = ((0.0, 0.0), (3.0, 0.0))
BOXES = {"fig3": BASIN_BOX, "fig3-h2a1": BASIN_BOX, "fig2": ((-2.5, 2.5), (1.0, 7.0))}
DT = 1e-3
CODES = string.digits + string.ascii_letters


def controller(name: str):
    config = builtin_scenario(name)
    return build_controller(config, build_model(config), build_pairs(config), build_clf(config))


def equilibria(loop):
    """Every equilibrium a scenario run finds, in the run's order (cli.run_roa's attractors)."""
    reports = find_boundary_equilibria(loop) + find_interior_equilibria(loop)
    return [r.x_star for r in sorted(reports, key=lambda r: state_sort_key(r.x_star))]


def golden_cases():
    """(key, scenario, t_final) of the Tier-1 label file."""
    return [("fig3@20", "fig3", 20.0), ("fig3-h2a1@20", "fig3-h2a1", 20.0),
            ("fig3@2", "fig3", 2.0), ("fig3@5", "fig3", 5.0)]


def gate_cases():
    return [("%s@%g" % (name, t), name, t) for name in BOXES for t in (2.0, 5.0, 20.0)]


def golden_labels(name: str, t_final: float):
    attractors = [np.array(a) for a in BASIN_ATTRACTORS]
    return roa_grid(controller(name), BASIN_BOX, 13, attractors, t_final=t_final, dt=DT).labels


def gate_labels(loops, name: str, t_final: float):
    loop, attractors = loops[name]
    return roa_grid(loop, BOXES[name], 41, attractors, t_final=t_final, dt=DT).labels


def encode(labels):
    legend = sorted(set(labels))
    return {"legend": legend, "codes": "".join(CODES[legend.index(lab)] for lab in labels)}


def decode(entry):
    return tuple(entry["legend"][CODES.index(c)] for c in entry["codes"])


def gate_loops():
    loops = {}
    for name in BOXES:
        loop = controller(name)
        loops[name] = (loop, equilibria(loop))
    return loops


def write() -> None:
    golden = {"box": BASIN_BOX, "resolution": 13, "dt": DT, "attractors": BASIN_ATTRACTORS,
              "labels": {key: list(golden_labels(name, t)) for key, name, t in golden_cases()}}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    loops = gate_loops()
    gate = {"resolution": 41, "dt": DT, "boxes": BOXES,
            "grids": {key: encode(gate_labels(loops, name, t)) for key, name, t in gate_cases()}}
    GATE.write_text(json.dumps(gate, indent=1) + "\n")


def check() -> int:
    stored = json.loads(GATE.read_text())["grids"]
    loops = gate_loops()
    failed = 0
    for key, name, t in gate_cases():
        start = time.perf_counter()
        labels, expected = gate_labels(loops, name, t), decode(stored[key])
        moved = [i for i in range(len(expected)) if len(labels) != len(expected)
                 or labels[i] != expected[i]]
        print("%-14s %d of %d labels moved, %.2f s" % (key, len(moved), len(expected),
                                                        time.perf_counter() - start), flush=True)
        for i in moved[:5]:
            print("  node %d: %s, stored %s" % (i, labels[i] if i < len(labels) else "-",
                                                expected[i]))
        failed += bool(moved)
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["write"]:
        write()
    elif sys.argv[1:] == ["check"]:
        sys.exit(check())
    else:
        sys.exit(__doc__)
