"""Golden records: `geomcover solve` records (no --timing), witnesses included,
compared byte for byte with the checked-in `golden_records.jsonl`.

Each line of that file holds a generator call, the solve flags and the
record the solver printed. The cases cover branch --witness for each family
at its optimum and one below, ie --min --witness for each family, the
oracle and auto routing. The file was written by running this module as a
script:

    PYTHONPATH=src python tests/test_golden_records.py

which solves every case in `CASES`, at the budget it names (an int, or
"opt" / "opt-1" from the oracle's optimum), and rewrites the file. Rewrite it
only when a change is meant to alter records, and say so.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

import pytest

from geomcover import cli
from geomcover.instances import generate, save_instance
from geomcover.oracle import oracle_min_cover

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_records.jsonl")

BRANCH = ["--algorithm", "branch", "--witness"]
SWEEP = ["--algorithm", "ie", "--min", "--witness"]
ORACLE = ["--algorithm", "oracle", "--witness"]
AUTO = ["--witness"]


def _curves(family, k, m, noise=0):
    return "on-curves", {"family": family, "k": k, "m": m, "noise": noise}


def _random(family, n, span):
    return "uniform-random", {"family": family, "n": n, "coord_range": span,
                              "dimension": 3 if family == "plane3" else 2}


# (model, params, seed, flags, budget)
CASES = [
    _curves("line2", 3, 4) + (1, BRANCH, "opt"),
    _curves("line2", 3, 4) + (1, BRANCH, "opt-1"),
    _curves("line2", 4, 3) + (5, BRANCH, "opt"),
    _curves("circle2", 3, 4) + (2, BRANCH, "opt"),
    _curves("circle2", 3, 4) + (2, BRANCH, "opt-1"),
    _curves("circle2", 3, 3, noise=1) + (3, BRANCH, "opt"),
    _curves("vparabola2", 3, 4) + (3, BRANCH, "opt"),
    _curves("vparabola2", 3, 4) + (3, BRANCH, "opt-1"),
    _curves("vparabola2", 3, 3, noise=1) + (4, BRANCH, "opt"),
    _curves("circle2", 3, 5) + (4, BRANCH, "opt-1"),
    _curves("line2", 5, 3) + (5, BRANCH, 5),
    ("degenerate-plane", {"k": 2, "m": 5}, 1, BRANCH, "opt"),
    ("degenerate-plane", {"k": 2, "m": 5}, 1, BRANCH, "opt-1"),
    ("degenerate-plane", {"k": 3, "m": 5}, 2, BRANCH, "opt"),
    _random("plane3", 8, 3) + (3, BRANCH, 2),
    _random("plane3", 7, 3) + (6, BRANCH, "opt"),
    _random("plane3", 7, 3) + (6, BRANCH, "opt-1"),
    _random("line2", 11, 6) + (7, SWEEP, "opt"),
    _random("circle2", 10, 6) + (8, SWEEP, "opt"),
    _random("vparabola2", 10, 6) + (9, SWEEP, "opt-1"),
    _random("plane3", 10, 3) + (10, SWEEP, "opt"),
    _random("line2", 8, 6) + (11, ORACLE, "opt"),
    _random("circle2", 7, 6) + (12, ORACLE, "opt"),
    _random("vparabola2", 7, 6) + (13, ORACLE, "opt"),
    _random("plane3", 8, 3) + (14, ORACLE, "opt"),
    _random("line2", 9, 6) + (15, AUTO, "opt"),
    _random("circle2", 8, 6) + (16, AUTO, "opt-1"),
    _random("plane3", 9, 3) + (17, AUTO, "opt"),
    _random("vparabola2", 13, 6) + (18, AUTO, "opt"),
    # plane searches that extend ripe stamped lines into planes
    ("degenerate-plane", {"k": 4, "m": 4}, 0, BRANCH, 3),
    ("degenerate-plane", {"k": 4, "m": 4}, 1, BRANCH, 3),
    _random("plane3", 14, 3) + (1, BRANCH, 3),
]


def solve_record(inst, flags, k, workdir) -> tuple[int, str]:
    path = os.path.join(workdir, "instance.json")
    save_instance(inst, path)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["solve", "--input", path] + list(flags) + ["--k", str(k)])
    return rc, buf.getvalue()


def _load():
    with open(GOLDEN, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


@pytest.mark.parametrize("case", _load(), ids=lambda c: "%s-%d-%s-k%d" % (
    c["model"], c["seed"], c["flags"][1] if c["flags"][0] == "--algorithm" else "auto", c["k"]))
def test_record_is_byte_identical(case, tmp_path):
    inst = generate(case["model"], case["params"], case["seed"])
    rc, out = solve_record(inst, case["flags"], case["k"], str(tmp_path))
    assert rc == case["rc"]
    assert out == case["stdout"]


def test_golden_file_lists_every_case():
    assert [(c["model"], c["params"], c["seed"], c["flags"]) for c in _load()] == [
        (model, params, seed, flags) for model, params, seed, flags, _ in CASES]


def _write_golden():
    lines = []
    with tempfile.TemporaryDirectory() as workdir:
        for model, params, seed, flags, budget in CASES:
            inst = generate(model, params, seed)
            if isinstance(budget, int):
                k = budget
            else:
                opt = oracle_min_cover(inst.points, inst.family, cap=inst.n).opt
                k = opt if budget == "opt" else opt - 1
            rc, out = solve_record(inst, flags, k, workdir)
            lines.append(json.dumps({"model": model, "params": params, "seed": seed,
                                     "flags": flags, "k": k, "rc": rc, "stdout": out},
                                    sort_keys=True))
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print("wrote %d records to %s" % (len(lines), GOLDEN))


if __name__ == "__main__":
    sys.exit(_write_golden())
