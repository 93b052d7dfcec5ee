"""Every value of every CLI verdict, each reached through cli.main by a row of one table.

A verdict is a boolean or a label of a command's output, or the exit code of a
command whose exit code is a verdict (0 or 1).  A row runs one command on one
input and states the value of each verdict of that command.  The rows must
reach every combination of values that the CLI's rules (RULES) allow, so each
value, false ones included, is seen to come out; a value that no input reaches
is named in UNREACHABLE with the reason.  No two rows reach the same
combination, so deleting any row fails test_table_is_complete.
"""

import itertools
import json
from collections import namedtuple

import numpy as np
import pytest

from swphase import cli, twoqubit
from swphase.composite import make_composite_kernel
from swphase.kernel import solve_kernel_spectrum
from swphase.linalg import BipartiteDims, matrix_to_json

# Every label of _scan_labels over its whole domain: ranks 0 to 3, at most 8 solutions.
SCAN_LABELS = sorted(set(twoqubit._scan_labels(
    *zip(*itertools.product(range(4), range(4), range(9))))))

# The verdicts of each output and their values; "kernel gen --dims" writes the composite report.
VERDICTS = {
    "kernel gen": {"hermitian": (True, False)},
    "kernel gen --dims": {"eq6.hermitian": (True, False), "admissible": (True, False)},
    "kernel verify": {"hermitian": (True, False), "exit": (0, 1)},
    "composite verify": {"eq6.hermitian": (True, False), "admissible": (True, False),
                         "exit": (0, 1)},
    "wigner eval": {"exit": (0, 1)},
    "moduli scan": {"classification": tuple(SCAN_LABELS)},
}

UNREACHABLE = {
    ("kernel gen", "hermitian", False):
        "gen writes only a kernel that SWKernel admitted; the kernel verify rows reach "
        "False through the same MasterReport.as_dict",
    ("kernel gen --dims", "eq6.hermitian", False):
        "gen writes only a kernel that CompositeKernel admitted; the composite verify rows "
        "reach False through the same CompositeReport.as_dict",
    ("kernel gen --dims", "admissible", False):
        "gen writes only a kernel that CompositeKernel admitted; the composite verify rows "
        "reach False through the same CompositeReport.as_dict",
    ("moduli scan", "classification", "feasible"):
        "the scan solves at level 1, which lies above lambda_max(A + B) / 2 on every fibre, "
        "since A + B <= (4/3) I (test_sum_bound_on_the_grid)",
}

# Combinations the CLI rules out, each with its rule.
RULES = {
    "kernel verify": [
        ("exit 0 needs MasterReport.ok(), which needs the Hermiticity test",
         lambda v: v["exit"] == 0 and not v["hermitian"]),
    ],
    "composite verify": [
        ("the exit code is the admissible verdict", lambda v: v["admissible"] != (v["exit"] == 0)),
        ("admissible needs MasterReport.ok(), which needs the Hermiticity test",
         lambda v: v["admissible"] and not v["eq6.hermitian"]),
    ],
}

KERNEL_2 = np.diag([(1 + np.sqrt(3.0)) / 2, (1 - np.sqrt(3.0)) / 2])
# A strictly upper entry breaks only Hermiticity: the trace, every purity and every
# partial-trace purity of a diagonal matrix stay as they were.
SKEW_2, SKEW_4 = np.triu(np.full((2, 2), 1e-3), 1), np.triu(np.full((4, 4), 1e-3), 1)
PRODUCT_22 = np.kron(KERNEL_2, KERNEL_2)  # a product of kernels is 2x2-admissible

INPUTS = {
    "kernel2": KERNEL_2,
    "skew2": KERNEL_2 + SKEW_2,
    "mixed4": np.eye(4) / 4,  # Hermitian, purity 1/4
    "composite22": make_composite_kernel(BipartiteDims(2, 2), 0).mat,
    "elementary4": np.diag(solve_kernel_spectrum(4).pi),  # a kernel, not 2x2-admissible
    "skew22": PRODUCT_22 + SKEW_4,
    "pure2": np.diag([1.0, 0.0]),
    "trace2": np.eye(2),  # not a state
}

Row = namedtuple("Row", "id command argv verdicts")

ROWS = [
    Row("gen", "kernel gen", ["kernel", "gen", "--n", "4"], {"hermitian": True}),
    Row("gen-dims", "kernel gen --dims", ["kernel", "gen", "--n", "4", "--dims", "2x2"],
        {"eq6.hermitian": True, "admissible": True}),
    Row("verify-kernel", "kernel verify", ["kernel", "verify", "{kernel2}"],
        {"hermitian": True, "exit": 0}),
    Row("verify-mixed", "kernel verify", ["kernel", "verify", "{mixed4}"],
        {"hermitian": True, "exit": 1}),
    Row("verify-skew", "kernel verify", ["kernel", "verify", "{skew2}"],
        {"hermitian": False, "exit": 1}),
    Row("composite-admissible", "composite verify",
        ["composite", "verify", "{composite22}", "--dims", "2x2"],
        {"eq6.hermitian": True, "admissible": True, "exit": 0}),
    Row("composite-elementary", "composite verify",
        ["composite", "verify", "{elementary4}", "--dims", "2x2"],
        {"eq6.hermitian": True, "admissible": False, "exit": 1}),
    Row("composite-skew", "composite verify", ["composite", "verify", "{skew22}", "--dims", "2x2"],
        {"eq6.hermitian": False, "admissible": False, "exit": 1}),
    Row("wigner-pure-state", "wigner eval", ["wigner", "eval", "{pure2}", "{kernel2}"],
        {"exit": 0}),
    Row("wigner-trace-2", "wigner eval", ["wigner", "eval", "{trace2}", "{kernel2}"],
        {"exit": 1}),
    Row("scan-origin", "moduli scan",
        ["moduli", "scan", "--n", "1", "--ranges", "0,0", "--format", "json"],
        {"classification": "degenerate"}),
    Row("scan-default-seed", "moduli scan", ["moduli", "scan", "--n", "1", "--format", "json"],
        {"classification": "empty"}),
]


def _verdicts(command: str, code: int, out: str) -> dict:
    """The value of each verdict of ``command`` in a run that exited ``code`` and wrote ``out``."""
    values = {}
    for name in VERDICTS[command]:
        if name == "exit":
            values[name] = code
            continue
        node = json.loads(out)
        if command == "moduli scan":
            node = node[0]
        for key in name.split("."):
            node = node[key]
        values[name] = node
    return values


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_row(row, tmp_path, capsys):
    files = {name: tmp_path / f"{name}.json" for name in INPUTS}
    for name, path in files.items():
        path.write_text(json.dumps(matrix_to_json(INPUTS[name])))
    code = cli.main([arg.format(**files) for arg in row.argv])
    out = capsys.readouterr().out
    assert code == row.verdicts.get("exit", 0)
    assert _verdicts(row.command, code, out) == row.verdicts


def _allowed(command: str) -> list:
    """The combinations of verdict values of ``command`` that some input must reach."""
    names = list(VERDICTS[command])
    allowed = []
    for combo in itertools.product(*VERDICTS[command].values()):
        values = dict(zip(names, combo))
        if not any((command, name, value) in UNREACHABLE for name, value in values.items()) \
                and not any(rule(values) for _, rule in RULES.get(command, ())):
            allowed.append((command, combo))
    return allowed


def test_table_is_complete():
    assert all(set(row.verdicts) == set(VERDICTS[row.command]) for row in ROWS)
    # Each allowed combination is reached by exactly one row: deleting any row fails here.
    reached = [(row.command, tuple(row.verdicts[name] for name in VERDICTS[row.command]))
               for row in ROWS]
    assert sorted(reached) == sorted(combo for command in VERDICTS for combo in _allowed(command))
    # Each value is reached by a row or named unreachable, never both.
    for command, verdicts in VERDICTS.items():
        for name, values in verdicts.items():
            for value in values:
                hit = any(row.command == command and row.verdicts[name] == value for row in ROWS)
                assert hit != ((command, name, value) in UNREACHABLE), (command, name, value)
