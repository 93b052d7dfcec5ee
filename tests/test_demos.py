"""Each demo script, and each python block of README.md, runs to completion in a fresh
interpreter that turns RuntimeWarning into an error, as the suite does; the README's
``swphase`` command lines run in order through ``cli.main``."""

import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from swphase.cli import main
from swphase.linalg import matrix_to_json

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text(encoding="utf-8")
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, flags=re.S | re.M)
README_COMMANDS = re.findall(r"^swphase (.*)$", README, flags=re.M)


def test_all_demos_found():
    assert len(DEMOS) == 4


def test_all_readme_blocks_found():
    assert len(README_BLOCKS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_0(demo, run_fresh):
    proc = run_fresh([str(demo)], timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{k}" for k in range(len(README_BLOCKS))])
def test_readme_block_exits_0(block, run_fresh):
    proc = run_fresh(["-c", block], timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_command_lines_exit_0(tmp_path, monkeypatch):
    # One directory for the whole block: later lines read the files earlier lines write,
    # and wigner eval reads state.json, here I/4.
    (tmp_path / "state.json").write_text(json.dumps(matrix_to_json(np.eye(4) / 4)))
    monkeypatch.chdir(tmp_path)
    assert len(README_COMMANDS) == 7
    for line in README_COMMANDS:
        assert main(shlex.split(line)) == 0, line
