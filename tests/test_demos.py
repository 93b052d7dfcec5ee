"""Each demo script, and each python block of README.md, runs to completion in a fresh
interpreter that turns RuntimeWarning into an error, as the suite does."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import swphase

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"),
                           flags=re.S | re.M)


def _run_fresh(args):
    src = str(Path(swphase.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_all_demos_found():
    assert len(DEMOS) == 4


def test_all_readme_blocks_found():
    assert len(README_BLOCKS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_0(demo):
    proc = _run_fresh([str(demo)])
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{k}" for k in range(len(README_BLOCKS))])
def test_readme_block_exits_0(block):
    proc = _run_fresh(["-c", block])
    assert proc.returncode == 0, proc.stderr
