"""Each demo script, and each python block of README.md, runs to completion in a fresh
interpreter that turns RuntimeWarning into an error, as the suite does."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"),
                           flags=re.S | re.M)


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
