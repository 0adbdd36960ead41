"""Every demo script, and every fenced ``python`` block of README.md, runs to
completion against the source tree."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(
    r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S
)


def _run(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(args, cwd=ROOT, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo):
    _run([sys.executable, str(demo)])


@pytest.mark.parametrize(
    "block", README_BLOCKS, ids=[f"block{k}" for k in range(len(README_BLOCKS))]
)
def test_readme_python_block_exits_zero(block):
    _run([sys.executable, "-c", block])
