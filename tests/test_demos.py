"""Every demo script, and every fenced ``python`` block of README.md, runs to
completion against the source tree; README's command-line section names
every name the config layer accepts."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hypwalk import config

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


def test_readme_names_every_config_name():
    text = (ROOT / "README.md").read_text()
    section = text[text.index("## Command-line runner") : text.index("## Reproducibility")]
    prose = re.sub(r"^```.*?^```", "", section, flags=re.M | re.S)
    named = set(re.findall(r"`([^`]+)`", prose))
    accepted = {"experiment", "seed", "model", "measure", "params", *config._ENTRY_POINTS}
    for mtype, keys in config._MODEL_KEYS.items():
        accepted |= {mtype, *keys}
    for name, keys in config._GENERATORS.items():
        accepted |= {name, *keys}
    accepted |= {"cyclic", "order", "identity", "multiplier", "value"}  # torsion, actions
    accepted |= {"atoms", "attest_non_elementary", "attest_wpd"}  # measure
    accepted |= {"word", "torsion", "gen", "matrix", "weight", "name"}  # atoms, specs
    assert sorted(accepted - named) == []
