"""Every demo script, and every Python example in README.md, runs to
completion against the current library."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
README_EXAMPLES = re.findall(r"^```python\n(.*?)^```$",
                             (ROOT / "README.md").read_text(), flags=re.M | re.S)


def run_python(*args):
    """``python *args`` in a fresh interpreter that imports the source tree."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env,
        timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_0(demo):
    done = run_python(str(demo))
    assert done.returncode == 0, done.stderr


def test_readme_has_python_examples():
    assert README_EXAMPLES


@pytest.mark.parametrize("example", README_EXAMPLES,
                         ids=[f"example_{k}" for k in range(len(README_EXAMPLES))])
def test_readme_example_exits_0(example):
    done = run_python("-c", example)
    assert done.returncode == 0, done.stderr
