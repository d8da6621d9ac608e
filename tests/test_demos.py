"""Every script in ``demos/`` and every ``python`` code block of
``README.md`` runs to completion without printing to stderr."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_SNIPPETS = re.findall(r"^```python\n(.*?)^```$",
                             (ROOT / "README.md").read_text(encoding="utf-8"),
                             flags=re.MULTILINE | re.DOTALL)


def run_cleanly(*argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(demo):
    run_cleanly(str(demo))


def test_readme_snippets_found():
    assert README_SNIPPETS


@pytest.mark.parametrize("snippet", README_SNIPPETS,
                         ids=[f"block{i}" for i in range(len(README_SNIPPETS))])
def test_readme_snippet_runs_cleanly(snippet):
    run_cleanly("-c", snippet)
