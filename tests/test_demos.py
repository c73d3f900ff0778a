"""Each demo script runs to completion and prints the same text every run.

The demos print commutation verdicts and the product counterexample, so
they are run as subprocesses against the library sources, twice each.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def _run(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(script)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_and_is_deterministic(script):
    first = _run(script)
    assert first.returncode == 0, first.stderr
    assert first.stdout
    second = _run(script)
    assert second.returncode == 0, second.stderr
    assert second.stdout == first.stdout
