"""Every demo script runs to completion from a source checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo, tmp_path):
    src = str(ROOT / "src")
    inherited = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=src + (os.pathsep + inherited if inherited else ""),
        TMPDIR=str(tmp_path),  # the demos that write files do so under a temporary directory
    )
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.strip()
