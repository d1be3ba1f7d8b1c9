"""Every demo script runs to completion against the package as it stands."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from rareweak import cli

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    # from a scratch directory, so that nothing a demo writes lands in the repo
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
