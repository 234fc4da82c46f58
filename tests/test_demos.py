"""Every demo script runs to completion in a fresh process and a scratch directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pltt

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    src = str(Path(pltt.__file__).resolve().parents[1])
    env = dict(os.environ, TMPDIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # a numeric warning fails a demo as it fails the tests
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
