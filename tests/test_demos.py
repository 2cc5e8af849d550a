"""Smoke test: each quick demo script runs to completion against the
package under test. iris_benchmark.py is left out; it takes about 13 s."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import adaptnn

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("script", ["data_pipeline.py", "gradient_and_convexity.py",
                                    "soft_aggregation.py", "train_and_classify.py"])
def test_demo_runs(script, tmp_path):
    src = Path(adaptnn.__file__).resolve().parents[1]
    # a demo's scratch files go to an empty temp directory of its own, and
    # the demo must remove them before it exits
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    env = dict(os.environ, PYTHONPATH=str(src), TMPDIR=str(tmp))
    out = subprocess.run([sys.executable, str(DEMOS / script)], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert list(tmp.iterdir()) == []
