"""The fast demos run to completion against the current API.

`demos/03_train_small.py` trains for about a minute and is left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_tensor_autodiff.py", "02_environments.py",
                                  "04_scaling_axes.py"])
def test_demo_runs(demo, tmp_path):
    # One BLAS thread: the demos' small GEMMs gain nothing from more, and
    # spinning BLAS threads slow them many times over on a loaded host.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
