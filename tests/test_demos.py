"""Smoke test: every demo runs to completion.

Each demo runs as its own process, from a temporary directory, with
`src` first on PYTHONPATH and BLAS on one thread, and must exit 0.
Together they take a few seconds. `04_train_synthetic.py` runs with
`--steps 3`: its full 500-step training is too long for a smoke test,
and the training loop it drives is covered by tests/test_train.py and
the acceptance gate.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = (("01_autodiff.py",), ("02_attention_fusion.py",), ("03_tiling.py",),
         ("04_train_synthetic.py", "--steps", "3"), ("05_memory_scaling.py",))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d[0])
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    script, *args = demo
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script), *args],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
