"""Every demo runs to completion on small arguments in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import verletflow

SRC = str(Path(verletflow.__file__).resolve().parents[1])
ROOT = Path(__file__).resolve().parents[1]
CHECKPOINT = str(ROOT / "perfbench" / "fixtures" / "reference_checkpoint.txt")

DEMOS = {
    "01_operators_and_exact_logdet": [],
    "02_integrate_and_invert": [],
    "03_train_trimodal": ["--epochs", "2", "--out", "{tmp}/checkpoint.txt"],
    "04_estimate_logz": [CHECKPOINT, "--samples", "200"],
    "05_hutchinson_outliers": [CHECKPOINT, "--samples", "20"],
    "06_coupling_equivalence": [],
}


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_runs(name, tmp_path):
    args = [a.format(tmp=tmp_path) for a in DEMOS[name]]
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py"), *args],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
