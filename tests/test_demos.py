"""Every demo runs from the repository root and prints what it promises."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# one line each demo prints verbatim
EXPECTED_LINE = {
    "classification": "QR      5-fold accuracy: 1.000 +- 0.000",
    "esn_sweep_demo": "NARMA2, 25 trials per cell, 20 radii, input weights 01",
    "narma_prediction": "QR beats LR on the test window by 12.2x",
    "noise_channels":
        "[[0.25 +0.j    0.177-0.177j 0.177-0.177j 0.25 +0.j   ]",
    "qasm_export": "3-step program for 4 qubits (42 lines):",
    "stationarity_check":
        "worst channel z2: mean gap 1.61e-02, 27% of its training-phase "
        "magnitude",
    # the closed form: one idle damping with gamma = 0.01 sets every <Z_i>
    "trajectory_basics": "t=1  +0.0100  +0.0100  +0.0100  +0.0100",
}


def test_every_demo_has_an_expected_line():
    assert sorted(EXPECTED_LINE) == sorted(
        p.stem for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("name", sorted(EXPECTED_LINE))
def test_demo_runs_and_prints_its_line(name):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run([sys.executable, f"demos/{name}.py"], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert EXPECTED_LINE[name] in proc.stdout.splitlines()
