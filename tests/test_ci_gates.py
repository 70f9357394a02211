"""The CI gates that pytest can run itself: the oracle selftest and the six
demos, both with numpy's RuntimeWarnings as errors, as CI runs them."""

import glob
import os
import subprocess
import sys

import pytest

import sparselab
from sparselab.selftest import run_selftest

SRC = os.path.dirname(os.path.dirname(sparselab.__file__))
DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(SRC), "demos", "0[1-6]_*.py")))


def test_selftest_passes(capsys):
    """Every oracle check passes; a failure shows each check's line."""
    code = run_selftest()
    assert code == 0, capsys.readouterr().out


def test_all_six_demos_found():
    assert len(DEMOS) == 6, DEMOS


@pytest.mark.parametrize("demo", [
    pytest.param(path, marks=pytest.mark.slow) if os.path.basename(path).startswith("05_")
    else path for path in DEMOS], ids=lambda path: os.path.basename(path)[:2])
def test_demo_runs_clean(tmp_path, demo):
    """The demo exits 0 under -W error::RuntimeWarning, writing any files
    into its own working directory."""
    env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", demo], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
