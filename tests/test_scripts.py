"""Smoke tests: each script under scripts/ runs from a source checkout."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=120)


def test_derive_goldens():
    proc = run_script("derive_goldens.py")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "== two-vertex edge ==" in proc.stdout
    assert "degrees from backsteps: {'v1': 2}" in proc.stdout


def test_verify_sweep_beyond_the_enumerator_default_ceiling():
    proc = run_script("verify_sweep.py", "--seeds", "0", "--trials", "3",
                      "--max-walk-incidences", "14")
    assert (proc.returncode, proc.stderr) == (0, "")
    [row] = proc.stdout.splitlines()[1:]
    assert row.split()[-1] == "ok"
    assert row.split()[:3] == ["0", "37", "0"]
