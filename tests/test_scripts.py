"""The command-line scripts under scripts/ run to the end and report no
disagreement.  verify_battery.py imports the private cli._verify_battery,
so this also guards that name."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["dimension_table.py", "3", "2"],
        ["verify_battery.py", "3^-2", "2_II^+2"],
        ["fundamental_report.py"],
    ],
    ids=["dimension_table", "verify_battery", "fundamental_report"],
)
def test_script_runs_clean(argv):
    proc = subprocess.run(
        [sys.executable, f"scripts/{argv[0]}", *argv[1:]], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert not [line for line in proc.stdout.splitlines() if "MISMATCH" in line or "FAIL" in line]
