"""The command-line scripts under scripts/ run to the end and report no
disagreement.  The CLI and the scripts end quietly with exit code 5
(io-error) when the reader of their output closes the pipe."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["dimension_table.py", "3", "2"],
        ["fundamental_report.py"],
    ],
    ids=["dimension_table", "fundamental_report"],
)
def test_script_runs_clean(argv, tmp_path):
    """From the root of the repository, and from another directory without
    PYTHONPATH: a script finds src/ next to itself."""
    bare = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    for cwd, env in ((ROOT, None), (tmp_path, bare)):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
            cwd=cwd,
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip()
        assert not [line for line in proc.stdout.splitlines() if "MISMATCH" in line or "FAIL" in line]


def test_dimension_table_fails_on_mismatch(monkeypatch, capsys):
    """A closed value that differs from the trace is a MISMATCH row and exit
    status 1; the 2_t^(eps n).4_II^+2 rows are in the table."""
    spec = importlib.util.spec_from_file_location("dimension_table", ROOT / "scripts" / "dimension_table.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", ["dimension_table.py", "3", "2"])
    assert script.main() == 0
    assert "2_0^+2.4_II^+2" in capsys.readouterr().out
    monkeypatch.setattr(script, "dim_closed_form", lambda symbol: 99)
    assert script.main() == 1
    assert "MISMATCH" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["-m", "weilinv.cli", "dim", "--symbol", "3^+2"],
        ["-m", "weilinv.cli", "--help"],
        ["scripts/dimension_table.py", "3", "2"],
        ["scripts/fundamental_report.py"],
    ],
    ids=["cli", "cli_help", "dimension_table", "fundamental_report"],
)
def test_closed_pipe_gives_no_traceback(argv):
    # stdout buffered, as in a plain shell (unbuffered, argparse itself swallows the error of --help)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"} | {"PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    proc.stdout.close()  # the reader is gone before the first write
    _, err = proc.communicate(timeout=600)
    assert proc.returncode == 5, err
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
