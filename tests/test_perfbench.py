import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_benchmark_run_is_correct():
    """perfbench/tracer.py rebinds weilinv functions and methods by name
    (fqm.from_jordan_symbol, weil.cusp_classes, DiscriminantForm.q, ...);
    one short traced run of the dim workload must still check out."""
    argv = [sys.executable, "perfbench/run.py", "--workload", "dim", "--seed", "1", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0
