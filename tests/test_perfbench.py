import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _traced_run(workload):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_benchmark_run_is_correct():
    """perfbench/tracer.py rebinds weilinv functions and methods by name
    (fqm.from_jordan_symbol, weil.cusp_classes, DiscriminantForm.q, ...);
    one short traced run of the dim workload must still check out."""
    last = _traced_run("dim")
    assert last["correct"] is True and last["failed"] == 0


def test_traced_basis_benchmark_run_is_correct():
    """The basis workload reaches the names the tracer rebinds on the
    invariants path (weil.rank_of_vectors, fundamental.invariant_generators);
    one short traced run must check out."""
    last = _traced_run("basis")
    assert last["correct"] is True and last["failed"] == 0
