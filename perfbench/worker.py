"""One fresh benchmark process: set a workload up, then run it once.

``run.py`` starts it from the root of the checkout as

    python3 perfbench/worker.py --workload W --seed N --mode M

with ``src`` first on ``sys.path``.  Modes:

- ``setup``: import weilinv and prepare the inputs, then stop;
- ``run``: set up, compute the references, run every operation once;
- ``trace``: as ``run``, with the wrappers of ``tracer.py`` installed.

The last line of standard output is one JSON object with the timings,
the check results and, in trace mode, the per-layer metrics.  Times are
reported both raw and scaled to a nominal machine speed (see ``speed.py``).
The operations themselves write only to captured buffers.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads
from speed import NOMINAL_S, SpeedProbe
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).resolve().parent / "expected.json"


def import_program():
    """Import weilinv from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import weilinv
    import weilinv.cli

    if Path(weilinv.__file__).resolve().parent != src / "weilinv":
        raise SystemExit(f"weilinv was imported from {weilinv.__file__}, not from {src}")
    return weilinv


def summarize(doc: dict) -> dict:
    """The integers of a CLI document that the expected data pins down."""
    out = {k: v for k, v in doc.items() if isinstance(v, int) and not isinstance(v, bool)}
    for key in ("basis", "generators"):
        if key in doc:
            out[key + "_count"] = len(doc[key])
    if "oracle" in doc:
        out["oracle_dim_s2"] = doc["oracle"]["dim_s2"]
    thetas = [b["theta"] for b in doc.get("basis", []) if "theta" in b]
    if thetas:
        out["theta"] = thetas
    out["checks_pass"] = all(c["pass"] for c in doc.get("check", []))
    return out


class Workload:
    """The inputs of one workload for one seed, and how to run and check them."""

    def __init__(self, weilinv, name: str, seed: int):
        self.weilinv = weilinv
        rng = random.Random(seed)
        fqm = weilinv.fqm
        self.forms = {sym: fqm.from_jordan_symbol(sym) for sym in workloads.symbols_of(name)}
        if name == "oracle":
            self.isotropic = {sym: list(f.isotropic_elements()) for sym, f in self.forms.items()}
            orders = {sym: f.orders for sym, f in self.forms.items()}
            self.ops = workloads.oracle_ops(rng, orders, self.isotropic)
        else:
            if name == "basis":
                workloads.write_grams(ROOT)
            self.ops = workloads.cli_ops(name)
        rng.shuffle(self.ops)
        self.references: dict = {}
        self.stdout_bytes = 0

    def compute_references(self) -> None:
        """inv(e^gamma) for every oracle operation, outside the timed window."""
        inv = self.weilinv.weil.inv
        for op in self.ops:
            if op["kind"] == "oracle":
                self.references[op["id"]] = inv(self.forms[op["symbol"]], op["gamma"])

    def execute(self, op: dict):
        """Run one operation and return what its check needs."""
        weil = self.weilinv.weil
        if op["kind"] == "cli":
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                status = self.weilinv.cli.main(list(op["argv"]))
            return status, buf.getvalue()
        form = self.forms[op["symbol"]]
        if op["kind"] == "oracle":
            return weil.inv_average_oracle(form, op["gamma"])
        v = weil.GroupAlgebraVector.basis(form, op["gamma"])
        ab = weil.mat2_mul(op["a"], op["b"])
        return weil.rho(ab, v), weil.rho(op["a"], weil.rho(op["b"], v))

    def check(self, op: dict, output, expected: dict) -> str | None:
        """None when the output is right, else what is wrong with it."""
        if op["kind"] == "cli":
            status, text = output
            self.stdout_bytes += len(text.encode())
            want = expected["cli"][op["id"]]
            if status != 0:
                return f"exit status {status}"
            if hashlib.sha256(text.encode()).hexdigest() != want["sha256"]:
                return "stdout digest differs"
            got = summarize(json.loads(text))
            return None if got == want["summary"] else f"summary {got} != {want['summary']}"
        if op["kind"] == "oracle":
            count = expected["oracle_isotropic"][op["symbol"]]
            if len(self.isotropic[op["symbol"]]) != count:
                return f"expected {count} isotropic elements"
            return None if output == self.references[op["id"]] else "oracle differs from inv"
        lhs, rhs = output
        return None if lhs == rhs else "rho(AB) v != rho(A) rho(B) v"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args(argv)

    weilinv = import_program()
    tracer = Tracer()
    if args.mode == "trace":
        tracer.install()
        tracer.active = True
    work = Workload(weilinv, args.workload, args.seed)
    ready_at = time.perf_counter()
    probe = SpeedProbe(on_sample=tracer.exclude)
    for _ in range(5):
        probe.sample()
    # the machine's speed just after set-up scales the set-up time
    setup_scale = NOMINAL_S / statistics.median(s[1] - s[0] for s in probe.samples)
    result = {"ready_at": ready_at, "setup_scale": setup_scale}
    if args.mode != "setup":
        expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
        probe.start()
        tracer.active = False
        work.compute_references()
        tracer.active = args.mode == "trace"
        ops = []
        for op in work.ops:
            tracer.op = op["id"]
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                output = work.execute(op)
                error = None
            except Exception:
                error = traceback.format_exc()
            wall1, cpu1 = time.perf_counter(), time.process_time()
            tracer.op = None
            if error is None:
                try:
                    error = work.check(op, output, expected)
                except Exception:
                    error = traceback.format_exc()
            if error is not None:
                print(f"{op['id']}: {error}", file=sys.stderr)
            ops.append({"id": op["id"], "ok": error is None, "window": (wall0, wall1, cpu0, cpu1)})
        tracer.active = False
        probe.stop()
        probe.sample()
        for o in ops:
            w0, w1, c0, c1 = o.pop("window")
            o["raw_wall_s"], o["raw_cpu_s"] = w1 - w0, c1 - c0
            o["wall_s"], o["cpu_s"] = probe.scaled(w0, w1, c0, c1)
        result.update(
            ops=ops,
            wall_s=sum(o["wall_s"] for o in ops),
            cpu_s=sum(o["cpu_s"] for o in ops),
            raw_wall_s=sum(o["raw_wall_s"] for o in ops),
            raw_cpu_s=sum(o["raw_cpu_s"] for o in ops),
            speed_samples=len(probe.samples),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            attempted=len(ops),
            failed=sum(not o["ok"] for o in ops),
            stdout_bytes=work.stdout_bytes,
        )
        if args.mode == "trace":
            result["metrics"] = {k: list(v) for k, v in tracer.metrics().items()}
            out = ROOT / workloads.OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps({"spans": tracer.spans}), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
