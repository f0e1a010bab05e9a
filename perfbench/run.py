"""The weilinv benchmark: time to an exact, checked answer.

    python3 perfbench/run.py --workload {dim,basis,oracle} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports weilinv from ``src`` there.
Each pass of a workload is one fresh, single-threaded Python process
(``worker.py``) that runs the workload's operations back to back: a closed
loop with one client and no think time.  Passes follow one another while
another one fits into ``--seconds``; there is always at least one.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics.
Times are scaled to a nominal machine speed measured in the same process
(``speed.py``), because the speed of a shared machine drifts more than the
changes the benchmark must detect.

- ``setup_s``: median, over ``SETUP_PROBES`` set-up-only processes and the
  passes, of the time from spawning the process until weilinv is imported
  and the inputs are ready;
- ``wall_s`` and ``cpu_s``: median over passes of the summed wall and
  process CPU time of the timed operations;
- ``peak_rss_mb``: median over passes of the pass process's maximum RSS;
- ``ok_frac``: share of all attempted operations that returned and passed
  their check.

With ``--trace 1`` one untraced and one traced pass run, and the last line
reports the per-layer metrics of ``tracer.py`` and ``trace.overhead_ratio``,
traced ``wall_s`` over untraced ``wall_s``.  The line before the last one
records the environment, the seed and the unscaled times; the whole result,
with per-operation times, is also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PROBES = 8
#: a run must end within 180 s; leave room for starting and reporting
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def source_digest() -> str:
    """SHA-256 over the paths and contents of the program's source files."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def commit_hash() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "commit": commit_hash(),
        "src_sha256": source_digest(),
        "seed": seed,
    }


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("WEILINV_")}
        self.env["PYTHONDONTWRITEBYTECODE"] = "1"

    def spawn(self, mode: str) -> dict:
        """Run one worker process to its end; add its set-up time."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time")
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload, "--seed", str(self.seed)]
        spawned = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd + ["--mode", mode], cwd=ROOT, env=self.env, stdout=subprocess.PIPE, timeout=remaining
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} process did not finish in time") from exc
        lines = proc.stdout.decode().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{mode} process exited with status {proc.returncode}")
        result = json.loads(lines[-1])
        result["raw_setup_s"] = result["ready_at"] - spawned
        result["setup_s"] = result["raw_setup_s"] * result["setup_scale"]
        result["elapsed_s"] = time.perf_counter() - spawned
        return result

    def passes(self, seconds: float) -> list[dict]:
        """Whole passes while another one fits into ``seconds``."""
        start = time.perf_counter()
        out = [self.spawn("run")]
        while time.perf_counter() - start + out[-1]["elapsed_s"] <= seconds:
            out.append(self.spawn("run"))
        return out


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict, list[dict]]:
    # half the set-up probes before the passes and half after, so that one
    # moment of load on a shared machine does not set them all
    probes = [runner.spawn("setup") for _ in range(SETUP_PROBES // 2)]
    passes = runner.passes(seconds)
    probes += [runner.spawn("setup") for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] for p in probes + passes), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MiB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }
    raw = {
        "setup_s": statistics.median(p["raw_setup_s"] for p in probes + passes),
        "wall_s": statistics.median(p["raw_wall_s"] for p in passes),
        "cpu_s": statistics.median(p["raw_cpu_s"] for p in passes),
    }
    return metrics, raw, passes


def per_layer(runner: Runner) -> tuple[dict, dict, list[dict]]:
    plain = runner.spawn("run")
    traced = runner.spawn("trace")
    metrics = {k: tuple(v) for k, v in traced["metrics"].items()}
    metrics["cli.stdout_bytes"] = (traced["stdout_bytes"], "bytes")
    metrics["trace.overhead_ratio"] = (traced["wall_s"] / plain["wall_s"], "ratio")
    raw = {"untraced_wall_s": plain["raw_wall_s"], "traced_wall_s": traced["raw_wall_s"]}
    return metrics, raw, [plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "weilinv" / "__init__.py").is_file():
        print(f"no weilinv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            metrics, raw, passes = per_layer(runner)
        else:
            metrics, raw, passes = end_to_end(runner, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    context = {"workload": args.workload, "trace": args.trace, "environment": env, "raw": raw}
    out = ROOT / workloads.OUT_DIR / f"result-{args.workload}-{args.seed}-{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({**context, "passes": passes, "result": summary}, indent=1), encoding="utf-8")
    print(json.dumps(context))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
