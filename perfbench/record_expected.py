"""Record the expected outputs that the benchmark checks every run against.

    python3 perfbench/record_expected.py

run from the root of the checkout writes ``perfbench/expected.json``: for
each CLI operation the SHA-256 of its stdout and its integers (dimensions,
ranks, dim S_2, theta coefficients), and for each oracle form the number of
isotropic elements.  The file in the repository was recorded on the commit
that introduced the benchmark; record it again only when an output is
meant to change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

import workloads
from worker import EXPECTED, ROOT, import_program, summarize


def main() -> None:
    weilinv = import_program()
    workloads.write_grams(ROOT)
    cli = {}
    for name in ("dim", "basis"):
        for op in workloads.cli_ops(name):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                status = weilinv.cli.main(op["argv"])
            if status != 0:
                raise SystemExit(f"{op['id']} exited with {status}")
            text = buf.getvalue()
            cli[op["id"]] = {"sha256": hashlib.sha256(text.encode()).hexdigest(), "summary": summarize(json.loads(text))}
    isotropic = {
        sym: len(weilinv.fqm.from_jordan_symbol(sym).isotropic_elements()) for sym in workloads.ORACLE_SYMBOLS
    }
    EXPECTED.write_text(json.dumps({"cli": cli, "oracle_isotropic": isotropic}, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
