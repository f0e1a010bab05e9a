#!/usr/bin/env python3
"""Run the library's verify battery over a list of genus symbols."""

import sys

sys.path.insert(0, "src")

from weilinv.cli import _verify_battery, exit_status_on_closed_pipe
from weilinv.fqm import from_jordan_symbol

DEFAULT = [
    "2_II^+2",
    "2_II^-4",
    "2_0^+2",
    "3^-2",
    "3^+3",
    "5^+2",
    "2_2^+2.4_II^+2",
    "2_II^+2.3^-2",
]


def main() -> int:
    symbols = sys.argv[1:] or DEFAULT
    failed = 0
    for sym in symbols:
        form = from_jordan_symbol(sym)
        checks = _verify_battery(form)
        bad = [c for c in checks if not c["pass"]]
        status = "ok" if not bad else "FAIL " + ", ".join(c["property"] for c in bad)
        print(f"{sym:>18}: {len(checks)} checks, {status}")
        failed += bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(exit_status_on_closed_pipe(main))
