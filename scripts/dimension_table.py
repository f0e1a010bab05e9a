#!/usr/bin/env python3
"""Print dimension tables for the covered families, closed form vs trace;
exit with status 1 when a closed value differs from the trace (MISMATCH).

Usage: python scripts/dimension_table.py [max_p] [max_n]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from weilinv.cli import exit_status_on_closed_pipe
from weilinv.fqm import JordanSymbol, SymbolError, from_jordan_symbol
from weilinv.weil import dim_closed_form, dim_invariants


def rows(max_p: int, max_n: int):
    for p in [q for q in (3, 5, 7, 11, 13) if q <= max_p]:
        for n in range(1, max_n + 1):
            for eps in ("+", "-"):
                yield f"{p}^{eps}{n}"
    for n in range(2, max_n + 1, 2):
        for eps in ("+", "-"):
            yield f"2_II^{eps}{n}"
    for tail in ("", ".4_II^+2"):
        for n in range(1, max_n + 1):
            for t in range(8):
                for eps in ("+", "-"):
                    yield f"2_{t}^{eps}{n}{tail}"


def main() -> int:
    max_p = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    max_n = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    print(f"{'symbol':>14} {'|D|':>6} {'sign':>4} {'closed':>6} {'trace':>6}")
    status = 0
    for sym in rows(max_p, max_n):
        try:
            parsed = JordanSymbol.parse(sym)
        except SymbolError:
            continue
        form = from_jordan_symbol(parsed)
        if form.order > 4000:
            continue
        closed = dim_closed_form(parsed)
        trace = dim_invariants(form)
        tag = "" if closed in (None, trace) else "  MISMATCH"
        status = 1 if tag else status
        closed_s = "-" if closed is None else str(closed)
        print(f"{sym:>14} {form.order:>6} {form.signature():>4} {closed_s:>6} {trace:>6}{tag}")
    return status


if __name__ == "__main__":
    sys.exit(exit_status_on_closed_pipe(main))
