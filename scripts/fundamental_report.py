#!/usr/bin/env python3
"""Print the fundamental forms with their invariants and support splits."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from weilinv.cli import exit_status_on_closed_pipe
from weilinv.fundamental import fundamental_form, fundamental_invariant
from weilinv.weil import dim_invariants


def main() -> int:
    combos = [(p, x, s) for p in (2, 3, 5, 7) for x in ("square", "non-square") for s in (0, 2, 4, 6)]
    for p, x, s in combos:
        desc = fundamental_form(p, x, s)
        if desc is None:
            print(f"p={p:<2} {x:<10} s={s}:  (no fundamental form)")
            continue
        form = desc.realize()
        fi = fundamental_invariant(desc)
        sizes = "" if fi.plus_set is None else f"  |M^+|=|M^-|={len(fi.plus_set)}"
        print(
            f"p={p:<2} {x:<10} s={s}:  {desc.symbol or '0':<24} |D|={form.order:<4} "
            f"dim={dim_invariants(form)}{sizes}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(exit_status_on_closed_pipe(main))
