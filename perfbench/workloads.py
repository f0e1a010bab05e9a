"""The operation lists of the three workloads and the inputs they are made from.

Every workload has a fixed set of operations.  The seed only permutes their
order and, for ``oracle``, draws the SL2(Z) matrices and basis vectors of
the group-law checks.  Nothing here imports weilinv: the inputs are plain
data (genus symbols, Gram matrices, integer matrices and group elements).
"""

from __future__ import annotations

import json
import random
from math import gcd
from pathlib import Path

#: genus symbols of the ``dim`` workload.  Their levels 7, 15, 5, 4 and 6
#: differ, so no two operations share an orthogonal block at one level and
#: each one builds its cusp columns from scratch.
DIM_SYMBOLS = ["7^-4", "3^+1.5^+1", "5^-3", "2_2^+2.4_II^+2", "2_II^+2.3^-2"]

#: forms of the ``basis`` workload: ``invariants`` and ``induced-basis --check``.
BASIS_SYMBOLS = ["3^+5", "2_II^+6", "3^-4"]

#: composite-level forms of ``induced-basis --check`` in the ``basis``
#: workload: the only operations that reach ``fundamental.tensor_combine``.
COMPOSITE_SYMBOLS = ["2_II^+2.3^-2"]

#: forms of ``s2dim --check`` in the ``basis`` workload.
S2_SYMBOLS = ["7^+2"]

#: Gram matrices of ``jacobi --precision 5`` in the ``basis`` workload.
GRAMS = {
    "e8": [
        [2, -1, 0, 0, 0, 0, 0, 0],
        [-1, 2, -1, 0, 0, 0, 0, 0],
        [0, -1, 2, -1, 0, 0, 0, 0],
        [0, 0, -1, 2, -1, 0, 0, 0],
        [0, 0, 0, -1, 2, -1, -1, 0],
        [0, 0, 0, 0, -1, 2, 0, 0],
        [0, 0, 0, 0, -1, 0, 2, -1],
        [0, 0, 0, 0, 0, 0, -1, 2],
    ],
    "4I4": [[4 if i == j else 0 for j in range(4)] for i in range(4)],
}

#: forms of the ``oracle`` workload: the coset-average oracle on every
#: isotropic element, and the group law of rho.
ORACLE_SYMBOLS = ["3^+3", "5^+2", "2_2^+2.4_II^+2", "2_II^+2.3^-2"]

#: group-law checks per oracle form, each on a fresh seeded pair (A, B).
LAW_CHECKS_PER_FORM = 4

#: entries of A and B are at most this in absolute value.
MATRIX_BOUND = 10**6

#: the words of A, B and A*B have this many tokens, counted as the
#: floor-division Euclidean algorithm writes them (the decomposition that
#: weil.word_decompose used when the benchmark was defined).  Bounding the
#: length keeps the work of a check about the same from seed to seed.
WORD_TOKENS = (50, 124)

WORKLOADS = ("dim", "basis", "oracle")

#: where generated files (Gram matrices, traces, results) go, relative to
#: the root of the checkout.
OUT_DIR = Path("perfbench") / "out"


def gram_path(name: str) -> str:
    return str(OUT_DIR / f"gram-{name}.json")


def cli_ops(workload: str) -> list[dict]:
    """The CLI operations of a workload, in their canonical order."""
    ops = []
    if workload == "dim":
        for sym in DIM_SYMBOLS:
            ops.append({"id": f"dim {sym}", "argv": ["dim", "--symbol", sym]})
    elif workload == "basis":
        for sym in BASIS_SYMBOLS:
            ops.append({"id": f"invariants {sym}", "argv": ["invariants", "--symbol", sym]})
            ops.append({"id": f"induced-basis {sym}", "argv": ["induced-basis", "--check", "--symbol", sym]})
        for sym in COMPOSITE_SYMBOLS:
            ops.append({"id": f"induced-basis {sym}", "argv": ["induced-basis", "--check", "--symbol", sym]})
        for name in GRAMS:
            ops.append(
                {"id": f"jacobi {name}", "argv": ["jacobi", "--precision", "5", "--gram", gram_path(name)]}
            )
        for sym in S2_SYMBOLS:
            ops.append({"id": f"s2dim {sym}", "argv": ["s2dim", "--check", "--symbol", sym]})
    for op in ops:
        op["kind"] = "cli"
    return ops


def symbols_of(workload: str) -> list[str]:
    """Every genus symbol the workload builds a form for during set-up."""
    return {
        "dim": DIM_SYMBOLS,
        "basis": BASIS_SYMBOLS + COMPOSITE_SYMBOLS + S2_SYMBOLS,
        "oracle": ORACLE_SYMBOLS,
    }[workload]


def word_tokens(m) -> int:
    """Token count of the floor-division Euclidean word of m in S and T."""
    (a, b), (c, d) = m
    n = 0
    while c != 0:
        k = a // c
        n += 2 if k else 1
        a, b, c, d = c, d, -(a - k * c), -(b - k * d)
    if a == 1:
        return n + (1 if b else 0)
    return n + 2 + (1 if b else 0)


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        k, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - k * x1
        y0, y1 = y1, y0 - k * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def _random_sl2(rng: random.Random):
    while True:
        a = rng.randint(-MATRIX_BOUND, MATRIX_BOUND)
        c = rng.randint(-MATRIX_BOUND, MATRIX_BOUND)
        if c and gcd(a, c) == 1:
            break
    _, x, y = _ext_gcd(a, c)  # a*x + c*y = 1
    return ((a, -y), (c, x))


def _mat_mul(p, q):
    return (
        (p[0][0] * q[0][0] + p[0][1] * q[1][0], p[0][0] * q[0][1] + p[0][1] * q[1][1]),
        (p[1][0] * q[0][0] + p[1][1] * q[1][0], p[1][0] * q[0][1] + p[1][1] * q[1][1]),
    )


def _random_pair(rng: random.Random):
    lo, hi = WORD_TOKENS
    while True:
        a, b = _random_sl2(rng), _random_sl2(rng)
        if all(lo <= word_tokens(m) <= hi for m in (a, b, _mat_mul(a, b))):
            return a, b


def oracle_ops(rng: random.Random, orders: dict[str, tuple[int, ...]], isotropic: dict[str, list]) -> list[dict]:
    """Coset-average oracle calls on every isotropic element, and seeded
    group-law checks; ``orders`` gives each form's generator orders."""
    ops = []
    for sym in ORACLE_SYMBOLS:
        for gamma in isotropic[sym]:
            ops.append({"id": f"oracle {sym} {list(gamma)}", "kind": "oracle", "symbol": sym, "gamma": tuple(gamma)})
        for i in range(LAW_CHECKS_PER_FORM):
            a, b = _random_pair(rng)
            gamma = tuple(rng.randrange(d) for d in orders[sym])
            ops.append(
                {"id": f"law {sym} #{i}", "kind": "law", "symbol": sym, "a": a, "b": b, "gamma": gamma}
            )
    return ops


def write_grams(root: Path) -> None:
    (root / OUT_DIR).mkdir(parents=True, exist_ok=True)
    for name, gram in GRAMS.items():
        (root / gram_path(name)).write_text(json.dumps(gram), encoding="utf-8")
