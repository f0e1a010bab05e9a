"""One field in the word kernel: every value of rho lies in Q(zeta_N), N
the level, because the S scalar e(sig/8)/sqrt|D| is G/|D| with G the Gauss
sum (Milgram), and the cyclotomic bound is taken on lcm(2, N).  weil.py is
parsed, and any read of sqrt_int fails the test with its line."""

import ast
from pathlib import Path

WEIL = Path(__file__).resolve().parent.parent / "src" / "weilinv" / "weil.py"


def _sqrt_int_reads(tree: ast.AST):
    """The lines that read sqrt_int, as a name, an attribute or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            continue
        if "sqrt_int" in names:
            yield node.lineno


def test_weil_reads_no_sqrt_int():
    found = list(_sqrt_int_reads(ast.parse(WEIL.read_text(encoding="utf-8"))))
    assert not found, f"sqrt_int read in weil.py at lines {found}"


def test_the_guard_sees_a_read():
    """A read of sqrt_int in any function, by name or through the module,
    and an import of it, are reported."""
    source = "\n".join([
        "from .cyclo import Cyclo, sqrt_int",
        "def _bound(f):",
        "    return sqrt_int(4)",
        "def g(f):",
        "    return cyclo.sqrt_int(f.order), sqrt_int",
    ])
    assert list(_sqrt_int_reads(ast.parse(source))) == [1, 3, 5, 5]
