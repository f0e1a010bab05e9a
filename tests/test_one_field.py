"""One field in the word kernel: every value of rho lies in Q(zeta_N), N
the level, because the S scalar e(sig/8)/sqrt|D| is G/|D| with G the Gauss
sum (Milgram).  weil.py is parsed, and a read of sqrt_int outside
_working_order, the cyclotomic bound that still names the square roots,
fails the test with its line."""

import ast
from pathlib import Path

WEIL = Path(__file__).resolve().parent.parent / "src" / "weilinv" / "weil.py"


def _sqrt_int_reads(tree: ast.AST):
    """The lines that read sqrt_int, as a name or an attribute, outside the
    body of _working_order."""
    bound = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "_working_order"]
    allowed = {id(node) for fn in bound for node in ast.walk(fn)}
    for node in ast.walk(tree):
        name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
        if name == "sqrt_int" and id(node) not in allowed:
            yield node.lineno


def test_sqrt_int_is_read_only_by_the_bound():
    tree = ast.parse(WEIL.read_text(encoding="utf-8"))
    assert any(isinstance(node, ast.FunctionDef) and node.name == "_working_order" for node in ast.walk(tree))
    found = list(_sqrt_int_reads(tree))
    assert not found, f"sqrt_int read in weil.py outside _working_order at lines {found}"


def test_the_guard_sees_a_read():
    """A read of sqrt_int in any other function, by name or through the
    module, is reported."""
    source = "\n".join([
        "def _working_order(f):",
        "    return sqrt_int(4)",
        "def g(f):",
        "    return cyclo.sqrt_int(f.order), sqrt_int",
    ])
    assert list(_sqrt_int_reads(ast.parse(source))) == [4, 4]
