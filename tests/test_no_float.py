"""No floating point in the library: every result is exact.  Each module of
src/weilinv is parsed, and a call to float, a float or complex literal, a
power ** 0.5 or an import of cmath fails the test with its file and line."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "weilinv"


def _float_uses(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            yield node.lineno, "call to float"
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"{type(node.value).__name__} literal {node.value!r}"
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and ast.unparse(node.right) == "0.5":
            yield node.lineno, "** 0.5"
        elif isinstance(node, ast.Import) and any(alias.name == "cmath" for alias in node.names):
            yield node.lineno, "import cmath"
        elif isinstance(node, ast.ImportFrom) and node.module == "cmath":
            yield node.lineno, "import from cmath"


def test_no_floating_point_in_src():
    found = [
        f"{path.name}:{line}: {what}"
        for path in sorted(SRC.glob("*.py"))
        for line, what in _float_uses(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert len(list(SRC.glob("*.py"))) > 5
    assert not found, "\n".join(found)
