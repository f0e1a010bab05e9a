"""Module boundaries of the library: no module of src/weilinv imports an
underscore name from another weilinv module.  Each module is parsed, and
every import of a private name, at module level or inside a function,
fails the test with its file and line."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "weilinv"


def _private_imports(tree: ast.AST):
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("weilinv"):
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                yield node.lineno, f"from {'.' * node.level}{node.module or ''} import {alias.name}"


def test_no_private_names_imported_across_modules():
    found = [
        f"{path.name}:{line}: {what}"
        for path in sorted(SRC.glob("*.py"))
        for line, what in _private_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert len(list(SRC.glob("*.py"))) > 5
    assert not found, "\n".join(found)
