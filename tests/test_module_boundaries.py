"""Module boundaries of the library: no module of src/weilinv imports an
underscore name from another weilinv module, and every module imports only
from the layers below its own,

    arith, config < intmat < cyclo < fqm < weil < induct < fundamental < appl < cli.

Each module is parsed, and every offending import, at module level or
inside a function, fails the test with its file and line."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "weilinv"
LAYERS = [("arith", "config"), ("intmat",), ("cyclo",), ("fqm",), ("weil",), ("induct",), ("fundamental",), ("appl",), ("cli",)]
LAYER = {name: rank for rank, names in enumerate(LAYERS) for name in names}


def _weilinv_imports(tree: ast.AST):
    """(line, statement, module, names) for every import of a weilinv module;
    module is the imported module's name, or None for the package itself."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "weilinv":
                    yield node.lineno, f"import {alias.name}", (alias.name.split(".") + [None])[1], []
        elif isinstance(node, ast.ImportFrom):
            path = (node.module or "").split(".") if node.module else []
            if node.level == 0:
                if not path or path[0] != "weilinv":
                    continue
                path = path[1:]
            what = f"from {'.' * node.level}{node.module or ''} import {', '.join(a.name for a in node.names)}"
            if path:
                yield node.lineno, what, path[0], [a.name for a in node.names]
            else:  # from . import cyclo: each name is a module
                for alias in node.names:
                    yield node.lineno, what, alias.name, [alias.name]


def _modules():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 5
    return [(path, ast.parse(path.read_text(encoding="utf-8"))) for path in paths]


def test_no_private_names_imported_across_modules():
    found = [
        f"{path.name}:{line}: {what}"
        for path, tree in _modules()
        for line, what, _, names in _weilinv_imports(tree)
        if any(name.startswith("_") for name in names)
    ]
    assert not found, "\n".join(found)


def test_modules_import_only_lower_layers():
    assert {path.stem for path, _ in _modules()} - {"__init__", "__main__"} == set(LAYER)
    found = [
        f"{path.name}:{line}: {what}"
        for path, tree in _modules()
        if path.stem in LAYER
        for line, what, module, _ in _weilinv_imports(tree)
        if module is None or LAYER.get(module, len(LAYERS)) >= LAYER[path.stem]
    ]
    assert not found, "\n".join(found)
