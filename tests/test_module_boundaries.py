"""Module boundaries of the library: no module of src/weilinv imports an
underscore name from another weilinv module, and every module imports only
from the layers below its own,

    arith, config < intmat < cyclo < fqm < weil < induct < fundamental < appl < cli.

Each module is parsed, and every offending import, at module level or
inside a function, fails the test with its file and line.  And no
module-level function, class or constant is an orphan: each is read
somewhere else in src/weilinv or listed in an __all__."""

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


def _definitions(tree: ast.Module):
    """(name, line) of each module-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield target.id, node.lineno


def _orphans(modules: dict[str, ast.Module]) -> list[str]:
    """module:line: name for each module-level definition that no other
    definition of any module reads (a Name or attribute, its own body
    aside; an import is no read) and no __all__ lists."""
    listed, reads = set(), set()  # reads: (name, module, owner of the read)
    for module, tree in modules.items():
        for top in tree.body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    reads.add((node.id, module, owner))
                elif isinstance(node, ast.Attribute):
                    reads.add((node.attr, module, owner))
            targets = top.targets if isinstance(top, ast.Assign) else []
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                listed.update(x.value for x in ast.walk(top.value) if isinstance(x, ast.Constant))
    return [
        f"{module}:{line}: {name}"
        for module, tree in modules.items()
        for name, line in _definitions(tree)
        if name not in listed and not any(r == name and (m, o) != (module, name) for r, m, o in reads)
    ]


def test_no_orphan_definitions():
    found = _orphans({path.stem: tree for path, tree in _modules()})
    assert not found, "unreferenced module-level names in src/weilinv:\n" + "\n".join(found)


def test_the_orphan_guard_sees_an_orphan():
    """A helper only its own body calls, a constant never read and a class
    only imported elsewhere are orphans; a name read by another module, by
    another definition of its own module, or listed in __all__ is not."""
    modules = {
        "fundamental": ast.parse("\n".join([
            "from .fqm import Form",
            "LIMIT = 3",
            "UNUSED = 4",
            "def integer_normalize(v):",
            "    return integer_normalize(v[1:]) if v else v",
            "def integer_coefficients(v):",
            "    return v[:LIMIT]",
            "def public():",
            "    return fqm.helper()",
        ])),
        "fqm": ast.parse("\n".join([
            "class Form:",
            "    pass",
            "def helper():",
            "    return 1",
        ])),
        "__init__": ast.parse("__all__ = ['public', 'integer_coefficients']"),
    }
    assert _orphans(modules) == [
        "fundamental:3: UNUSED",
        "fundamental:4: integer_normalize",
        "fqm:1: Form",
    ]
