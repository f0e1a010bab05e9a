"""One JSON writer for the CLI: cli.py never calls json.dumps, json.dump or
a JSONEncoder with an indent keyword, since with indent set json runs its
pure-Python encoder; documents go through cli._dumps, which writes the same
bytes.  The module is parsed, and a stray call fails the test with its
line."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "weilinv"

ENCODERS = {"dumps", "dump", "JSONEncoder"}


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _indented_calls(tree: ast.Module):
    """The lines of the calls of a json encoder with an indent keyword."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _called_name(node) in ENCODERS:
            if any(k.arg == "indent" for k in node.keywords):
                yield node.lineno


def test_cli_prints_through_the_one_writer():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    found = list(_indented_calls(tree))
    assert not found, f"cli.py calls a json encoder with indent at lines {found}"


def test_the_guard_sees_an_indented_call():
    """json.dumps, a bare dumps, json.dump and JSONEncoder with indent are
    reported, at module level or in a nested function; the compact calls and
    an indent keyword of another function are not."""
    source = "\n".join([
        "import json",
        "from json import dumps",
        "def run(doc, out):",
        "    def show():",
        "        print(json.dumps(doc, indent=2, sort_keys=True))",
        "    print(json.dumps({'error': doc}))",
        "    json.dump(doc, out, indent=None)",
        "    textwrap.indent(doc, '  ')",
        "    wrap(doc, indent=2)",
        "TEXT = dumps({}, sort_keys=True, indent=4)",
        "ENC = json.JSONEncoder(indent=2)",
    ])
    assert sorted(_indented_calls(ast.parse(source))) == [5, 7, 10, 11]
