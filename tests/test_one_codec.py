"""One packed codec for Z[zeta_u] columns: in weil.py only the class
_Codec reads bit_length, to_bytes, from_bytes and _rotations, so the digit
width, the block layout and the unpacking live in one place; and cli.py
checks rho on that integer kernel, not through rho_S and rho_T.  The
modules are parsed, and a stray read fails the test with its line."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "weilinv"

CODEC = "_Codec"
FORMAT = {"bit_length", "to_bytes", "from_bytes", "_rotations"}
PUBLIC_RHO = {"rho_S", "rho_T"}


def _names(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.ImportFrom):
        return [alias.name for alias in node.names]
    return []


def _format_reads(tree: ast.Module):
    """(name, owner, line) for each read of a format name outside _Codec;
    owner is the top-level function or class around the read, None at
    module level."""
    for top in tree.body:
        owner = getattr(top, "name", None)
        if owner == CODEC:
            continue
        for node in ast.walk(top):
            for name in _names(node):
                if name in FORMAT:
                    yield name, owner, node.lineno


def _rho_reads(tree: ast.Module):
    """The lines that read rho_S or rho_T, as a name, an attribute or an import."""
    for node in ast.walk(tree):
        if PUBLIC_RHO.intersection(_names(node)):
            yield node.lineno


def _parse(name: str) -> ast.Module:
    return ast.parse((SRC / name).read_text(encoding="utf-8"))


def test_only_the_codec_knows_the_packed_format():
    found = list(_format_reads(_parse("weil.py")))
    assert not found, f"packed format read outside _Codec: {found}"


def test_cli_checks_rho_on_the_integer_kernel():
    found = list(_rho_reads(_parse("cli.py")))
    assert not found, f"cli.py reads rho_S or rho_T at lines {found}"


def test_the_guards_see_a_stray_read():
    """A digit width, a byte read or a rotation table outside _Codec, at
    module level or in a nested function, is reported; inside _Codec it is
    not.  An import or a read of rho_S or rho_T is reported too."""
    source = "\n".join([
        "class _Codec(dict):",
        "    def read(self, x):",
        "        return x.to_bytes(8, 'little'), _rotations(2, 1, 8, 1)",
        "def _e0_column(part, word):",
        "    def build():",
        "        return (part.order**2).bit_length(), int.from_bytes(b'', 'little')",
        "ROT = _rotations(2, 1, 8, 1)",
    ])
    assert list(_format_reads(ast.parse(source))) == [
        ("bit_length", "_e0_column", 6),
        ("from_bytes", "_e0_column", 6),
        ("_rotations", None, 7),
    ]
    source = "\n".join([
        "from .weil import OddSignatureError, rho_S",
        "def check(v):",
        "    return weil.rho_T(v) == v",
    ])
    assert list(_rho_reads(ast.parse(source))) == [1, 3]
