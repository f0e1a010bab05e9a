"""One enumeration of the lifted generators: in fundamental.py only
fundamental_lifts reads tensor_combine and _direct_sum, and only
fundamental_lifts and fundamental_invariant read _part_lifts.  The module
is parsed, and a read from anywhere else fails the test with its line."""

import ast
from pathlib import Path

FUNDAMENTAL = Path(__file__).resolve().parent.parent / "src" / "weilinv" / "fundamental.py"

READERS = {
    "tensor_combine": {"fundamental_lifts"},
    "_direct_sum": {"fundamental_lifts"},
    "_part_lifts": {"fundamental_lifts", "fundamental_invariant"},
}


def _stray_reads(tree: ast.Module):
    """(name, owner, line) for each read of a guarded name, as a name or an
    attribute, outside its readers; owner is the top-level function or class
    around the read, None at module level."""
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name in READERS and owner not in READERS[name]:
                yield name, owner, node.lineno


def test_only_fundamental_lifts_enumerates_the_lifts():
    found = list(_stray_reads(ast.parse(FUNDAMENTAL.read_text(encoding="utf-8"))))
    assert not found, f"lift enumeration read outside fundamental_lifts: {found}"


def test_the_guard_sees_an_injected_call():
    """Calls from another function, through the module or at module level,
    are reported; calls from a function nested in a reader are not."""
    source = "\n".join([
        "def fundamental_lifts(form):",
        "    def build():",
        "        return tensor_combine(parts), _direct_sum(form, subs), _part_lifts(form, desc)",
        "def fundamental_invariant(desc):",
        "    return _part_lifts(form, desc)",
        "def invariant_generators(form):",
        "    return tensor_combine(parts), fundamental._direct_sum(form, subs)",
        "LIFTS = _part_lifts(form, desc)",
    ])
    assert list(_stray_reads(ast.parse(source))) == [
        ("tensor_combine", "invariant_generators", 7),
        ("_direct_sum", "invariant_generators", 7),
        ("_part_lifts", None, 8),
    ]
