"""One letter step for packed words: in weil.py only _apply_letter reads
the negation table neg_index or picks a rotation per element from its q
value (a T step), and only _apply_letter and _s_mismatches use
_apply_s_ints, so the coset walk, _e0_column's words and rho apply their
letters through one kernel.  The module is parsed, and a stray use fails
the test with its line."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "weilinv"

LETTER = "_apply_letter"
S_USERS = {LETTER, "_s_mismatches"}


def _name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _by_owner(tree: ast.Module):
    """(owner, node) for each node, owner the top-level function or class
    around it, None at module level."""
    for top in tree.body:
        for node in ast.walk(top):
            yield getattr(top, "name", None), node


def _q_names(top: ast.AST) -> set[str]:
    """The names bound by a loop or comprehension over anything that calls q_values."""
    out = set()
    for node in ast.walk(top):
        if isinstance(node, (ast.For, ast.comprehension)):
            if any(isinstance(x, ast.Call) and _name(x.func) == "q_values" for x in ast.walk(node.iter)):
                out.update(x.id for x in ast.walk(node.target) if isinstance(x, ast.Name))
    return out


def _stray_uses(tree: ast.Module):
    """(what, owner, line) for each read of neg_index or T step outside
    _apply_letter, and each use of _apply_s_ints outside S_USERS.  A T step
    is an index into rot that reads a name bound over q_values."""
    q_names = {getattr(top, "name", None): _q_names(top) for top in tree.body}
    for owner, node in _by_owner(tree):
        if owner != LETTER and isinstance(node, ast.Subscript):
            if isinstance(node.slice, ast.Constant) and node.slice.value == "neg_index":
                yield "neg_index", owner, node.lineno
            reads = {x.id for x in ast.walk(node.slice) if isinstance(x, ast.Name)}
            if _name(node.value) == "rot" and reads & q_names[owner]:
                yield "T step", owner, node.lineno
        if owner not in S_USERS and _name(node) == "_apply_s_ints":
            yield "_apply_s_ints", owner, node.lineno


def test_one_letter_step():
    found = list(_stray_uses(ast.parse((SRC / "weil.py").read_text(encoding="utf-8"))))
    assert not found, f"letter kernel used outside _apply_letter: {found}"


def test_the_guard_sees_a_stray_use():
    """A T step, a neg_index read or a use of _apply_s_ints outside their
    owners, in a nested function, through zip or at module level, is
    reported; inside _apply_letter and _s_mismatches it is not."""
    source = "\n".join([
        "def _apply_letter(form, tab, letter, data, codec):",
        "    steps = [rot[-n * q % u] for q in form.q_values()]",
        "    return [data[j] for j in tab['neg_index']], _apply_s_ints(form, tab, data, codec)",
        "def _apply_words(form, words, codec):",
        "    steps = [codec.rot[p * q % codec.u] for _, q in zip(els, form.q_values())]",
        "    def build():",
        "        return weil._apply_s_ints(form, tab, data, codec), tab['neg_index']",
        "    return codec.rot[1]",
        "def _s_mismatches(form, tab, data, codec):",
        "    return _apply_s_ints(form, tab, data, codec)",
        "NEG = _word_tables(form)['neg_index']",
    ])
    found = sorted(_stray_uses(ast.parse(source)), key=lambda x: (x[2], x[0]))
    assert found == [
        ("T step", "_apply_words", 5),
        ("_apply_s_ints", "_apply_words", 7),
        ("neg_index", "_apply_words", 7),
        ("neg_index", None, 11),
    ]
