"""One driver and one letter step for packed words: in weil.py only
_apply_letter reads the negation table neg_index or picks a rotation per
element from its q value (a T step), only _apply_letter uses
_apply_s_ints, and only _walk uses _apply_letter, so the coset walk,
_e0_column's rests, rho and the S transforms of _s_mismatches apply their
letters through one driver and one kernel.  Only _split reads a token of
a word's last place (x[-1][k]), its first-applied T.  The word fold
_apply_word_packed and the one-word wrapper _lift_word stay gone.  The
module is parsed, and a stray use fails the test with its line."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "weilinv"

LETTER, DRIVER, SPLIT = "_apply_letter", "_walk", "_split"
GONE = {"_apply_word_packed", "_lift_word"}


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
    """(what, owner, line) for each read of neg_index, T step or use of
    _apply_s_ints outside _apply_letter, each use of _apply_letter outside
    _walk, each x[-1][k] outside _split, and each definition or use of a
    name in GONE.  A T step is an index into rot that reads a name bound
    over q_values."""
    q_names = {getattr(top, "name", None): _q_names(top) for top in tree.body}
    for owner, node in _by_owner(tree):
        if owner != LETTER and isinstance(node, ast.Subscript):
            if isinstance(node.slice, ast.Constant) and node.slice.value == "neg_index":
                yield "neg_index", owner, node.lineno
            reads = {x.id for x in ast.walk(node.slice) if isinstance(x, ast.Name)}
            if _name(node.value) == "rot" and reads & q_names[owner]:
                yield "T step", owner, node.lineno
            if owner != SPLIT and isinstance(node.value, ast.Subscript) and ast.unparse(node.value.slice) == "-1":
                yield "last token", owner, node.lineno
        if owner != LETTER and _name(node) == "_apply_s_ints":
            yield "_apply_s_ints", owner, node.lineno
        if owner != DRIVER and _name(node) == LETTER:
            yield LETTER, owner, node.lineno
        if _name(node) in GONE or getattr(node, "name", None) in GONE:
            yield getattr(node, "name", None) or _name(node), owner, node.lineno


def test_one_letter_step():
    found = list(_stray_uses(ast.parse((SRC / "weil.py").read_text(encoding="utf-8"))))
    assert not found, f"letter kernel used outside _apply_letter or _walk: {found}"


def test_the_guard_sees_a_stray_use():
    """A T step, a neg_index read, a use of _apply_s_ints or of
    _apply_letter outside their owners, in a nested function, through zip
    or at module level, is reported, and so is a read of a word's last
    token or a name of GONE; inside _apply_letter, _walk and _split they
    are not."""
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
        "def _walk(form, tab, words, data, codec):",
        "    return _apply_letter(form, tab, words[0][0], data, codec)",
        "def _e0_column(part, word):",
        "    return [_apply_letter(part, tab, x, data, codec) for x in word]",
        "def _apply_word_packed(form, tab, tokens, data, codec):",
        "    return weil._lift_word(lift, 0)",
        "APPLY = _apply_letter",
        "def _split(tokens):",
        "    return (tokens[:-1], tokens[-1][1]) if tokens and tokens[-1][0] == 'T' else (tokens, 0)",
        "def _lift_words(lift, ts):",
        "    p, states = tokens[-1][1] if tokens[-1][0] == 'T' else 0, states[-1]",
    ])
    found = sorted(_stray_uses(ast.parse(source)), key=lambda x: (x[2], x[0]))
    assert found == [
        ("T step", "_apply_words", 5),
        ("_apply_s_ints", "_apply_words", 7),
        ("neg_index", "_apply_words", 7),
        ("_apply_s_ints", "_s_mismatches", 10),
        ("neg_index", None, 11),
        ("_apply_letter", "_e0_column", 15),
        ("_apply_word_packed", "_apply_word_packed", 16),
        ("_lift_word", "_apply_word_packed", 17),
        ("_apply_letter", None, 18),
        ("last token", "_lift_words", 22),
        ("last token", "_lift_words", 22),
    ]
