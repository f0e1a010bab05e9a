import io
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from weilinv import cli
from weilinv.cli import main
from weilinv.cyclo import e_of
from weilinv.fqm import InternalInconsistency, from_gram, from_jordan_symbol
from weilinv.fundamental import invariant_basis, invariant_generators, invariant_projection
from weilinv.intmat import Echelon
from weilinv.weil import Vec, inv

ROOT = Path(__file__).resolve().parent.parent


def run_cli(args):
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        status = main(args)
    finally:
        sys.stdout = old
    return status, buf.getvalue()


def test_dim_command():
    status, out = run_cli(["dim", "--symbol", "2_II^-4"])
    assert status == 0
    doc = json.loads(out)
    assert doc["dim"] == 1
    assert doc["closed_form_dim"] == 1
    for key in ("form", "order", "level", "signature", "square_class"):
        assert key in doc


def test_dim_check_flag():
    status, out = run_cli(["dim", "--symbol", "3^-2", "--check"])
    assert status == 0
    doc = json.loads(out)
    assert all(c["pass"] for c in doc["check"])


def test_induced_basis_example():
    status, out = run_cli(["induced-basis", "--symbol", "3^-4"])
    assert status == 0
    doc = json.loads(out)
    assert doc["dim"] == doc["rank"] == 1
    (gen,) = doc["generators"]
    coeffs = {tuple(e["element"]): e["coeff"] for e in gen["vector"]}
    assert coeffs[(0, 0, 0, 0)] == "2"
    assert sum(1 for v in coeffs.values() if v == "-1") == 20


def test_invariants_command():
    status, out = run_cli(["invariants", "--symbol", "5^+2"])
    assert status == 0
    doc = json.loads(out)
    assert doc["dim"] == 2
    assert len(doc["basis"]) == 2


def _cusp_greedy_basis(form):
    """The oracle of invariants: inv on every isotropic gamma, in order, each
    image kept when it is independent of the kept ones."""
    ech, picked = Echelon(), []
    for gamma in form.isotropic_elements():
        v = inv(form, gamma)
        if ech.add(v.coeffs):
            picked.append((gamma, v))
    return picked


GREEDY_BASIS_SOURCES = [
    "3^-2", "3^+2", "5^+2", "5^-2", "7^+2", "2_II^+2", "2_II^-2", "2_II^+4", "2_II^-4", "2_0^+2", "2_4^-2",
    "4_II^+2", "8_II^+2", "9^+2", "3^+3", "3^-4", "3^+4", "2_II^+6", "2_2^+2.4_II^+2", "2_0^+2.4_II^+2",
    "2_II^+2.3^-2", "2_II^+2.5^+2", "3^-2.5^+2", "2_II^+2.3^-4", "3^-1.9^+1", "2_1^+1.4_1^+1.8_II^+2",
    "5^+1.5^+1", "11^+2", "13^-2", "3^+1.5^+1", "16_II^+2", "27^-1.3^+1", "tests/gram_4I4.json",
]


@pytest.mark.parametrize("source", GREEDY_BASIS_SOURCES)
def test_generator_row_picks_match_the_cusp_greedy_basis(source):
    """invariants reads its picks from the rows of the generator matrix and
    projects only those, through the Gram matrix of the picked generators;
    the greedy loop over every cusp-route projection picks the same elements
    and the same vectors, and the projector agrees with the cusp route on
    every isotropic element, not only on the picks."""
    if source.endswith(".json"):
        with open(ROOT / source, encoding="utf-8") as fh:
            form = from_gram(json.load(fh))
    else:
        form = from_jordan_symbol(source)
    assert invariant_basis(form) == _cusp_greedy_basis(form)
    for gamma in form.isotropic_elements():  # inv is memoized by the greedy loop
        assert invariant_projection(form, gamma) == inv(form, gamma), gamma


@pytest.mark.parametrize("symbol, dim", [("3^+5", 10), ("2_II^+6", 15), ("3^-4", 1)])
def test_invariants_projects_only_dim_elements(symbol, dim, monkeypatch):
    """invariants builds its basis from the generators' Gram matrix and
    calls the cusp route for no element; verify calls it once, for the
    first isotropic element, which its cusp-partition check compares with
    the projector."""
    from weilinv import weil

    calls = []
    original = weil._inv_basis
    monkeypatch.setattr(weil, "_inv_basis", lambda form, gamma: calls.append(gamma) or original(form, gamma))
    status, out = run_cli(["invariants", "--symbol", symbol])
    assert status == 0 and json.loads(out)["dim"] == dim and calls == []
    status, out = run_cli(["verify", "--symbol", symbol])
    assert status == 0 and json.loads(out)["pass"] is True
    assert calls == [from_jordan_symbol(symbol).isotropic_elements()[0]]


def _invariants_error(monkeypatch, symbol, generators):
    """invariants on symbol's form, on fresh memos, with the projector built
    from generators(form); the message of the internal error it exits with."""
    from weilinv import fundamental

    monkeypatch.setattr(from_jordan_symbol(symbol), "_caches", {})
    monkeypatch.setattr(fundamental, "invariant_generators", generators)
    status, out = run_cli(["invariants", "--symbol", symbol])
    assert status == 6
    error = json.loads(out)["error"]
    assert error["code"] == "internal-error"
    return error["message"]


def test_generator_fixed_by_t_but_not_by_s_fails_the_invariance_check(monkeypatch):
    message = _invariants_error(monkeypatch, "3^-4", lambda form: [Vec.basis(form, form.zero())])
    assert "basis invariance check" in message and "rho(S)" in message


def test_irrational_generator_fails_the_basis_rank_check(monkeypatch):
    def generators(form):
        return [v.scale(e_of(Fraction(1, 3))) for v in invariant_generators(form)]

    message = _invariants_error(monkeypatch, "3^-4", generators)
    assert "basis rank check" in message and "irrational" in message


def test_irrational_generator_fails_the_integer_normalization_check(monkeypatch):
    def generators(form):
        return [v.scale(e_of(Fraction(1, 3))) for v in invariant_generators(form)]

    monkeypatch.setattr(cli, "invariant_generators", generators)
    status, out = run_cli(["induced-basis", "--symbol", "3^-4"])
    assert status == 6
    error = json.loads(out)["error"]
    assert error["code"] == "internal-error" and "integer normalization check" in error["message"]


def test_a_flipped_lift_coefficient_exits_as_an_internal_error(monkeypatch):
    from weilinv import fundamental

    monkeypatch.setattr(from_jordan_symbol("3^-4"), "_caches", {})
    original = fundamental._table_lift

    def flipped(*args):
        out = original(*args)
        out[max(out)] *= -1
        return out

    monkeypatch.setattr(fundamental, "_table_lift", flipped)
    status, out = run_cli(["induced-basis", "--symbol", "3^-4"])
    assert status == 6
    error = json.loads(out)["error"]
    assert error["code"] == "internal-error" and "basis invariance check" in error["message"]


def test_a_lift_rule_missing_its_element_exits_as_an_internal_error(monkeypatch):
    """With every H taken for a two-four quotient, the lift rules meet an H
    without the elements they expect, and say so."""
    from weilinv import fundamental

    monkeypatch.setattr(from_jordan_symbol("2_6^+2.4_II^+4"), "_caches", {})
    ref = fundamental.fundamental_form(2, "square", 6).realize()
    monkeypatch.setattr(fundamental, "_quotient_exponent_and_level", lambda *args: (ref.exponent(), ref.level()))
    status, out = run_cli(["induced-basis", "--symbol", "2_6^+2.4_II^+4"])
    assert status == 6
    error = json.loads(out)["error"]
    assert error["code"] == "internal-error" and "two-four lift check" in error["message"]


def test_invariants_of_an_odd_signature_form_are_empty():
    status, out = run_cli(["invariants", "--symbol", "2_1^+1"])
    doc = json.loads(out)
    assert status == 0 and doc["dim"] == 0 and doc["basis"] == []


def test_generator_with_non_isotropic_support_fails_the_invariance_check(monkeypatch):
    def generators(form):
        (g,) = invariant_generators(form)
        beta = next(el for el in form.elements() if form.q(el) != 0)
        return [g + Vec.basis(form, beta)]

    message = _invariants_error(monkeypatch, "3^-4", generators)
    assert "basis invariance check" in message and "not supported on isotropic elements" in message


def test_generator_rows_of_too_low_rank_fail_the_basis_check(monkeypatch):
    message = _invariants_error(monkeypatch, "3^-4", lambda form: [])
    assert "basis rank check" in message


def test_parse_error_exit_code():
    status, out = run_cli(["dim", "--symbol", "bogus^^"])
    assert status == 2
    doc = json.loads(out)
    assert doc["error"]["code"] == "parse-error"


def test_gram_input(tmp_path):
    path = tmp_path / "gram.json"
    path.write_text("[[2,1],[1,2]]")
    status, out = run_cli(["dim", "--gram", str(path)])
    assert status == 0
    doc = json.loads(out)
    assert doc["order"] == 3 and doc["level"] == 3


def test_gram_io_error(tmp_path):
    status, out = run_cli(["dim", "--gram", str(tmp_path / "missing.json")])
    assert status == 5
    assert json.loads(out)["error"]["code"] == "io-error"


def test_deeply_nested_gram_is_an_io_error(tmp_path):
    path = tmp_path / "gram.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    status, out = run_cli(["dim", "--gram", str(path)])
    assert status == 5
    assert json.loads(out)["error"]["code"] == "io-error"


def test_recursion_error_outside_the_gram_parser_is_not_mapped(monkeypatch):
    def deep(form):
        raise RecursionError("deep")

    monkeypatch.setattr(cli, "dim_invariants", deep)
    with pytest.raises(RecursionError):
        run_cli(["dim", "--symbol", "3^-2"])


@pytest.mark.parametrize("precision", ["-1", "51", "60"])
def test_jacobi_precision_is_checked_before_any_work(precision, tmp_path, monkeypatch):
    """[[2,1],[1,2]] has no singular-weight basis, so jacobi_theta and
    theta_q_expansion, which check the range too, are never reached for it."""
    path = tmp_path / "gram.json"
    path.write_text("[[2,1],[1,2]]")
    status, out = run_cli(["jacobi", "--precision", precision, "--gram", str(path)])
    assert status == 3
    assert json.loads(out)["error"]["code"] == "bound-exceeded"
    monkeypatch.setattr(cli, "_load_form", None)  # no form is loaded
    assert run_cli(["jacobi", "--precision", precision, "--gram", str(path)])[0] == 3
    monkeypatch.undo()
    assert run_cli(["jacobi", "--precision", "50", "--gram", str(path)])[0] == 0


def test_jacobi_command(tmp_path):
    path = tmp_path / "gram.json"
    path.write_text("[[2,0],[0,2]]")
    status, out = run_cli(["jacobi", "--gram", str(path)])
    assert status == 0
    doc = json.loads(out)
    assert doc["rank"] == doc["dim"] == 0


def test_jacobi_rank_zero_gram(tmp_path):
    """The empty Gram matrix is the rank-0 lattice: its one theta series is 1."""
    path = tmp_path / "gram.json"
    path.write_text("[]")
    status, out = run_cli(["jacobi", "--precision", "3", "--gram", str(path)])
    assert status == 0, out
    doc = json.loads(out)
    assert doc["dim"] == doc["rank"] == 1
    assert doc["weight"] == "0"
    assert [e["theta"] for e in doc["basis"]] == [[1, 0, 0, 0]]


def test_s2dim_command():
    status, out = run_cli(["s2dim", "--symbol", "7^+2", "--check"])
    assert status == 0
    doc = json.loads(out)
    assert doc["dim_s2"] == 1
    assert doc["oracle"]["dim_s2"] == 1


def test_verify_command_passes():
    status, out = run_cli(["verify", "--symbol", "2_0^+2"])
    assert status == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert {c["property"] for c in doc["checks"]} >= {
        "polarization-identity",
        "milgram-gauss-sum",
        "cusp-partition",
    }


@pytest.mark.parametrize(
    "symbol",
    ["2_II^+2", "2_II^-4", "2_0^+2", "3^-2", "3^+3", "5^+2", "2_2^+2.4_II^+2", "2_II^+2.3^-2", "3^-2.5^+2", "16_II^+2"],
)
def test_verify_battery_passes(symbol):
    status, out = run_cli(["verify", "--symbol", symbol])
    assert status == 0
    assert json.loads(out)["pass"] is True


def test_cusp_partition_can_fail(monkeypatch):
    """With the inverse Gram matrix of the projector of 3^-2 doubled, the
    projection doubles; weil.inv, the cusp route that verify compares it
    with, does not, so cusp-partition fails, and so does inv-idempotent.
    Only this form is built, on fresh memos, so that no shared form keeps a
    doubled answer."""
    from weilinv import fundamental

    form = from_jordan_symbol("3^-2")
    monkeypatch.setattr(form, "_caches", {})
    original = fundamental.rational_inverse
    monkeypatch.setattr(fundamental, "rational_inverse", lambda m: [[2 * x for x in row] for row in original(m)])
    status, out = run_cli(["verify", "--symbol", "3^-2"])
    checks = {c["property"]: c["pass"] for c in json.loads(out)["checks"]}
    assert status == 1
    assert checks["cusp-partition"] is False and checks["inv-idempotent"] is False
    assert checks["polarization-identity"] is True


def _verify_checks(symbol):
    status, out = run_cli(["verify", "--symbol", symbol])
    return status, {c["property"]: c["pass"] for c in json.loads(out)["checks"]}


def test_rho_s_squared_can_fail_on_the_s_transform(monkeypatch):
    """With two frequencies of the S transform of 3^-2 swapped, S0 S0 e^gamma
    is no longer |D| e^-gamma for every gamma, and rho-S-squared-is-Z fails
    on the integer kernel.  Only this form is built, on fresh memos, and
    only its tables are changed."""
    from weilinv import weil

    form = from_jordan_symbol("3^-2")
    monkeypatch.setattr(form, "_caches", {})
    original = weil._word_tables

    def swapped(f):
        tab = original(f)
        if f is not form:
            return tab
        freq = list(tab["freq_index"])
        freq[1], freq[2] = freq[2], freq[1]
        return {**tab, "freq_index": freq}

    monkeypatch.setattr(weil, "_word_tables", swapped)
    status, checks = _verify_checks("3^-2")
    assert status == 1 and checks["rho-S-squared-is-Z"] is False


def test_rho_s_squared_can_fail_on_the_s_scalar(monkeypatch):
    """With the scalar G^2 of two S letters of 3^-2 negated, the S transforms
    are right but G^2 is not |D| e(sig/4), and rho-S-squared-is-Z fails:
    the check reads the kernel's scalar, not the milgram-gauss-sum check."""
    from weilinv import weil

    form = from_jordan_symbol("3^-2")
    monkeypatch.setattr(form, "_caches", {})
    original = weil._gauss_power

    def negated(f, k, u):
        out = original(f, k, u)
        return {e: -c for e, c in out.items()} if f is form and k == 2 else out

    monkeypatch.setattr(weil, "_gauss_power", negated)
    status, checks = _verify_checks("3^-2")
    assert status == 1 and checks["rho-S-squared-is-Z"] is False
    assert checks["milgram-gauss-sum"] is True


def test_inv_image_fixed_can_fail(monkeypatch):
    """With the projection replaced by the identity, e^gamma for isotropic
    gamma is fixed by rho(T) but not by rho(S), and inv-image-fixed fails
    on the integer kernel; the identity is still idempotent."""
    monkeypatch.setattr(cli, "invariant_projection", lambda form, v: Vec.basis(form, v) if isinstance(v, tuple) else v)
    status, checks = _verify_checks("3^-2")
    assert status == 1 and checks["inv-image-fixed"] is False
    assert checks["inv-idempotent"] is True and checks["rho-S-squared-is-Z"] is True


def test_output_is_deterministic():
    outs = {run_cli(["invariants", "--symbol", "2_II^+2"])[1] for _ in range(3)}
    assert len(outs) == 1
    outs = {run_cli(["induced-basis", "--symbol", "5^+2"])[1] for _ in range(2)}
    assert len(outs) == 1


# strings with quotes, backslashes, control characters and non-ASCII, beside any other character
_texts = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600'), st.characters()))
_scalars = st.one_of(st.none(), st.booleans(), st.integers(-(2**100), 2**100), _texts)


def _containers(children):
    return st.one_of(st.lists(children), st.lists(children).map(tuple), st.dictionaries(_texts, children))


_documents = st.recursive(_scalars, _containers, max_leaves=25)


def _poisoned(children):
    """Containers that hold one child from children among clean documents."""
    return st.one_of(
        st.tuples(st.lists(_documents, max_size=3), children, st.lists(_documents, max_size=3)).map(
            lambda t: [*t[0], t[1], *t[2]]
        ),
        st.tuples(st.dictionaries(_texts, _documents, max_size=3), _texts, children).map(lambda t: {**t[0], t[1]: t[2]}),
    )


_poisoned_documents = st.recursive(st.sampled_from([0.5, -2.0, Fraction(1, 2)]), _poisoned, max_leaves=6)


@given(_documents)
@example([[1, 0], [True, False], (1, 0), [], {}, ()])  # exact ints and bools must not share a cached list
@example({"b": [2**64, -(2**64)], "a": {"": None, "\"": "\\\x01\u00ff"}})
def test_the_writer_prints_what_json_dumps_prints(doc):
    assert cli._dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)


@given(_poisoned_documents)
def test_the_writer_rejects_floats_and_fractions(doc):
    with pytest.raises(TypeError):
        cli._dumps(doc)


def test_the_writer_rejects_keys_that_are_not_strings():
    for doc in ({1: 2}, {"a": {None: 1}}, {"a": 1, 2: 3}):
        with pytest.raises(TypeError):
            cli._dumps(doc)


def test_text_format():
    status, out = run_cli(["dim", "--symbol", "2_II^+2", "--format", "text"])
    assert status == 0
    assert "dim = 2" in out


def test_gram_entries_must_be_integers(tmp_path):
    for text in ("[[2.7,1],[1,2]]", "[[2,true],[true,2]]"):
        path = tmp_path / "gram.json"
        path.write_text(text)
        status, out = run_cli(["dim", "--gram", str(path)])
        assert status == 2
        assert json.loads(out)["error"]["code"] == "parse-error"


def test_cyclotomic_bound_exit_code(monkeypatch):
    from fractions import Fraction

    from weilinv.cyclo import e_of

    e_of(Fraction(1, 13))  # the cyclotomic polynomial of Q(zeta_13) is cached now
    monkeypatch.setenv("WEILINV_MAX_CYCLO_ORDER", "10")
    status, out = run_cli(["dim", "--symbol", "13^-2"])
    assert status == 3
    assert json.loads(out)["error"]["code"] == "bound-exceeded"


def test_cyclotomic_bound_is_taken_on_lcm_two_level(monkeypatch):
    """dim on 3^+1.5^+1 builds nothing above order 40, the Gauss sum of its
    5-block behind signature(), and its rho values lie in Q(zeta_30),
    lcm(2, 15) = 30: a bound of 45 lets it answer."""
    monkeypatch.setenv("WEILINV_MAX_CYCLO_ORDER", "45")
    status, out = run_cli(["dim", "--symbol", "3^+1.5^+1"])
    assert status == 0 and json.loads(out)["dim"] == 0


#: bounds below the order 81, the level 3 and the working order 24 of 3^-4
LOWERED_BOUNDS = ["max-order=50", "WEILINV_MAX_LEVEL=2", "WEILINV_MAX_CYCLO_ORDER=10"]


@pytest.mark.parametrize(
    "command, symbol, bound",
    [("dim", "7^-2", "WEILINV_MAX_CYCLO_ORDER=10")]
    + [(command, "3^-4", bound) for command in ("dim", "invariants", "induced-basis") for bound in LOWERED_BOUNDS]
    # the Gauss sums behind signature() reach order 24 (3^-4) and 56 (7^+2)
    + [("s2dim", symbol, "WEILINV_MAX_CYCLO_ORDER=10") for symbol in ("3^-4", "7^+2")],
)
def test_repeated_query_respects_lowered_bound(command, symbol, bound, monkeypatch):
    """A query answered once, then repeated in the same process under a
    lowered bound, fails as it would in a fresh process."""
    argv = [command, "--symbol", symbol]
    status, out = run_cli(argv)
    key = "dim_s2" if command == "s2dim" else "dim"
    answers = {"dim": {"7^-2": 2, "3^-4": 1}, "dim_s2": {"3^-4": 0, "7^+2": 1}}
    assert status == 0 and json.loads(out)[key] == answers[key][symbol]
    name, value = bound.split("=")
    if name == "max-order":
        argv += ["--max-order", value]
    else:
        monkeypatch.setenv(name, value)
    status, out = run_cli(argv)
    assert status == 3
    assert json.loads(out)["error"]["code"] == "bound-exceeded"


def test_level_bound_holds_for_the_whole_form_of_several_p_parts(monkeypatch):
    """dim multiplies over p-parts of levels 3 and 5, yet the bound is on
    the whole level 15: exit 3 cold, and again once the answer is memoized."""
    form = from_jordan_symbol("3^+1.5^+1")
    for f in (form, *(part for _, part, _ in form.p_part_decompose())):
        monkeypatch.setattr(f, "_caches", {})
    argv = ["dim", "--symbol", "3^+1.5^+1"]
    monkeypatch.setenv("WEILINV_MAX_LEVEL", "10")
    status, out = run_cli(argv)
    assert status == 3 and json.loads(out)["error"]["code"] == "bound-exceeded"
    monkeypatch.delenv("WEILINV_MAX_LEVEL")
    status, out = run_cli(argv)
    assert status == 0 and json.loads(out)["dim"] == 0
    monkeypatch.setenv("WEILINV_MAX_LEVEL", "10")
    status, out = run_cli(argv)
    assert status == 3 and json.loads(out)["error"]["code"] == "bound-exceeded"


def test_bounds_end_with_the_call(monkeypatch):
    from weilinv.config import LIMITS, Limits

    monkeypatch.setenv("WEILINV_MAX_CYCLO_ORDER", "10")
    monkeypatch.setenv("WEILINV_MAX_LEVEL", "5")
    run_cli(["dim", "--max-order", "7", "--symbol", "2_II^+2"])
    assert LIMITS == Limits()


def test_non_integer_bound_is_a_parse_error(monkeypatch):
    monkeypatch.setenv("WEILINV_MAX_LEVEL", "sixty")
    status, out = run_cli(["dim", "--symbol", "2_II^+2"])
    assert status == 2
    error = json.loads(out)["error"]
    assert error["code"] == "parse-error" and "WEILINV_MAX_LEVEL" in error["message"]


def test_internal_errors_have_their_own_code(monkeypatch):
    from weilinv import cli, weil

    from test_weil import _doubling_last_entry

    form = from_jordan_symbol("5^+2")
    monkeypatch.setattr(form, "_caches", {})
    for part, _ in form.orthogonal_components():
        monkeypatch.setattr(part, "_caches", {})
    # breaks the e^0 column check
    monkeypatch.setattr(weil, "_walk", _doubling_last_entry(weil._walk))
    status, out = run_cli(["dim", "--symbol", "5^+2"])
    assert status == 6
    error = json.loads(out)["error"]
    assert error["code"] == "internal-error" and "cusp column check" in error["message"]

    def failed_rank(*args):
        raise InternalInconsistency("induced rank check: the generating set does not span the invariants")

    monkeypatch.setitem(cli.COMMANDS, "induced-basis", failed_rank)
    status, out = run_cli(["induced-basis", "--symbol", "3^-2"])
    assert status == 6
    assert json.loads(out)["error"]["code"] == "internal-error"


def test_successive_calls_parse_into_fresh_namespaces():
    """The parser is built once per process; an option of one call does not
    carry over to the next."""
    assert cli.build_parser() is cli.build_parser()
    status, out = run_cli(["dim", "--check", "--symbol", "3^-2"])
    assert status == 0 and "check" in json.loads(out)
    status, out = run_cli(["dim", "--symbol", "3^-2"])
    assert status == 0 and "check" not in json.loads(out)


@pytest.mark.parametrize("command", ["dim", "invariants", "induced-basis", "verify"])
def test_order_bound_is_checked_before_the_symbol_is_realized(command):
    """3^+1000 has even signature and order 3^1000; realizing it took 51 s
    before dim reached the bound."""
    start = time.perf_counter()
    status, out = run_cli([command, "--symbol", "3^+1000"])
    assert time.perf_counter() - start < 2
    assert status == 3 and json.loads(out)["error"]["code"] == "bound-exceeded"


def test_order_bound_leaves_s2dim_and_odd_signature_alone():
    status, out = run_cli(["s2dim", "--symbol", "3^+20"])
    assert status == 0 and json.loads(out)["dim_s2"] == 0
    status, out = run_cli(["dim", "--symbol", "2_1^+15"])
    assert status == 0 and json.loads(out)["dim"] == 0


#: commands on the basis path: every row they eliminate is rational
INTEGER_ROW_COMMANDS = [
    [command, *check, "--symbol", symbol]
    for symbol in ("3^+5", "2_II^+6")
    for command, check in (("invariants", []), ("induced-basis", ["--check"]))
] + [["jacobi", "--gram", "tests/gram_4I4.json"]]


@pytest.mark.parametrize("argv", INTEGER_ROW_COMMANDS, ids=" ".join)
def test_the_basis_path_feeds_echelon_only_integer_rows(argv, monkeypatch):
    """Rational coefficients reach Echelon as ints, so it eliminates
    fraction-free; its pivot-1 path is left to irrational rows.  The
    per-form caches are emptied, and from_gram's cache of shared forms, so
    the form's whole construction runs."""
    from functools import cache

    from weilinv import fqm

    monkeypatch.chdir(ROOT)
    if "--symbol" in argv:
        form = from_jordan_symbol(argv[-1])
        parts = [part for part, _ in form.orthogonal_components()] + [p for _, p, _ in form.p_part_decompose()]
        for f in (form, *parts):
            monkeypatch.setattr(f, "_caches", {})
    else:
        monkeypatch.setattr(fqm, "_realize_gram", cache(fqm._realize_gram.__wrapped__))
    original, rows = Echelon.add, []

    def add(self, row):
        assert all(type(x) is int for x in row.values()), row
        rows.append(row)
        return original(self, row)

    monkeypatch.setattr(Echelon, "add", add)
    assert run_cli(argv)[0] == 0
    assert rows
