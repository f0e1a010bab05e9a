import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from weilinv import cli
from weilinv.cli import main
from weilinv.cyclo import Cyclo, e_of
from weilinv.fqm import from_gram, from_jordan_symbol
from weilinv.fundamental import invariant_generators
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
    assert cli._invariant_basis(form) == _cusp_greedy_basis(form)
    project = cli._projector(cli._generator_basis(form)[1])
    for gamma in form.isotropic_elements():  # inv is memoized by the greedy loop
        assert Vec(form, {el: Cyclo.rational(x) for el, x in project(gamma).items()}) == inv(form, gamma), gamma


@pytest.mark.parametrize("symbol, dim", [("3^+5", 10), ("2_II^+6", 15), ("3^-4", 1)])
def test_invariants_projects_only_dim_elements(symbol, dim, monkeypatch):
    """invariants builds its basis from the generators' Gram matrix and calls
    the cusp-route inv for no element."""
    calls = []
    monkeypatch.setattr(cli, "inv", lambda form, gamma: calls.append(gamma) or inv(form, gamma))
    status, out = run_cli(["invariants", "--symbol", symbol])
    assert status == 0 and json.loads(out)["dim"] == dim and calls == []


def _invariants_error(monkeypatch, symbol, generators):
    monkeypatch.setattr(cli, "invariant_generators", generators)
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
    monkeypatch.setattr(cli, "invariant_generators", lambda form: [])
    status, out = run_cli(["invariants", "--symbol", "3^-4"])
    assert status == 6
    error = json.loads(out)["error"]
    assert error["code"] == "internal-error" and "basis rank check" in error["message"]


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
    """[[2,1],[1,2]] has no singular-weight basis, so theta_q_expansion,
    which checks the range too, is never reached for it."""
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
    "symbol", ["2_II^+2", "2_II^-4", "2_0^+2", "3^-2", "3^+3", "5^+2", "2_2^+2.4_II^+2", "2_II^+2.3^-2"]
)
def test_verify_battery_passes(symbol):
    status, out = run_cli(["verify", "--symbol", symbol])
    assert status == 0
    assert json.loads(out)["pass"] is True


def test_cusp_partition_can_fail(monkeypatch):
    """With the cusp pieces of 3^-2 doubled, inv doubles; the cusp
    pieces that verify computes from rho on the whole form do not, so
    cusp-partition fails.  Only this form is corrupted, on fresh memos, so
    that no shared form keeps a doubled answer."""
    from weilinv import weil

    form = from_jordan_symbol("3^-2")
    monkeypatch.setattr(form, "_caches", {})
    original = weil._cusp_terms

    def doubled(f, cusp, gamma):
        piece = original(f, cusp, gamma)
        return piece.scale(2) if f is form else piece

    monkeypatch.setattr(weil, "_cusp_terms", doubled)
    status, out = run_cli(["verify", "--symbol", "3^-2"])
    checks = {c["property"]: c["pass"] for c in json.loads(out)["checks"]}
    assert status == 1
    assert checks["cusp-partition"] is False and checks["inv-idempotent"] is False
    assert checks["polarization-identity"] is True


def test_output_is_deterministic():
    outs = {run_cli(["invariants", "--symbol", "2_II^+2"])[1] for _ in range(3)}
    assert len(outs) == 1
    outs = {run_cli(["induced-basis", "--symbol", "5^+2"])[1] for _ in range(2)}
    assert len(outs) == 1


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
    from weilinv import cli, cyclo, weil

    form = from_jordan_symbol("5^+2")
    monkeypatch.setattr(form, "_caches", {})
    for part, _ in form.orthogonal_components():
        monkeypatch.setattr(part, "_caches", {})
    original = weil._apply_word_ints

    def corrupted(part, tab, tokens, data, u):  # breaks the e^0 column check
        image, k = original(part, tab, tokens, data, u)
        support = [i for i, x in enumerate(image) if x is not None and any(cyclo.reduce_mod_phi(u, x))]
        if len(support) > 1:
            image[support[-1]] = [2 * v for v in image[support[-1]]]
        return image, k

    monkeypatch.setattr(weil, "_apply_word_ints", corrupted)
    status, out = run_cli(["dim", "--symbol", "5^+2"])
    assert status == 6
    error = json.loads(out)["error"]
    assert error["code"] == "internal-error" and "cusp column check" in error["message"]

    def failed_rank(*args):
        raise cli.InternalError("induced rank check: the generating set does not span the invariants")

    monkeypatch.setitem(cli.COMMANDS, "induced-basis", failed_rank)
    status, out = run_cli(["induced-basis", "--symbol", "3^-2"])
    assert status == 6
    assert json.loads(out)["error"]["code"] == "internal-error"
