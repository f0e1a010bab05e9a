from fractions import Fraction

import pytest

from weilinv.config import LIMITS
from weilinv.cyclo import Cyclo
from weilinv.fqm import BoundExceeded, from_jordan_symbol
from weilinv.fundamental import (
    fundamental_form,
    fundamental_invariant,
    fundamental_lifts,
    induced_generating_set,
    integer_normalize,
    invariant_generators,
    is_fundamental_quotient,
    tensor_combine,
)
from weilinv.induct import isotropic_subgroups, lift_up, quotient
from weilinv.weil import Vec, dim_invariants, inv, rank_of_vectors, rho_S, rho_T


def test_table_square_rows():
    d = fundamental_form(3, "square", 0)
    assert d.kind == "trivial" and d.symbol == ""
    d = fundamental_form(7, "square", 4)
    assert d.symbol == "7^-4"
    assert fundamental_form(3, "square", 2) is None
    assert fundamental_form(5, "square", 6) is None
    d = fundamental_form(2, "square", 4)
    assert d.symbol == "2_II^-4"
    for t in (2, 6):
        d = fundamental_form(2, "square", t)
        assert d.symbol == f"2_{t}^+2.4_II^+2"


def test_table_non_square_rows():
    for p in (3, 5, 7):
        for s in (0, 2, 4, 6):
            d = fundamental_form(p, "non-square", s)
            if d is not None:
                form = d.realize()
                assert form.signature() == s
                assert form.square_class() == "non-square"
    for s in (0, 2, 4, 6):
        d = fundamental_form(2, "non-square", s)
        form = d.realize()
        assert form.signature() == s
        assert form.order == 512 and form.level() == 8


def test_odd_signature_has_no_fundamental_form():
    assert fundamental_form(3, "square", 1) is None
    assert fundamental_form(2, "non-square", 3) is None


def test_realizable_signatures_match_p_mod_8():
    # 17-adic forms only realize signatures 0 and 4
    assert fundamental_form(17, "non-square", 2) is None
    assert fundamental_form(17, "non-square", 0) is not None


def test_fundamental_dimensions_are_one():
    for desc in [
        fundamental_form(3, "square", 4),
        fundamental_form(3, "non-square", 2),
        fundamental_form(2, "square", 4),
        fundamental_form(2, "square", 2),
    ]:
        assert dim_invariants(desc.realize()) == 1


def test_trivial_invariant():
    fi = fundamental_invariant(fundamental_form(3, "square", 0))
    assert fi.vector == Vec.basis(fi.descriptor.realize(), ())


def test_odd_four_invariant_table_form():
    fi = fundamental_invariant(fundamental_form(3, "square", 4))
    form = fi.descriptor.realize()
    iso = form.isotropic_elements()
    assert fi.vector.coefficient(form.zero()) == Cyclo.rational(2)
    for mu in iso:
        if mu != form.zero():
            assert fi.vector.coefficient(mu) == Cyclo.rational(-1)


def test_two_even_four_invariant():
    fi = fundamental_invariant(fundamental_form(2, "square", 4))
    form = fi.descriptor.realize()
    assert len(form.isotropic_elements()) == 6
    assert len(fi.vector.coeffs) == 6


@pytest.mark.parametrize("p", [3, 5, 7])
def test_odd_three_plus_minus_sizes(p):
    for s in (0, 2, 4, 6):
        desc = fundamental_form(p, "non-square", s)
        if desc is None:
            continue
        fi = fundamental_invariant(desc)
        assert len(fi.plus_set) == len(fi.minus_set) == (p * p - 1) // 2
        assert not set(fi.plus_set) & set(fi.minus_set)


@pytest.mark.parametrize("t", [2, 6])
def test_two_four_plus_minus_sizes(t):
    fi = fundamental_invariant(fundamental_form(2, "square", t))
    assert len(fi.plus_set) == len(fi.minus_set) == 6


@pytest.mark.parametrize("s", [0, 2, 4, 6])
def test_level_eight_plus_minus_sizes(s):
    fi = fundamental_invariant(fundamental_form(2, "non-square", s))
    assert len(fi.plus_set) == len(fi.minus_set) == 24


def test_invariant_is_fixed_by_generators():
    for desc in [fundamental_form(3, "non-square", 2), fundamental_form(2, "square", 2)]:
        fi = fundamental_invariant(desc)
        assert rho_S(fi.vector) == fi.vector
        assert rho_T(fi.vector) == fi.vector


def test_invariant_coefficients_are_primitive():
    from math import gcd

    for desc in [fundamental_form(5, "square", 4), fundamental_form(2, "square", 6)]:
        fi = fundamental_invariant(desc)
        g = 0
        from weilinv.cyclo import as_rational

        for c in fi.vector.coeffs.values():
            r = as_rational(c)
            assert r.denominator == 1
            g = gcd(g, int(r))
        assert g == 1


def test_recognition_by_invariants():
    desc = fundamental_form(3, "non-square", 2)
    assert is_fundamental_quotient(desc.realize(), desc)
    assert is_fundamental_quotient(from_jordan_symbol(""), fundamental_form(3, "square", 0))
    assert not is_fundamental_quotient(from_jordan_symbol("9^+1"), desc)
    assert not is_fundamental_quotient(from_jordan_symbol("3^+3"), fundamental_form(3, "non-square", 6))


def test_fundamentals_not_induced_from_proper_subgroups():
    for desc in [
        fundamental_form(3, "square", 4),
        fundamental_form(3, "non-square", 2),
        fundamental_form(2, "square", 4),
        fundamental_form(2, "square", 2),
    ]:
        form = desc.realize()
        contributing = []
        for sub in isotropic_subgroups(form):
            if sub.order == 1:
                continue
            qf = quotient(form, sub)
            if is_fundamental_quotient(qf.form, desc):
                contributing.append(sub)
        assert contributing == []


def test_induced_generating_set_on_fundamental_form():
    desc = fundamental_form(3, "non-square", 2)
    form = desc.realize()
    gens = induced_generating_set(form)
    assert len(gens) == 1
    fi = fundamental_invariant(desc)
    assert gens[0] == fi.vector or gens[0] == fi.vector.scale(-1)


def test_induced_generating_set_hyperbolic():
    d = from_jordan_symbol("5^+2")
    gens = induced_generating_set(d)
    assert rank_of_vectors(gens) == dim_invariants(d) == 2
    # the generators are the characteristic functions of the two isotropic lines
    supports = sorted(tuple(sorted(g.coeffs)) for g in gens)
    subs = [s for s in isotropic_subgroups(d) if s.order == 5]
    assert supports == sorted(tuple(s.elements) for s in subs)


def test_induced_generating_set_two_zero():
    d = from_jordan_symbol("2_0^+2")
    gens = induced_generating_set(d)
    assert len(gens) == 1
    x2 = d.canonical_xc(2)
    assert gens[0] == Vec(d, {d.zero(): Cyclo.rational(1), x2: Cyclo.rational(1)})


def test_induced_rank_battery():
    for sym in ["3^+3", "3^-4", "5^+2", "5^-2", "2_II^+2", "2_II^-2", "2_II^-4",
                "2_0^+2", "4_II^+2", "2_2^+2.4_II^+2", "2_6^+2.4_II^+2"]:
        d = from_jordan_symbol(sym)
        gens = induced_generating_set(d)
        assert rank_of_vectors(gens) == dim_invariants(d), sym
        for g in gens:
            assert rho_S(g) == g and rho_T(g) == g


def test_induced_rejects_composite_level():
    d = from_jordan_symbol("2_II^+2.3^-2")
    with pytest.raises(ValueError):
        induced_generating_set(d)


def test_tensor_combine_identity():
    d = from_jordan_symbol("3^-2")
    parts = d.p_part_decompose()
    assert len(parts) == 1
    _, part, emb = parts[0]
    basis = induced_generating_set(part)
    combined = tensor_combine([(part, emb, basis)])
    assert rank_of_vectors(combined) == 2


def test_tensor_combine_composite():
    d = from_jordan_symbol("2_II^+2.3^-2")
    gens = invariant_generators(d)
    assert rank_of_vectors(gens) == dim_invariants(d) == 4
    for g in gens:
        assert rho_S(g) == g and rho_T(g) == g


@pytest.mark.parametrize(
    "symbol, dim", [("2_II^+2.3^-2", 4), ("2_II^+2.5^+2", 4), ("3^-2.5^+2", 4), ("2_II^+2.3^-4", 2)]
)
def test_composite_level_lifts_span_the_invariants(symbol, dim):
    """At composite level the lifts of fundamental_lifts (the overlattices of
    the Jacobi basis) are invariant and span C[D]^Gamma, the same span as the
    tensor route of invariant_generators."""
    d = from_jordan_symbol(symbol)
    lifts = [lift_up(qf, v) for qf, v in fundamental_lifts(d)]
    assert rank_of_vectors(lifts) == dim_invariants(d) == dim
    for v in lifts:
        assert rho_S(v) == v and rho_T(v) == v
    assert rank_of_vectors(lifts + invariant_generators(d)) == dim


def test_tensor_combine_zero_factor():
    d = from_jordan_symbol("2_II^+2.3^+1")  # 3-part has no invariants
    gens = invariant_generators(d)
    assert gens == []
    assert dim_invariants(d) == 0


def test_integer_normalize_rules():
    d = from_jordan_symbol("3^-2")
    v = Vec(d, {d.zero(): Cyclo.rational(Fraction(-2, 3)), (1, 0): Cyclo.rational(Fraction(-4, 3))})
    n = integer_normalize(v)
    assert n.coefficient(d.zero()) == Cyclo.rational(1)
    assert n.coefficient((1, 0)) == Cyclo.rational(2)


def test_memoized_generators_respect_the_order_bound(monkeypatch):
    """A repeated call under a lowered max_form_order fails as a cold one does."""
    d = from_jordan_symbol("3^-4")
    invariant_generators(d)
    monkeypatch.setattr(LIMITS, "max_form_order", 50)
    with pytest.raises(BoundExceeded):
        invariant_generators(d)


def test_memoized_generators_are_not_aliased():
    d = from_jordan_symbol("3^-4")
    invariant_generators(d).append(None)
    assert len(invariant_generators(d)) == 1
