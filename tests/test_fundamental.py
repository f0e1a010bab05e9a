import json
import random
from fractions import Fraction
from math import isqrt, prod
from pathlib import Path

import pytest

from weilinv import fundamental, induct, weil
from weilinv.appl import jacobi_singular_basis
from weilinv.config import LIMITS
from weilinv.cyclo import Cyclo, e_of
from weilinv.fqm import BoundExceeded, InternalInconsistency, from_gram, from_jordan_symbol
from weilinv.fundamental import (
    fundamental_form,
    fundamental_invariant,
    fundamental_lifts,
    integer_coefficients,
    invariant_generators,
    invariant_projection,
    is_fundamental_quotient,
    tensor_combine,
)
from weilinv.induct import isotropic_subgroups, lift_up, quotient
from weilinv.weil import Vec, dim_invariants, inv, rank_of_vectors, rho_S, rho_T

from conftest import random_vector
from test_appl import _d8_gram

ROOT = Path(__file__).resolve().parent.parent


def integer_normalize(v: Vec) -> Vec:
    """v scaled as fundamental.integer_coefficients scales it."""
    return Vec(v.form, {el: Cyclo.rational(x) for el, x in integer_coefficients(v).items()})


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
    gens = invariant_generators(form)
    assert len(gens) == 1
    fi = fundamental_invariant(desc)
    assert gens[0] == fi.vector or gens[0] == fi.vector.scale(-1)


def test_induced_generating_set_hyperbolic():
    d = from_jordan_symbol("5^+2")
    gens = invariant_generators(d)
    assert rank_of_vectors(gens) == dim_invariants(d) == 2
    # the generators are the characteristic functions of the two isotropic lines
    supports = sorted(tuple(sorted(g.coeffs)) for g in gens)
    subs = [s for s in isotropic_subgroups(d) if s.order == 5]
    assert supports == sorted(tuple(s.elements) for s in subs)


def test_induced_generating_set_two_zero():
    d = from_jordan_symbol("2_0^+2")
    gens = invariant_generators(d)
    assert len(gens) == 1
    x2 = d.canonical_xc(2)
    assert gens[0] == Vec(d, {d.zero(): Cyclo.rational(1), x2: Cyclo.rational(1)})


def test_induced_rank_battery():
    for sym in ["3^+3", "3^-4", "5^+2", "5^-2", "2_II^+2", "2_II^-2", "2_II^-4",
                "2_0^+2", "4_II^+2", "2_2^+2.4_II^+2", "2_6^+2.4_II^+2"]:
        d = from_jordan_symbol(sym)
        gens = invariant_generators(d)
        assert rank_of_vectors(gens) == dim_invariants(d), sym
        for g in gens:
            assert rho_S(g) == g and rho_T(g) == g


def test_tensor_combine_identity():
    d = from_jordan_symbol("3^-2")
    parts = d.p_part_decompose()
    assert len(parts) == 1
    _, part, emb = parts[0]
    basis = invariant_generators(part)
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
    the Jacobi basis) are invariant and span C[D]^Gamma."""
    d = from_jordan_symbol(symbol)
    lifts = [v for _, v in fundamental_lifts(d)]
    assert rank_of_vectors(lifts) == dim_invariants(d) == dim
    for v in lifts:
        assert rho_S(v) == v and rho_T(v) == v


@pytest.mark.parametrize("symbol", ["2_II^+2.3^-2", "2_II^+4.3^-2", "3^+4.5^+2", "2_II^+6.3^-2"])
def test_invariant_generators_are_the_lift_vectors_in_order(symbol):
    """invariant_generators reads fundamental_lifts: the same vectors, in the
    product order over the p-parts."""
    d = from_jordan_symbol(symbol)
    assert invariant_generators(d) == [v for _, v in fundamental_lifts(d)]


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
    assert integer_coefficients(v) == {d.zero(): 1, (1, 0): 2}
    assert integer_coefficients(v.scale(Fraction(-3, 5))) == {d.zero(): 1, (1, 0): 2}
    assert integer_coefficients(Vec(d)) == {}


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


def test_integer_normalize_rejects_an_irrational_coefficient():
    d = from_jordan_symbol("3^-2")
    v = Vec(d, {d.zero(): e_of(Fraction(1, 3))})
    with pytest.raises(InternalInconsistency, match="integer normalization check: .* is irrational"):
        integer_normalize(v)
    with pytest.raises(InternalInconsistency, match="integer normalization check: .* is irrational"):
        integer_coefficients(v)


# ---------------------------------------------------------------------------
# The closed-form lifts against the quotient route
# ---------------------------------------------------------------------------


def _form(source):
    if source.endswith(".json"):
        return from_gram(json.loads((ROOT / source).read_text()))
    return from_jordan_symbol(source)


def _generic_generator(form, kind):
    """The generator of a one-dimensional invariant space by one cusp-route
    projection, no isomorphism used: inv(e^0), or inv(e^gamma) for the least
    isotropic gamma of full level where inv(e^0) vanishes."""
    gamma = form.zero()
    if kind not in ("trivial", "odd-four", "two-even-four"):
        gamma = min(g for g in form.isotropic_elements() if form.element_order(g) == form.level())
    v = inv(form, gamma)
    assert not v.is_zero(), form
    return integer_normalize(v)


def _quotient_route(d, sub, descs):
    """The lift along sub by the quotient route, normalized: H-perp/H realized
    by induct.quotient, the cusp-route generator of each of its p-parts,
    tensored and lifted; None when some p-part is not fundamental."""
    qf = quotient(d, sub)
    parts = qf.form.p_part_decompose()
    by_prime = {p: part for p, part, _ in parts}
    if not all(is_fundamental_quotient(by_prime.get(p, from_jordan_symbol("")), desc) for p, desc in descs.items()):
        return None
    if not parts:
        return integer_normalize(lift_up(qf, Vec.basis(qf.form, qf.form.zero())))
    (v,) = tensor_combine([(part, emb, [_generic_generator(part, descs[p].kind)]) for p, part, emb in parts])
    return integer_normalize(lift_up(qf, v))


ORACLE_SOURCES = [
    "3^+5", "3^-5", "3^+4", "5^+4", "7^+3", "3^-4", "2_II^+6", "2_II^-6", "2_II^+2.2_II^-4", "4_II^-4",
    "tests/gram_4I4.json", "2_II^+2.3^-4", "3^-2.5^+2",
    "2_6^+2.4_II^+4", "2_2^+2.4_II^-4", "2_6^+4.4_II^+2", "2_1^+3.4_1^+1.8_II^+2", "2_7^+1.4_3^-1.8_II^+2.2_II^+2",
]


@pytest.mark.parametrize("source", ORACLE_SOURCES)
def test_closed_lifts_match_the_quotient_route(source):
    """On every isotropic H of the kept order, fundamental_lifts keeps H
    exactly when the quotient route recognizes H-perp/H, and its closed-form
    lift equals the lifted cusp-route generator of H-perp/H after integer
    normalization."""
    d = _form(source)
    descs = {p: fundamental_form(p, part.square_class(), part.signature()) for p, part, _ in d.p_part_decompose()}
    h_order = isqrt(d.order // prod(desc.realize().order for desc in descs.values()))
    expected = []
    for sub in isotropic_subgroups(d, h_order):
        v = _quotient_route(d, sub, descs)
        if v is not None:
            expected.append((sub.elements, v))
    lifts = sorted(fundamental_lifts(d), key=lambda lift: lift[0].elements)
    assert [(sub.elements, integer_normalize(v)) for sub, v in lifts] == expected
    assert rank_of_vectors([v for _, v in lifts]) == dim_invariants(d)


DESCRIPTORS = [
    fundamental_form(p, x, s)
    for p in (2, 3, 5, 7)
    for x in ("square", "non-square")
    for s in (0, 2, 4, 6)
    if fundamental_form(p, x, s) is not None
]


@pytest.mark.parametrize("desc", DESCRIPTORS, ids=lambda desc: desc.symbol or f"trivial-{desc.prime}")
def test_fundamental_invariant_agrees_with_the_cusp_route(desc):
    """The closed builders with H = 0 give F's generator: fundamental_invariant
    reads it from _part_lifts, which proves it invariant, and checks it
    nonzero; this test compares it with the cusp-route projection."""
    fi = fundamental_invariant(desc)
    assert integer_normalize(fi.vector) == _generic_generator(desc.realize(), desc.kind)


def test_a_flipped_closed_lift_on_f_fails_the_invariance_check(monkeypatch):
    """fundamental_invariant proves its generator invariant, through
    _part_lifts: a closed lift on F with one coefficient flipped is refused.
    F's lifts are memoized on F, so its caches are emptied first."""
    desc = fundamental_form(3, "square", 4)
    monkeypatch.setattr(desc.realize(), "_caches", {})
    original = fundamental._table_lift

    def flipped(*args):
        out = original(*args)
        out[max(out)] *= -1
        return out

    monkeypatch.setattr(fundamental, "_table_lift", flipped)
    with pytest.raises(InternalInconsistency, match="basis invariance check: rho\\(S\\) moves vector 0"):
        fundamental_invariant(desc)


@pytest.mark.parametrize("symbol", ["3^-2", "5^+2", "2_II^+2.3^-2", "3^+1"])
def test_invariant_projection_of_a_cyclotomic_vector_is_the_cusp_route(symbol):
    """The projector works over the cyclotomic field too: on a vector with
    irrational coefficients, non-isotropic support included, it equals the
    cusp-route inv (zero at odd signature)."""
    d = from_jordan_symbol(symbol)
    els = d.elements()
    v = Vec(d, {el: e_of(Fraction(k, 12)) * (k + 1) for k, el in enumerate(els[:: max(1, len(els) // 7)])})
    assert invariant_projection(d, v) == inv(d, v)


@pytest.mark.parametrize("symbol", ["7^-4", "2_II^+2.3^-2"])
def test_rational_projection_in_ints_is_the_cyclotomic_one(symbol, monkeypatch):
    """A vector with rational coefficients is projected in ints, building
    no more Cyclo than its image has distinct coefficients; the same vector
    times e(1/3) is projected in Cyclo, and the two routes agree:
    inv(e(1/3) v) = e(1/3) inv(v), on seeded vectors of any support."""
    d, r, z = from_jordan_symbol(symbol), random.Random(symbol), e_of(Fraction(1, 3))
    invariant_projection(d, d.zero())  # the projector, built before counting
    builds, init = [], Cyclo.__init__
    monkeypatch.setattr(Cyclo, "__init__", lambda c, *args, **kwargs: builds.append(c) or init(c, *args, **kwargs))
    for _ in range(3):
        v = random_vector(d, r, density=0.2)
        del builds[:]
        image = invariant_projection(d, v)
        assert 0 < len(builds) <= len({(c.order, c.num, c.den) for c in image.coeffs.values()})
        assert invariant_projection(d, v.scale(z)) == image.scale(z)


def test_basis_check_runs_in_chunks_of_max_blocks(monkeypatch):
    """check_invariant_basis runs its vectors in chunks of at most
    _MAX_BLOCKS: under a cap of 4 no codec holds more than 4 blocks, the
    generators of 3^+5 pass, and a vector moved in a later chunk is named
    by its own index."""
    d = from_jordan_symbol("3^+5")
    vectors = [integer_coefficients(v) for v in invariant_generators(d)]
    sizes, init = [], weil._Codec.__init__

    def recording(codec, *args, **kwargs):
        init(codec, *args, **kwargs)
        sizes.append(codec.blocks * codec.lanes)

    monkeypatch.setattr(weil._Codec, "__init__", recording)
    monkeypatch.setattr(weil, "_MAX_BLOCKS", 4)
    weil.check_invariant_basis(d, vectors)
    assert len(sizes) == -(-len(vectors) // 4) > 2 and max(sizes) <= 4
    el = min(vectors[6])
    moved = [*vectors[:6], {**vectors[6], el: 2 * vectors[6][el]}, *vectors[7:]]
    with pytest.raises(InternalInconsistency, match="rho\\(S\\) moves vector 6 "):
        weil.check_invariant_basis(d, moved)


def _mutated(monkeypatch, symbol, builder, mutate):
    """invariant_generators of symbol's form with emptied caches, the lift
    builder's output changed by mutate(form, out, gamma), gamma the least
    key of the output."""
    d = from_jordan_symbol(symbol)
    monkeypatch.setattr(d, "_caches", {})
    original = getattr(fundamental, builder)

    def mutated(form, *args):
        out = original(form, *args)
        mutate(form, out, min(out))
        return out

    monkeypatch.setattr(fundamental, builder, mutated)
    return invariant_generators(d)


def test_a_flipped_lift_coefficient_fails_the_invariance_check(monkeypatch):
    def flip(form, out, gamma):
        out[max(out)] *= -1

    with pytest.raises(InternalInconsistency, match="basis invariance check: rho\\(S\\) moves vector 0"):
        _mutated(monkeypatch, "3^-4", "_table_lift", flip)


def _swap_the_two_four_pair(form, out, gamma):
    """Of the two mu with 2 mu = 2 gamma and b(mu, gamma) = 1/2, alpha gets +1
    and the other -1; swap them."""
    pair = [mu for mu in out if form.smul(2, mu) == form.smul(2, gamma) and form.b(mu, gamma) == Fraction(1, 2)]
    assert sorted(out[mu] for mu in pair) == [-1, 1]
    for mu in pair:
        out[mu] *= -1


def _flip_a_two_eight_k2_element(form, out, gamma):
    out[min(mu for mu in out if form.b(mu, gamma) == Fraction(2, 8))] *= -1


@pytest.mark.parametrize(
    "symbol,builder,mutate",
    [
        ("2_6^+2.4_II^+2", "_two_four_lift", _swap_the_two_four_pair),
        ("2_1^+1.4_1^+1.8_II^+2", "_two_eight_lift", _flip_a_two_eight_k2_element),
    ],
    ids=["two-four-alpha", "two-eight-k2"],
)
def test_a_mutated_two_adic_lift_fails_the_invariance_check(monkeypatch, symbol, builder, mutate):
    """On F itself (H = 0, so a coset is one element)."""
    with pytest.raises(InternalInconsistency, match="basis invariance check"):
        _mutated(monkeypatch, symbol, builder, mutate)


def test_closed_kinds_use_neither_the_quotient_nor_the_cusp_route(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("quotient or cusp route called")

    monkeypatch.setattr(weil, "_inv_basis", refuse)
    monkeypatch.setattr(induct, "quotient", refuse)
    monkeypatch.setattr(induct, "lift_up", refuse)
    for symbol, count in (("3^+5", 40), ("2_II^+6", 30), ("3^-4", 1), ("2_6^+2.4_II^+4", 140), ("2_1^+3.4_1^+1.8_II^+2", 12)):
        d = from_jordan_symbol(symbol)
        monkeypatch.setattr(d, "_caches", {})
        assert len(invariant_generators(d)) == count
    gram = json.loads((ROOT / "tests/gram_4I4.json").read_text())
    assert jacobi_singular_basis(gram) == []
    assert len(jacobi_singular_basis(_d8_gram())) == 2
