import dataclasses
import json
from math import prod
from pathlib import Path

import pytest

from weilinv import fqm, induct, intmat
from weilinv.fqm import InternalInconsistency, from_gram, from_jordan_symbol
from weilinv.fundamental import fundamental_form
from weilinv.intmat import rational_inverse, row_lattice_basis, smith_normal_form
from weilinv.induct import (
    descend,
    isotropic_subgroups,
    lift_up,
    make_isotropic_subgroup,
    quotient,
)
from weilinv.weil import Vec, inv, rho_S, rho_T

from conftest import random_vector


def test_isotropic_elements_examples():
    assert from_jordan_symbol("").isotropic_elements() == [()]
    d = from_jordan_symbol("2_II^-4")
    assert len(d.isotropic_elements()) == 6
    d8 = from_jordan_symbol("2_1^+1.4_3^-1.8_II^+2")
    iso = d8.isotropic_elements()
    assert len(iso) == 64
    assert len([g for g in iso if d8.smul(4, g) == d8.zero()]) == 16


def test_trivial_subgroup_always_present():
    for sym in ["", "3^-1", "2_II^+2"]:
        d = from_jordan_symbol(sym)
        subs = isotropic_subgroups(d)
        assert subs[0].order == 1
        assert subs[0].elements == (d.zero(),)


def test_two_maximal_isotropic_lines():
    d = from_jordan_symbol("3^-2")
    assert len([s for s in isotropic_subgroups(d) if s.order == 3]) == 2
    d = from_jordan_symbol("5^+2")
    assert len([s for s in isotropic_subgroups(d) if s.order == 5]) == 2


def test_order_p_subgroup_count_through_perp():
    # for p^{-4} and isotropic gamma != 0 there is exactly one isotropic
    # line inside gamma-perp
    d = from_jordan_symbol("3^-4")
    subs = [s for s in isotropic_subgroups(d) if s.order == 3]
    for gamma in d.isotropic_elements():
        if gamma == d.zero():
            continue
        a = sum(1 for s in subs if all(d.b(gamma, el) == 0 for el in s.generators))
        assert a == 1, (gamma, a)


def test_perp_sizes():
    for sym in ["3^-2", "2_0^+2", "2_II^-4", "3^+4"]:
        d = from_jordan_symbol(sym)
        for s in isotropic_subgroups(d):
            assert len(s.perp) * s.order == d.order


def _closure(d, gens):
    seen, frontier = {d.zero()}, [d.zero()]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = d.add(cur, g)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


def _isotropic_closures(d):
    """The element sets of the subgroups generated by at most three isotropic
    elements that come out isotropic.  A triple is closed over one generating
    pair of each isotropic pair-subgroup, which gives the same set."""
    iso = d.isotropic_elements()

    def isotropic(els):
        return all(d.q_int(x) == 0 for x in els)

    pairs = {}
    for i, a in enumerate(iso):
        for b in iso[i:]:
            els = _closure(d, (a, b))
            if isotropic(els):
                pairs.setdefault(els, (a, b))
    triples = {_closure(d, (*gens, c)) for gens in pairs.values() for c in iso}
    return set(pairs) | {els for els in triples if isotropic(els)}


@pytest.mark.parametrize(
    "symbol",
    ["4_II^+2", "8_II^+2", "9^+2", "2_2^+2.4_II^+2", "2_II^+2.3^-2", "2_1^+1.4_1^+1.8_II^+2"],
)
def test_isotropic_subgroups_match_exhaustive_closures(symbol):
    """Every isotropic subgroup is found, once.  Three generators suffice:
    |H|^2 <= |D| bounds |H| by 9 where |D| <= 81, and a group of order at
    most 9 has at most three generators; on the larger form, of 2-rank 4,
    an H with four generators would contain all of D[2], which is not
    isotropic there."""
    d = from_jordan_symbol(symbol)
    if d.order > 81:
        assert len(d.kernel_of_mul(2)) == 16 and any(d.q_int(x) for x in d.kernel_of_mul(2))
    found = [frozenset(s.elements) for s in isotropic_subgroups(d)]
    assert len(found) == len(set(found))
    assert set(found) == _isotropic_closures(d)


@pytest.mark.parametrize(
    "symbol",
    ["4_II^+2", "8_II^+2", "9^+2", "2_2^+2.4_II^+2", "2_II^+2.3^-2", "2_1^+1.4_1^+1.8_II^+2"],
)
def test_order_cut_keeps_exactly_the_subgroups_of_that_order(symbol):
    """With an order given, isotropic_subgroups returns the full list
    filtered by order: the same subgroups, generators and perps, in the
    same order."""
    d = from_jordan_symbol(symbol)
    full = isotropic_subgroups(d)
    for order in range(1, max(s.order for s in full) + 1):
        cut = isotropic_subgroups(d, order)
        kept = [s for s in full if s.order == order]
        assert cut == kept and [s.perp for s in cut] == [s.perp for s in kept], order


def _plain_search(d):
    """The breadth-first search with no h skipped: every isotropic h in
    H-perp extends H, and a repeated element set is dropped."""
    iso = set(d.isotropic_elements())
    zero = make_isotropic_subgroup(d, ())
    found, frontier = {zero.elements: zero}, [zero]
    while frontier:
        nxt = []
        for sub in frontier:
            for h in sub.perp:
                new = induct._extend(d, sub, h, found) if h in iso else None
                if new is not None:
                    found[new.elements] = new
                    nxt.append(new)
        frontier = nxt
    return sorted(found.values(), key=lambda s: (s.order, s.elements))


@pytest.mark.parametrize(
    "symbol", ["4_II^+2", "8_II^+2", "2_2^+2.4_II^+2", "2_1^+1.4_1^+1.8_II^+2", "3^+4", "2_II^+6", "4_II^-4"]
)
def test_skipped_extensions_keep_the_generators_of_the_plain_search(symbol):
    """Skipping an h that generates an extension already built changes no
    subgroup and no generator list (the Jacobi output prints them)."""
    d = from_jordan_symbol(symbol)
    assert isotropic_subgroups(d) == _plain_search(d)  # equal generators, elements and order


@pytest.mark.parametrize("n, count", [(1, 2), (2, 6), (3, 30), (4, 270)])
def test_maximal_isotropic_subgroups_of_2_II_plus_2n(n, count):
    """2_II^+2n is the hyperbolic quadratic space of dimension 2n over F_2,
    with prod_(i<n) (2^i + 1) maximal isotropic subspaces."""
    assert count == prod(2**i + 1 for i in range(n))
    assert len(isotropic_subgroups(from_jordan_symbol(f"2_II^+{2 * n}"), 2**n)) == count


def test_subgroups_rejects_non_isotropic_generator():
    d = from_jordan_symbol("2_0^+2")
    bad = next(g for g in d.elements() if d.q(g) != 0)
    with pytest.raises(ValueError):
        make_isotropic_subgroup(d, (bad,))


def test_quotient_trivial_subgroup():
    d = from_jordan_symbol("3^-2")
    s = isotropic_subgroups(d)[0]
    qf = quotient(d, s)
    assert qf.form.order == d.order
    for el in d.elements():
        assert qf.form.q(qf.projection[el]) == d.q(el)


def test_quotient_invariants():
    for sym in ["3^-2", "2_II^+2", "3^-4", "3^+4", "2_2^+2.4_II^+2"]:
        d = from_jordan_symbol(sym)
        for s in isotropic_subgroups(d):
            qf = quotient(d, s)
            assert qf.form.order * s.order**2 == d.order
            assert qf.form.signature() == d.signature()
            for qel in qf.form.elements():
                assert qf.form.q(qel) == d.q(qf.section[qel])


def test_lift_is_characteristic_function():
    d = from_jordan_symbol("2_0^+2")
    s = [x for x in isotropic_subgroups(d) if x.order == 2][0]
    qf = quotient(d, s)
    lifted = lift_up(qf, Vec.basis(qf.form, qf.form.zero()))
    assert set(lifted.coeffs) == set(s.elements)
    assert all(c == 1 for c in lifted.coeffs.values())


def test_descend_after_lift_scales():
    d = from_jordan_symbol("3^+3")
    for s in isotropic_subgroups(d):
        qf = quotient(d, s)
        for qel in qf.form.elements()[:4]:
            v = Vec.basis(qf.form, qel)
            assert descend(qf, lift_up(qf, v)) == v.scale(s.order)


def test_descend_kills_complement_of_perp():
    d = from_jordan_symbol("3^-2")
    s = [x for x in isotropic_subgroups(d) if x.order == 3][0]
    qf = quotient(d, s)
    outside = [g for g in d.elements() if g not in s.perp]
    for g in outside[:5]:
        assert descend(qf, Vec.basis(d, g)).is_zero()


def test_adjointness(rng):
    for sym in ["3^-2", "3^+3", "2_0^+2", "2_II^-4"]:
        d = from_jordan_symbol(sym)
        subs = [s for s in isotropic_subgroups(d) if s.order > 1]
        for s in subs[:2]:
            qf = quotient(d, s)
            for _ in range(6):
                v = random_vector(qf.form, rng)
                w = random_vector(d, rng)
                assert lift_up(qf, v).inner(w) == v.inner(descend(qf, w))


def test_intertwining(rng):
    for sym in ["3^-2", "2_0^+2", "2_II^-4"]:
        d = from_jordan_symbol(sym)
        subs = [s for s in isotropic_subgroups(d) if s.order > 1]
        for s in subs[:2]:
            qf = quotient(d, s)
            for _ in range(4):
                v = random_vector(qf.form, rng)
                assert rho_S(lift_up(qf, v)) == lift_up(qf, rho_S(v))
                assert rho_T(lift_up(qf, v)) == lift_up(qf, rho_T(v))
                w = random_vector(d, rng)
                assert rho_S(descend(qf, w)) == descend(qf, rho_S(w))
                assert rho_T(descend(qf, w)) == descend(qf, rho_T(w))


def test_inv_commutes_with_lift():
    for sym in ["3^-2", "2_0^+2", "3^+3"]:
        d = from_jordan_symbol(sym)
        subs = [s for s in isotropic_subgroups(d) if s.order > 1]
        for s in subs[:2]:
            qf = quotient(d, s)
            for qel in qf.form.isotropic_elements()[:3]:
                v = Vec.basis(qf.form, qel)
                assert inv(d, lift_up(qf, v)) == lift_up(qf, inv(qf.form, v))


def chains(d):
    subs = isotropic_subgroups(d)
    for big in subs:
        if big.order == 1:
            continue
        for small in subs:
            if 1 < small.order < big.order and set(small.elements) <= set(big.elements):
                yield small, big


def test_transitivity_of_lift():
    d = from_jordan_symbol("3^+4")
    checked = 0
    for small, big in chains(d):
        q_small = quotient(d, small)
        mid = make_isotropic_subgroup(
            q_small.form, tuple(q_small.projection[el] for el in big.elements)
        )
        q_mid = quotient(q_small.form, mid)
        q_big = quotient(d, big)
        for qel in q_mid.form.elements():
            v = Vec.basis(q_mid.form, qel)
            rep = q_small.section[q_mid.section[qel]]
            one_step = lift_up(q_big, Vec.basis(q_big.form, q_big.projection[rep]))
            assert lift_up(q_small, lift_up(q_mid, v)) == one_step
        checked += 1
    assert checked >= 8


@pytest.mark.parametrize("symbol, count, distinct", [("2_II^+6", 30, 1), ("3^+5", 40, 12)])
def test_quotients_of_equal_data_share_one_form(symbol, count, distinct, monkeypatch):
    """The H-perp/H of the target-order subgroups (those a Jacobi form basis
    uses) come from the shared registry: one object per generator data, whose
    p-parts are computed once."""
    d = from_jordan_symbol(symbol)
    target = fundamental_form(d.p_part_decompose()[0][0], d.square_class(), d.signature()).realize().order
    quotients = [quotient(d, s).form for s in isotropic_subgroups(d) if s.order**2 * target == d.order]
    forms = {id(q): q for q in quotients}.values()
    assert len(quotients) == count and len(forms) == distinct
    assert len({(q.orders, q.level(), q.qn, q.bn) for q in forms}) == distinct
    first = [q.p_part_decompose() for q in forms]
    built = []
    original = fqm.DiscriminantForm.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(fqm.DiscriminantForm, "__init__", counting)
    for q, parts in zip(forms, first):
        again = q.p_part_decompose()
        assert len(again) == len(parts) and all(a is b for (_, a, _), (_, b, _) in zip(again, parts))
    assert built == []


def _fraction_quotient(form, subgroup):
    """The orders, generators, section and projection of H-perp/H by the
    former Fraction route of quotient: H's coordinates from the product with
    rational_inverse(basis_perp), V^-1 as the inverse of V over Q."""
    k = form.rank
    diagonal = [[form.orders[i] if i == j else 0 for j in range(k)] for i in range(k)]
    basis_perp = row_lattice_basis([list(el) for el in subgroup.perp] + diagonal, k)
    basis_h = row_lattice_basis([list(el) for el in subgroup.elements] + diagonal, k)
    inv_perp = rational_inverse(basis_perp)
    coords = [[sum(row[a] * inv_perp[a][b] for a in range(k)) for b in range(k)] for row in basis_h]
    assert all(x.denominator == 1 for row in coords for x in row)
    _, s, v, _ = smith_normal_form([[int(x) for x in row] for row in coords])
    v_inv = rational_inverse(v)
    assert all(x.denominator == 1 for row in v_inv for x in row)
    orders, gens = [], []
    for j in range(k):
        if s[j][j] > 1:
            orders.append(s[j][j])
            row = [sum(int(v_inv[j][a]) * basis_perp[a][b] for a in range(k)) for b in range(k)]
            gens.append(form.normalize(row))
    qf = form.subform(orders, gens)
    section, projection = {}, {}
    for qel in qf.elements():
        rep = form.zero()
        for a, g in zip(qel, gens):
            rep = form.add(rep, form.smul(a, g))
        coset = sorted(form.add(rep, h) for h in subgroup.elements)
        section[qel] = coset[0]
        projection.update((el, qel) for el in coset)
    return orders, gens, section, projection


def _form(source):
    if source.endswith(".json"):
        return from_gram(json.loads((Path(__file__).parent / source).read_text()))
    return from_jordan_symbol(source)


@pytest.mark.parametrize("source", ["3^+5", "2_II^+6", "2_II^+2.3^-2", "gram_4I4.json"])
def test_quotient_matches_the_fraction_route(source, monkeypatch):
    """On every isotropic subgroup, the integer route (back-substitution, V^-1
    from the Smith form) gives the orders, generators, section and projection
    of the Fraction route."""
    d = _form(source)
    picked = []
    original = fqm.DiscriminantForm.subform

    def spy(self, orders, gens):
        picked.append((orders, gens))
        return original(self, orders, gens)

    monkeypatch.setattr(fqm.DiscriminantForm, "subform", spy)
    for s in isotropic_subgroups(d):
        qf = quotient(d, s)
        new = picked[-1]
        orders, gens, section, projection = _fraction_quotient(d, s)
        assert new == (orders, gens) and qf.form.orders == tuple(orders)
        assert qf.section == section and qf.projection == projection


def test_quotient_calls_no_rational_inverse(monkeypatch):
    calls = []
    original = intmat.rational_inverse
    for module in (intmat, induct):
        monkeypatch.setattr(module, "rational_inverse", lambda m: calls.append(1) or original(m), raising=False)
    d = from_jordan_symbol("2_II^+2.3^-2")
    subs = isotropic_subgroups(d)
    for s in subs:
        quotient(d, s)
    assert len(subs) == 9 and calls == []


def test_h_outside_the_perp_lattice_fails_the_quotient_check():
    """An H-perp cut down to 0 does not contain H: back-substitution leaves a
    remainder, and quotient names the failed check."""
    d = from_jordan_symbol("3^-2")
    s = next(x for x in isotropic_subgroups(d) if x.order == 3)
    with pytest.raises(InternalInconsistency, match="H lattice is not inside the H-perp lattice"):
        quotient(d, dataclasses.replace(s, perp=(d.zero(),)))
