import pytest

from weilinv import fqm
from weilinv.fqm import from_jordan_symbol
from weilinv.fundamental import fundamental_form
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
