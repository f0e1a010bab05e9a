from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from weilinv.cyclo import Cyclo, as_rational, e_of
from weilinv.fqm import from_jordan_symbol
from weilinv.intmat import (
    Echelon,
    invert_unimodular,
    rational_inverse,
    row_lattice_basis,
    smith_normal_form,
)
from weilinv.weil import Vec, rank_of_vectors


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


small_matrices = st.lists(
    st.lists(st.integers(-9, 9), min_size=3, max_size=3), min_size=3, max_size=3
)


@given(small_matrices)
def test_snf_transforms(a):
    u, s, v = smith_normal_form(a)
    assert mat_mul(mat_mul(u, a), v) == s
    n = 3
    for i in range(n):
        for j in range(n):
            if i != j:
                assert s[i][j] == 0
    diag = [s[i][i] for i in range(n)]
    for x, y in zip(diag, diag[1:]):
        if y:
            assert x != 0 and y % x == 0


@given(small_matrices)
def test_unimodular_inverse(a):
    u, _, v = smith_normal_form(a)
    for m in (u, v):
        inv = invert_unimodular(m)
        assert mat_mul(m, inv) == [[1 if i == j else 0 for j in range(3)] for i in range(3)]


def test_row_lattice_basis_spans():
    rows = [[2, 0, 0], [0, 3, 0], [0, 0, 4], [1, 1, 1]]
    basis = row_lattice_basis(rows, 3)
    # index = |det| of the basis must divide the obvious sublattice index
    inv = rational_inverse(basis)
    for row in rows:
        coords = [sum(row[a] * inv[a][b] for a in range(3)) for b in range(3)]
        assert all(c.denominator == 1 for c in coords)


@given(st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4), min_size=4, max_size=4))
def test_rational_inverse_is_an_inverse(m):
    _, s, _ = smith_normal_form(m)
    if any(s[i][i] == 0 for i in range(4)):
        with pytest.raises(ValueError):
            rational_inverse(m)
        return
    assert mat_mul(m, rational_inverse(m)) == [[1 if i == j else 0 for j in range(4)] for i in range(4)]


def test_invert_unimodular_rejects_non_unimodular():
    with pytest.raises(ValueError):
        invert_unimodular([[2, 0], [0, 1]])


FORM = from_jordan_symbol("5^+2")

#: sums of two roots of unity, so that normalizing a pivot needs a general inverse
roots = st.builds(lambda a, b: e_of(Fraction(a, 12)) + e_of(Fraction(b, 8)), st.integers(0, 11), st.integers(0, 7))
vectors = st.dictionaries(st.sampled_from(FORM.elements()), roots, max_size=4).map(lambda c: Vec(FORM, c))
families = st.lists(vectors, min_size=1, max_size=4)


@given(families, st.data())
def test_rank_ignores_dependent_vectors(vs, data):
    r = rank_of_vectors(vs)
    combo = Vec(FORM)
    for v in vs:
        combo = combo + v.scale(data.draw(roots))
    assert rank_of_vectors(vs + [combo]) == r
    v = data.draw(st.sampled_from(vs))
    c = data.draw(roots.filter(bool))
    assert rank_of_vectors(vs + [v.scale(c)]) == r


@given(families, st.data())
def test_rank_grows_by_a_basis_vector_outside_the_support(vs, data):
    free = [g for g in FORM.elements() if all(g not in v.coeffs for v in vs)]
    gamma = data.draw(st.sampled_from(free))
    assert rank_of_vectors(vs + [Vec.basis(FORM, gamma)]) == rank_of_vectors(vs) + 1


integer_vectors = st.dictionaries(st.sampled_from(FORM.elements()), st.integers(-3, 3), max_size=5).map(
    lambda c: Vec(FORM, {el: Cyclo.rational(x) for el, x in c.items()})
)


def _cyclo_rank(vs):
    ech = Echelon()
    return sum(ech.add(v.coeffs) for v in vs)


@given(st.lists(integer_vectors, min_size=1, max_size=5), st.data())
def test_rank_over_q_equals_the_cyclotomic_elimination(vs, data):
    """Integer families are eliminated over Q; Echelon on the same rows as
    Cyclo values gives the same rank.  An irrational multiple of one of the
    vectors sends the family through the Cyclo elimination and adds nothing."""
    assert rank_of_vectors(vs) == _cyclo_rank(vs)
    c = data.draw(roots.filter(lambda c: as_rational(c) is None))
    mixed = vs + [data.draw(st.sampled_from(vs)).scale(c)]
    assert rank_of_vectors(mixed) == _cyclo_rank(mixed) == rank_of_vectors(vs)
