from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from weilinv.cyclo import Cyclo, as_rational, e_of
from weilinv.fqm import from_jordan_symbol
from weilinv.intmat import (
    Echelon,
    lattice_coordinates,
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


IDENTITY_3 = [[1 if i == j else 0 for j in range(3)] for i in range(3)]


@example([[0, 0, 1], [0, 1, 0], [1, 0, 1]])  # row_lattice_basis of A and of S V^-1 differ here
@given(small_matrices)
def test_snf_transforms(a):
    """S is diagonal, each entry non-negative and dividing the next; for
    nonsingular A, A and S V^-1 span the same row lattice: each row of either
    has integer lattice_coordinates in the other's row_lattice_basis (that
    basis is not canonical, so the two bases are not compared directly)."""
    s, v_inv = smith_normal_form(a)
    n = 3
    for i in range(n):
        for j in range(n):
            if i != j:
                assert s[i][j] == 0
    diag = [s[i][i] for i in range(n)]
    assert all(x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        if y:
            assert x != 0 and y % x == 0
    if determinant(a) == 0:
        return
    s_v_inv = mat_mul(s, v_inv)
    for rows, other in ((a, s_v_inv), (s_v_inv, a)):
        basis = row_lattice_basis(other, n)
        for row in rows:
            lattice_coordinates(basis, row)  # ValueError outside the lattice


@given(small_matrices)
def test_unimodular_inverse(a):
    """V^-1 is unimodular: an integer matrix of determinant +-1."""
    _, v_inv = smith_normal_form(a)
    assert all(type(x) is int for row in v_inv for x in row)
    assert abs(determinant(v_inv)) == 1


def test_row_lattice_basis_spans():
    rows = [[2, 0, 0], [0, 3, 0], [0, 0, 4], [1, 1, 1]]
    basis = row_lattice_basis(rows, 3)
    # index = |det| of the basis must divide the obvious sublattice index
    inv = rational_inverse(basis)
    for row in rows:
        coords = [sum(row[a] * inv[a][b] for a in range(3)) for b in range(3)]
        assert all(c.denominator == 1 for c in coords)


square_matrices = st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(st.integers(-999, 999), min_size=n, max_size=n), min_size=n, max_size=n)
)


def determinant(m):
    """By Gaussian elimination over Fraction, independent of Echelon."""
    a, det = [[Fraction(x) for x in row] for row in m], Fraction(1)
    for i in range(len(a)):
        k = next((k for k in range(i, len(a)) if a[k][i]), None)
        if k is None:
            return 0
        if k != i:
            a[i], a[k], det = a[k], a[i], -det
        det *= a[i][i]
        for r in a[i + 1 :]:
            f = r[i] / a[i][i]
            r[:] = [x - f * y for x, y in zip(r, a[i])]
    return det


@given(st.one_of(small_matrices, square_matrices))
def test_rational_inverse_is_an_inverse(m):
    n = len(m)
    if determinant(m) == 0:
        with pytest.raises(ValueError):
            rational_inverse(m)
        return
    assert mat_mul(m, rational_inverse(m)) == [[1 if i == j else 0 for j in range(n)] for i in range(n)]


integer_rows = st.dictionaries(st.integers(0, 6), st.integers(-30, 30), max_size=5)
nonzero_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool)


@given(st.lists(st.tuples(integer_rows, nonzero_rationals), max_size=7))
def test_integer_rows_eliminate_as_their_fraction_multiples(rows):
    """The fraction-free elimination of integer rows and the pivot-1
    elimination of the same rows as Fractions, each scaled by a rational,
    agree on every add, on the pivot columns and, up to a factor, on the
    stored rows; the integer rows stay primitive with a positive pivot and
    0 at every other pivot column."""
    exact, field = Echelon(), Echelon()
    for row, scale in rows:
        assert exact.add(row) == field.add({col: x * scale for col, x in row.items()})
    assert exact.rows.keys() == field.rows.keys()
    for p, row in exact.rows.items():
        assert all(type(x) is int for x in row.values())
        assert row[p] > 0 and gcd(*row.values()) == 1
        assert not any(q in row for q in exact.rows if q != p)
        assert row == {col: x * row[p] for col, x in field.rows[p].items()}


#: row sets that span a full-rank lattice in Z^3: a few rows plus a diagonal
spanning_rows = st.tuples(
    st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3), max_size=4),
    st.lists(st.integers(1, 6), min_size=3, max_size=3),
).map(lambda t: t[0] + [[d if i == j else 0 for j in range(3)] for i, d in enumerate(t[1])])


@given(spanning_rows, st.lists(st.integers(-9, 9), min_size=3, max_size=3))
def test_lattice_coordinates_by_back_substitution(rows, target):
    """On a row_lattice_basis basis, back-substitution agrees with the
    rational_inverse product: the integer coordinates of every lattice row,
    and ValueError for a row outside the lattice."""
    basis = row_lattice_basis(rows, 3)
    assert all(b[i] > 0 and not any(b[:i]) for i, b in enumerate(basis))
    inv = rational_inverse(basis)
    for row in rows + [target]:
        coords = [sum(row[a] * inv[a][b] for a in range(3)) for b in range(3)]
        if all(c.denominator == 1 for c in coords):
            assert lattice_coordinates(basis, row) == coords
        else:
            with pytest.raises(ValueError):
                lattice_coordinates(basis, row)
    # e_i for the first diagonal entry > 1 lies outside: its coordinates
    # before i are 0, and then basis[i][i] * x_i = 1
    for i, b in enumerate(basis):
        if b[i] > 1:
            with pytest.raises(ValueError):
                lattice_coordinates(basis, IDENTITY_3[i])
            break


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
