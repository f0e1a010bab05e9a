import random
from fractions import Fraction
from itertools import product
from math import isqrt, lcm

import pytest

from weilinv.appl import (
    dim_s2,
    dim_s2_trace,
    jacobi_singular_basis,
    theta_q_expansion,
)
from weilinv.fqm import BoundExceeded, from_gram
from weilinv.intmat import rational_inverse
from weilinv.weil import dim_invariants, rank_of_vectors, rho_S, rho_T

E8 = [
    [2, -1, 0, 0, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0, 0, 0],
    [0, -1, 2, -1, 0, 0, 0, 0],
    [0, 0, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, -1, 0],
    [0, 0, 0, 0, -1, 2, 0, 0],
    [0, 0, 0, 0, -1, 0, 2, -1],
    [0, 0, 0, 0, 0, 0, -1, 2],
]

D4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]


def test_dim_s2_small_levels_vanish():
    for sym in ["2_II^+2", "2_II^-4", "3^+2", "3^-2", "3^+4"]:
        assert dim_s2(sym) == 0


def test_dim_s2_examples():
    assert dim_s2("5^+2") == 0
    assert dim_s2("7^+2") == 1


def test_dim_s2_rejects_odd_rank_and_higher_level():
    with pytest.raises(ValueError):
        dim_s2("5^+3")
    with pytest.raises(ValueError):
        dim_s2("25^+2")
    with pytest.raises(ValueError):
        dim_s2("2_0^+2")


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("eps", [1, -1])
def test_trace_oracle_matches_closed_form_rank_two(p, eps):
    sym = f"{p}^{'+' if eps > 0 else '-'}2"
    data = dim_s2_trace(sym)
    assert data.dim == dim_s2(sym)
    assert data.tr_s == -1
    assert data.alpha_s == Fraction(p**2 + 3, 8)


def test_trace_oracle_printed_intermediates():
    data = dim_s2_trace("7^+2")
    assert data.alpha_st == Fraction(7**2 + 3, 6)
    assert data.d == (7**2 + 1) // 2


def test_jacobi_unimodular():
    form = from_gram(E8)
    assert form.order == 1
    basis = jacobi_singular_basis(E8)
    assert len(basis) == 1
    assert rank_of_vectors([e.vector for e in basis]) == dim_invariants(form) == 1
    assert basis[0].weight == Fraction(4)
    theta = theta_q_expansion(E8, [], basis[0].coefficients, 5)
    assert theta == [1, 240, 2160, 6720, 17520, 30240]


def test_e8_theta_is_eisenstein_e4():
    # theta_E8 = E_4 = 1 + 240 sum sigma_3(n) q^n
    theta = theta_q_expansion(E8, [], {from_gram(E8).zero(): 1}, 8)
    assert theta[0] == 1
    assert theta[1:] == [240 * sum(d**3 for d in range(1, k + 1) if k % d == 0) for k in range(1, 9)]


def test_jacobi_square_diag():
    form = from_gram([[2, 0], [0, 2]])
    assert dim_invariants(form) == 0
    assert jacobi_singular_basis([[2, 0], [0, 2]]) == []


def test_jacobi_level_two_rank_four():
    form = from_gram(D4)
    assert form.level() == 2 and form.order == 4
    assert dim_invariants(form) == 0
    assert jacobi_singular_basis(D4) == []


def _d8_gram():
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = 2
    for i in range(6):
        g[i][i + 1] = g[i + 1][i] = -1
    g[5][7] = g[7][5] = -1
    return g


def test_jacobi_rank_eight_with_two_overlattices():
    gram = _d8_gram()
    form = from_gram(gram)
    assert dim_invariants(form) == 2
    basis = jacobi_singular_basis(gram)
    assert len(basis) == 2
    assert rank_of_vectors([e.vector for e in basis]) == 2
    for entry in basis:
        assert rho_S(entry.vector) == entry.vector
        assert rho_T(entry.vector) == entry.vector
        # both index-2 overlattices are even unimodular of rank 8
        theta = theta_q_expansion(gram, [list(x) for x in entry.subgroup.elements], entry.coefficients, 3)
        assert theta == [1, 240, 2160, 6720]


def test_jacobi_odd_rank_is_empty():
    assert jacobi_singular_basis([[2]]) == []


def test_theta_structural_zeroes():
    # the m = 0 coefficient only sees the zero coset
    gram = [[4, 0], [0, 4]]  # not even-diagonal? 4 is even; level 4 form
    form = from_gram(gram)
    nonzero = next(el for el in form.elements() if el != form.zero())
    theta = theta_q_expansion(gram, [], {nonzero: 1}, 2)
    assert theta[0] == 0


def test_theta_brute_force_small():
    # diag(2,2): counts of x^2 + y^2 = m over the integer lattice
    gram = [[2, 0], [0, 2]]
    theta = theta_q_expansion(gram, [], {(0, 0): 1}, 5)
    brute = [0] * 6
    for x in range(-4, 5):
        for y in range(-4, 5):
            m = x * x + y * y
            if m <= 5:
                brute[m] += 1
    assert theta == brute


def test_theta_coset_brute_force():
    gram = [[2, 0], [0, 2]]
    form = from_gram(gram)
    for el in form.elements():
        lift = form.lattice.lift(el)
        theta = theta_q_expansion(gram, [], {el: 1}, 4)
        brute = [0] * 5
        for x in range(-5, 6):
            for y in range(-5, 6):
                vx, vy = lift[0] + x, lift[1] + y
                norm = vx * vx + vy * vy  # = alpha^2 / ... with gram diag(2,2): alpha^2 = 2(vx^2+vy^2)
                val = Fraction(2) * (vx * vx + vy * vy) / 2
                if val.denominator == 1 and val <= 4:
                    brute[int(val)] += 1
        assert theta == brute, el


def test_theta_precision_bound():
    with pytest.raises(BoundExceeded):
        theta_q_expansion([[2]], [], {(0,): 1}, 200)


def _random_even_gram(rng, n):
    """A random even positive-definite Gram matrix of rank n (pivots of
    Gaussian elimination all positive)."""
    while True:
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = 2 * rng.randint(1, 4)
            for j in range(i):
                g[i][j] = g[j][i] = rng.randint(-2, 2)
        a = [[Fraction(x) for x in row] for row in g]
        for i in range(n):
            if a[i][i] <= 0:
                break
            for j in range(i + 1, n):
                a[j] = [x - a[j][i] / a[i][i] * y for x, y in zip(a[j], a[i])]
        else:
            return g


def test_theta_matches_box_enumeration():
    # every x in L' with x^T Q x <= 2 precision has x_i^2 <= 2 precision (Q^-1)_ii,
    # so |x_i| <= isqrt(2 precision (Q^-1)_ii) + 1 (the + 1 for a rational x_i)
    rng = random.Random(20260418)
    cases = 0
    while cases < 40:
        gram = _random_even_gram(rng, rng.randint(1, 4))
        form, n = from_gram(gram), len(gram)
        # on a class with q != 0 every coefficient is 0, so the classes are isotropic
        classes = [el for el in form.isotropic_elements() if el != form.zero()]
        if not classes:
            continue
        cases += 1
        el = rng.choice(classes)
        precision = rng.randint(1, 4)
        qinv = rational_inverse(gram)
        den = lcm(*(x.denominator for x in form.lattice.lift(el)))
        lift = [int(x * den) for x in form.lattice.lift(el)]  # den * (the lift), integral
        radius = [den * (isqrt(int(2 * precision * qinv[i][i])) + 1) for i in range(n)]
        box = [range(-((r + y) // den), (r - y) // den + 1) for r, y in zip(radius, lift)]
        brute = [0] * (precision + 1)
        for c in product(*box):
            x = [den * ci + y for ci, y in zip(c, lift)]
            norm2 = sum(x[i] * gram[i][j] * x[j] for i in range(n) for j in range(n))  # 2 den^2 q(x)
            if norm2 % (2 * den * den) == 0 and norm2 <= 2 * precision * den * den:
                brute[norm2 // (2 * den * den)] += 1
        assert theta_q_expansion(gram, [], {el: 1}, precision) == brute, (gram, el, precision)
