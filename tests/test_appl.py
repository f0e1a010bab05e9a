import json
import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import ceil, floor, isqrt, lcm
from pathlib import Path

import pytest

from weilinv import appl
from weilinv.appl import (
    _enumerate_norms,
    _level_one_basis,
    dim_s2,
    dim_s2_trace,
    jacobi_singular_basis,
    jacobi_theta,
    theta_q_expansion,
)
from weilinv.cli import main
from weilinv.fqm import BoundExceeded, InternalInconsistency, from_gram
from weilinv.induct import isotropic_subgroups
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

TESTS = Path(__file__).resolve().parent

A2A2A2 = json.loads((TESTS / "gram_A2A2A2.json").read_text())


def test_jacobi_builds_one_form_per_gram_matrix(monkeypatch):
    """jacobi_singular_basis and every theta series after it read the one
    form from_gram shares for their Gram matrix: one Smith form in all.  The
    matrix is E8 in the reversed basis, which no other test builds."""
    from weilinv import fqm

    gram = [row[::-1] for row in E8[::-1]]
    calls = []
    original = fqm.smith_normal_form
    monkeypatch.setattr(fqm, "smith_normal_form", lambda g: calls.append(1) or original(g))
    entries = jacobi_singular_basis(gram)
    assert len(entries) == 1
    for e in entries:
        assert theta_q_expansion(gram, list(e.subgroup.elements), e.coefficients, 2) == [1, 240, 2160]
    assert len(calls) == 1


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
    # the modular route, which enumerates only c(0) and c(1), to the full cap
    (entry,) = jacobi_singular_basis(E8)
    assert jacobi_theta(E8, entry, 50) == [1] + [240 * _sigma(3, k) for k in range(1, 51)]


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
    # the modular route enumerates only to dim M_4 = 1, and still refuses 51
    (entry,) = jacobi_singular_basis(E8)
    for precision in (-1, 51):
        with pytest.raises(BoundExceeded):
            jacobi_theta(E8, entry, precision)


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


def _box_theta(gram, form, el, precision):
    """Counts of the vectors of el + L by norm up to precision, from a box:
    every x in L' with x^T Q x <= 2 precision has |x_i| <= isqrt(2 precision
    (Q^-1)_ii) + 1 (the + 1 for a rational x_i)."""
    n = len(gram)
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
    return brute


def _box_coset_theta(gram, form, sub, el, precision):
    """Counts of el + M, M = L + H, as the sum over h in H of those of el + h + L."""
    counts = [_box_theta(gram, form, form.add(el, h), precision) for h in sub.elements]
    return [sum(col) for col in zip(*counts)]


def test_theta_matches_box_enumeration():
    rng = random.Random(20260418)
    cases = 0
    while cases < 40:
        gram = _random_even_gram(rng, rng.randint(1, 4))
        form = from_gram(gram)
        # on a class with q != 0 every coefficient is 0, so the classes are isotropic
        classes = [el for el in form.isotropic_elements() if el != form.zero()]
        if not classes:
            continue
        cases += 1
        el = rng.choice(classes)
        precision = rng.randint(1, 4)
        brute = _box_theta(gram, form, el, precision)
        assert theta_q_expansion(gram, [], {el: 1}, precision) == brute, (gram, el, precision)


def _class_kind(form, sub, el):
    if el in sub.elements:
        return "zero"
    return "two-torsion" if form.smul(2, el) in sub.elements else "general"


@pytest.mark.parametrize("kind", ["zero", "two-torsion", "general"])
@pytest.mark.parametrize("overlattice", [False, True], ids=["H=0", "H!=0"])
def test_theta_of_each_kind_of_coset_matches_box_enumeration(kind, overlattice):
    # 2 gamma in M (the zero coset and two-torsion) takes the half-space search, 2 gamma
    # not in M the plain one; with H != 0 the shift is taken in a basis of the overlattice M
    rng = random.Random(f"{kind}-{overlattice}")
    cases = 0
    while cases < 12:
        gram = _random_even_gram(rng, rng.randint(1, 4))
        form = from_gram(gram)
        subs = [h for h in isotropic_subgroups(form) if (h.order > 1) == overlattice]
        if not subs:
            continue
        sub = rng.choice(subs)
        classes = [el for el in sub.perp if form.q(el) == 0 and _class_kind(form, sub, el) == kind]
        if not classes:
            continue
        cases += 1
        el = rng.choice(classes)
        precision = rng.randint(0, 4)
        theta = theta_q_expansion(gram, list(sub.generators), {el: 1}, precision)
        assert theta == _box_coset_theta(gram, form, sub, el, precision), (gram, sub, el, precision)


@pytest.mark.parametrize("d", [2, 4, 8, 18])
def test_rank_one_theta_matches_box_enumeration(d):
    # rank 1: the top level of the search is also its leaf level
    gram = [[d]]
    form = from_gram(gram)
    for el in form.elements():
        for precision in range(6):
            assert theta_q_expansion(gram, [], {el: 1}, precision) == _box_theta(gram, form, el, precision), (el, precision)


def _box_norms(qmat, shift, bound):
    """Counter of F(c + shift) <= bound over integer c, from a box: |y_i| <=
    sqrt(bound (Q^-1)_ii) for y = c + shift with F(y) <= bound."""
    n = len(qmat)
    qinv = rational_inverse(qmat)
    radius = [isqrt(int(bound * qinv[i][i])) + 1 for i in range(n)]
    box = [range(floor(-r - s), ceil(r - s) + 1) for r, s in zip(radius, shift)]
    counts = Counter()
    for c in product(*box):
        y = [ci + s for ci, s in zip(c, shift)]
        norm = sum(y[i] * qmat[i][j] * y[j] for i in range(n) for j in range(n))
        if norm <= bound:
            counts[norm] += 1
    return counts


def test_enumerate_norms_matches_box_enumeration():
    # shifts in (1/2)Z take the half-space search, the others the plain one
    cases = [([[8]], [Fraction(1)], 30), ([[8]], [Fraction(1, 2)], 30), ([[2]], [Fraction(0)], 0),
             ([[2, 1], [1, 2]], [Fraction(0), Fraction(0)], 0), ([[2, 1], [1, 2]], [Fraction(1, 2), Fraction(0)], 0)]
    rng = random.Random(20261019)
    for _ in range(40):
        n = rng.randint(1, 4)
        den = rng.choice([1, 2, 2, 3, 4])
        cases.append((_random_even_gram(rng, n), [Fraction(rng.randint(-4, 4), den) for _ in range(n)], rng.randint(0, 12)))
    for qmat, shift, bound in cases:
        big_g, counts = _enumerate_norms(qmat, shift, bound)
        expected = Counter({big_g * norm: k for norm, k in _box_norms(qmat, shift, bound).items()})
        assert all(isinstance(norm, int) for norm in counts)
        assert counts == expected, (qmat, shift, bound)


@pytest.mark.parametrize("gram", [A2A2A2, [[4, -2, 2], [-2, 6, -1], [2, -1, 6]]], ids=["A2+A2+A2", "order-100"])
def test_theta_of_a_gamma_minus_gamma_pair_is_the_sum_of_its_classes(gram, monkeypatch):
    searches = []
    monkeypatch.setattr(appl, "_enumerate_norms", lambda *args: searches.append(args) or _enumerate_norms(*args))
    form = from_gram(gram)
    classes = [el for el in form.isotropic_elements() if form.neg(el) != el]
    assert len(classes) >= 8
    for el in classes[:: len(classes) // 4]:
        neg = form.neg(el)
        single = theta_q_expansion(gram, [], {el: 1}, 3)
        assert single == theta_q_expansion(gram, [], {neg: 1}, 3) == _box_theta(gram, form, el, 3)
        # v(gamma) != v(-gamma), and v(gamma) = -v(-gamma)
        for a, b in [(2, -1), (1, 3), (5, -5), (-1, 1)]:
            del searches[:]
            theta = theta_q_expansion(gram, [], {el: a, neg: b}, 3)
            assert len(searches) == (a + b != 0)  # one search per pair, none when the pair cancels
            parts = [theta_q_expansion(gram, [], {el: a}, 3), theta_q_expansion(gram, [], {neg: b}, 3)]
            assert theta == [x + y for x, y in zip(*parts)] == [(a + b) * x for x in single]


def test_e8_theta_searches_half_the_tree(monkeypatch):
    # isqrt runs once per node of the search; counting both halves of the
    # symmetric zero coset of E8 at precision 5 visits 42,130 nodes
    calls = []
    monkeypatch.setattr(appl, "isqrt", lambda x: calls.append(x) or isqrt(x))
    assert theta_q_expansion(E8, [], {from_gram(E8).zero(): 1}, 5) == [1, 240, 2160, 6720, 17520, 30240]
    assert len(calls) <= 21_500


def test_enumerate_norms_refuses_an_indefinite_form_on_every_call():
    # the square completion is cached per matrix; its error is raised anew each time
    for qmat in ([[2, 3], [3, 2]], [[0]], [[2, 3], [3, 2]]):
        with pytest.raises(ValueError, match="not positive definite"):
            _enumerate_norms(qmat, [Fraction(0)] * len(qmat), 4)


def test_square_completion_runs_once_per_form():
    form = from_gram(A2A2A2)
    classes = [el for el in form.isotropic_elements() if el != form.zero()]
    appl._square_completion.cache_clear()
    for el in classes:
        theta_q_expansion(A2A2A2, [], {el: 1}, 2)
    assert appl._square_completion.cache_info().misses == 1
    assert appl._square_completion.cache_info().hits == len(classes) - 1


def _block_gram(block, copies):
    m = len(block)
    return [[block[i % m][j % m] if i // m == j // m else 0 for j in range(m * copies)] for i in range(m * copies)]


def _sigma(r, n):
    return sum(d**r for d in range(1, n + 1) if n % d == 0)


def test_level_one_basis_has_the_known_expansions():
    tau = [0, 1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643]  # Ramanujan's tau(n)
    e4 = [1] + [240 * _sigma(3, n) for n in range(1, 10)]
    e6 = [1] + [-504 * _sigma(5, n) for n in range(1, 10)]
    assert _level_one_basis(4, 9) == (tuple(e4),)
    assert _level_one_basis(6, 9) == (tuple(e6),)
    assert _level_one_basis(12, 9)[1] == tuple(tau)
    assert _level_one_basis(0, 9) == ((1,) + (0,) * 9,)
    for k in range(0, 60):
        # dim M_k: 0 for odd k and k = 2, else k // 12, plus 1 unless k = 2 mod 12
        dim = 0 if k % 2 or k == 2 else k // 12 + (k % 12 != 2)
        basis = _level_one_basis(k, 8)
        assert len(basis) == dim, k
        for j, f in enumerate(basis):
            assert f[: j + 1] == (0,) * j + (1,), (k, j)


# the golden Gram matrices at their golden precisions (4I4 has no entry),
# then three rank-8 lattices with 8, 6 and 30 entries
JACOBI_ORACLE_CASES = [
    *((name, json.loads((TESTS / f"gram_{name}.json").read_text()), p)
      for name, p in [("E8", 5), ("A2A2A2", 8), ("D8E6A2", 0), ("4I4", 3)]),
    ("A2^4", _block_gram([[2, -1], [-1, 2]], 4), 6),
    ("D4+D4", _block_gram(D4, 2), 6),
    ("A1^8", _block_gram([[2]], 8), 6),
]


@pytest.mark.parametrize("name,gram,precision", JACOBI_ORACLE_CASES, ids=[c[0] for c in JACOBI_ORACLE_CASES])
def test_modular_theta_equals_the_full_enumeration(name, gram, precision):
    for entry in jacobi_singular_basis(gram):
        full = theta_q_expansion(gram, list(entry.subgroup.elements), entry.coefficients, precision)
        assert jacobi_theta(gram, entry, precision) == full, (name, entry.subgroup.generators)


def test_modularity_guard_names_its_check(monkeypatch):
    original = _level_one_basis

    def corrupt(k, precision):
        basis = [list(f) for f in original(k, precision)]
        basis[0][1] += 1
        return tuple(map(tuple, basis))

    monkeypatch.setattr(appl, "_level_one_basis", corrupt)
    (entry,) = jacobi_singular_basis(E8)
    with pytest.raises(InternalInconsistency, match="theta modularity check"):
        jacobi_theta(E8, entry, 5)
    monkeypatch.undo()
    # d = 0 (weight 3): a nonzero c(0) cannot be a form of M_3
    monkeypatch.setattr(appl, "theta_q_expansion", lambda *args: [1])
    (entry,) = jacobi_singular_basis(A2A2A2)
    with pytest.raises(InternalInconsistency, match="theta modularity check"):
        jacobi_theta(A2A2A2, entry, 5)


@pytest.mark.parametrize("name", ["E8", "D4D4D4"])
def test_jacobi_precision_does_not_drive_the_search(name, monkeypatch):
    searches = []
    monkeypatch.setattr(appl, "_enumerate_norms", lambda *args: searches.append(args) or _enumerate_norms(*args))
    found = {}
    for precision in ("1", "50"):
        del searches[:]
        assert main(["jacobi", "--precision", precision, "--gram", str(TESTS / f"gram_{name}.json")]) == 0
        found[precision] = list(searches)
    assert found["1"] == found["50"] and found["1"]
