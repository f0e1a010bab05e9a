import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from weilinv import cyclo, weil
from weilinv.cyclo import Cyclo, as_rational, e_of, sqrt_int
from weilinv.arith import ext_gcd
from weilinv.config import LIMITS
from weilinv.fqm import BoundExceeded, InternalInconsistency, from_jordan_symbol
from weilinv.weil import (
    OddSignatureError,
    Vec,
    cusp_classes,
    dim_closed_form,
    dim_invariants,
    enumerate_cosets,
    inv,
    inv_at_cusp,
    inv_average_oracle,
    mat2_inv,
    mat2_mul,
    projection_closed_form,
    rank_of_vectors,
    rho,
    rho_S,
    rho_T,
    sl2_group_order,
    word_decompose,
    S_MAT,
    SL2Word,
    t_power,
)

from conftest import SMALL_EVEN_SYMBOLS, random_vector
from test_acceptance import PROJECTION_SYMBOLS


# -- words and cosets ---------------------------------------------------------


def test_word_decompose_base_cases():
    assert word_decompose(((1, 0), (0, 1))).tokens == ()
    assert word_decompose(S_MAT).tokens == (("S", 1),)
    assert word_decompose(((1, 5), (0, 1))).tokens == (("T", 5),)


def test_word_decompose_random_products(rng):
    for _ in range(60):
        m = ((1, 0), (0, 1))
        for _ in range(rng.randint(1, 9)):
            m = mat2_mul(m, S_MAT if rng.random() < 0.4 else t_power(rng.randint(-6, 6)))
        assert word_decompose(m).matrix() == m


def test_word_decompose_rejects_wrong_determinant():
    with pytest.raises(ValueError):
        word_decompose(((1, 0), (0, 2)))


@pytest.mark.parametrize("m", [((1.5, 0), (0, 1)), ((1, 0.9), (0, 1)), (("1", "0"), ("0", "1"))])
def test_non_integer_matrix_is_rejected(m):
    """An entry that is not an integer is an error, never truncated."""
    d = from_jordan_symbol("3^-2")
    v = Vec.basis(d, (1, 0))
    with pytest.raises(TypeError):
        word_decompose(m)
    with pytest.raises(TypeError):
        rho(m, v)


@pytest.mark.parametrize("symbol", ["3^-2", "2_II^+2", "5^+2"])
def test_determinant_one_only_modulo_the_level_is_rejected(symbol):
    d = from_jordan_symbol(symbol)
    n = d.level()
    v = Vec.basis(d, d.zero())
    for m in [((1, 0), (0, 1 + n)), ((1 + n, 0), (0, 1)), ((1, 0), (0, 1 - n)), ((1, 0), (0, 2))]:
        with pytest.raises(ValueError):
            rho(m, v)


def test_coset_counts():
    assert len(enumerate_cosets(1)) == 1
    assert len(enumerate_cosets(2)) == 6
    assert len(enumerate_cosets(8)) == 384
    assert sl2_group_order(8) == 384


def test_cosets_distinct_and_unimodular():
    """Each coset word is word_decompose's word of its target, though a
    first column's N words come from one decomposition."""
    for n in (2, 3, 4, 5, 6, 7, 8, 12):
        seen = set()
        for word in enumerate_cosets(n):
            (a, b), (c, d) = word.target
            assert a * d - b * c == 1
            assert word.tokens == word_decompose(word.target).tokens, (n, word)
            seen.add((a % n, b % n, c % n, d % n))
        assert len(seen) == sl2_group_order(n)


def test_coset_level_bound():
    from weilinv.config import LIMITS
    from weilinv.fqm import BoundExceeded

    with pytest.raises(BoundExceeded):
        enumerate_cosets(LIMITS.max_level + 1)


def test_form_order_bound():
    from weilinv.fqm import BoundExceeded

    d = from_jordan_symbol("101^+2")  # order 10201 exceeds the default bound
    with pytest.raises(BoundExceeded):
        d.elements()


def test_cusps_partition_group():
    for n in (2, 3, 4, 5, 8):
        per = n if n == 2 else 2 * n
        assert len(cusp_classes(n)) * per == sl2_group_order(n)
        for cusp in cusp_classes(n):
            (a, _), (c, _) = cusp.matrix
            assert (a % n, c % n) == cusp.key or ((-a) % n, (-c) % n) == cusp.key
            assert cusp.inv_word.matrix() == mat2_inv(cusp.matrix)


def _brute_classes(n):
    """The conjugacy classes of SL2(Z/n), as (a, b, c, d) mod n, by
    conjugating with every element of the group."""
    group = [tuple(x % n for row in w.target for x in row) for w in enumerate_cosets(n)]
    classes, seen = [], set()
    for m in group:
        if m not in seen:
            mm = ((m[0], m[1]), (m[2], m[3]))
            orbit = {
                tuple(x % n for row in mat2_mul(mat2_mul(((a, b), (c, d)), mm), ((d, -b), (-c, a))) for x in row)
                for a, b, c, d in group
            }
            classes.append(orbit)
            seen |= orbit
    return classes


@pytest.mark.parametrize("n", range(1, 13))
def test_conjugacy_classes_match_brute_force(n):
    """One representative per class of conjugation by all of SL2(Z/n), its
    target mod n inside the class, with the class's size."""
    brute = {m: orbit for orbit in _brute_classes(n) for m in orbit}
    classes = weil._classes(n)
    assert sum(size for size, _ in classes) == sl2_group_order(n)
    reps = [tuple(x % n for row in word.target for x in row) for _, word in classes]
    assert len(classes) == len({id(o) for o in brute.values()})
    assert len({id(brute[r]) for r in reps}) == len(reps)
    for (size, word), rep in zip(classes, reps):
        assert word.matrix() == word.target
        assert len(brute[rep]) == size


@pytest.mark.parametrize("p", [p for p in range(3, 60) if all(p % q for q in range(2, p))])
def test_prime_level_has_p_plus_four_classes(p):
    """SL2(F_p), p odd, has p + 4 conjugacy classes (Fulton and Harris, 5.2)."""
    assert len(weil._classes(p)) == p + 4


def test_class_sizes_guard(monkeypatch):
    order = weil.sl2_group_order
    monkeypatch.setattr(weil, "sl2_group_order", lambda n: order(n) + 1)
    with pytest.raises(InternalInconsistency, match="conjugacy classes do not partition SL2"):
        weil._classes.__wrapped__(5)


def test_word_has_at_most_bit_length_s_letters():
    """Nearest-integer Euclid at least halves the lower-left entry per S
    letter; two more letters write a final -1."""
    r = random.Random(5)
    for _ in range(300):
        a, c = r.randint(-(10**6), 10**6), r.randint(-(10**6), 10**6)
        if gcd(a, c) != 1:
            continue
        _, x, y = ext_gcd(a, c)  # a*x + c*y = 1
        m = mat2_mul(((a, -y), (c, x)), t_power(r.randint(-(10**6), 10**6)))
        word = word_decompose(m)
        assert word.matrix() == m
        assert sum(kind == "S" for kind, _ in word.tokens) <= abs(c).bit_length() + 2, m


def _count_s_transforms(monkeypatch):
    """The calls of _apply_s_ints from now on, one per full S transform."""
    calls = []
    original = weil._apply_s_ints
    monkeypatch.setattr(weil, "_apply_s_ints", lambda *args: calls.append(1) or original(*args))
    return calls


def _s_transforms(words, calls) -> list[int]:
    """The full S transforms of each word, the -1 shortcut included, counted
    in the kernel on a small form (the count depends on the tokens only)."""
    form = from_jordan_symbol("2_II^+2")
    out = []
    for word in words:
        before = len(calls)
        weil._apply_words(form, [word.tokens], [{0: cyclo.ONE}])
        out.append(len(calls) - before)
    return out


def _mean_s_transforms(words, monkeypatch):
    counts = _s_transforms(words, _count_s_transforms(monkeypatch))
    return sum(counts) / len(counts)


def test_coset_words_are_short(monkeypatch):
    for n in (3, 4, 5, 6):
        assert _mean_s_transforms(enumerate_cosets(n), monkeypatch) <= 1.7, n


def test_cusp_words_are_short(monkeypatch):
    for n in (15, 23, 31):
        assert _mean_s_transforms([cusp.inv_word for cusp in cusp_classes(n)], monkeypatch) <= 2.5, n


# -- generator actions ---------------------------------------------------------


def test_rho_t_fixes_zero():
    d = from_jordan_symbol("3^-2")
    e0 = Vec.basis(d, d.zero())
    assert rho_T(e0) == e0


def test_rho_s_on_two_even():
    d = from_jordan_symbol("2_II^+2")
    v = rho_S(Vec.basis(d, d.zero()))
    assert all(v.coefficient(el) == Cyclo.rational(Fraction(1, 2)) for el in d.elements())


def test_rho_s_squared_is_z():
    for sym in SMALL_EVEN_SYMBOLS:
        d = from_jordan_symbol(sym)
        phase = e_of(Fraction(d.signature(), 4))
        for g in d.elements():
            got = rho_S(rho_S(Vec.basis(d, g)))
            assert got == Vec(d, {d.neg(g): phase}), (sym, g)


def test_braid_relation():
    # (rho(S) rho(T))^3 = rho(S)^2 on every basis vector
    for sym in SMALL_EVEN_SYMBOLS:
        d = from_jordan_symbol(sym)
        for g in d.elements():
            v = Vec.basis(d, g)
            lhs = v
            for _ in range(3):
                lhs = rho_S(rho_T(lhs))
            assert lhs == rho_S(rho_S(v)), (sym, g)


def test_unitarity(rng):
    for sym in ["2_II^+2", "3^-2", "2_0^+2", "2_II^+2.3^-1"]:
        d = from_jordan_symbol(sym)
        for _ in range(8):
            v = random_vector(d, rng)
            w = random_vector(d, rng)
            assert rho_S(v).inner(rho_S(w)) == v.inner(w)
            assert rho_T(v).inner(rho_T(w)) == v.inner(w)


def test_odd_signature_rejected():
    d = from_jordan_symbol("2_1^+1")
    with pytest.raises(OddSignatureError):
        rho_S(Vec.basis(d, d.zero()))
    assert dim_invariants(d) == 0
    assert inv(d, d.zero()).is_zero()


def test_rho_word_independence():
    # two different words for the same matrix act identically
    d = from_jordan_symbol("2_0^+2")
    m = ((7, 3), (2, 1))
    v = Vec.basis(d, (1, 0))
    direct = rho(m, v)
    # conjugated route: M = S^-1 (S M)
    sm = mat2_mul(S_MAT, m)
    alt = rho(mat2_inv(S_MAT), rho(sm, v))
    assert direct == alt
    # the same two routes on the full words of the matrices, not reduced mod N
    full = rho(word_decompose(m), v)
    assert full == rho(word_decompose(mat2_inv(S_MAT)), rho(word_decompose(sm), v))
    assert full == direct


@pytest.mark.parametrize("symbol", ["3^-2", "5^+2", "2_2^+2.4_II^+2", "2_II^+2.3^-2"])
def test_word_kernel_matches_defining_formulas(symbol):
    """The integer word kernel against the definitions of rho(S) and rho(T),
    written with the public cyclotomic arithmetic only."""
    d = from_jordan_symbol(symbol)
    scalar = e_of(Fraction(d.signature(), 8)) / sqrt_int(d.order)
    for g in d.elements():
        expected = Vec(d, {beta: scalar * e_of(d.b(g, beta)) for beta in d.elements()})
        assert rho_S(Vec.basis(d, g)) == expected, g
        assert rho_T(Vec.basis(d, g)) == Vec(d, {g: e_of(-d.q(g))}), g
    v = rho_S(Vec.basis(d, d.zero())) + Vec.basis(d, d.elements()[-1]).scale(Fraction(1, 3))
    for n in (1, 2, 5, -3):
        # rho_T applied n times equals rho(T^n); for n < 0, |n| times undoes it
        u, target = (v, rho(t_power(n), v)) if n > 0 else (rho(t_power(n), v), v)
        for _ in range(abs(n)):
            u = rho_T(u)
        assert u == target, n


@pytest.mark.parametrize("symbol", ["3^-2", "3^+3"])
def test_rho_s_takes_coefficients_outside_the_working_field(symbol):
    """rho_S takes the coefficients e(1/5) and e(1/7), outside Q(zeta_24) of
    these forms, as rho_T does: the image matches the defining formula, and
    rho_S rho_S v = e(sig/4) v(-gamma).  On 3^+3 the S scalar is irrational."""
    d = from_jordan_symbol(symbol)
    v = Vec(d, {d.zero(): e_of(Fraction(1, 5)), d.elements()[5]: e_of(Fraction(1, 7))})
    assert not rho_T(v).is_zero()
    scalar = e_of(Fraction(d.signature(), 8)) / sqrt_int(d.order)
    expected = Vec(d, {
        beta: scalar * sum((c * e_of(d.b(g, beta)) for g, c in v.coeffs.items()), cyclo.ZERO)
        for beta in d.elements()
    })
    assert rho_S(v) == expected
    phase = e_of(Fraction(d.signature(), 4))
    assert rho_S(rho_S(v)) == Vec(d, {d.neg(g): phase * c for g, c in v.coeffs.items()})


#: odd levels, with |D| a square or not, and blocks of odd signature, which
#: the word kernel meets as orthogonal blocks
MILGRAM_SYMBOLS = ["3^+1", "3^-3", "5^-1", "7^-2", "9^+1", "3^+1.5^+1", "27^-1.3^+1", "2_1^+1", "4_1^+1", "8_1^+1"]


@pytest.mark.parametrize("symbol", SMALL_EVEN_SYMBOLS + MILGRAM_SYMBOLS)
def test_gauss_power_is_milgram(symbol):
    """The powers of G = sum_gamma e(q(gamma)) that scale every word image,
    over u = N and u = 2N, equal (sqrt|D| e(sig/8))^k (Milgram), so the
    k-th power of the S scalar is G^k/|D|^k."""
    d = from_jordan_symbol(symbol)
    milgram = sqrt_int(d.order) * e_of(Fraction(d.signature(), 8))
    for u in (d.level(), 2 * d.level()):
        assert Cyclo(u, weil._gauss_power(d, 1, u)) == milgram, u
        for k in (0, 2, 3, 4, 5):
            assert Cyclo(u, weil._gauss_power(d, k, u)) == prod([milgram] * k, start=cyclo.ONE), (u, k)


def _seeded_matrices(r, count):
    """count matrices of SL2(Z) with entries up to 10^4."""
    out = []
    while len(out) < count:
        a, c = r.randint(-(10**4), 10**4), r.randint(1, 10**4)
        if gcd(a, c) == 1:
            _, x, y = ext_gcd(a, c)
            out.append(mat2_mul(((a, -y), (c, x)), t_power(r.randint(-99, 99))))
    return out


@pytest.mark.parametrize("symbol", SMALL_EVEN_SYMBOLS + ["3^+1.5^+1", "7^-2", "9^+1"])
def test_rho_values_lie_in_q_zeta_n(symbol, rng):
    """On rational vectors every coefficient of rho(M, v) is computed in
    Q(zeta_lcm(2, N)): no square root is adjoined."""
    d = from_jordan_symbol(symbol)
    field = lcm(2, d.level())
    for m in _seeded_matrices(random.Random(symbol), 4):
        image = rho(m, random_vector(d, rng))
        assert all(field % c.order == 0 for c in image.coeffs.values()), (m, image)


@pytest.mark.parametrize("symbol", ["3^-2", "3^+3", "2_II^+2.3^-1", "2_2^+2.4_II^+2"])
def test_rho_is_linear(symbol, rng):
    """rho(M, v) is the sum of c rho(M, e^gamma) over the coefficients c of
    v, which are rational and cyclotomic."""
    d = from_jordan_symbol(symbol)
    els = d.elements()
    for m in _seeded_matrices(random.Random(symbol), 3):
        v = random_vector(d, rng) + Vec(d, {els[-1]: e_of(Fraction(1, 5)) - 2, els[1]: sqrt_int(3) / 7})
        total = sum((rho(m, Vec.basis(d, g)).scale(c) for g, c in v.coeffs.items()), Vec(d))
        assert rho(m, v) == total, m


def _explicit_word(tokens):
    """The word of these tokens, its target multiplied out letter by letter."""
    m = ((1, 0), (0, 1))
    for kind, n in tokens:
        m = mat2_mul(m, S_MAT if kind == "S" else t_power(n))
    return SL2Word(m, tuple(tokens))


def test_group_law_long_words_fractional_input():
    """rho(AB) v = rho(A) rho(B) v for words of at least 100 letters and a v
    with rational non-integer and irrational coefficients: the common
    denominator, and coefficients that grow with no reduction between letters."""
    d = from_jordan_symbol("2_2^+2.4_II^+2")
    v = rho_S(Vec.basis(d, d.zero())) + Vec.basis(d, (1, 0, 1, 1)).scale(Fraction(1, 3))
    assert any(as_rational(c) is None for c in v.coeffs.values())
    assert any(c.den % 3 == 0 for c in v.coeffs.values())
    r = random.Random(7)

    def long_word():  # the explicit product of 60 factors T^k S
        return _explicit_word([tok for _ in range(60) for tok in (("T", r.choice([-3, -2, 2, 3])), ("S", 1))])

    wa, wb = long_word(), long_word()
    wab = SL2Word(mat2_mul(wa.target, wb.target), wa.tokens + wb.tokens)
    for w in (wa, wb, wab):
        assert w.matrix() == w.target
    assert min(len(w.tokens) for w in (wa, wb, wab)) >= 100
    assert rho(wab, v) == rho(wa, rho(wb, v))


@pytest.mark.parametrize("symbol", ["3^+3", "5^+2"])
def test_negative_coordinates_at_odd_level(symbol):
    """Power-basis coordinates -c enter the kernel as c times zeta_u^(u/2) = -1,
    u even although the level is odd: rho_S matches the defining formula, and
    the group law holds on words of at least 100 letters."""
    d = from_jordan_symbol(symbol)
    els = d.elements()
    v = Vec(d, {els[1]: Cyclo.rational(-1), els[2]: cyclo.ONE - e_of(Fraction(1, 3)), els[4]: sqrt_int(5)})
    assert all(min(c.num) < 0 for c in v.coeffs.values())
    scalar = e_of(Fraction(d.signature(), 8)) / sqrt_int(d.order)
    expected = Vec(d, {
        beta: scalar * sum((c * e_of(d.b(g, beta)) for g, c in v.coeffs.items()), cyclo.ZERO)
        for beta in els
    })
    assert rho_S(v) == expected
    r = random.Random(11)

    def long_word():  # the explicit product of 50 factors T^k S
        return _explicit_word([tok for _ in range(50) for tok in (("T", r.choice([-3, -2, 2, 3])), ("S", 1))])

    wa, wb = long_word(), long_word()
    ab = mat2_mul(wa.target, wb.target)
    assert min(len(w.tokens) for w in (wa, wb)) >= 100
    assert rho(ab, v) == rho(wa, rho(wb, v)) == rho(SL2Word(ab, wa.tokens + wb.tokens), v)


def _mixed_vector(d):
    """Coefficients 1/3, 2/3, ... with sqrt(2) e(i/8) added to every other one."""
    root2 = sqrt_int(2)
    return Vec(d, {
        g: Cyclo.rational(Fraction(i + 1, 3)) + (root2 * e_of(Fraction(i, 8)) if i % 2 == 0 else 0)
        for i, g in enumerate(d.elements())
    })


def test_minus_one_is_the_negation_permutation():
    """Two adjacent S letters are applied as rho(-1) = e(sig/4) (e^gamma ->
    e^-gamma); it must equal two full S transforms."""
    minus_one = ((-1, 0), (0, -1))
    assert word_decompose(minus_one).tokens == (("S", 1), ("S", 1))
    for sym in SMALL_EVEN_SYMBOLS:
        d = from_jordan_symbol(sym)
        v = _mixed_vector(d)
        assert any(as_rational(c) is None for c in v.coeffs.values())
        assert any(c.den % 3 == 0 for c in v.coeffs.values())
        phase = e_of(Fraction(d.signature(), 4))
        expected = Vec(d, {d.neg(g): phase * c for g, c in v.coeffs.items()})
        assert rho(minus_one, v) == expected, sym
        assert rho_S(rho_S(v)) == expected, sym


@pytest.mark.parametrize(
    "tokens",
    [
        (("T", 2), ("S", 1), ("S", 1), ("T", 3)),
        (("S", 1), ("S", 1), ("S", 1), ("T", -1)),
        (("T", 1), ("S", 1), ("S", 1), ("S", 1), ("S", 1), ("T", 2), ("S", 1)),
    ],
)
def test_words_with_adjacent_s_letters(tokens):
    """A word with runs of S letters against its matrix's own word and
    against the letters applied one at a time."""
    for sym in ["2_II^+2", "3^+3", "2_2^+2.4_II^+2"]:
        d = from_jordan_symbol(sym)
        word = _explicit_word(tokens)
        v = _mixed_vector(d)
        one_by_one = v
        for kind, n in reversed(tokens):
            one_by_one = rho_S(one_by_one) if kind == "S" else rho(t_power(n), one_by_one)
        assert rho(word, v) == one_by_one, sym
        assert rho(word_decompose(word.target), v) == one_by_one, sym


def test_rho_closed_form_for_upper_triangular():
    # c = 0 mod N: rho(M) e^gamma = chi(a) e(-bd q(gamma)) e^(d gamma)
    for sym in ["3^-2", "2_II^+2", "2_0^+2", "5^+1.5^+1"]:
        d = from_jordan_symbol(sym)
        n = d.level()
        for a in range(1, 3 * n):
            if gcd(a, n) != 1:
                continue
            dd = pow(a, -1, n)
            # build an integer matrix (a b; c d) with c = 0 mod N
            c = n
            # solve a*d' - b*c = 1 with d' = dd + k n
            for k in range(0, 4 * n):
                dprime = dd + k * n
                if (a * dprime - 1) % c == 0:
                    b = (a * dprime - 1) // c
                    break
            m = ((a, b), (c, dprime))
            for g in d.elements()[:4]:
                got = rho(m, Vec.basis(d, g))
                phase = e_of(-b * dprime * d.q(g)) * d.chi(a)
                assert got == Vec(d, {d.smul(dprime, g): phase}), (sym, m, g)
            break


def test_gamma_n_acts_trivially(rng):
    for sym in ["2_II^+2", "3^-2", "2_0^+2"]:
        d = from_jordan_symbol(sym)
        n = d.level()
        for m in [((1, 0), (n, 1)), ((1, n), (0, 1)), ((1 + n, n), (n * (2 + n) // 1, 1 + n))]:
            (a, b), (c, dd) = m
            if a * dd - b * c != 1:
                continue
            v = random_vector(d, rng, density=0.4)
            assert rho(m, v) == v, (sym, m)
            # a matrix is reduced mod N first, so the full word is the real check
            assert rho(word_decompose(m), v) == v, (sym, m)


def _gamma_n(r, n):
    """A random element of Gamma(N) with large entries: T^(N x) and its
    transpose, alternately."""
    g = ((1, 0), (0, 1))
    for _ in range(2):
        g = mat2_mul(mat2_mul(g, t_power(n * r.randint(-30, 30))), ((1, 0), (n * r.randint(-30, 30), 1)))
    return g


@pytest.mark.parametrize(
    "symbol, level",
    [
        ("", 1),
        ("2_II^+2", 2),
        ("3^+3", 3),
        ("5^+2", 5),
        ("2_2^+2.4_II^+2", 4),
        ("2_II^+2.3^-2", 6),
        ("8_II^-2", 8),
        ("16_II^+2", 16),
    ],
)
def test_rho_of_a_matrix_equals_its_full_word(symbol, level):
    """rho reduces a matrix modulo the level before it picks a word; the
    full word of the matrix, applied as given, is the oracle.  Seeded random
    matrices with entries up to 10^6, and matrices that are +-1, +-T^t and
    S modulo N times a large element of Gamma(N)."""
    d = from_jordan_symbol(symbol)
    assert d.level() == level
    r = random.Random(level)
    ms = []
    while len(ms) < 6:
        a, c = r.randint(-(10**6), 10**6), r.randint(-(10**6), 10**6)
        if gcd(a, c) == 1:
            _, x, y = ext_gcd(a, c)  # a*x + c*y = 1
            ms.append(((a, -y), (c, x)))
    minus = ((-1, 0), (0, -1))
    for rep in [((1, 0), (0, 1)), minus, S_MAT, t_power(1), t_power(level - 1), mat2_mul(minus, t_power(2))]:
        ms.append(mat2_mul(rep, _gamma_n(r, level)))
    for m in ms:
        v = random_vector(d, r, density=0.5)
        assert rho(m, v) == rho(word_decompose(m), v), (symbol, m)


def test_reduction_guard(monkeypatch):
    """A reduced word that is not the matrix modulo N trips the named guard."""
    d = from_jordan_symbol("3^-2")
    monkeypatch.setattr(weil, "_lift_words", lambda lift, ts: [word_decompose(lift) for _ in ts])
    with pytest.raises(InternalInconsistency, match="reduction modulo the level"):
        rho(t_power(1), Vec.basis(d, d.zero()))


@pytest.mark.parametrize("symbol", ["3^+3", "5^+2", "2_II^+2.3^-2", "16_II^+2"])
def test_a_long_matrix_costs_no_more_than_a_coset_word(symbol, monkeypatch):
    """A matrix whose full word has 20 S letters costs rho no more full S
    transforms than the longest coset word of SL2(Z/N)."""
    d = from_jordan_symbol(symbol)
    m = ((1, 0), (0, 1))
    for _ in range(20):
        m = mat2_mul(m, mat2_mul(t_power(3), S_MAT))
    calls = _count_s_transforms(monkeypatch)
    assert _s_transforms([word_decompose(m)], calls) == [20]
    longest = max(_s_transforms(enumerate_cosets(d.level()), calls))
    calls.clear()
    rho(m, Vec.basis(d, d.zero()))
    assert len(calls) <= longest < 20, (symbol, len(calls), longest)


def test_rho_support_condition():
    # support of rho(M) e^gamma lies in d*gamma + D^{c*}
    d = from_jordan_symbol("2_0^+2")
    for m in [((0, -1), (1, 0)), ((1, 0), (2, 1)), ((3, 1), (2, 1))]:
        c = m[1][0]
        star = set(d.coset_dcstar(c))
        for g in d.elements():
            got = rho(m, Vec.basis(d, g))
            dg = d.smul(m[1][1], g)
            allowed = {d.add(dg, s) for s in star}
            assert set(got.coeffs) <= allowed


# -- the projection ------------------------------------------------------------


def test_inv_trivial_form():
    d = from_jordan_symbol("")
    assert inv(d, d.zero()) == Vec.basis(d, ())


def test_inv_two_zero_plus_two():
    d = from_jordan_symbol("2_0^+2")
    x2 = d.canonical_xc(2)
    expected = Vec(d, {d.zero(): Cyclo.rational(Fraction(1, 2)), x2: Cyclo.rational(Fraction(1, 2))})
    assert inv(d, d.zero()) == expected
    assert inv(d, x2) == expected


def test_inv_odd_hyperbolic_example():
    # type p^(eps 2) with eps = (-1/p): inv(e^0) = (e^0 + sum over I) / (p+1)
    d = from_jordan_symbol("3^-2")
    got = inv(d, d.zero())
    expected = Vec(d, {d.zero(): Cyclo.rational(Fraction(1, 4))})
    for mu in d.isotropic_elements():
        expected = expected + Vec(d, {mu: Cyclo.rational(Fraction(1, 4))})
    assert got == expected


def test_inv_odd_hyperbolic_at_nonzero_point():
    # and at gamma_1 != 0: (1/(p-1)) sum over <gamma_1>  -  (1/(p^2-1)) {e^0 + sum over I}
    p = 3
    d = from_jordan_symbol("3^-2")
    gamma1 = min(g for g in d.isotropic_elements() if g != d.zero())
    expected = Vec(d)
    for k in range(p):
        expected = expected + Vec(d, {d.smul(k, gamma1): Cyclo.rational(Fraction(1, p - 1))})
    expected = expected + Vec(d, {d.zero(): Cyclo.rational(Fraction(-1, p * p - 1))})
    for mu in d.isotropic_elements():
        expected = expected + Vec(d, {mu: Cyclo.rational(Fraction(-1, p * p - 1))})
    assert inv(d, gamma1) == expected


def test_inv_matches_average_oracle():
    """At levels up to 12: 3^-1.9^+1 and 4_II^+2.3^+1 run groups of 9 and
    12 lanes, one per coset word of a first column."""
    for sym in SMALL_EVEN_SYMBOLS + ["3^-1.9^+1", "4_II^+2.3^+1"]:
        d = from_jordan_symbol(sym)
        for g in d.isotropic_elements():
            assert inv(d, g) == inv_average_oracle(d, g), (sym, g)


def test_inv_matches_average_oracle_level_sixteen():
    d = from_jordan_symbol("8_1^+1.4_1^+1")
    assert d.level() == 16
    g = d.isotropic_elements()[-1]
    assert inv(d, g) == inv_average_oracle(d, g)


def test_inv_vanishes_off_isotropic():
    for sym in ["2_II^+2", "3^-2", "2_0^+2"]:
        d = from_jordan_symbol(sym)
        for g in d.elements():
            if d.q(g) != 0:
                assert inv(d, g).is_zero(), (sym, g)
            assert set(inv(d, g).coeffs) <= set(d.isotropic_elements())


def test_inv_idempotent_and_self_adjoint(rng):
    for sym in SMALL_EVEN_SYMBOLS:
        d = from_jordan_symbol(sym)
        for g in d.isotropic_elements()[:5]:
            v = inv(d, g)
            assert inv(d, v) == v
        v = random_vector(d, rng, density=0.5)
        w = random_vector(d, rng, density=0.5)
        assert inv(d, v).inner(w) == v.inner(inv(d, w))


def test_inv_image_is_fixed():
    for sym in SMALL_EVEN_SYMBOLS:
        d = from_jordan_symbol(sym)
        for g in d.isotropic_elements()[:5]:
            v = inv(d, g)
            assert rho_S(v) == v
            assert rho_T(v) == v


def test_cusp_partition_sums_to_inv():
    for sym in SMALL_EVEN_SYMBOLS:
        d = from_jordan_symbol(sym)
        n = d.level()
        for g in d.isotropic_elements()[:4]:
            total = Vec(d)
            for cusp in cusp_classes(n):
                total = total + inv_at_cusp(d, g, cusp.key)
            assert total == inv(d, g), (sym, g)


def test_non_isotropic_basis_vectors_project_to_zero():
    """inv(e^gamma) = 0 when q(gamma) != 0: the only cusp test whose gamma
    reaches the q(gamma) term of the intertwining identity."""
    count = 0
    for sym in SMALL_EVEN_SYMBOLS:
        d = from_jordan_symbol(sym)
        for g in d.elements():
            if d.q(g):
                count += 1
                total = Vec(d)
                for cusp in cusp_classes(d.level()):
                    total = total + inv_at_cusp(d, g, cusp.key)
                assert total.is_zero(), (sym, g)
                assert inv(d, g).is_zero() and inv_average_oracle(d, g).is_zero(), (sym, g)
    assert count == 127


def test_cusp_contribution_support():
    # support of the cusp piece lies in (a gamma + D^{c*}) cap I
    for sym in ["2_0^+2", "2_2^+2.4_II^+2"]:
        d = from_jordan_symbol(sym)
        n = d.level()
        iso = set(d.isotropic_elements())
        for cusp in cusp_classes(n):
            a, c = cusp.key
            star = d.coset_dcstar(c)
            for g in d.isotropic_elements()[:3]:
                piece = inv_at_cusp(d, g, cusp.key)
                ag = d.smul(a, g)
                allowed = {d.add(ag, s) for s in star} & iso
                allowed |= {d.neg(el) for el in allowed}
                assert set(piece.coeffs) <= allowed, (sym, cusp.key, g)


def test_cusp_rejects_imprimitive_pair():
    d = from_jordan_symbol("2_0^+2")
    with pytest.raises(ValueError):
        inv_at_cusp(d, d.zero(), (2, 2))


def test_level_four_quarter_cusp_pattern():
    # at the cusp 1/4 of a level-4 direct summand family the contribution
    # is (e^gamma + e(t/4) e^-gamma) / 12
    for t in (2, 6):
        d = from_jordan_symbol(f"2_{t}^+2.4_II^+2")
        iso = d.isotropic_elements()
        i2 = {g for g in iso if d.smul(2, g) == d.zero()}
        g = min(g for g in iso if g not in i2)
        piece = inv_at_cusp(d, g, (1, 4))
        expected = Vec(
            d,
            {
                g: Cyclo.rational(Fraction(1, 12)),
                d.neg(g): e_of(Fraction(t, 4)) * Fraction(1, 12),
            },
        )
        assert piece == expected


def test_level_eight_coprime_cusps_no_diagonal():
    d = from_jordan_symbol("2_1^+1.4_1^+1.8_II^+2")
    iso = d.isotropic_elements()
    i4 = {g for g in iso if d.smul(4, g) == d.zero()}
    g = min(g for g in iso if g not in i4)
    for cusp in cusp_classes(8):
        if gcd(cusp.key[1], 8) == 1:
            piece = inv_at_cusp(d, g, cusp.key)
            assert piece.coefficient(g).is_zero()


# -- dimensions ----------------------------------------------------------------


def cusp_dim(form):
    """The oracle of dim_invariants: the exact trace of inv summed over the
    isotropic diagonal of the whole form, per cusp of SL2(Z/N), where the q
    and b terms of the identity vanish: per cusp the exponents
    c0[(1-d) gamma] and c0[-(1+d) gamma] + sig/4 are counted in integers
    and make one Cyclo."""
    if form.signature() % 2:
        return 0
    n, iso, total = form.level(), form.isotropic_elements(), cyclo.ZERO
    for cusp in cusp_classes(n):
        d = cusp.inv_word.target[1][1]  # c0 at (1-d) gamma, then for N >= 3 at -(1+d) gamma (+ sig/4)
        js = [form.index(form.smul(e - d, g)) for e in ((1, -1) if n >= 3 else (1,)) for g in iso]
        s, ks = weil._column(form, cusp.inv_word, js)
        z = form.signature() * s.order // 4
        counts = Counter(k + z * (i >= len(iso)) for i, k in enumerate(ks) if k is not None)
        total = total + s * Fraction(n, sl2_group_order(n)) * Cyclo(s.order, counts)
    value = as_rational(total)
    assert value is not None and value.denominator == 1 and value >= 0, total
    return int(value)


#: the forms of the dim workload, and composite or high 2-power level forms
DIM_WORKLOAD_SYMBOLS = ["7^-4", "3^+1.5^+1", "5^-3", "2_2^+2.4_II^+2", "2_II^+2.3^-2"]
COMPOSITE_SYMBOLS = [
    "4_II^+2.3^+1.5^+1", "8_II^+2.3^-2", "3^-1.9^+1.5^-2", "2_II^+8", "3^+6", "16_II^+2", "25^+1.5^+1",
    "8_II^-2", "27^-1.3^+1", "2_1^+1.4_1^+1.8_II^+2",
]


@pytest.mark.parametrize(
    "symbol", sorted(set(SMALL_EVEN_SYMBOLS + PROJECTION_SYMBOLS + DIM_WORKLOAD_SYMBOLS + COMPOSITE_SYMBOLS))
)
def test_class_route_matches_cusp_oracle_and_closed_form(symbol):
    form = from_jordan_symbol(symbol)
    dim = dim_invariants(form)
    assert dim == cusp_dim(form)
    assert dim_closed_form(symbol) in (None, dim)


#: prime-power genus symbols, one of which is drawn per prime
_PARTS = {
    2: ["2_II^+2", "2_II^-2", "2_0^+2", "2_4^-2", "2_1^+1", "2_7^+1", "4_II^+2", "2_2^+2.4_II^+2", "2_1^+1.4_1^+1"],
    3: ["3^+1", "3^-1", "3^+2", "3^-2", "9^+1", "9^-1", "3^+1.9^-1"],
    5: ["5^+1", "5^-1", "5^+2"],
    7: ["7^+1", "7^-2"],
}


@given(st.lists(st.sampled_from(sorted(_PARTS)), min_size=1, max_size=3, unique=True), st.data())
@settings(max_examples=25)
def test_class_route_matches_cusp_oracle_on_registry_symbols(primes, data):
    """Forms realized from random genus symbols with |D| <= 256, odd
    signature included: the class route equals the cusp oracle."""
    symbol = ".".join(data.draw(st.sampled_from(_PARTS[p])) for p in sorted(primes))
    form = from_jordan_symbol(symbol)
    assume(form.order <= 256 and form.level() <= LIMITS.max_level)
    assert dim_invariants(form) == cusp_dim(form), symbol
    assert dim_closed_form(symbol) in (None, dim_invariants(form)), symbol


def test_dim_examples():
    assert dim_invariants(from_jordan_symbol("5^+2")) == 2
    assert dim_invariants(from_jordan_symbol("2_II^-4")) == 1
    assert dim_invariants(from_jordan_symbol("3^+1")) == 0


@pytest.mark.parametrize("p", [11, 13, 17, 19, 23])
def test_dim_matches_closed_form_at_high_level(p):
    """The cusp route at levels 11-23, above every other test."""
    for sign in "+-":
        sym = f"{p}^{sign}2"
        assert dim_invariants(from_jordan_symbol(sym)) == dim_closed_form(sym), sym


def test_dim_closed_form_examples():
    assert dim_closed_form("7^+3") == 1
    assert dim_closed_form("2_II^+2") == 2
    assert dim_closed_form("2_0^+2") == 1
    assert dim_closed_form("9^+1") is None
    assert dim_closed_form("2_1^+1") == 0  # odd signature


def test_dim_equals_rank_of_projections():
    for sym in SMALL_EVEN_SYMBOLS:
        d = from_jordan_symbol(sym)
        vecs = [inv(d, g) for g in d.isotropic_elements()]
        assert rank_of_vectors(vecs) == dim_invariants(d), sym


def test_projection_closed_forms_match():
    for sym in ["3^+2", "3^-2", "3^+3", "5^+1", "7^+1", "2_II^+2", "2_II^-2",
                "2_II^-4", "2_0^+2", "2_4^-2", "2_0^+4", "2_2^+2.4_II^+2",
                "2_6^+2.4_II^+2", "2_0^+2.4_II^+2"]:
        d = from_jordan_symbol(sym)
        if d.signature() % 2:
            continue
        for g in d.isotropic_elements():
            pcf = projection_closed_form(d, g)
            assert pcf is not None, sym
            assert pcf == inv(d, g), (sym, g)


def test_projection_closed_form_level_eight():
    d = from_jordan_symbol("2_1^+1.4_1^+1.8_II^+2")
    iso = d.isotropic_elements()
    i4 = [g for g in iso if d.smul(4, g) == d.zero()]
    free = [g for g in iso if g not in set(i4)]
    for g in [d.zero(), i4[-1], free[0], free[-1]]:
        pcf = projection_closed_form(d, g)
        assert pcf is not None
        assert pcf == inv(d, g), g
    # elements of small torsion project to zero
    assert projection_closed_form(d, i4[-1]).is_zero()


# -- invariant vector properties -------------------------------------------------


def _invariant_basis(d):
    return [inv(d, g) for g in d.isotropic_elements() if not inv(d, g).is_zero()]


def test_coefficients_twist_by_character():
    for sym in SMALL_EVEN_SYMBOLS:
        d = from_jordan_symbol(sym)
        n = d.level()
        units = [a for a in range(1, max(n, 2)) if gcd(a, n) == 1] or [1]
        for v in _invariant_basis(d)[:4]:
            for a in units:
                chi = d.chi(a)
                for el in d.elements():
                    assert v.coefficient(el) == chi * v.coefficient(d.smul(a, el)), (sym, a, el)


def test_nontrivial_character_kills_zero():
    for sym in ["2_2^+2.4_II^+2", "5^+1.5^+1", "2_0^+2.4_II^+2"]:
        d = from_jordan_symbol(sym)
        n = d.level()
        nontrivial = any(d.chi(a) == -1 for a in range(1, n) if gcd(a, n) == 1)
        if nontrivial:
            assert inv(d, d.zero()).is_zero(), sym


def test_perp_of_isotropic_set_collapses_to_zero():
    for sym in SMALL_EVEN_SYMBOLS:
        d = from_jordan_symbol(sym)
        iso = d.isotropic_elements()
        ref = inv(d, d.zero())
        for g in d.elements():
            if all(d.b(g, mu) == 0 for mu in iso):
                assert inv(d, g) == ref, (sym, g)


def test_two_torsion_perp_vanishes_for_nontrivial_character():
    for sym in ["2_2^+2.4_II^+2", "2_0^+2.4_II^+2", "4_II^+2.2_2^+2"]:
        d = from_jordan_symbol(sym)
        n = d.level()
        if all(d.chi(a) == 1 for a in range(1, n) if gcd(a, n) == 1):
            continue
        iso = d.isotropic_elements()
        for g in d.elements():
            gg = d.smul(2, g)
            if all(d.b(gg, mu) == 0 for mu in iso):
                assert inv(d, g).is_zero(), (sym, g)


def test_four_torsion_perp_vanishes_with_character_at_five():
    d = from_jordan_symbol("2_1^+1.4_1^+1.8_II^+2")
    n = d.level()
    assert gcd(n, 5) == 1 and d.chi(5) == -1
    iso = d.isotropic_elements()
    for g in iso[:6]:
        gg = d.smul(4, g)
        if all(d.b(gg, mu) == 0 for mu in iso):
            assert inv(d, g).is_zero(), g


# -- the scalar factor ------------------------------------------------------------


def xi_factor(m, form):
    """The unitary scalar xi with
    rho(M) e^0 = xi sqrt(|D_c|/|D|) sum_{beta in D^{c*}} e(-a q_c(beta)) e^beta,
    recovered from the computed action rather than from local factors."""
    (a, _), (c, _) = m
    w = rho(m, Vec.basis(form, form.zero()))
    star = form.coset_dcstar(c)
    ratio = sqrt_int(len(form.kernel_of_mul(c))) / sqrt_int(form.order)
    assert set(w.coeffs) <= set(star), "support of rho(M) e^0 is not inside D^{c*}"
    xis = [w.coefficient(beta) / (ratio * e_of(-a * form.q_c(c, beta))) for beta in star]
    assert xis and all(x == xis[0] for x in xis), "xi is inconsistent across D^{c*}"
    assert xis[0] * xis[0].conjugate() == 1, "xi is not unitary"
    return xis[0]


def test_xi_identity_and_s():
    d = from_jordan_symbol("3^-2")  # signature 0
    assert xi_factor(((1, 0), (0, 1)), d) == 1
    assert xi_factor(S_MAT, d) == e_of(Fraction(d.signature(), 8))


def test_xi_against_prime_level_formula():
    # for W = (a' b'; c' d') with a' = 0 mod p acting on a prime-level form,
    # the extracted scalar must equal e(sign/8) * (c'/|D|)
    from weilinv.arith import kronecker

    d = from_jordan_symbol("5^+1")
    assert d.signature() % 2 == 0
    sign_phase = e_of(Fraction(d.signature(), 8))
    mats = [
        ((0, -1), (1, 0)),
        ((0, -1), (1, 3)),
        ((5, 4), (1, 1)),
        ((5, 2), (2, 1)),
        ((5, 3), (3, 2)),
        ((5, 1), (4, 1)),
        ((10, 3), (3, 1)),
    ]
    for w in mats:
        (a1, b1), (c1, d1) = w
        assert a1 * d1 - b1 * c1 == 1 and a1 % 5 == 0
        assert xi_factor(w, d) == sign_phase * kronecker(c1, d.order), w


# -- cusp columns from the e^0 column -------------------------------------------


@given(
    symbol=st.sampled_from(SMALL_EVEN_SYMBOLS),
    steps=st.lists(st.integers(-6, 6), min_size=1, max_size=6),
)
@settings(max_examples=25)
def test_column_identity_matches_word_route(symbol, steps):
    """rho(M) e^gamma read off the e^0 column equals the word route exactly."""
    form = from_jordan_symbol(symbol)
    m = ((1, 0), (0, 1))
    for n in steps:  # M = T^n1 S T^n2 S ...: any matrix of SL2(Z)
        m = mat2_mul(mat2_mul(m, t_power(n)), S_MAT)
    word = word_decompose(m)
    for gamma in form.elements():
        column = rho(word, Vec.basis(form, gamma))
        s, ks = weil._entries(form, word, gamma, form.elements())
        for mu, k in zip(form.elements(), ks):
            expected = column.coefficient(mu)
            if k is None:
                assert expected.is_zero()
            else:
                assert expected == s * e_of(Fraction(k, s.order))


def _fresh_caches(monkeypatch, form):
    """Swap in empty caches on the form and its shared parts for one test."""
    monkeypatch.setattr(form, "_caches", {})
    for part, _ in form.orthogonal_components():
        monkeypatch.setattr(part, "_caches", {})


def _count_walks(monkeypatch):
    """The parts on which _walk is called from now on."""
    calls = []
    original = weil._walk

    def counting(part, tab, words, data, codec):
        calls.append(part)
        return original(part, tab, words, data, codec)

    monkeypatch.setattr(weil, "_walk", counting)
    return calls


def _rests(words) -> set:
    """The distinct rests of words: each word's tokens without the last
    token when it is a T power, the word's first-applied T, which fixes e^0."""
    return {w.tokens[:-1] if w.tokens and w.tokens[-1][0] == "T" else w.tokens for w in words}


@pytest.mark.parametrize("symbol", ["7^-2", "2_2^+2.4_II^+2", "3^+1.5^+1"])
def test_cold_dim_applies_one_word_per_part_and_cusp(symbol, monkeypatch):
    """The cusp route: one walk per part and distinct rest of the cusp
    words; none on a repeat."""
    form = from_jordan_symbol(symbol)
    _fresh_caches(monkeypatch, form)
    calls = _count_walks(monkeypatch)
    dim = cusp_dim(form)
    parts = {id(part) for part, _ in form.orthogonal_components()}
    assert len(calls) == len(parts) * len(_rests(cusp.inv_word for cusp in cusp_classes(form.level())))
    assert {id(p) for p in calls} == parts
    calls.clear()
    assert cusp_dim(form) == dim
    assert calls == []


@pytest.mark.parametrize("symbol", ["7^-2", "2_2^+2.4_II^+2", "3^+1.5^+1", "7^-4"])
def test_cold_dim_applies_one_word_per_block_and_class(symbol, monkeypatch):
    """The class route: one walk per orthogonal block of each p-part and
    distinct rest of the class words of SL2 at that p-part's level (at
    level 7, 4 rests for 11 classes); none on a repeat."""
    form = from_jordan_symbol(symbol)
    parts = [part for _, part, _ in form.p_part_decompose()]
    for f in (form, *parts):
        _fresh_caches(monkeypatch, f)
    calls = _count_walks(monkeypatch)
    dim = dim_invariants(form)
    blocks = [{id(block) for block, _ in part.orthogonal_components()} for part in parts]
    rests = [len(_rests(word for _, word in weil._classes(part.level()))) for part in parts]
    assert len(calls) == sum(len(b) * r for b, r in zip(blocks, rests))
    assert {id(p) for p in calls} == set().union(*blocks)
    if form.level() == 7:
        assert (len(weil._classes(7)), rests) == (11, [4])
    calls.clear()
    assert dim_invariants(form) == dim
    assert calls == []


@pytest.mark.parametrize("symbol, kinds", [("3^+5", 1), ("7^-4", 2)])
def test_cold_dim_takes_each_distinct_block_trace_once_per_class(symbol, kinds, monkeypatch):
    """Equal orthogonal blocks are one object, and a class's trace is the
    product of their traces, so a cold dim takes _block_trace once per
    distinct block and class: 3^+5 has 5 copies of one block, 7^-4 four
    blocks of 2 kinds.  The answer is the closed form."""
    form = from_jordan_symbol(symbol)
    _fresh_caches(monkeypatch, form)
    calls, original = [], weil._block_trace

    def counting(part, word):
        calls.append(part)
        return original(part, word)

    monkeypatch.setattr(weil, "_block_trace", counting)
    assert dim_invariants(form) == dim_closed_form(symbol)
    blocks = {id(part) for part, _ in form.orthogonal_components()}
    assert len(blocks) == kinds < len(form.orthogonal_components())
    assert len(calls) == kinds * len(weil._classes(form.level()))
    assert Counter(map(id, calls)) == dict.fromkeys(blocks, len(weil._classes(form.level())))


def test_cusp_column_guard(monkeypatch):
    """An e^0 column whose entries are not one scalar times roots of unity
    fails the named check instead of giving a wrong answer."""
    form = from_jordan_symbol("5^+2")
    _fresh_caches(monkeypatch, form)
    monkeypatch.setattr(weil, "_walk", _doubling_last_entry(weil._walk))
    with pytest.raises(InternalInconsistency, match="cusp column check"):
        dim_invariants(form)


def _doubling_last_entry(original):
    """original (_walk) with the last entry of each one-block image that is
    nonzero modulo Phi_u doubled, as the codec reads it, if there are two
    such entries: the e^0 column is then not one scalar times roots of
    unity.  The image is copied, so no state of the walk changes."""

    def corrupted(part, tab, words, data, codec):
        for image in original(part, tab, words, data, codec):
            support = [i for i, x in enumerate(image) if x and any(codec.read(x)[0])]
            if len(support) > 1:
                image = image[:]
                image[support[-1]] *= 2
            yield image

    return corrupted


def _packed_columns(form):
    """A column e^beta per element beta of the largest q-class, and one with
    negative and cyclotomic coefficients outside Q(zeta_N)."""
    q_values = form.q_values()
    qn = max(set(q_values), key=q_values.count)
    cols = [{i: cyclo.ONE} for i, x in enumerate(q_values) if x == qn]
    assert len(cols) > 1
    return cols + [{0: 2 - 3 * e_of(Fraction(1, 4)), form.order - 1: e_of(Fraction(2, 5)) * Fraction(-1, 3)}]


def _check_packed_blocks(form, tokens):
    """One _apply_words call on all of _packed_columns equals, column by
    column, one call per column, so no digit carries into the next block;
    returns the images."""
    cols = _packed_columns(form)
    images = weil._apply_words(form, [tokens], cols)
    assert images == [weil._apply_words(form, [tokens], [col])[0] for col in cols], tokens
    return images


def _first_t_in_cyclo(form, tokens, cols):
    """rho(word) on each of cols, with the word's first-applied T^p, if any,
    applied to the columns in Cyclo arithmetic, e(-p q) at each element, and
    only the rest of the word, which does not end in T, in the kernel."""
    p = tokens[-1][1] if tokens and tokens[-1][0] == "T" else 0
    q, n = form.q_values(), form.level()
    rotated = [{i: c * e_of(Fraction(-p * q[i], n)) for i, c in col.items()} for col in cols]
    return weil._apply_words(form, [tokens[: len(tokens) - (p != 0)]], rotated)


def _acting_letters(rest) -> list:
    """The letters of rest in the order they act, right to left: ("T", n),
    "-1" for an S whose left neighbour is an S (the pair is rho(-1)), and
    "S" for any other S."""
    out, i = [], len(rest)
    while i:
        i -= 1
        if rest[i][0] == "T":
            out.append(rest[i])
        elif i and rest[i - 1][0] == "S":
            out.append("-1")
            i -= 1
        else:
            out.append("S")
    return out


def _s_prefixes(words, n, blocks, cap) -> int:
    """The S transforms of one _apply_words call on words when each distinct
    letter prefix that ends in an S transform is applied once per S count
    and lane chunk: the words without their first-applied T^p are grouped
    by S count; a class packs min(its most powers, cap // blocks) lanes,
    at least one, and each word's sorted powers mod n run in chunks of
    that many, each chunk one shared input."""
    by_count = {}
    for tokens in words:
        rest, p = (tokens[:-1], tokens[-1][1]) if tokens and tokens[-1][0] == "T" else (tokens, 0)
        by_count.setdefault(sum(kind == "S" for kind, _ in rest), {}).setdefault(rest, []).append(p % n)
    prefixes = set()
    for k, rests in by_count.items():
        lanes = max(1, min(max(map(len, rests.values())), cap // blocks))
        for rest, powers in rests.items():
            powers, letters = sorted(powers), _acting_letters(rest)
            for at in range(0, len(powers), lanes):
                chunk = tuple(powers[at : at + lanes])
                prefixes.update((k, chunk, tuple(letters[: j + 1])) for j, x in enumerate(letters) if x == "S")
    return len(prefixes)


@pytest.mark.parametrize("symbol", ["3^+3", "4_II^+2", "5^+2", "2_II^+2.3^-2"])
def test_packed_blocks_equal_single_columns(symbol, monkeypatch):
    """_check_packed_blocks on every coset word at levels 3, 4, 5 and 6,
    whose images equal _first_t_in_cyclo's; and one _apply_words call on all
    of those words, and one on every other word, equals the sum of their
    one-word images.  Every other word leaves a first column some of its
    powers of T, whose sum changes if a lane takes the wrong power.  Each
    call runs as many S transforms as _s_prefixes counts, at the default
    cap and under a cap of two lanes per input, where a first column's
    powers take ceil(N/2) chunks, the last with one lane when N is odd."""
    form = from_jordan_symbol(symbol)
    n, cols = form.level(), _packed_columns(form)
    words = [word.tokens for word in enumerate_cosets(n)]
    images = [_check_packed_blocks(form, tokens) for tokens in words]
    assert images == [_first_t_in_cyclo(form, tokens, cols) for tokens in words]
    total, half = ([sum(column, Vec(form)) for column in zip(*some)] for some in (images, images[::2]))
    calls, caps = _count_s_transforms(monkeypatch), (weil._MAX_BLOCKS, 2 * len(cols) + 1)
    for cap in caps:
        monkeypatch.setattr(weil, "_MAX_BLOCKS", cap)
        for some, image in ((words, total), (words[::2], half)):
            del calls[:]
            assert weil._apply_words(form, some, cols) == image
            assert len(calls) == _s_prefixes(some, n, len(cols), cap), (cap, len(some))
    assert _s_prefixes(words, n, len(cols), caps[0]) < _s_prefixes(words, n, len(cols), caps[1])


@pytest.mark.parametrize("symbol", ["3^+3", "2_2^+2.4_II^+2"])
def test_packed_blocks_on_long_words(symbol):
    """_check_packed_blocks on a word of at least 120 letters with S S pairs,
    where the digit bound |D|^s runs to hundreds of bits.  The word equals
    its letters applied one at a time on the first and the last column, and
    on e^0 as _e0_column reads it, s times roots of unity scaled by the S
    count of the tokens."""
    r = random.Random(symbol)
    tokens = [tok for _ in range(60) for tok in (("T", r.randint(1, 9)), ("S", 1)) + (("S", 1),) * (r.random() < 0.3)]
    assert len(tokens) >= 120 and any(a == b == ("S", 1) for a, b in zip(tokens, tokens[1:]))
    form = from_jordan_symbol(symbol)
    els, cols = form.elements(), _packed_columns(form)
    vectors = [Vec(form, {els[i]: c for i, c in col.items()}) for col in (cols[0], cols[-1], {0: cyclo.ONE})]
    for kind, n in reversed(tokens):
        vectors = [rho(SL2Word(S_MAT if kind == "S" else t_power(n), ((kind, n),)), v) for v in vectors]
    images = _check_packed_blocks(form, tokens)
    assert [images[0], images[-1]] == vectors[:2]
    word = SL2Word(SL2Word(None, tuple(tokens)).matrix(), tuple(tokens))
    s, exps = weil._e0_column(form, word)
    assert {els[i]: s * e_of(Fraction(k, s.order)) for i, k in exps.items()} == vectors[2].coeffs


def test_max_blocks_caps_the_columns_of_an_entry(monkeypatch):
    """Under a cap of 4 blocks per packed entry the coset oracle runs the 9
    isotropic columns of 3^+3 in chunks: no codec holds more than 4 blocks
    over its lanes, and every isotropic element gets the default-cap answer."""
    form = from_jordan_symbol("3^+3")
    iso = form.isotropic_elements()
    _fresh_caches(monkeypatch, form)
    want = [inv_average_oracle(form, g) for g in iso]
    _fresh_caches(monkeypatch, form)
    sizes, init = [], weil._Codec.__init__

    def recording(codec, *args, **kwargs):
        init(codec, *args, **kwargs)
        sizes.append(codec.blocks * codec.lanes)

    monkeypatch.setattr(weil._Codec, "__init__", recording)
    monkeypatch.setattr(weil, "_MAX_BLOCKS", 4)
    assert [inv_average_oracle(form, g) for g in iso] == want
    assert len(iso) == 9 and sizes and max(sizes) <= 4


def _count_read_out(monkeypatch):
    """(reads, blocks, builds) from now on: the entries _Codec.read reads,
    as (codec, entry, its nonzero blocks); the blocks _times scales, as
    (G^k, factor, block); and the Cyclo built."""
    reads, blocks, builds, codecs = [], [], [], []
    read, times, init = weil._Codec.read, weil._times, Cyclo.__init__

    def reading(codec, x):
        out = read(codec, x)
        codecs.append(codec)  # kept alive, so that no other codec takes its id
        reads.append((id(codec), x, sum(map(any, out))))
        return out

    monkeypatch.setattr(weil._Codec, "read", reading)
    monkeypatch.setattr(weil, "_times", lambda y, terms, f: blocks.append((id(terms), f, y)) or times(y, terms, f))
    monkeypatch.setattr(Cyclo, "__init__", lambda c, *args, **kwargs: builds.append(c) or init(c, *args, **kwargs))
    return reads, blocks, builds


def test_rho_reads_each_packed_entry_once(monkeypatch):
    """One rho call reads each distinct packed entry once (_Codec.read),
    scales each distinct block once (_times) and builds no more Cyclo than
    its result has distinct coefficients: on e^gamma of 2_2^+2.4_II^+2
    under a seeded matrix, and on the dense image of that call."""
    form = from_jordan_symbol("2_2^+2.4_II^+2")
    form.signature()  # memoized before counting
    [m] = _seeded_matrices(random.Random("read-out"), 1)
    reads, blocks, builds = _count_read_out(monkeypatch)
    v = Vec.basis(form, form.elements()[5])
    for _ in range(2):
        del reads[:], blocks[:], builds[:]
        v = rho(m, v)
        values = {(c.order, c.num, c.den) for c in v.coeffs.values()}  # one order per call, so one normal form
        assert reads and len(reads) == len(set(reads))
        assert blocks and len(blocks) == len(set(blocks))
        assert len(builds) <= len(values) < len(v.coeffs) == form.order


def test_oracle_scales_each_distinct_block_once(monkeypatch):
    """A cold oracle class of 2_2^+2.4_II^+2, several columns per entry,
    reads each distinct summed entry once per S count and scales each
    distinct block once per S count, though its entries share blocks."""
    form = from_jordan_symbol("2_2^+2.4_II^+2")
    gamma = form.isotropic_elements()[1]
    _fresh_caches(monkeypatch, form)
    reads, blocks, _ = _count_read_out(monkeypatch)
    images = weil._oracle_class(form, form.q_int(gamma))
    assert len(images) > 1 and reads and len(reads) == len(set(reads))
    assert len(blocks) == len(set(blocks)) < sum(nonzero for *_, nonzero in reads)
    assert images[form.index(gamma)] == inv(form, gamma)


def _letter_matrix(letters, p: int):
    """The matrix of letters (as _walk takes them) after T^p: each letter
    acts after the ones before it, ("S", 2) as S S."""
    m = t_power(p)
    for kind, k in letters:
        for _ in range(k if kind == "S" else 1):
            m = mat2_mul(S_MAT if kind == "S" else t_power(k), m)
    return m


def test_oracle_applies_each_coset_word_once_per_q_class(monkeypatch):
    """The first oracle call of a q-class walks the coset words, with all of
    the class in every lane: each word without its first-applied T^p
    completes once, on one lane per p, and the lanes of the completed
    words, their letters after T^p, are the elements of SL2(Z/N), each
    once.  Another gamma of the class applies no letter."""
    form = from_jordan_symbol("5^+2")
    n, iso, cosets = form.level(), form.isotropic_elements(), enumerate_cosets(form.level())
    other = next(g for g in form.elements() if form.q(g) != 0)
    _fresh_caches(monkeypatch, form)
    powers, lanes, blocks, letters = {}, [], set(), []
    pack, walk, apply = weil._Codec.pack, weil._walk, weil._apply_letter

    def packing(codec, m, terms, diag=None, ps=(0,)):
        data = pack(codec, m, terms, diag, ps)
        powers[id(data)] = data, ps  # the list is kept, so its id is not reused
        return data

    def walking(part, tab, words, data, codec):
        blocks.add(codec.blocks)
        for word, image in zip(words, walk(part, tab, words, data, codec), strict=True):
            lanes.append([_letter_matrix(word, p) for p in powers[id(data)][1]])
            yield image

    def applying(part, tab, letter, data, codec):
        letters.append(letter)
        return apply(part, tab, letter, data, codec)

    monkeypatch.setattr(weil._Codec, "pack", packing)
    monkeypatch.setattr(weil, "_walk", walking)
    monkeypatch.setattr(weil, "_apply_letter", applying)

    def elements(words):
        return sorted(tuple(x % n for row in m for x in row) for ms in words for m in ms)

    cosets_mod_n = elements([[word.target for word in cosets]])
    outputs = [inv_average_oracle(form, iso[1])]
    assert len(lanes) == len(cosets) // n and {len(ms) for ms in lanes} == {n}
    assert elements(lanes) == cosets_mod_n and len(set(cosets_mod_n)) == len(cosets)
    assert blocks == {len(iso)} and letters
    del letters[:]
    outputs.append(inv_average_oracle(form, iso[2]))
    assert len(lanes) == len(cosets) // n and letters == []
    outputs.append(inv_average_oracle(form, other))
    assert elements(lanes[len(cosets) // n :]) == cosets_mod_n
    assert blocks == {len(iso), form.q_values().count(form.q_int(other))}
    assert outputs == [inv(form, g) for g in (iso[1], iso[2], other)]


@pytest.mark.parametrize(
    "bound, query",
    [
        ("max_form_order", lambda: from_jordan_symbol("3^-4").elements()),
        ("max_level", lambda: cusp_classes(3)),
        ("max_level", lambda: enumerate_cosets(3)),
        ("max_form_order", lambda: from_jordan_symbol("2_1^+1.4_1^+1").canonical_xc(4)),
        ("max_form_order", lambda: from_jordan_symbol("2_1^+1.4_1^+1").coset_dcstar(2)),
        ("max_form_order", lambda: from_jordan_symbol("2_1^+1.4_1^+1").q_c(2, (1, 2))),
        ("max_level", lambda: inv_average_oracle(from_jordan_symbol("3^-2"), (0, 1))),
        ("max_form_order", lambda: inv_average_oracle(from_jordan_symbol("3^-2"), (0, 1))),
    ],
    ids=[
        "elements", "cusp_classes", "enumerate_cosets", "canonical_xc", "coset_dcstar", "q_c",
        "oracle_level", "oracle_order",
    ],
)
def test_lowered_bound_holds_for_a_memoized_answer(bound, query, monkeypatch):
    query()
    monkeypatch.setattr(LIMITS, bound, 2)
    with pytest.raises(BoundExceeded):
        query()


@pytest.mark.parametrize("query", [inv, inv_average_oracle], ids=["inv", "oracle"])
def test_cyclotomic_bound_on_lcm_two_level(query, monkeypatch):
    """The values of inv and of the coset oracle on 5^+1.7^+1 lie in
    Q(zeta_70), lcm(2, 35) = 70: under a bound of 60 a repeated query is
    refused, with its answer memoized, and so is a cold one."""
    form = from_jordan_symbol("5^+1.7^+1")
    gamma = form.isotropic_elements()[0]
    query(form, gamma)
    monkeypatch.setattr(LIMITS, "max_cyclo_order", 60)
    with pytest.raises(cyclo.CycloOrderError, match="order 70"):
        query(form, gamma)
    monkeypatch.setattr(form, "_caches", {})
    with pytest.raises(cyclo.CycloOrderError, match="order 70"):
        query(form, gamma)
