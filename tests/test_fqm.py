from fractions import Fraction
from math import gcd

import pytest

from weilinv import fqm
from weilinv.arith import legendre
from weilinv.cyclo import e_of, serialize, sqrt_int
from weilinv.fqm import (
    DiscriminantForm,
    InternalInconsistency,
    JordanSymbol,
    SymbolError,
    from_gram,
    from_jordan_symbol,
)

from conftest import SMALL_EVEN_SYMBOLS
from oracles import count_norm


def test_symbol_parsing_roundtrip():
    for text in ["5^+2", "2_II^-4", "2_1^+1.4_5^-1.8_II^+2", "9^+1", "3^-1.27^+2"]:
        sym = JordanSymbol.parse(text)
        assert str(sym) == text


@pytest.mark.parametrize(
    "text,kind,component",
    [
        ("3^+1", "elementary", "3^+1"),
        ("7^-4", "elementary", "7^-4"),
        ("2_II^+2", "elementary", "2_II^+2"),
        ("2_II^-6", "elementary", "2_II^-6"),
        ("2_1^+1", "two-odd", "2_1^+1"),
        ("2_6^-4", "two-odd", "2_6^-4"),
        ("2_2^+2.4_II^+2", "two-four", "2_2^+2"),
        ("2_7^+1.4_II^+2", "two-four", "2_7^+1"),
        ("2_1^+1.4_1^+1.8_II^+2", "level-eight", "4_1^+1"),
        ("2_3^-1.4_5^-1.8_II^+2", "level-eight", "4_5^-1"),
        ("9^+1", None, None),
        ("4_II^+2", None, None),
        ("4_1^+1", None, None),
        ("2_II^+2.4_II^+2", None, None),
        ("2_2^+2.4_II^-2", None, None),
        ("2_0^+2.4_1^+1.8_II^+2", None, None),
        ("3^+1.5^+1", None, None),
        ("", None, None),
    ],
)
def test_symbol_family(text, kind, component):
    family = JordanSymbol.parse(text).family()
    if kind is None:
        assert family is None
    else:
        assert (family[0], str(family[1])) == (kind, component)


def test_symbol_rejects_garbage():
    for text in ["bogus^^", "6^+1", "2^+1", "2_II^-3", "2_0^-2", "4_1^+2"]:
        with pytest.raises(SymbolError):
            JordanSymbol.parse(text)


def _unit_gens(d):
    return [tuple(int(i == j) for i in range(d.rank)) for j in range(d.rank)]


def test_symbol_merge_rule():
    merged = JordanSymbol.parse("2_1^+1.2_1^+1")
    assert str(merged) == "2_2^+2"
    merged = JordanSymbol.parse("3^+1.3^-1")
    assert str(merged) == "3^-2"
    # an even and an odd 2-adic constituent of one scale merge into one odd one
    for text, pieces, expected in [
        ("2_II^+2.2_1^+1", ("2_II^+2", "2_1^+1"), "2_1^+3"),
        ("2_II^-2.2_3^-1", ("2_II^-2", "2_3^-1"), "2_3^+3"),
    ]:
        merged = JordanSymbol.parse(text)
        assert str(merged) == expected
        assert str(JordanSymbol.parse(str(merged))) == expected
        a, b = (from_jordan_symbol(p) for p in pieces)
        ea, eb = _unit_gens(a), _unit_gens(b)
        direct = DiscriminantForm(
            a.orders + b.orders,
            [a.q(g) for g in ea] + [b.q(g) for g in eb],
            [[a.b(g, h) for h in ea] + [0] * b.rank for g in ea] + [[0] * a.rank + [b.b(g, h) for h in eb] for g in eb],
        )
        form = from_jordan_symbol(merged)
        assert (form.order, form.level(), form.signature()) == (direct.order, direct.level(), direct.signature())
        assert sorted(form.q_values()) == sorted(direct.q_values())


def test_from_jordan_symbol_small_cases():
    d5 = from_jordan_symbol("5^+1")
    assert d5.order == 5
    a = int(d5.q((1,)) * 5)
    assert legendre(2 * a, 5) == 1

    d2 = from_jordan_symbol("2_II^+2")
    assert d2.q((1, 0)) == 0 and d2.q((0, 1)) == 0
    assert d2.b((1, 0), (0, 1)) == Fraction(1, 2)

    assert from_jordan_symbol("").order == 1


def test_levels():
    assert from_jordan_symbol("").level() == 1
    assert from_jordan_symbol("2_II^+2").level() == 2
    assert from_jordan_symbol("2_1^+1").level() == 4
    assert from_jordan_symbol("2_1^+1.4_5^-1.8_II^+2").level() == 8


def test_signatures():
    assert from_jordan_symbol("").signature() == 0
    assert from_jordan_symbol("2_II^-4").signature() == 4
    assert from_jordan_symbol("3^+3").signature() == 2  # 3-excess 6 -> -6 mod 8


def test_each_block_signature_is_matched_once(monkeypatch):
    """signature() reads each orthogonal block's Gauss-sum match through a
    memo on the shared block: over the forms of five symbols and their
    p-parts, with 9 distinct blocks among them (7^-4 alone has 4 blocks of
    2 kinds), _signature_from_gauss_sum runs once per distinct block."""
    forms = [from_jordan_symbol(s) for s in ["7^-4", "3^+1.5^+1", "5^-3", "2_2^+2.4_II^+2", "2_II^+2.3^-2"]]
    forms += [part for form in forms for _, part, _ in form.p_part_decompose()]
    blocks = {id(block): block for form in forms for block, _ in form.orthogonal_components()}
    for form in [*forms, *blocks.values()]:
        monkeypatch.setattr(form, "_caches", {})
    calls, original = [], fqm._signature_from_gauss_sum
    monkeypatch.setattr(fqm, "_signature_from_gauss_sum", lambda form: calls.append(id(form)) or original(form))
    assert [form.signature() for form in forms[:5]] == [4, 2, 0, 2, 0]
    for form in forms[5:]:
        form.signature()
    assert len(calls) == len(blocks) == 9 and set(calls) == set(blocks)


def test_from_gram_rank_one():
    d = from_gram([[2]])
    assert d.order == 2
    assert d.q((1,)) == Fraction(1, 4)
    assert d.signature() == 1
    assert d.level() == 4


def test_from_gram_a2():
    d = from_gram([[2, 1], [1, 2]])
    assert d.order == 3 and d.level() == 3
    assert d.signature() == 2
    q = d.q((1,))
    assert legendre(int(q * 3) * 2, 3) == -1  # type 3^-1


def _fingerprint(d):
    """Isomorphism-sensitive data: order, level, signature, p-part orders
    and the multiset of scaled Gauss sums at the 2-part."""
    parts = []
    for p, part, _ in d.p_part_decompose():
        entry = (p, part.order, tuple(sorted(part.orders)))
        if p == 2:
            n = 2 * part.level()
            entry += (tuple(sorted(serialize(part.gauss_sum(c)) for c in range(1, n + 1) if n % c == 0)),)
        parts.append(entry)
    return (d.order, d.level(), d.signature(), tuple(parts))


def test_from_gram_diag22():
    d = from_gram([[2, 0], [0, 2]])
    assert d.order == 4
    assert d.signature() == 2
    assert d.oddity() == 2
    ref = from_jordan_symbol("2_2^+2")
    assert _fingerprint(d) == _fingerprint(ref)


def test_from_gram_rejects_bad_input():
    with pytest.raises(ValueError):
        from_gram([[1]])  # odd diagonal
    with pytest.raises(ValueError):
        from_gram([[2, 0], [0, 0]])  # singular
    with pytest.raises(ValueError):
        from_gram([[2, 1], [0, 2]])  # not symmetric


@pytest.mark.parametrize(
    "orders, q_gen, b_gen",
    [
        ([2], [Fraction(1, 3)], [[Fraction(2, 3)]]),  # b(2 e, e) = 4/3 and q(2 e) = 4/3: order 2, level 3
        ([3], [Fraction(1, 6)], [[Fraction(1, 3)]]),  # b(3 e, e) = 0 but q(3 e) = 3/2
        ([2, 3], [Fraction(1, 2), Fraction(1, 3)], [[0, Fraction(1, 3)], [Fraction(1, 3), Fraction(2, 3)]]),
    ],
    ids=["order-2-level-3", "q-of-3e", "b-of-2e"],
)
def test_generator_data_must_be_well_defined(orders, q_gen, b_gen):
    """q(d g_i) and b(d g_i, g_j) must vanish mod 1 for a generator g_i of
    order d, else every later answer on the form would be wrong."""
    with pytest.raises(ValueError, match="not well defined on generator"):
        DiscriminantForm(orders, q_gen, b_gen)
    assert DiscriminantForm([3], [Fraction(1, 3)], [[Fraction(2, 3)]]).level() == 3


def test_from_gram_shares_one_form_per_matrix():
    """Equal Gram matrices, as lists or tuples, give one form with one set of
    memos; the cache keeps a copy, so changing the caller's matrix later
    changes nothing."""
    gram = [[2, 1, 0], [1, 2, 0], [0, 0, 6]]
    d = from_gram(gram)
    assert from_gram([row[:] for row in gram]) is d
    assert from_gram(tuple(map(tuple, gram))) is d
    gram[2][2] = 4
    assert from_gram([[2, 1, 0], [1, 2, 0], [0, 0, 6]]) is d
    assert from_gram(gram) is not d and from_gram(gram).order == 12 and d.order == 18
    assert d.lattice.gram == [[2, 1, 0], [1, 2, 0], [0, 0, 6]]


def test_polarization_identity():
    for sym in SMALL_EVEN_SYMBOLS + ["2_1^+1", "3^-1"]:
        d = from_jordan_symbol(sym)
        els = d.elements()
        for g in els:
            for h in els:
                assert (d.q(d.add(g, h)) - d.q(g) - d.q(h)) % 1 == d.b(g, h)


def test_integer_formulas_match_the_rational_sums():
    """q_int, b_row, q and b against the double sums over the generator
    values qn[i]/N and bn[i][j]/N, on symbol forms and a Gram form with
    off-diagonal b."""
    forms = [from_jordan_symbol(s) for s in ("2_II^+2.3^-1", "2_1^+1.4_5^-1.8_II^+2", "4_II^-2", "9^+1.3^-1")]
    for d in forms + [from_gram([[4, 2, 2], [2, 4, 2], [2, 2, 6]]), from_gram([[6, 3], [3, 6]])]:
        n, k = d.level(), d.rank
        q_gen, b_gen = [Fraction(x, n) for x in d.qn], [[Fraction(x, n) for x in row] for row in d.bn]
        els = d.elements()
        for x in els[:: max(1, len(els) // 64)]:
            q = sum(x[i] * x[i] * q_gen[i] + sum(x[i] * x[j] * b_gen[i][j] for j in range(i + 1, k)) for i in range(k)) % 1
            assert d.q(x) == q and d.q_int(x) == q * n
            row = d.b_row(x)
            for y in els[:: max(1, len(els) // 16)]:
                b = sum(x[i] * y[j] * b_gen[i][j] for i in range(k) for j in range(k)) % 1
                assert d.b(x, y) == b and sum(r * c for r, c in zip(row, y)) % n == b * n


def test_milgram_identity_battery():
    for sym in SMALL_EVEN_SYMBOLS + ["2_1^+1", "2_7^+1.4_1^+1", "9^+1", "3^+1.9^-1"]:
        d = from_jordan_symbol(sym)
        assert d.gauss_sum() == sqrt_int(d.order) * e_of(Fraction(d.signature(), 8))


def test_chi_values_and_multiplicativity():
    d5 = from_jordan_symbol("5^+1.5^+1")  # even signature, level 5
    assert d5.chi(1) == 1
    for a in (2, 3, 4):
        for b in (2, 3, 4):
            assert d5.chi(a) * d5.chi(b) == d5.chi(a * b % 5)
    d = from_jordan_symbol("2_2^+2.4_II^+2")
    n = d.level()
    units = [a for a in range(1, n) if gcd(a, n) == 1]
    for a in units:
        for b in units:
            assert d.chi(a) * d.chi(b) == d.chi(a * b % n)
    with pytest.raises(ValueError):
        d.chi(2)
    with pytest.raises(ValueError):
        from_jordan_symbol("2_1^+1").chi(3)  # odd signature


def test_oddity_with_mixed_order_generators():
    # a single generator of order 6 mixes the 2-part and 3-part; oddity
    # must come from the genuine 2-part, not from the whole component
    d = from_gram([[6, 0], [0, 6]])
    assert d.signature() == 2
    two_part = next(part for p, part, _ in d.p_part_decompose() if p == 2)
    assert d.oddity() == two_part.signature() == 6


def test_chi_with_mixed_order_generators():
    d = from_gram([[6, 0], [0, 6]])
    n = d.level()
    units = [a for a in range(1, n) if gcd(a, n) == 1]
    for a in units:
        for b in units:
            assert d.chi(a) * d.chi(b) == d.chi(a * b % n)
    # the character twist of invariant coefficients pins the oddity choice
    from weilinv.weil import inv

    vs = [inv(d, g) for g in d.isotropic_elements()]
    vs = [v for v in vs if not v.is_zero()]
    for v in vs:
        for a in units:
            chi = d.chi(a)
            for el in d.elements():
                assert v.coefficient(el) == chi * v.coefficient(d.smul(a, el))


def test_chi_on_single_five():
    d = from_jordan_symbol("5^+1")
    # odd signature? 5-excess(5^+1) = 4 -> signature 4: even, chi defined
    assert d.signature() == 4
    assert d.chi(2) == legendre(2, 5) == -1


def test_element_helpers():
    d = from_jordan_symbol("2_II^+2.3^-1")
    assert d.element_order((1, 1, 1)) == 6
    assert d.exponent() == 6
    g = (1, 0, 2)
    assert d.add(g, d.neg(g)) == d.zero()
    assert d.b(g, g) == (2 * d.q(g)) % 1


def test_subgroups_under_multiplication():
    def parts(form, c):
        image = sorted({form.smul(c, el) for el in form.elements()})
        return form.kernel_of_mul(c), image, form.coset_dcstar(c)

    d = from_jordan_symbol("2_1^+1")
    dc, image, star = parts(d, 2)
    assert dc == d.elements()
    assert image == [d.zero()]
    assert star == [(1,)]  # the distinguished 2-torsion point
    assert d.q(star[0]) == Fraction(1, 4)

    # c = 1: everything trivial
    dc, image, star = parts(d, 1)
    assert dc == [d.zero()]
    assert sorted(image) == sorted(d.elements())
    assert sorted(star) == sorted(d.elements())

    # c = 0: D_0 = D and D^{0*} = {0} by non-degeneracy
    d2 = from_jordan_symbol("3^+2")
    dc, image, star = parts(d2, 0)
    assert dc == d2.elements()
    assert star == [d2.zero()]


def test_degenerate_form_has_no_coset():
    """On a degenerate form D^{c*} is no coset of cD, and the record says so."""
    with pytest.raises(InternalInconsistency, match="not a coset"):
        DiscriminantForm((2, 2), (0, 0), ((0, 0), (0, 0))).coset_dcstar(2)


def test_canonical_xc_properties():
    for sym in ["2_1^+1", "2_0^+2", "2_2^+2.4_II^+2", "2_1^+1.4_1^+1.8_II^+2", "3^+2", "5^+1.5^+1"]:
        d = from_jordan_symbol(sym)
        for c in (0, 1, 2, 3, 4, 6, 8):
            star = d.coset_dcstar(c)
            x = d.canonical_xc(c)
            assert x in star
            assert d.smul(2, x) == d.zero()


def test_qc_well_defined_for_any_base_point():
    for sym in ["2_1^+1", "2_2^+2.4_II^+2", "2_1^+1.4_1^+1.8_II^+2"]:
        d = from_jordan_symbol(sym)
        for c in (2, 4):
            star = d.coset_dcstar(c)
            points = [x for x in star if d.smul(2, x) == d.zero()]
            for x_c in points:
                for gamma in star:
                    target = d.sub(gamma, x_c)
                    values = {
                        (c * d.q(mu) + d.b(x_c, mu)) % 1
                        for mu in d.elements()
                        if d.smul(c, mu) == target
                    }
                    assert len(values) == 1  # independent of the lift
                    assert d.q_c(c, gamma, x_c) == values.pop()


def test_qc_base_point_changes_by_constant():
    d = from_jordan_symbol("2_2^+2.4_II^+2")
    star = d.coset_dcstar(2)
    points = [x for x in star if d.smul(2, x) == d.zero()]
    x0 = points[0]
    for x1 in points[1:]:
        deltas = {(d.q_c(2, g, x0) - d.q_c(2, g, x1)) % 1 for g in star}
        assert len(deltas) == 1


#: symbol forms over 2-adic scales 2, 4, 8 of odd and even type, odd p and
#: composite levels, small enough to scan D^{c*} for every c up to 2N
XC_SWEEP = [
    "2_1^+1", "2_7^+1", "2_3^-1", "2_5^-1", "2_0^+2", "2_2^+2", "2_6^+2", "2_4^-2", "2_II^+2", "2_II^-2",
    "2_1^+3", "2_3^+3", "4_1^+1", "4_3^-1", "4_2^+2", "4_II^+2", "4_II^-2", "8_1^+1", "8_5^-1", "8_II^+2",
    "2_1^+1.4_1^+1", "2_1^+1.4_7^+1", "2_II^+2.4_1^+1", "2_1^+1.8_3^-1", "4_1^+1.8_1^+1", "2_2^+2.4_II^+2",
    "2_1^+1.4_1^+1.8_1^+1", "3^+1", "3^-2", "9^+1", "5^+1.5^-1", "2_1^+1.3^-1", "2_II^+2.3^-1",
    "4_1^+1.3^+1", "2_0^+2.5^-1", "2_1^+1.4_1^+1.3^-1", "8_1^+1.3^-1",
]


def _blockwise_xc(d, c):
    """The base point read from the genus symbol: q/2 on each rank-1
    generator of scale q = 2^v2(c) with 2q q(e_i) odd, and 0 elsewhere."""
    if c == 0:
        return d.zero()
    q = c & -c
    odd = [(2 * q * x).denominator == 1 and (2 * q * x).numerator % 2 == 1 for x in map(d.q, _unit_gens(d))]
    return tuple(q // 2 if n == q and o else 0 for n, o in zip(d.orders, odd))


def test_base_point_is_the_blockwise_one_for_every_form():
    for sym in XC_SWEEP:
        d = from_jordan_symbol(sym)
        e = _unit_gens(d)
        bare = DiscriminantForm(d.orders, [d.q(g) for g in e], [[d.b(g, h) for h in e] for g in e])  # without its symbol
        for c in range(2 * d.level() + 1):
            star = d.coset_dcstar(c)
            assert d.canonical_xc(c) == _blockwise_xc(d, c), (sym, c)
            assert bare.coset_dcstar(c) == star
            assert bare.canonical_xc(c) == d.canonical_xc(c)
            assert [bare.q_c(c, g) for g in star] == [d.q_c(c, g) for g in star]


def brute_count(symbol, denom):
    d = from_jordan_symbol(symbol)
    counts = {}
    for el in d.elements():
        j = int(d.q(el) * denom) if (d.q(el) * denom).denominator == 1 else None
        assert j is not None
        counts[j % denom] = counts.get(j % denom, 0) + 1
    return counts


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("eps", [1, -1])
def test_count_norm_odd_matches_bruteforce(p, n, eps):
    sym = f"{p}^{'+' if eps > 0 else '-'}{n}"
    counts = brute_count(sym, p)
    for j in range(p):
        assert count_norm(sym, j) == counts.get(j, 0)


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("eps", [1, -1])
def test_count_norm_even_two_adic_matches_bruteforce(n, eps):
    sym = f"2_II^{'+' if eps > 0 else '-'}{n}"
    counts = brute_count(sym, 2)
    for j in range(2):
        assert count_norm(sym, j) == counts.get(j, 0)


def test_count_norm_odd_two_adic_matches_bruteforce():
    for n in range(1, 5):
        for t in range(8):
            for eps in (1, -1):
                sym = f"2_{t}^{'+' if eps > 0 else '-'}{n}"
                try:
                    JordanSymbol.parse(sym)
                except SymbolError:
                    continue
                counts = brute_count(sym, 4)
                for j in range(4):
                    assert count_norm(sym, j) == counts.get(j, 0), (sym, j)


def test_count_norm_examples():
    assert count_norm("5^+2", 0) == 9
    assert count_norm("2_II^+2", 0) == 3
    assert count_norm("2_1^+1", 0) == 1


def test_count_norm_rejects_higher_exponent():
    with pytest.raises(ValueError):
        count_norm("9^+1", 0)
    with pytest.raises(ValueError):
        count_norm("4_II^+2", 0)


def test_p_part_decomposition():
    d = from_jordan_symbol("2_II^+2.3^-1")
    parts = d.p_part_decompose()
    assert [p for p, _, _ in parts] == [2, 3]
    assert [part.order for _, part, _ in parts] == [4, 3]
    # q restricts correctly along the embeddings and orders multiply
    total = 1
    for _, part, emb in parts:
        total *= part.order
        for el in part.elements():
            assert part.q(el) == d.q(emb.apply(el))
    assert total == d.order

    assert from_jordan_symbol("9^+1").p_part_decompose()[0][1].order == 9
    assert from_jordan_symbol("").p_part_decompose() == []


def test_p_part_sum_is_orthogonal():
    # rebuild each element from its p-parts; q must be additive across them
    d = from_jordan_symbol("2_0^+2.3^-1.5^+1")
    parts = d.p_part_decompose()
    for el in d.elements():
        total = d.zero()
        qsum = Fraction(0)
        for p, part, emb in parts:
            # the p-part of el: multiply by the complementary cofactor
            n = d.order
            cof = 1
            for pp, part2, _ in parts:
                if pp != p:
                    cof *= part2.exponent()
            inv_cof = pow(cof, -1, part.exponent())
            proj = d.smul(cof * inv_cof, el)
            # proj lies in the image of emb
            qsum += d.q(proj)
            total = d.add(total, proj)
        assert total == el
        assert qsum % 1 == d.q(el)


def test_level_is_minimal():
    for sym in ["2_1^+1", "2_II^+2", "3^-2", "2_2^+2.4_II^+2", "2_II^+2.3^-1"]:
        d = from_jordan_symbol(sym)
        n = d.level()
        assert all((n * d.q(g)).denominator == 1 for g in d.elements())
        for m in range(1, n):
            if n % m == 0:
                assert any((m * d.q(g)).denominator != 1 for g in d.elements()), (sym, m)


def test_from_gram_of_block_sum_matches_orthogonal_sum():
    # block-diagonal Gram gives the orthogonal sum of the parts
    block = [[2, 0, 0], [0, 2, 1], [0, 1, 2]]
    d = from_gram(block)
    ref = from_jordan_symbol("2_1^+1.3^-1")
    assert d.order == ref.order
    assert d.level() == ref.level()
    assert d.signature() == ref.signature()
    assert d.gauss_sum() == ref.gauss_sum()
    assert _fingerprint(d) == _fingerprint(ref)
