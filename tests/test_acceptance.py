"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything here is exact; there are no tolerances anywhere.  Expected
values marked as derived were computed with the independent oracles in
this file (literal coset averages, exhaustive element scans, brute-force
lattice point counts).
"""

import random
from fractions import Fraction
from math import gcd

from weilinv.appl import dim_s2, dim_s2_trace, jacobi_singular_basis, theta_q_expansion
from weilinv.cyclo import e_of, sqrt_int
from weilinv.fqm import JordanSymbol, SymbolError, from_gram, from_jordan_symbol
from weilinv.fundamental import (
    fundamental_form,
    fundamental_invariant,
    invariant_generators,
)
from weilinv.induct import isotropic_subgroups, lift_up, quotient
from weilinv.weil import (
    Vec,
    cusp_classes,
    dim_closed_form,
    dim_invariants,
    inv,
    inv_at_cusp,
    inv_average_oracle,
    projection_closed_form,
    rank_of_vectors,
    rho_S,
    rho_T,
)

from conftest import random_vector


def _sign(eps):
    return "+" if eps > 0 else "-"


FUNDAMENTAL_SYMBOLS = (
    [f"{p}^-4" for p in (3, 5, 7)]
    + [f"{p}^{_sign(e)}3" for p in (3, 5, 7) for e in (1, -1)]
    + ["2_II^-4"]
    + [f"2_{t}^+2.4_II^+2" for t in (2, 6)]
    + [f"2_1^+1.4_{t}^{_sign(1 if t % 8 in (1, 7) else -1)}1.8_II^+2" for t in (1, 3, 5, 7)]
)

LEVEL_EIGHT_SYMBOLS = [s for s in FUNDAMENTAL_SYMBOLS if "8_II" in s]

# criterion 5 battery (the main-theorem span checks)
SPAN_SYMBOLS = [
    "3^+3",
    "3^-4",
    "3^+5",
    "5^+2",
    "5^-2",
    "2_II^+2",
    "2_II^-2",
    "2_II^-4",
    "2_0^+2",
    "2_2^+2.4_II^+2",
    "2_6^+2.4_II^+2",
    "2_1^+1.4_1^+1.8_II^+2",
    "4_II^+2",
]

# criterion 4 battery: every even-signature form here has |D| <= 2^8
PROJECTION_SYMBOLS = [s for s in SPAN_SYMBOLS if from_jordan_symbol(s).order <= 256] + [
    "2_II^+2.3^-2",
    "2_0^+4",
    "2_4^-2",
]


def test_criterion_1_fundamental_dimensions():
    for sym in FUNDAMENTAL_SYMBOLS:
        d = from_jordan_symbol(sym)
        assert dim_invariants(d) == 1, sym
    assert dim_invariants(from_jordan_symbol("")) == 1
    print("\nACCEPTANCE 1 fundamental dimensions: PASS "
          f"({len(FUNDAMENTAL_SYMBOLS) + 1} forms, exact trace)")


def _closed_form_family():
    for p in (3, 5, 7):
        for n in (1, 2, 3, 4):
            for eps in (1, -1):
                yield f"{p}^{_sign(eps)}{n}"
    for n in (2, 4, 6):
        for eps in (1, -1):
            yield f"2_II^{_sign(eps)}{n}"
    for n in range(1, 6):
        for t in range(8):
            for eps in (1, -1):
                yield f"2_{t}^{_sign(eps)}{n}"
    for n in (1, 2, 3):
        for t in range(8):
            for eps in (1, -1):
                yield f"2_{t}^{_sign(eps)}{n}.4_II^+2"


def test_criterion_2_closed_form_dimensions():
    checked = 0
    for sym in _closed_form_family():
        try:
            parsed = JordanSymbol.parse(sym)
        except SymbolError:
            continue
        d = from_jordan_symbol(parsed)
        cf = dim_closed_form(parsed)
        assert cf is not None, sym
        assert cf == dim_invariants(d), sym
        checked += 1
    # printed instance: hyperbolic rank-2 forms have dimension 2
    from weilinv.arith import legendre

    for p in (3, 5, 7):
        eps = legendre(-1, p)
        assert dim_invariants(from_jordan_symbol(f"{p}^{_sign(eps)}2")) == 2
    print(f"\nACCEPTANCE 2 closed-form vs trace dimensions: PASS ({checked} symbols)")


def test_criterion_3_cardinalities():
    for sym in LEVEL_EIGHT_SYMBOLS:
        d = from_jordan_symbol(sym)
        iso = d.isotropic_elements()
        assert len(iso) == 64, sym
        assert len([g for g in iso if d.smul(4, g) == d.zero()]) == 16, sym
    for p in (3, 5, 7):
        for eps in (1, -1):
            desc = fundamental_form(p, "non-square", from_jordan_symbol(f"{p}^{_sign(eps)}3").signature())
            fi = fundamental_invariant(desc)
            assert len(fi.plus_set) == len(fi.minus_set) == (p * p - 1) // 2, (p, eps)
    for t in (2, 6):
        fi = fundamental_invariant(fundamental_form(2, "square", t))
        assert len(fi.plus_set) == len(fi.minus_set) == 6, t
    for s in (0, 2, 4, 6):
        fi = fundamental_invariant(fundamental_form(2, "non-square", s))
        assert len(fi.plus_set) == len(fi.minus_set) == 24, s
    print("\nACCEPTANCE 3 cardinalities |I|, |I_4|, |M^+-|: PASS")


def test_criterion_4_projection_identities():
    checked_forms = 0
    checked_projections = 0
    for sym in PROJECTION_SYMBOLS:
        d = from_jordan_symbol(sym)
        if d.signature() % 2:
            continue
        assert d.order <= 256
        n = d.level()
        cusps = cusp_classes(n)
        for gamma in d.isotropic_elements():
            reference = inv_average_oracle(d, gamma)
            per_cusp = Vec(d)
            for cusp in cusps:
                per_cusp = per_cusp + inv_at_cusp(d, gamma, cusp.key)
            assert per_cusp == reference, (sym, gamma)
            assert inv(d, gamma) == reference, (sym, gamma)
            closed = projection_closed_form(d, gamma)
            if closed is not None:
                assert closed == reference, (sym, gamma)
            checked_projections += 1
        checked_forms += 1
    print(
        f"\nACCEPTANCE 4 projection identities: PASS "
        f"({checked_projections} projections on {checked_forms} forms, exact)"
    )


def test_criterion_5_main_theorem_span():
    for sym in SPAN_SYMBOLS:
        d = from_jordan_symbol(sym)
        gens = invariant_generators(d)
        assert rank_of_vectors(gens) == dim_invariants(d), sym
    composite = from_jordan_symbol("2_II^+2.3^-2")
    gens = invariant_generators(composite)
    assert rank_of_vectors(gens) == dim_invariants(composite) == 4
    print(f"\nACCEPTANCE 5 main-theorem span: PASS ({len(SPAN_SYMBOLS)} forms + composite)")


PROP_SYMBOLS = [
    "2_II^+2",
    "2_II^-2",
    "2_0^+2",
    "2_4^-2",
    "4_II^+2",
    "3^+2",
    "3^-2",
    "3^+3",
    "2_2^+2.4_II^+2",
    "2_II^+2.3^-1",
    "5^+1.5^-1",
]


def test_criterion_6_property_suites():
    rng = random.Random(97)
    forms = [from_jordan_symbol(s) for s in PROP_SYMBOLS]
    for d in forms:
        assert d.order <= 256 and d.signature() % 2 == 0

    relations = 0
    for d in forms:
        phase = e_of(Fraction(d.signature(), 4))
        for g in d.elements():
            v = Vec.basis(d, g)
            assert rho_S(rho_S(v)) == Vec(d, {d.neg(g): phase})
            braid = v
            for _ in range(3):
                braid = rho_S(rho_T(braid))
            assert braid == rho_S(rho_S(v))
            relations += 1
            if relations >= 140:
                break
        if relations >= 140:
            break
    assert relations >= 100

    unitary = 0
    while unitary < 110:
        d = forms[rng.randrange(len(forms))]
        v = random_vector(d, rng)
        w = random_vector(d, rng)
        assert rho_S(v).inner(rho_S(w)) == v.inner(w)
        assert rho_T(v).inner(rho_T(w)) == v.inner(w)
        unitary += 1

    projections = 0
    while projections < 110:
        d = forms[rng.randrange(len(forms))]
        v = random_vector(d, rng, density=0.3)
        w = random_vector(d, rng, density=0.3)
        pv = inv(d, v)
        assert inv(d, pv) == pv
        assert pv.inner(w) == v.inner(inv(d, w))
        assert rho_S(pv) == pv and rho_T(pv) == pv
        projections += 1

    # invariant-vector propositions
    instances = 0
    for d in forms:
        n = d.level()
        units = [a for a in range(1, max(2, n)) if gcd(a, n) == 1] or [1]
        chi_nontrivial = any(d.chi(a) == -1 for a in units)
        iso = d.isotropic_elements()
        basis = [inv(d, g) for g in iso]
        basis = [v for v in basis if not v.is_zero()]
        for v in basis[:3]:
            for a in units:
                chi = d.chi(a)
                for el in d.elements():
                    assert v.coefficient(el) == chi * v.coefficient(d.smul(a, el))
                instances += 1
        if chi_nontrivial:
            assert inv(d, d.zero()).is_zero()
            instances += 1
        ref = inv(d, d.zero())
        for g in d.elements():
            if all(d.b(g, mu) == 0 for mu in iso):
                assert inv(d, g) == ref
                instances += 1
            if chi_nontrivial and all(d.b(d.smul(2, g), mu) == 0 for mu in iso):
                assert inv(d, g).is_zero()
                instances += 1
    # forms where multiplication by 5 twists by -1
    for sym in ["2_1^+1.4_1^+1", "2_1^+1.4_5^-1", "2_3^-1.4_7^+1", "8_1^+1.4_1^+1", "8_3^-1.4_1^+1"]:
        d = from_jordan_symbol(sym)
        if d.signature() % 2:
            continue
        n = d.level()
        assert gcd(n, 5) == 1 and d.chi(5) == -1
        iso = d.isotropic_elements()
        for g in d.elements():
            if all(d.b(d.smul(4, g), mu) == 0 for mu in iso):
                assert inv(d, g).is_zero(), (sym, g)
                instances += 1
    assert instances >= 100

    # lift / descend laws
    from weilinv.induct import descend, make_isotropic_subgroup

    lifts = 0
    quotient_cache = []
    for d in forms:
        for sub in isotropic_subgroups(d):
            if sub.order > 1:
                quotient_cache.append((d, quotient(d, sub)))
    while lifts < 110:
        d, qf = quotient_cache[rng.randrange(len(quotient_cache))]
        v = random_vector(qf.form, rng)
        w = random_vector(d, rng)
        assert lift_up(qf, v).inner(w) == v.inner(descend(qf, w))
        assert rho_S(lift_up(qf, v)) == lift_up(qf, rho_S(v))
        assert rho_T(lift_up(qf, v)) == lift_up(qf, rho_T(v))
        assert inv(d, lift_up(qf, v)) == lift_up(qf, inv(qf.form, v))
        lifts += 1
    transitive = 0
    d = from_jordan_symbol("3^+4")
    subs = isotropic_subgroups(d)
    for big in subs:
        for small in subs:
            if 1 < small.order < big.order and set(small.elements) <= set(big.elements):
                q_small = quotient(d, small)
                mid = make_isotropic_subgroup(
                    q_small.form, tuple(q_small.projection[el] for el in big.elements)
                )
                q_mid = quotient(q_small.form, mid)
                q_big = quotient(d, big)
                for qel in q_mid.form.elements():
                    v = Vec.basis(q_mid.form, qel)
                    rep = q_small.section[q_mid.section[qel]]
                    assert lift_up(q_small, lift_up(q_mid, v)) == lift_up(
                        q_big, Vec.basis(q_big.form, q_big.projection[rep])
                    )
                    transitive += 1
    assert lifts + transitive >= 100
    print(
        "\nACCEPTANCE 6 property suites: PASS "
        f"(relations {relations}, unitary {unitary}, projections {projections}, "
        f"propositions {instances}, lifts {lifts}+{transitive})"
    )


def test_criterion_7_weight_two_cusp_forms():
    for sym in ["2_II^+2", "2_II^-2", "2_II^+4", "2_II^-4", "3^+2", "3^-2", "3^+4", "3^-4"]:
        assert dim_s2(sym) == 0, sym
    checked = 0
    for p in (5, 7):
        for n in (2, 4):
            for eps in (1, -1):
                sym = f"{p}^{_sign(eps)}{n}"
                data = dim_s2_trace(sym)
                assert data.dim == dim_s2(sym), sym
                assert data.tr_s == -1, sym
                assert data.alpha_s == Fraction(p**n + 3, 8), sym
                checked += 1
    print(f"\nACCEPTANCE 7 weight-2 cusp form dimensions: PASS ({checked} oracle comparisons)")


MILGRAM_GRAMS = [
    [[2]],
    [[2, 1], [1, 2]],
    [[2, 0], [0, 2]],
    [[4, 1], [1, 4]],
    [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
]


def test_criterion_8_milgram():
    symbols = set(FUNDAMENTAL_SYMBOLS + SPAN_SYMBOLS + PROJECTION_SYMBOLS + PROP_SYMBOLS)
    symbols |= {"2_1^+1", "2_7^+1", "9^+1", "25^+1", "3^+1.9^-1", "2_1^+1.4_1^+1", "8_1^+1.4_1^+1"}
    checked = 0
    for sym in sorted(symbols):
        d = from_jordan_symbol(sym)
        if d.order > 2**9:
            continue
        assert d.gauss_sum() == sqrt_int(d.order) * e_of(Fraction(d.signature(), 8)), sym
        checked += 1
    for gram in MILGRAM_GRAMS:
        d = from_gram(gram)
        assert d.gauss_sum() == sqrt_int(d.order) * e_of(Fraction(d.signature(), 8))
        checked += 1
    print(f"\nACCEPTANCE 8 Milgram identity: PASS ({checked} forms, exact)")


E8_GRAM = [
    [2, -1, 0, 0, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0, 0, 0],
    [0, -1, 2, -1, 0, 0, 0, 0],
    [0, 0, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, -1, 0],
    [0, 0, 0, 0, -1, 2, 0, 0],
    [0, 0, 0, 0, -1, 0, 2, -1],
    [0, 0, 0, 0, 0, 0, -1, 2],
]

D4_GRAM = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]


def _count_even_unimodular_rank8(limit):
    """Vector counts of the even unimodular rank-8 lattice by norm, from the
    standard coordinate model: x in Z^8 or (Z+1/2)^8 with even coordinate sum.

    Independent of the Gram-matrix pipeline under test.
    """
    counts = [0] * (limit + 1)

    def scan(values, parity_mod, parity_target):
        # doubled coordinates y_i from `values`; norm = sum y^2 / 4
        def rec(i, acc, parity):
            if acc > 4 * 2 * limit:
                return
            if i == 8:
                if parity % parity_mod == parity_target and acc % 8 == 0:
                    norm2 = acc // 4  # = |x|^2 * 2 ... acc = sum y^2 = 4 |x|^2
                    if norm2 % 2 == 0 and norm2 // 2 <= limit:
                        counts[norm2 // 2] += 1
                return
            for y in values:
                rec(i + 1, acc + y * y, parity + y)

        rec(0, 0, 0)

    # integer vectors: y = 2x, even coordinate sum means sum(y) = 0 mod 4
    scan(range(-6, 7, 2), 4, 0)
    # half-integer vectors: y odd, x = y/2, sum(x) even means sum(y) = 0 mod 4
    scan(range(-5, 6, 2), 4, 0)
    return counts


def test_criterion_9_jacobi_application():
    # even unimodular rank 8
    basis = jacobi_singular_basis(E8_GRAM)
    d = from_gram(E8_GRAM)
    assert rank_of_vectors([e.vector for e in basis]) == dim_invariants(d) == 1
    theta = theta_q_expansion(E8_GRAM, [], basis[0].coefficients, 5)
    assert theta == _count_even_unimodular_rank8(5)

    # diag(2, 2)
    d22 = from_gram([[2, 0], [0, 2]])
    basis22 = jacobi_singular_basis([[2, 0], [0, 2]])
    assert rank_of_vectors([e.vector for e in basis22]) == dim_invariants(d22) == 0
    theta22 = theta_q_expansion([[2, 0], [0, 2]], [], {(0, 0): 1}, 5)
    brute = [0] * 6
    for x in range(-5, 6):
        for y in range(-5, 6):
            if x * x + y * y <= 5:
                brute[x * x + y * y] += 1
    assert theta22 == brute

    # a level-2 rank-4 lattice
    d4 = from_gram(D4_GRAM)
    assert d4.level() == 2 and len(D4_GRAM) == 4
    basis4 = jacobi_singular_basis(D4_GRAM)
    assert rank_of_vectors([e.vector for e in basis4]) == dim_invariants(d4) == 0
    theta4 = theta_q_expansion(D4_GRAM, [], {(0, 0): 1}, 5)
    brute4 = [0] * 6
    for a in range(-6, 7):
        for b in range(-6, 7):
            for c in range(-6, 7):
                for e in range(-6, 7):
                    v = (a, b, c, e)
                    norm = sum(D4_GRAM[i][j] * v[i] * v[j] for i in range(4) for j in range(4))
                    if norm % 2 == 0 and norm // 2 <= 5:
                        brute4[norm // 2] += 1
    assert theta4 == brute4
    print("\nACCEPTANCE 9 Jacobi singular-weight basis: PASS (3 lattices, exact integer counts)")
