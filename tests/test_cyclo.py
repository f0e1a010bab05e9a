import cmath
import random
from fractions import Fraction
from functools import cache
from math import gcd, lcm

import pytest
from hypothesis import given, strategies as st

from weilinv.cyclo import (
    Cyclo,
    CycloOrderError,
    as_rational,
    cyclotomic_polynomial,
    e_of,
    reduce_mod_phi,
    serialize,
    sqrt_int,
)


def _poly_divmod(num: list[int], den: list[int]) -> list[int]:
    """Exact quotient of integer polynomials (remainder must vanish)."""
    num = num[:]
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        coef = num[i + len(den) - 1]
        if coef % den[-1]:
            raise ArithmeticError("non-exact polynomial division")
        q = coef // den[-1]
        out[i] = q
        if q:
            for j, c in enumerate(den):
                num[i + j] -= q * c
    if any(num):
        raise ArithmeticError("non-zero remainder")
    return out


@cache
def _phi_by_division(m: int) -> list[int]:
    """Phi_m as x^m - 1 divided by Phi_d for every proper divisor d of m."""
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _poly_divmod(poly, _phi_by_division(d))
    return poly


def _embed(a: Cyclo) -> complex:
    """The value of a in C, with zeta_m = exp(2 pi i / m)."""
    return sum(x / a.den * cmath.exp(2j * cmath.pi * e / a.order) for e, x in enumerate(a.num) if x)


def test_e_of_identity_and_half_turn():
    assert e_of(0) == 1
    assert e_of(Fraction(1, 2)) == -1


def test_e_of_is_a_character():
    xs = [Fraction(a, b) for b in (1, 2, 3, 4, 5, 8, 12) for a in range(b)]
    for x in xs:
        for y in xs:
            assert e_of(x) * e_of(y) == e_of(x + y)


def test_cosine_of_eighth_turn_is_sqrt_two():
    val = e_of(Fraction(1, 8)) + e_of(Fraction(-1, 8))
    assert val == sqrt_int(2)
    assert abs(_embed(val) - 2 ** 0.5) < 1e-12


def test_sqrt_int_small_values():
    assert sqrt_int(1) == 1
    assert sqrt_int(4) == 2
    for n in range(1, 51):
        r = sqrt_int(n)
        assert r * r == n
        z = _embed(r)
        assert abs(z.imag) < 1e-9
        assert z.real > 0


def test_sqrt_int_rejects_non_positive():
    with pytest.raises(ValueError):
        sqrt_int(0)
    with pytest.raises(ValueError):
        sqrt_int(-2)


def test_sqrt_is_multiplicative():
    for a, b in [(2, 3), (2, 2), (3, 5), (6, 10), (7, 7)]:
        assert sqrt_int(a) * sqrt_int(b) == sqrt_int(a * b)


def test_as_rational():
    assert as_rational(e_of(Fraction(1, 2))) == -1
    assert as_rational(e_of(Fraction(1, 3))) is None
    assert as_rational(e_of(Fraction(1, 8)) * e_of(Fraction(-1, 8)) * 5) == 5
    assert as_rational(sum((e_of(Fraction(k, 5)) for k in range(1, 5)), Cyclo.rational(0))) == -1


def test_serialization_shape():
    assert serialize(Cyclo.rational(0)) == "sum()"
    assert serialize(e_of(Fraction(1, 8))) == "1 * zeta8^1".join(("sum(", ")"))
    s = serialize(sqrt_int(2))
    assert s.startswith("sum(") and "zeta8" in s


def test_serialization_prints_the_conductor():
    assert e_of(Fraction(1, 4)) == e_of(Fraction(1, 8)) * e_of(Fraction(1, 8))
    assert serialize(e_of(Fraction(1, 8)) * e_of(Fraction(1, 8))) == "sum(1 * zeta4^1)"
    assert serialize(e_of(Fraction(1, 2))) == "sum(-1 * zeta1^0)"
    assert serialize(e_of(Fraction(1, 6))) == "sum(1 * zeta3^0, 1 * zeta3^1)"  # zeta6 = 1 + zeta3
    assert serialize(e_of(Fraction(1, 10))) == "sum(-1 * zeta5^3)"
    assert serialize(e_of(Fraction(1, 3)).to_order(60)) == "sum(1 * zeta3^1)"


def test_cyclotomic_polynomial_matches_division():
    """The product formula against x^m - 1 divided by the Phi_d of its proper
    divisors, on every m up to 200 and on large m up to 2520."""
    for m in [*range(1, 201), 420, 840, 1155, 2048, 2187, 2310, 2401, 2520]:
        assert cyclotomic_polynomial(m) == _phi_by_division(m), m


def test_cyclotomic_polynomials_multiply_to_x_m_minus_one():
    """x^m - 1 is the product of Phi_d over the divisors d of m, the identity
    the division inverts, on every m up to 2520: both sides are evaluated at a
    random point modulo the prime 2^61 - 1 (a wrong Phi_m survives with
    probability at most 2520 / 2^61)."""
    p, top = (1 << 61) - 1, 2520
    x = random.Random(2520).randrange(2, p)
    powers = [1]
    for _ in range(top):
        powers.append(powers[-1] * x % p)
    value = [None] + [
        sum(c * powers[i] for i, c in enumerate(cyclotomic_polynomial(m)) if c) % p for m in range(1, top + 1)
    ]
    for m in range(1, top + 1):
        product = 1
        for d in range(1, m + 1):
            if m % d == 0:
                product = product * value[d] % p
        assert product == (powers[m] - 1) % p, m


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def cyclos(draw):
    m = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12, 24, 56, 120]))
    support = draw(st.lists(st.tuples(st.integers(0, 119), small_rationals), max_size=4))
    return Cyclo(m, {e % m: c for e, c in support if c})


@given(cyclos(), cyclos(), cyclos())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@given(cyclos())
def test_inverse(a):
    if not a.is_zero():
        assert a * a.inverse() == 1
    with pytest.raises(ZeroDivisionError):
        a / Cyclo.rational(0)


#: values with at least two non-zero power-basis coordinates, whose inverse
#: needs the linear solve
general_cyclos = st.builds(
    lambda m, num, den: Cyclo(m, num, den),
    st.sampled_from([5, 7, 8, 9, 12, 15, 16, 20, 21, 24]),
    st.lists(st.integers(-50, 50), min_size=2, max_size=12),
    st.integers(1, 30),
).filter(lambda a: sum(map(bool, a.num)) >= 2)


@given(general_cyclos)
def test_inverse_of_general_elements(a):
    b = a.inverse()
    assert_normal_form(b)
    assert a * b == 1 and b * a == 1


@given(st.integers(-(10**30), 10**30))
def test_rational_of_an_int_is_the_normal_form(x):
    a = Cyclo.rational(x)
    assert (a.order, a.num, a.den) == (1, (x,), 1)
    assert a == Cyclo(1, [x]) and as_rational(a) == x


@given(cyclos())
def test_conjugation_is_an_involution(a):
    assert a.conjugate().conjugate() == a
    assert a.conjugate() == Cyclo(a.order, {-e: x for e, x in enumerate(a.num)}, a.den)
    norm = a * a.conjugate()
    assert abs(_embed(norm).imag) < 1e-9


@given(cyclos())
def test_canonical_form_is_stable(a):
    # re-normalizing the stored coordinates must not change anything
    again = Cyclo(a.order, a.num, a.den)
    assert (again.num, again.den) == (a.num, a.den)
    negated = Cyclo(a.order, [-x for x in a.num], -a.den)
    assert (negated.num, negated.den) == (a.num, a.den)
    assert Cyclo(a.order, {e: Fraction(x, a.den) for e, x in enumerate(a.num)}).num == a.num
    lifted = a.to_order(a.order * 2)
    assert lifted == a


@given(cyclos(), st.sampled_from([1, 2, 3, 4, 5, 6, 10, 12]), st.sampled_from([1, 2, 3, 5, 7]))
def test_equal_values_serialize_alike(a, k, j):
    """A value lifted to a multiple of its order, or built as a product at a
    larger order, prints as it does at its own order."""
    assert serialize(a.to_order(a.order * k)) == serialize(a)
    unit = e_of(Fraction(1, j))
    b = (a * unit).to_order(a.order * j * k) * unit.conjugate()
    assert b == a and serialize(b) == serialize(a)


def assert_normal_form(a):
    """Integer coordinates, phi(order) of them, over a positive denominator
    that shares no factor with them."""
    assert all(type(x) is int for x in (*a.num, a.den))
    assert len(a.num) == len(cyclotomic_polynomial(a.order)) - 1
    assert a.den > 0 and gcd(a.den, *a.num) == 1


@given(cyclos(), cyclos(), cyclos(), small_rationals)
def test_results_are_in_normal_form(a, b, c, r):
    results = [a + b, a - b, a * b, a * r, r * a, a.conjugate()]
    if a:
        results.append(a.inverse())
    for x in results:
        assert_normal_form(x)
    # equal values built by different routes at one order have equal fields
    m = lcm(a.order, b.order, c.order)
    a, b, c = (x.to_order(m) for x in (a, b, c))
    routes = [((a * b) * c, a * (b * c)), ((a + b) - b, a)]
    if r:
        routes.append(((a * r) / r, a))
    for x, y in routes:
        assert (x.order, x.num, x.den) == (y.order, y.num, y.den)
        assert serialize(x) == serialize(y)


def test_order_bound_is_enforced():
    from weilinv.config import LIMITS

    old = LIMITS.max_cyclo_order
    LIMITS.max_cyclo_order = 10
    try:
        with pytest.raises(CycloOrderError):
            e_of(Fraction(1, 97)) * e_of(Fraction(1, 89))
    finally:
        LIMITS.max_cyclo_order = old


def test_order_bound_applies_to_cached_tables():
    from weilinv.config import LIMITS

    e_of(Fraction(1, 97))  # caches the cyclotomic polynomial of Q(zeta_97)
    old = LIMITS.max_cyclo_order
    LIMITS.max_cyclo_order = 10
    try:
        with pytest.raises(CycloOrderError):
            e_of(Fraction(1, 97))
    finally:
        LIMITS.max_cyclo_order = old


@pytest.mark.parametrize("m", [1, 2, 8, 9, 24, 56, 105, 120])
def test_reduce_mod_phi_is_exact(m):
    poly = cyclotomic_polynomial(m)
    phi = len(poly) - 1
    rng = random.Random(m)
    for trial in range(20):
        n = rng.randint(0, 2 * m)  # products of reduced values reach 2 phi - 1
        if trial % 2:
            y = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
        else:
            y = [rng.randint(-9, 9) for _ in range(n)]
        r = reduce_mod_phi(m, y)
        assert len(r) <= phi
        diff = [a - (r[i] if i < len(r) else 0) for i, a in enumerate(y)]
        if len(diff) <= phi:
            assert not any(diff)
        else:  # y - r is a multiple of Phi_m: scale to integers, divide exactly
            den = lcm(*(Fraction(x).denominator for x in diff))
            _poly_divmod([int(x * den) for x in diff], poly)
