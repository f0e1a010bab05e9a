"""Exact arithmetic in cyclotomic fields Q(zeta_M).

A value of Q(zeta_M) is stored as (M, num, den): integer coordinates num
over the power basis 1, zeta, ..., zeta^(phi(M)-1) and one positive integer
denominator den, the value being sum(num[e] zeta^e) / den.  This is the form
the word kernel of weil works in.  The one constructor normalizes every value:
it reduces the coordinates modulo the M-th cyclotomic polynomial Phi_M with
reduce_mod_phi (Phi_M is the only thing kept per order), then divides out the
gcd of den and the coordinates.  Within a fixed order M this normal form is
unique, so equality is syntactic after unifying orders to the lcm, and
serialize prints a value at its conductor, so equal values print alike.  Fraction
appears only at the boundaries: rational inputs, as_rational and serialize;
integer_multiple reads rational values as ints, and inverse solves its linear
system in integers.  Roots of unity e(x) = exp(2*pi*i*x) and positive
square roots of integers (via quadratic Gauss sums) all live in one such
field, which keeps every representation matrix entry exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm, prod
from .arith import factorize, frac1, isqrt, legendre, squarefree_part
from .config import LIMITS
from .intmat import Echelon


class CycloOrderError(ValueError):
    """Requested cyclotomic order exceeds the configured bound."""


@cache
def cyclotomic_polynomial(m: int) -> list[int]:
    """Coefficients (ascending) of the m-th cyclotomic polynomial.  For the
    radical r > 1 of m, Phi_r is the product of (1 - x^d)^mu(r/d) over the
    divisors d of r, multiplied out as a power series up to its degree
    phi(r), and Phi_m(x) = Phi_r(x^(m/r)) (Arnold and Monagan, Math. Comp.
    80, 2011)."""
    if m == 1:
        return [-1, 1]
    primes = sorted(factorize(m))
    r, deg = prod(primes), prod(p - 1 for p in primes)
    poly = [1] + [0] * deg
    for mask in range(1 << len(primes)):
        left_out = [p for i, p in enumerate(primes) if mask >> i & 1]
        d = r // prod(left_out)
        if len(left_out) % 2:  # mu(r/d) = -1: divide by 1 - x^d
            for i in range(d, deg + 1):
                poly[i] += poly[i - d]
        else:  # multiply by 1 - x^d
            for i in range(deg, d - 1, -1):
                poly[i] -= poly[i - d]
    out = [0] * (deg * m // r + 1)
    out[:: m // r] = poly
    return out


def reduce_mod_phi(m: int, y) -> list:
    """The power-basis coordinates of sum_e y[e] zeta_m^e: the dense
    coefficient sequence y (ints or Fractions) reduced modulo Phi_m, top-down.
    The result is a new list of exactly phi(m) entries; y is not changed."""
    if m > LIMITS.max_cyclo_order:
        raise CycloOrderError(f"cyclotomic order {m} exceeds bound {LIMITS.max_cyclo_order}")
    poly = cyclotomic_polynomial(m)
    phi = len(poly) - 1
    y = list(y)
    if len(y) <= phi:
        return y + [0] * (phi - len(y))
    low = [(j, p) for j, p in enumerate(poly[:phi]) if p]
    for e in range(len(y) - 1, phi - 1, -1):
        c = y[e]
        if c:  # zeta^e = -sum_j p_j zeta^(e - phi + j) for Phi_m = x^phi + sum_j p_j x^j
            base = e - phi
            for j, p in low:
                y[base + j] -= c * p
    del y[phi:]
    return y


class Cyclo:
    """An element sum(num[e] zeta_order^e) / den of Q(zeta_order) in normal
    form: num is a tuple of phi(order) integers, den > 0 and the gcd of den
    and num is 1."""

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, num, den: int = 1):
        """The value sum(num[e] zeta_order^e) / den.  num is a sequence of
        integers of any length, or an {exponent: coefficient} map whose
        coefficients are integers or rationals (exponents taken mod order)."""
        if isinstance(num, dict):
            d = lcm(*(c.denominator for c in num.values()))
            y = [0] * order
            for e, c in num.items():
                y[e % order] += c.numerator * (d // c.denominator)
            num, den = y, den * d
        y = reduce_mod_phi(order, num)
        if den < 0:
            den, y = -den, [-x for x in y]
        g = gcd(den, *y)
        if g != 1:
            den //= g
            y = [x // g for x in y]
        self.order = order
        self.num = tuple(y)
        self.den = den

    # -- constructors -------------------------------------------------

    @staticmethod
    def rational(x) -> "Cyclo":
        if type(x) is int:  # (x,) over 1 is already the normal form at order 1
            out = object.__new__(Cyclo)
            out.order, out.num, out.den = 1, (x,), 1
            return out
        x = Fraction(x)
        return Cyclo(1, [x.numerator], x.denominator)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return any(self.num)

    # -- order handling -------------------------------------------------

    def to_order(self, m: int) -> "Cyclo":
        if m == self.order:
            return self
        if m % self.order:
            raise ValueError("target order must be a multiple of current order")
        k = m // self.order
        y = [0] * (k * len(self.num))
        y[::k] = self.num
        return Cyclo(m, y, self.den)

    @staticmethod
    def _unify(a: "Cyclo", b: "Cyclo") -> tuple["Cyclo", "Cyclo"]:
        if a.order == b.order:
            return a, b
        m = lcm(a.order, b.order)
        return a.to_order(m), b.to_order(m)

    # -- ring operations -------------------------------------------------

    def __add__(self, other) -> "Cyclo":
        if isinstance(other, (int, Fraction)):
            other = Cyclo.rational(other)
        if not self:
            return other
        if not other:
            return self
        a, b = Cyclo._unify(self, other)
        den = lcm(a.den, b.den)
        fa, fb = den // a.den, den // b.den
        return Cyclo(a.order, [x * fa + y * fb for x, y in zip(a.num, b.num)], den)

    __radd__ = __add__

    def __neg__(self) -> "Cyclo":
        return Cyclo(self.order, [-x for x in self.num], self.den)

    def __sub__(self, other) -> "Cyclo":
        return self + (-other)

    def __rsub__(self, other) -> "Cyclo":
        return Cyclo.rational(other) + (-self)

    def __mul__(self, other) -> "Cyclo":
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            return Cyclo(self.order, [x * other.numerator for x in self.num], self.den * other.denominator)
        if not self:
            return self
        if not other:
            return other
        a, b = Cyclo._unify(self, other)
        y = [0] * (2 * len(a.num) - 1)
        bs = [(j, z) for j, z in enumerate(b.num) if z]
        for i, x in enumerate(a.num):
            if x:
                for j, z in bs:
                    y[i + j] += x * z
        return Cyclo(a.order, y, a.den * b.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Cyclo":
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        return self * other.inverse()

    def __rtruediv__(self, other) -> "Cyclo":
        return self.inverse() * other

    def inverse(self) -> "Cyclo":
        if not self:
            raise ZeroDivisionError("division of cyclotomic number by zero")
        if not any(self.num[1:]):
            return Cyclo(1, [self.den], self.num[0])
        support = [x for x in self.num if x]
        if len(support) == 1:  # (x zeta^e / den)^-1 = conjugate * den^2 / x^2
            return self.conjugate() * Fraction(self.den * self.den, support[0] * support[0])
        # General case: solve (mult-by-num) x = den over the power basis,
        # eliminating the integer rows [M_i | den * delta_i0] of the augmented
        # system.  Column j is num * zeta^j, column j - 1 shifted up once and
        # reduced.  The stored row with pivot j is a multiple of [e_j | x_j].
        m, phi = self.order, len(self.num)
        rows: list[dict[int, int]] = [{phi: self.den}] + [{} for _ in range(1, phi)]
        col = list(self.num)
        for j in range(phi):
            for i, x in enumerate(col):
                rows[i][j] = x
            col = reduce_mod_phi(m, [0] + col)
        ech = Echelon()
        for row in rows:
            ech.add(row)
        solved = [ech.rows[j] for j in range(phi)]
        den = lcm(*(r[j] for j, r in enumerate(solved)))
        return Cyclo(m, [r.get(phi, 0) * (den // r[j]) for j, r in enumerate(solved)], den)

    def conjugate(self) -> "Cyclo":
        """Complex conjugate (zeta -> zeta^-1).  Phi_m is palindromic for m > 1,
        so reducing sum c_e zeta^-e bottom-up is reducing the reversed list
        top-down: c_e goes in at phi - 1 + e and t comes out at phi - 1 - t."""
        phi = len(self.num)
        return Cyclo(self.order, reduce_mod_phi(self.order, [0] * (phi - 1) + list(self.num))[::-1], self.den)

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Cyclo.rational(other)
        if not isinstance(other, Cyclo):
            return NotImplemented
        a, b = Cyclo._unify(self, other)
        return a.num == b.num and a.den == b.den

    __hash__ = None  # equal values of different orders differ in their fields

    # -- output -----------------------------------------------------------

    def __repr__(self) -> str:
        return f"Cyclo({self.order}, {serialize(self)!r})"

    def __str__(self) -> str:
        return serialize(self)


# -- public operations ------------------------------------------------------


def e_of(x) -> Cyclo:
    """The root of unity e(x) = exp(2*pi*i*x) for rational x."""
    x = frac1(x)
    return Cyclo(x.denominator, [0] * x.numerator + [1])


ZERO = Cyclo.rational(0)
ONE = Cyclo.rational(1)


@cache
def sqrt_int(n: int) -> Cyclo:
    """The positive square root of a positive integer.

    Constructed from quadratic Gauss sums: for odd p the sum
    sum_a (a/p) e(a/p) equals sqrt(p) for p = 1 mod 4 and i*sqrt(p)
    for p = 3 mod 4, and sqrt(2) = e(1/8) + e(-1/8).
    """
    if n < 1:
        raise ValueError("sqrt_int expects a positive integer")
    s = squarefree_part(n)
    out = Cyclo.rational(isqrt(n // s))
    for p in factorize(s):
        if p == 2:
            root = Cyclo(8, {1: 1, -1: 1})
        else:
            root = Cyclo(p, {a: legendre(a, p) for a in range(1, p)})
            if p % 4 == 3:
                root = root * e_of(Fraction(-1, 4))
        out = out * root
    return out


def as_rational(a: Cyclo) -> Fraction | None:
    """The rational value of a, or None when a is irrational."""
    return None if any(a.num[1:]) else Fraction(a.num[0], a.den)


def integer_multiple(values: dict) -> dict | None:
    """The map values times the lcm of their denominators, as a map to ints,
    when every value is rational, or None.  A value is rational exactly when
    its coordinates past the first vanish, and it is then num[0] / den."""
    if any(any(c.num[1:]) for c in values.values()):
        return None
    d = lcm(*(c.den for c in values.values()))
    return {k: c.num[0] * (d // c.den) for k, c in values.items()}


def _descend(a: Cyclo, p: int) -> Cyclo | None:
    """a as a value of Q(zeta_m), m = a.order / p for a prime p dividing the
    order, or None when it is not one."""
    big, m = a.order, a.order // p
    if m % p == 0:  # Phi_big(x) = Phi_m(x^p): Q(zeta_m) has the exponents divisible by p
        return None if any(a.num[e] for e in range(len(a.num)) if e % p) else Cyclo(m, a.num[::p], a.den)
    # zeta_big^e = zeta_p^i zeta_m^j, e = i m + j p mod big; over Q(zeta_m) the
    # zeta_p^i, 0 < i < p, are a basis with 1 = -(their sum), so a = sum_i
    # zeta_p^i y_i lies in Q(zeta_m) exactly when y_1 = ... = y_{p-1}, and
    # then a = y_0 - y_1.  For p = 2 this always holds (zeta_2 = -1).
    parts: list[dict[int, int]] = [{} for _ in range(p)]
    m_inv, p_inv = pow(m, -1, p), pow(p, -1, m)
    for e, x in enumerate(a.num):  # e -> (i, j) is one to one (CRT)
        parts[e * m_inv % p][e * p_inv % m] = x
    ys = [Cyclo(m, part, a.den) for part in parts]
    return ys[0] - ys[1] if all(y == ys[1] for y in ys[2:]) else None


def serialize(a: Cyclo) -> str:
    """Canonical string form: sum(c * zeta{M}^k) with exponents ascending,
    M the conductor of a, the least order whose field holds it, so that
    equal values print alike whatever order they were computed in."""
    for p in sorted(factorize(a.order)):
        while a.order % p == 0 and (lower := _descend(a, p)) is not None:
            a = lower
    parts = [f"{Fraction(x, a.den)} * zeta{a.order}^{e}" for e, x in enumerate(a.num) if x]
    return "sum(" + ", ".join(parts) + ")"
