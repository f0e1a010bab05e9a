"""Exact arithmetic in cyclotomic fields Q(zeta_M).

A value is stored as a sparse coefficient map over the power basis
1, zeta, ..., zeta^(phi(M)-1) of Q(zeta_M).  Every operation writes its
result as a dense polynomial in zeta and reduces it modulo the M-th
cyclotomic polynomial Phi_M with one routine, reduce_mod_phi; Phi_M is
the only thing kept per order.  Within a fixed order M this normal form
is unique, so equality is syntactic after unifying orders to the lcm.
Roots of unity e(x) = exp(2*pi*i*x) and positive square roots of
integers (via quadratic Gauss sums) all live in one such field, which
keeps every representation matrix entry exact.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import cache
from math import lcm
from .arith import factorize, frac1, isqrt, legendre, squarefree_part
from .config import LIMITS
from .intmat import Echelon


class CycloOrderError(ValueError):
    """Requested cyclotomic order exceeds the configured bound."""


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
def cyclotomic_polynomial(m: int) -> list[int]:
    """Coefficients (ascending) of the m-th cyclotomic polynomial."""
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            poly = _poly_divmod(poly, cyclotomic_polynomial(d))
    return poly


def reduce_mod_phi(m: int, y: list) -> list:
    """The power-basis coordinates of sum_e y[e] zeta_m^e: the dense
    coefficient list y (ints or Fractions) reduced modulo Phi_m, top-down.
    The result has at most phi(m) entries; y itself is not changed."""
    if m > LIMITS.max_cyclo_order:
        raise CycloOrderError(f"cyclotomic order {m} exceeds bound {LIMITS.max_cyclo_order}")
    poly = cyclotomic_polynomial(m)
    phi = len(poly) - 1
    if len(y) <= phi:
        return y[:]
    y = y[:]
    low = [(j, p) for j, p in enumerate(poly[:phi]) if p]
    for e in range(len(y) - 1, phi - 1, -1):
        c = y[e]
        if c:  # zeta^e = -sum_j p_j zeta^(e - phi + j) for Phi_m = x^phi + sum_j p_j x^j
            base = e - phi
            for j, p in low:
                y[base + j] -= c * p
    del y[phi:]
    return y


def _reduced(m: int, terms: list) -> dict:
    """Normal form of sum c zeta_m^e over terms (e >= 0), reduced in integers over one denominator."""
    den = lcm(*(c.denominator for _, c in terms))
    y = [0] * (max((e for e, _ in terms), default=-1) + 1)
    for e, c in terms:
        y[e] += c.numerator * (den // c.denominator)
    return {e: Fraction(c, den) for e, c in enumerate(reduce_mod_phi(m, y)) if c}


class Cyclo:
    """An element of Q(zeta_order) in canonical normal form."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: dict[int, Fraction], *, reduced: bool = False):
        self.order = order
        self.coeffs = coeffs if reduced else _reduced(order, [(e % order, c) for e, c in coeffs.items() if c])

    # -- constructors -------------------------------------------------

    @staticmethod
    def rational(x) -> "Cyclo":
        x = Fraction(x)
        return Cyclo(1, {0: x} if x else {}, reduced=True)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def rational_value(self) -> Fraction | None:
        """The value as a Fraction, or None if irrational."""
        if not self.coeffs:
            return Fraction(0)
        if all(e == 0 for e in self.coeffs):
            return self.coeffs[0]
        return None

    # -- order handling -------------------------------------------------

    def to_order(self, m: int) -> "Cyclo":
        if m == self.order:
            return self
        if m % self.order:
            raise ValueError("target order must be a multiple of current order")
        k = m // self.order
        return Cyclo(m, _reduced(m, [(e * k, c) for e, c in self.coeffs.items()]), reduced=True)

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
        if not self.coeffs:
            return other
        if not other.coeffs:
            return self
        a, b = Cyclo._unify(self, other)
        if len(a.coeffs) < len(b.coeffs):
            a, b = b, a
        out = dict(a.coeffs)
        for e, c in b.coeffs.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Cyclo(a.order, out, reduced=True)

    __radd__ = __add__

    def __neg__(self) -> "Cyclo":
        return Cyclo(self.order, {e: -c for e, c in self.coeffs.items()}, reduced=True)

    def __sub__(self, other) -> "Cyclo":
        if isinstance(other, (int, Fraction)):
            other = Cyclo.rational(other)
        return self + (-other)

    def __rsub__(self, other) -> "Cyclo":
        return Cyclo.rational(other) + (-self)

    def __mul__(self, other) -> "Cyclo":
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            if not other:
                return Cyclo(self.order, {}, reduced=True)
            return Cyclo(self.order, {e: c * other for e, c in self.coeffs.items()}, reduced=True)
        if not self.coeffs:
            return self
        if not other.coeffs:
            return other
        a, b = Cyclo._unify(self, other)
        terms = [(e1 + e2, c1 * c2) for e1, c1 in a.coeffs.items() for e2, c2 in b.coeffs.items()]
        return Cyclo(a.order, _reduced(a.order, terms), reduced=True)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Cyclo":
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            if not other:
                raise ZeroDivisionError("division of cyclotomic number by zero")
            return self * (Fraction(1) / other)
        return self * other.inverse()

    def __rtruediv__(self, other) -> "Cyclo":
        return self.inverse() * other

    def inverse(self) -> "Cyclo":
        if self.is_zero():
            raise ZeroDivisionError("division of cyclotomic number by zero")
        r = self.rational_value()
        if r is not None:
            return Cyclo.rational(Fraction(1) / r)
        if len(self.coeffs) == 1:
            (c,) = self.coeffs.values()
            return self.conjugate() * (Fraction(1) / (c * c))
        # General case: solve (mult-by-self) x = 1 over the power basis,
        # eliminating the rows [M_i | delta_i0] of the augmented system.
        # Column j is self * zeta^j, column j - 1 shifted up once and reduced.
        m = self.order
        phi = len(cyclotomic_polynomial(m)) - 1
        rows: list[dict[int, Fraction]] = [{phi: Fraction(1)}] + [{} for _ in range(1, phi)]
        col = [self.coeffs.get(i, 0) for i in range(phi)]
        for j in range(phi):
            for i, x in enumerate(col):
                rows[i][j] = x
            col = reduce_mod_phi(m, [0] + col)
        ech = Echelon()
        for row in rows:
            ech.add(row)
        return Cyclo(m, {j: ech.rows[j][phi] for j in range(phi) if phi in ech.rows[j]}, reduced=True)

    def conjugate(self) -> "Cyclo":
        """Complex conjugate (zeta -> zeta^-1).  Phi_m is palindromic for m > 1,
        so reducing sum c_e zeta^-e bottom-up is reducing the reversed list
        top-down: c_e goes in at phi - 1 + e and t comes out at phi - 1 - t."""
        phi = len(cyclotomic_polynomial(self.order)) - 1
        r = _reduced(self.order, [(phi - 1 + e, c) for e, c in self.coeffs.items()])
        return Cyclo(self.order, {phi - 1 - t: c for t, c in r.items()}, reduced=True)

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Cyclo.rational(other)
        if not isinstance(other, Cyclo):
            return NotImplemented
        a, b = Cyclo._unify(self, other)
        return a.coeffs == b.coeffs

    __hash__ = None  # mutable-dict payload; not intended as a mapping key

    # -- output -----------------------------------------------------------

    def embed_complex(self) -> complex:
        return sum(
            (float(c) * cmath.exp(2j * cmath.pi * e / self.order) for e, c in self.coeffs.items()),
            complex(0),
        )

    def __repr__(self) -> str:
        return f"Cyclo({self.order}, {serialize(self)!r})"

    def __str__(self) -> str:
        return serialize(self)


# -- public operations ------------------------------------------------------


def e_of(x) -> Cyclo:
    """The root of unity e(x) = exp(2*pi*i*x) for rational x."""
    x = frac1(x)
    m, k = x.denominator, x.numerator
    return Cyclo(m, {k: Fraction(1)})


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
    f = isqrt(n // s)
    out = Cyclo.rational(f)
    for p in factorize(s):
        if p == 2:
            root = e_of(Fraction(1, 8)) + e_of(Fraction(-1, 8))
        else:
            g = ZERO
            for a in range(1, p):
                g = g + legendre(a, p) * e_of(Fraction(a, p))
            if p % 4 == 3:
                g = g * e_of(Fraction(-1, 4))
            root = g
        out = out * root
    return out


def arith(a: Cyclo, b: Cyclo, op: str) -> Cyclo:
    """Dispatch {add, sub, mul, div} on exact cyclotomic numbers."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown operation {op!r}")


def as_rational(a: Cyclo) -> Fraction | None:
    """The rational value of a, or None when a is irrational."""
    return a.rational_value()


def serialize(a: Cyclo) -> str:
    """Canonical string form: sum(c * zeta{M}^k) with exponents ascending."""
    parts = [f"{a.coeffs[e]} * zeta{a.order}^{e}" for e in sorted(a.coeffs)]
    return "sum(" + ", ".join(parts) + ")"
