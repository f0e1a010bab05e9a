"""Exact arithmetic in cyclotomic fields Q(zeta_M).

A value is stored as a sparse coefficient map over the power basis
1, zeta, ..., zeta^(phi(M)-1) of Q(zeta_M), reduced modulo the M-th
cyclotomic polynomial.  Within a fixed order M this normal form is
unique, so equality is syntactic after unifying orders to the lcm.
Roots of unity e(x) = exp(2*pi*i*x) and positive square roots of
integers (via quadratic Gauss sums) all live in one such field, which
keeps every representation matrix entry exact.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from .arith import factorize, frac1, isqrt, lcm, legendre, squarefree_part
from .config import LIMITS
from .intmat import Echelon


class CycloOrderError(ValueError):
    """Requested cyclotomic order exceeds the configured bound."""


def _euler_phi(m: int) -> int:
    phi = 1
    for p, e in factorize(m).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


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


_cyclotomic_cache: dict[int, list[int]] = {}


def cyclotomic_polynomial(m: int) -> list[int]:
    """Coefficients (ascending) of the m-th cyclotomic polynomial."""
    if m in _cyclotomic_cache:
        return _cyclotomic_cache[m]
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            poly = _poly_divmod(poly, cyclotomic_polynomial(d))
    _cyclotomic_cache[m] = poly
    return poly


_table_cache: dict[int, tuple[int, list[dict[int, int]]]] = {}


def _tables(m: int) -> tuple[int, list[dict[int, int]]]:
    """(phi(m), reduction rows): rows[e - phi] writes zeta^e in the basis."""
    if m > LIMITS.max_cyclo_order:
        raise CycloOrderError(f"cyclotomic order {m} exceeds bound {LIMITS.max_cyclo_order}")
    if m in _table_cache:
        return _table_cache[m]
    phi = _euler_phi(m)
    poly = cyclotomic_polynomial(m)
    top = {j: -poly[j] for j in range(phi) if poly[j]}
    rows = [top]
    for _ in range(phi, 2 * m - 1):
        prev = rows[-1]
        nxt: dict[int, int] = {}
        for j, c in prev.items():
            if j + 1 < phi:
                nxt[j + 1] = nxt.get(j + 1, 0) + c
            else:
                for k, t in top.items():
                    nxt[k] = nxt.get(k, 0) + c * t
        rows.append({k: v for k, v in nxt.items() if v})
    _table_cache[m] = (phi, rows)
    return phi, rows


def _reduce_exp(m: int, e: int, coef: Fraction, acc: dict[int, Fraction]) -> None:
    """Accumulate coef * zeta_m^e into acc over the power basis."""
    phi, rows = _tables(m)
    e %= m
    if e < phi:
        acc[e] = acc.get(e, 0) + coef
    else:
        for j, c in rows[e - phi].items():
            acc[j] = acc.get(j, 0) + coef * c


class Cyclo:
    """An element of Q(zeta_order) in canonical normal form."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: dict[int, Fraction], *, reduced: bool = False):
        if reduced:
            self.order = order
            self.coeffs = coeffs
            return
        acc: dict[int, Fraction] = {}
        for e, c in coeffs.items():
            if c:
                _reduce_exp(order, e, Fraction(c), acc)
        self.order = order
        self.coeffs = {e: c for e, c in acc.items() if c}

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
        acc: dict[int, Fraction] = {}
        for e, c in self.coeffs.items():
            _reduce_exp(m, e * k, c, acc)
        return Cyclo(m, {e: c for e, c in acc.items() if c}, reduced=True)

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
        acc: dict[int, Fraction] = {}
        m = a.order
        for e1, c1 in a.coeffs.items():
            for e2, c2 in b.coeffs.items():
                _reduce_exp(m, e1 + e2, c1 * c2, acc)
        return Cyclo(m, {e: c for e, c in acc.items() if c}, reduced=True)

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
            ((e, c),) = self.coeffs.items()
            return Cyclo(self.order, {(-e) % self.order: Fraction(1) / c})
        # General case: solve (mult-by-self) x = 1 over the power basis,
        # eliminating the rows [M_i | delta_i0] of the augmented system.
        m = self.order
        phi, _ = _tables(m)
        rows: list[dict[int, Fraction]] = [{phi: Fraction(1)}] + [{} for _ in range(1, phi)]
        for j in range(phi):
            acc: dict[int, Fraction] = {}
            for e, c in self.coeffs.items():
                _reduce_exp(m, e + j, c, acc)
            for i, x in acc.items():
                rows[i][j] = x
        ech = Echelon()
        for row in rows:
            ech.add(row)
        return Cyclo(m, {j: ech.rows[j][phi] for j in range(phi) if phi in ech.rows[j]}, reduced=True)

    def conjugate(self) -> "Cyclo":
        """Complex conjugate (zeta -> zeta^-1)."""
        acc: dict[int, Fraction] = {}
        for e, c in self.coeffs.items():
            _reduce_exp(self.order, (-e) % self.order, c, acc)
        return Cyclo(self.order, {e: c for e, c in acc.items() if c}, reduced=True)

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


_sqrt_cache: dict[int, Cyclo] = {}


def sqrt_int(n: int) -> Cyclo:
    """The positive square root of a positive integer.

    Constructed from quadratic Gauss sums: for odd p the sum
    sum_a (a/p) e(a/p) equals sqrt(p) for p = 1 mod 4 and i*sqrt(p)
    for p = 3 mod 4, and sqrt(2) = e(1/8) + e(-1/8).
    """
    if n < 1:
        raise ValueError("sqrt_int expects a positive integer")
    if n in _sqrt_cache:
        return _sqrt_cache[n]
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
    _sqrt_cache[n] = out
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
