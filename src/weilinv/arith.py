"""Elementary number theory helpers shared across the package."""

from __future__ import annotations

from fractions import Fraction
from math import isqrt


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b)."""
    r0, r1 = a, b
    x0, x1 = 1, 0
    y0, y1 = 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if r0 < 0:
        r0, x0, y0 = -r0, -x0, -y0
    return r0, x0, y0


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, k) if n = p**k with k >= 1, else None."""
    if n < 2:
        return None
    f = factorize(n)
    if len(f) != 1:
        return None
    p, k = next(iter(f.items()))
    return p, k


def squarefree_part(n: int) -> int:
    """Largest squarefree s with n = s * (square)."""
    s = 1
    for p, e in factorize(n).items():
        if e % 2:
            s *= p
    return s


def is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for odd prime p."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n) for n >= 1."""
    if n < 1:
        raise ValueError("kronecker expects n >= 1")
    result = 1
    for p, e in factorize(n).items():
        if p == 2:
            if a % 2 == 0:
                return 0
            s = 1 if a % 8 in (1, 7) else -1
        else:
            s = legendre(a, p)
            if s == 0:
                return 0
        if e % 2:
            result *= s
    return result


def frac1(x) -> Fraction:
    """Reduce a rational to the canonical representative in [0, 1)."""
    return Fraction(x) % 1
