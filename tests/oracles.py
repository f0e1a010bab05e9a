"""Closed-form oracles that only the tests use.

count_norm counts the elements of each norm in a homogeneous form
p^(eps n), 2_II^(eps n) or 2_t^(eps n) in closed form, with no
enumeration; tests/test_fqm.py checks it against brute-force counts."""

from fractions import Fraction

from weilinv.arith import kronecker, legendre
from weilinv.fqm import InternalInconsistency, JordanSymbol


def count_norm(symbol, j: int) -> int:
    """Number of elements of norm j/p in p^(eps n) or 2_II^(eps n), and of
    norm j/4 in 2_t^(eps n); closed form, no enumeration."""
    if isinstance(symbol, str):
        symbol = JordanSymbol.parse(symbol)
    if len(symbol.components) != 1:
        raise ValueError("count_norm expects a single homogeneous component")
    kind, comp = symbol.family() or (None, symbol.components[0])
    if kind is None:
        raise ValueError(f"no closed count for {comp}: its scale {comp.q} is not prime")
    n, eps, p = comp.n, comp.sign, comp.p
    if kind == "two-odd":
        val = _count_norm_odd2(n, eps, comp.t % 8, j % 4)
    elif n % 2 == 0:
        delta = 1 if j % p == 0 else 0
        val = Fraction(p) ** (n - 1) + eps * kronecker(-1, p) ** (n // 2) * (p * delta - 1) * Fraction(p) ** ((n - 2) // 2)
    else:
        val = Fraction(p) ** (n - 1) + eps * legendre(-1, p) ** ((n - 1) // 2) * legendre(2, p) * legendre(
            j, p
        ) * Fraction(p) ** ((n - 1) // 2)
    if val.denominator != 1:
        raise InternalInconsistency("norm count is not an integer")
    return int(val)


def _count_norm_odd2(n: int, eps: int, t: int, jj: int) -> Fraction:
    """Closed count for 2_t^(eps n); jj is the norm numerator mod 4."""
    base = Fraction(2) ** (n - 2)
    if n % 2:
        half = Fraction(2) ** ((n - 3) // 2)  # n odd, so n-3 is even
        sgn = eps * kronecker(t, 2)
        if jj == 0:
            return base + sgn * half
        if jj == 2:
            return base - sgn * half
        if jj == 1:
            return base + sgn * (-1) ** ((t - 1) // 2) * half
        return base - sgn * (-1) ** ((t - 1) // 2) * half
    half = Fraction(2) ** ((n - 2) // 2)
    d_t = 1 if t % 4 == 0 else 0
    d_t2 = 1 if (t + 2) % 4 == 0 else 0
    sgn = eps * kronecker((t - 1) % 8, 2)
    if jj == 0:
        return base + sgn * d_t * half
    if jj == 2:
        return base - sgn * d_t * half
    if jj == 1:
        return base + sgn * d_t2 * half
    return base - sgn * d_t2 * half
