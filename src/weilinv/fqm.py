"""Discriminant forms: finite abelian groups with a Q/Z-valued quadratic form.

A form is stored by a list of generator orders d_i, its level N and the
integers qn[i] = N q(g_i) and bn[i][j] = N b(g_i, g_j) in [0, N); every value
of q and b has a denominator dividing N.  One integer formula gives each:
q_int(el) = N q(el) mod N, and b_row(x), with N b(x, y) = b_row(x) . y mod N;
q() and b() return them over N as Fractions.  Group elements are plain
coefficient tuples (a_1, ..., a_k) with 0 <= a_i < d_i, so they hash and
sort deterministically.  Forms can be built from a genus symbol (one
orthogonal block per indecomposable Jordan piece) or from the dual
quotient of an even lattice via Smith normal form.

Cache policy.  Everything derived from one form (its elements,
signature, q values, p-parts, ...) is kept in the one dict form._caches,
filled through DiscriminantForm.memo.  This includes one MulBy record per
c (D_c, D^{c*}, its base point x_c and the preimages under c), which
kernel_of_mul, coset_dcstar, canonical_xc and q_c read.  Derived forms
(orthogonal components, p-parts, H-perp/H quotients) come from one registry,
_shared_form, so equal generator data gives one object and one set of
memos; forms of equal genus symbols or of equal Gram matrices are shared
the same way.  Other pure functions of hashable arguments use
functools.cache.  A bound is checked on every call of the function that
enforces it, before any memo is read.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product
from math import gcd, lcm, prod
from typing import NamedTuple

from . import cyclo
from .arith import (
    factorize,
    frac1,
    is_square,
    kronecker,
    legendre,
    prime_power,
)
from .config import LIMITS
from .cyclo import Cyclo, e_of, sqrt_int
from .intmat import rational_inverse, smith_normal_form

Element = tuple[int, ...]


class SymbolError(ValueError):
    """Genus symbol is syntactically or arithmetically inconsistent."""


class BoundExceeded(RuntimeError):
    """A brute-force loop would exceed the configured size bounds."""


class InternalInconsistency(AssertionError):
    """Two supposedly equivalent computations disagreed (construction bug)."""


# ---------------------------------------------------------------------------
# Genus symbols
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JordanComponent:
    """One Jordan constituent q^(eps n), q_II^(eps n) or q_t^(eps n)."""

    q: int
    n: int
    sign: int
    t: int | None = None  # subscript mod 8; None for odd p and even 2-adic
    even: bool = False  # True for the 2-adic type II components

    def __post_init__(self):
        pk = prime_power(self.q)
        if pk is None:
            raise SymbolError(f"{self.q} is not a prime power > 1")
        p, _ = pk
        if self.n < 1:
            raise SymbolError("component rank must be positive")
        if self.sign not in (1, -1):
            raise SymbolError("component sign must be +1 or -1")
        if p != 2:
            if self.t is not None or self.even:
                raise SymbolError(f"odd prime power {self.q} takes no subscript")
        elif self.even:
            if self.t is not None:
                raise SymbolError("type II component takes no numeric subscript")
            if self.n % 2:
                raise SymbolError("type II components have even rank")
        else:
            if self.t is None:
                raise SymbolError(f"2-adic component {self.q}^{self.n} needs a subscript")
            if (self.t - self.n) % 2:
                raise SymbolError(f"subscript {self.t} must equal rank {self.n} mod 2")
            if _split_odd_two_adic(self.t % 8, self.sign, self.n) is None:
                raise SymbolError(
                    f"no rank-1 decomposition: {self.q}_{self.t}^"
                    f"{'+' if self.sign > 0 else '-'}{self.n} does not exist"
                )

    @property
    def p(self) -> int:
        return prime_power(self.q)[0]

    @property
    def level(self) -> int:
        if self.p == 2 and not self.even:
            return 2 * self.q
        return self.q

    @property
    def order(self) -> int:
        return self.q**self.n

    def excess(self) -> int:
        """p-excess (odd p) or oddity (p = 2), as a residue mod 8."""
        k = 4 if (not is_square(self.q) and self.sign < 0) else 0
        if self.p != 2:
            return (self.n * (self.q - 1) + k) % 8
        return ((self.t or 0) + k) % 8

    def __str__(self) -> str:
        s = "+" if self.sign > 0 else "-"
        if self.even:
            return f"{self.q}_II^{s}{self.n}"
        if self.t is not None:
            return f"{self.q}_{self.t % 8}^{s}{self.n}"
        return f"{self.q}^{s}{self.n}"


def _split_odd_two_adic(t: int, sign: int, n: int) -> list[int] | None:
    """Subscripts of rank-1 pieces q_u^((u/2)) summing to q_t^(sign n)."""
    if n == 1:
        return [t] if t % 2 == 1 and kronecker(t, 2) == sign else None
    for u in (1, 3, 5, 7):
        rest = _split_odd_two_adic((t - u) % 8, sign * kronecker(u, 2), n - 1)
        if rest is not None:
            return [u] + rest
    return None


_COMPONENT_RE = re.compile(r"^(\d+)(?:_(II|\d+))?\^([+-])(\d+)$")


def check_order_bound(order: int) -> None:
    """Raise BoundExceeded when a group of this order is too large to list."""
    if order > LIMITS.max_form_order:
        raise BoundExceeded(f"|D| = {order} exceeds bound {LIMITS.max_form_order}")


class JordanSymbol:
    """A dot-separated list of Jordan components, e.g. 2_1^+1.4_5^-1.8_II^+2."""

    def __init__(self, components: list[JordanComponent]):
        # One constituent per scale: ranks add, signs multiply, oddities add,
        # and a 2-adic constituent is even only if all its pieces are.
        merged: dict[int, JordanComponent] = {}
        for comp in components:
            old = merged.get(comp.q)
            if old is not None:
                t = None if old.t is None and comp.t is None else ((old.t or 0) + (comp.t or 0)) % 8
                comp = JordanComponent(comp.q, old.n + comp.n, old.sign * comp.sign, t, old.even and comp.even)
            merged[comp.q] = comp
        self.components = sorted(merged.values(), key=lambda c: c.q)

    @staticmethod
    def parse(text: str) -> "JordanSymbol":
        text = text.strip().replace("−", "-")
        if not text:
            return JordanSymbol([])
        comps = []
        for chunk in text.split("."):
            m = _COMPONENT_RE.match(chunk.strip())
            if not m:
                raise SymbolError(f"cannot parse component {chunk!r}")
            q = int(m.group(1))
            sub = m.group(2)
            sign = 1 if m.group(3) == "+" else -1
            n = int(m.group(4))
            if sub == "II":
                comps.append(JordanComponent(q, n, sign, even=True))
            elif sub is not None:
                comps.append(JordanComponent(q, n, sign, t=int(sub) % 8))
            else:
                comps.append(JordanComponent(q, n, sign))
        return JordanSymbol(comps)

    def order(self) -> int:
        out = 1
        for c in self.components:
            out *= c.order
        return out

    def level(self) -> int:
        return lcm(*(c.level for c in self.components))

    def signature(self) -> int:
        """sign(D) = oddity(D) - sum of p-excesses, mod 8."""
        sig = 0
        for c in self.components:
            sig += c.excess() if c.p == 2 else -c.excess()
        return sig % 8

    def family(self) -> tuple[str, JordanComponent] | None:
        """The family of the closed formulas that the symbol belongs to, as
        (kind, component), or None; the one reading of component shapes:
        "elementary" p^(eps n) or 2_II^(eps n), "two-odd" 2_t^(eps n),
        "two-four" 2_t^(eps n).4_II^+2 (its 2-component) and "level-eight"
        2_t^(+-1).4_t'^(+-1).8_II^+2 (its 4-component)."""
        comps = self.components
        if len(comps) == 1 and comps[0].q == comps[0].p:
            return ("elementary" if comps[0].t is None else "two-odd"), comps[0]

        def odd_two(c, q):  # q_t^(eps n)
            return c.q == q and c.t is not None

        def plane(c, q):  # q_II^+2
            return c.q == q and c.even and c.n == 2 and c.sign == 1

        if len(comps) == 2 and odd_two(comps[0], 2) and plane(comps[1], 4):
            return "two-four", comps[0]
        if len(comps) == 3 and odd_two(comps[0], 2) and odd_two(comps[1], 4) and plane(comps[2], 8):
            return ("level-eight", comps[1]) if comps[0].n == comps[1].n == 1 else None
        return None

    def __str__(self) -> str:
        return ".".join(str(c) for c in self.components)

    def __eq__(self, other) -> bool:
        return isinstance(other, JordanSymbol) and str(self) == str(other)

    def __hash__(self) -> int:
        return hash(str(self))


# ---------------------------------------------------------------------------
# Discriminant forms
# ---------------------------------------------------------------------------


class DiscriminantForm:
    """Finite abelian group with non-degenerate quadratic form q: D -> Q/Z."""

    def __init__(
        self,
        orders,
        q_gen,
        b_gen,
        *,
        symbol: JordanSymbol | None = None,
        lattice=None,
    ):
        self.orders = tuple(int(d) for d in orders)
        if any(d < 2 for d in self.orders):
            raise ValueError("generator orders must be >= 2")
        q_gen = [frac1(x) for x in q_gen]
        b_gen = [[frac1(x) for x in row] for row in b_gen]
        n = self._level = lcm(*(x.denominator for row in (q_gen, *b_gen) for x in row))
        self.qn = tuple(int(x * n) for x in q_gen)
        self.bn = tuple(tuple(int(x * n) for x in row) for row in b_gen)
        k = len(self.orders)
        for i in range(k):
            if self.bn[i][i] != 2 * self.qn[i] % n:
                raise ValueError("diagonal of b must equal 2q mod 1")
            if any(self.bn[i][j] != self.bn[j][i] for j in range(k)):
                raise ValueError("b must be symmetric")
            d = self.orders[i]  # q(d g_i) and b(d g_i, g_j) must vanish mod 1
            if d * d * self.qn[i] % n or any(d * x % n for x in self.bn[i]):
                raise ValueError(f"q and b are not well defined on generator {i} of order {d}")
        self.symbol = symbol
        self.lattice = lattice
        self._strides = []
        s = 1
        for d in reversed(self.orders):
            self._strides.append(s)
            s *= d
        self._strides.reverse()
        self.order = s
        self._caches: dict = {}

    def memo(self, key, build):
        """The value of build() kept in _caches under key: computed on the
        first call only.  Bounds are checked by the caller, before this."""
        if key not in self._caches:
            self._caches[key] = build()
        return self._caches[key]

    # -- element bookkeeping -------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.orders)

    def zero(self) -> Element:
        return (0,) * self.rank

    def elements(self) -> list[Element]:
        check_order_bound(self.order)
        return self.memo("elements", lambda: list(product(*(range(d) for d in self.orders))))

    def index(self, el: Element) -> int:
        return sum(a * s for a, s in zip(el, self._strides))

    def normalize(self, el) -> Element:
        return tuple(a % d for a, d in zip(el, self.orders))

    def add(self, a: Element, b: Element) -> Element:
        return tuple((x + y) % d for x, y, d in zip(a, b, self.orders))

    def sub(self, a: Element, b: Element) -> Element:
        return tuple((x - y) % d for x, y, d in zip(a, b, self.orders))

    def neg(self, a: Element) -> Element:
        return tuple((-x) % d for x, d in zip(a, self.orders))

    def smul(self, c: int, a: Element) -> Element:
        return tuple((c * x) % d for x, d in zip(a, self.orders))

    def element_order(self, a: Element) -> int:
        return lcm(*(d // gcd(x, d) for x, d in zip(a, self.orders)))

    def exponent(self) -> int:
        return lcm(*self.orders)

    # -- the quadratic and bilinear forms -------------------------------------

    def q_int(self, el: Element) -> int:
        """N q(el) in [0, N), N = level(): the sum over i of
        a_i (a_i qn[i] + sum over j > i of bn[i][j] a_j), el = (a_1, ..., a_k)."""
        total = 0
        for i, a in enumerate(el):
            if a:
                total += a * (a * self.qn[i] + sum(x * y for x, y in zip(self.bn[i][i + 1 :], el[i + 1 :])))
        return total % self._level

    def b_row(self, x: Element) -> list[int]:
        """The row r with N b(x, y) = r . y mod N, N = level(); built once
        per x where many y are tested."""
        return [sum(a * y for a, y in zip(row, x)) % self._level for row in self.bn]

    def q(self, el: Element) -> Fraction:
        return Fraction(self.q_int(el), self._level)

    def b(self, x: Element, y: Element) -> Fraction:
        return Fraction(sum(r * c for r, c in zip(self.b_row(x), y)) % self._level, self._level)

    # -- invariants -------------------------------------------------------------

    def level(self) -> int:
        """Smallest N with N*q(gamma) integral for every gamma."""
        return self._level

    def gauss_sum(self, c: int = 1) -> Cyclo:
        """Sum of e(c*q(gamma)) over all of D, computed exactly: one Cyclo of
        order m = level() / gcd(level(), c), the order of the values e(c*q),
        from the counts of their exponents."""
        g = gcd(self.level(), c)
        m = self.level() // g
        return Cyclo(m, Counter(c // g * x % m for x in self.q_values()))

    def signature(self) -> int:
        """Signature mod 8, extracted from the exact Gauss sum blockwise, each
        block's match memoized on the shared block.  The cyclotomic order
        each block is matched in is checked on every call, so that the bound
        holds for a memoized answer too."""
        parts = [part for part, _ in self.orthogonal_components()]
        for part in parts:
            w = part.memo("gauss_order", lambda: lcm(8, part.level(), sqrt_int(part.order).order))
            if w > LIMITS.max_cyclo_order:
                raise cyclo.CycloOrderError(f"cyclotomic order {w} of {part!r} exceeds bound {LIMITS.max_cyclo_order}")

        def build() -> int:
            sig = sum(part.memo("gauss_signature", lambda: _signature_from_gauss_sum(part)) for part in parts) % 8
            if self.symbol is not None and self.symbol.signature() != sig:
                raise InternalInconsistency(
                    f"Gauss sum gives signature {sig}, symbol {self.symbol} gives {self.symbol.signature()}"
                )
            return sig

        return self.memo("signature", build)

    def oddity(self) -> int:
        """Signature of the 2-part, which equals the oddity of D mod 8."""
        if self.order % 2:
            return 0
        return self.p_part_decompose()[0][1].signature()  # primes ascend: the 2-part is first

    def square_class(self) -> str:
        return "square" if is_square(self.order) else "non-square"

    def chi(self, a: int) -> int:
        """The quadratic character (a/|D|) e((a-1) oddity/8) attached to D."""
        if self.signature() % 2:
            raise ValueError("character is defined for even signature only")
        n = self.level()
        if gcd(a, n) != 1:
            raise ValueError(f"{a} is not coprime to the level {n}")
        odd = self.oddity()
        assert odd % 2 == 0
        phase = ((a - 1) * odd // 2) % 4  # e((a-1) odd/8) with (a-1) odd even
        assert phase in (0, 2), "character value must be real"
        return kronecker(a, self.order) * (1 if phase == 0 else -1)

    # -- orthogonal decomposition ------------------------------------------------

    def orthogonal_components(self):
        """Split the generators into b-orthogonal groups of positions.

        Returns a list of (subform, positions).  Subforms come from
        _shared_form, so caches are reused across parents.
        """

        def build():
            groups: list[list[int]] = []  # positions linked by a nonzero b, merged as they meet
            for i in range(self.rank):
                linked = [g for g in groups if any(self.bn[i][j] for j in g)]
                groups = [g for g in groups if g not in linked] + [sorted({i}.union(*linked))]
            unit = _unit_gens(self)
            return [(self.subform([self.orders[i] for i in g], [unit[i] for i in g]), tuple(g)) for g in sorted(groups)]

        return self.memo("components", build)

    def subform(self, orders: list[int], gens: list[Element]) -> "DiscriminantForm":
        """The form with generators of the given orders and the values of q
        and b at gens, from the shared registry (_shared_form)."""
        b_gen = tuple(tuple(self.b(g, h) for h in gens) for g in gens)
        return _shared_form(tuple(orders), tuple(self.q(g) for g in gens), b_gen)

    # -- subquotients along multiplication by c -----------------------------------

    def _mul_by(self, c: int) -> "MulBy":
        """The record of D_c, D^{c*}, x_c and the preimages under c, built
        once per c mod lcm(level, exponent), which determines all of it."""
        els = self.elements()  # the order bound holds for a memoized answer too
        c %= lcm(self.level(), self.exponent())

        def build() -> MulBy:
            n = self.level()
            kernel = [el for el in els if all(c * a % d == 0 for a, d in zip(el, self.orders))]
            # alpha -> c q(alpha) + b(alpha, gamma) is a character of D_c, so
            # it vanishes on D_c once it does on the generators m_i e_i
            gens = [self.smul(d // gcd(c, d), e) for d, e in zip(self.orders, _unit_gens(self))]
            tests = [(c * self.q_int(g), self.b_row(g)) for g in gens]
            star = [el for el in els if all((cq + sum(r * y for r, y in zip(row, el))) % n == 0 for cq, row in tests)]
            x_c = next((el for el in star if self.smul(2, el) == self.zero()), None)
            pre: dict[Element, Element] = {}
            for mu in els:
                pre.setdefault(self.smul(c, mu), mu)
            if x_c is None or sorted(self.add(x_c, g) for g in pre) != star:
                raise InternalInconsistency(f"D^{{c*}} is not a coset of D^c with a 2-torsion base point (c = {c})")
            return MulBy(kernel, star, x_c, pre)

        return self.memo(("mul_by", c), build)

    def kernel_of_mul(self, c: int) -> list[Element]:
        """D_c, the elements killed by c."""
        return self._mul_by(c).kernel

    def coset_dcstar(self, c: int) -> list[Element]:
        """D^{c*}: all gamma with c*q(alpha) + b(alpha, gamma) = 0 for alpha in
        D_c, a coset x_c + cD of D^c."""
        return self._mul_by(c).star

    def canonical_xc(self, c: int) -> Element:
        """Canonical base point of D^{c*}: its lexicographically least
        2-torsion element.  On forms from a genus symbol it is q/2 on each
        generator e_i of order q = the 2-part of c with 2q q(e_i) odd (the
        odd 2-adic pieces of that scale), and 0 elsewhere."""
        return self._mul_by(c).x_c

    def q_c(self, c: int, gamma: Element, x_c: Element | None = None) -> Fraction:
        """q_c(gamma) = c*q(mu) + b(x_c, mu) for gamma = x_c + c*mu.

        Well defined for any base point x_c in D^{c*}; different base
        points shift q_c by a constant.
        """
        rec = self._mul_by(c)
        if x_c is None:
            x_c = rec.x_c
        mu = rec.pre.get(self.sub(gamma, x_c))
        if mu is None:
            raise ValueError("gamma - x_c is not a multiple of c")
        return frac1(c * self.q(mu) + self.b(x_c, mu))

    # -- p-parts -----------------------------------------------------------------

    def p_part_decompose(self):
        """Orthogonal splitting D = (+) D_p over primes p dividing |D|.

        Returns a list of (p, part, embed) where embed maps part elements
        into D.  The parts of distinct primes are automatically orthogonal.
        A form of prime-power order is its own p-part, embedded by the identity.
        """

        def build():
            primes = sorted(factorize(self.order))
            if len(primes) == 1:
                return [(primes[0], self, PartEmbedding(self, self, _unit_gens(self)))]
            out = []
            for p in primes:
                orders_p, gens = [], []
                for i, d in enumerate(self.orders):
                    pe = p ** factorize(d).get(p, 0)
                    if pe > 1:
                        orders_p.append(pe)
                        gens.append(tuple(d // pe if j == i else 0 for j in range(self.rank)))
                part = self.subform(orders_p, gens)
                out.append((p, part, PartEmbedding(self, part, gens)))
            return out

        return self.memo("p_parts", build)

    # -- convenience ----------------------------------------------------------------

    def q_values(self) -> list[int]:
        """q_int of every element, in the order of elements(); computed once."""
        els = self.elements()  # the order bound holds for a memoized answer too
        return self.memo("q_values", lambda: [self.q_int(el) for el in els])

    def isotropic_elements(self) -> list[Element]:
        q_values = self.q_values()
        return self.memo("isotropic", lambda: [el for el, x in zip(self.elements(), q_values) if x == 0])

    def __repr__(self) -> str:
        name = str(self.symbol) if self.symbol is not None else f"orders {self.orders}"
        return f"DiscriminantForm({name}, |D|={self.order})"


def _unit_gens(form: DiscriminantForm) -> list[Element]:
    return [tuple(1 if i == j else 0 for i in range(form.rank)) for j in range(form.rank)]


class MulBy(NamedTuple):
    """Multiplication by c on one form: D_c, D^{c*} = x_c + cD and, for each
    element of cD, its first preimage in element order."""

    kernel: list[Element]
    star: list[Element]
    x_c: Element
    pre: dict[Element, Element]


class PartEmbedding:
    """Injective homomorphism of one p-part back into the parent form."""

    def __init__(self, parent: DiscriminantForm, part: DiscriminantForm, gen_images: list[Element]):
        self.parent = parent
        self.part = part
        self.gen_images = gen_images

    def apply(self, el: Element) -> Element:
        out = self.parent.zero()
        for a, g in zip(el, self.gen_images):
            if a:
                out = self.parent.add(out, self.parent.smul(a, g))
        return out


@cache
def _shared_form(orders: tuple, q_gen: tuple, b_gen: tuple) -> DiscriminantForm:
    """The one form with this generator data (tuples, values reduced mod 1),
    so that derived forms with equal data share their memos."""
    return DiscriminantForm(orders, q_gen, b_gen)


def _signature_from_gauss_sum(form: DiscriminantForm) -> int:
    """Match sum e(q) against sqrt(|D|) e(s/8); raises if no residue fits.
    Every value lies in Q(zeta_W), W = lcm(8, level, order of sqrt(|D|))."""
    total = form.gauss_sum()
    root = sqrt_int(form.order)
    for s in range(8):
        if total == root * e_of(Fraction(s, 8)):
            return s
    raise InternalInconsistency("Gauss sum does not have the expected shape")


# ---------------------------------------------------------------------------
# Construction from genus symbols
# ---------------------------------------------------------------------------


def from_jordan_symbol(symbol) -> DiscriminantForm:
    """Realize a genus symbol as an orthogonal sum of indecomposable pieces.

    Equal symbol strings return the same (immutable) instance so that
    per-form caches are shared.
    """
    if isinstance(symbol, str):
        symbol = JordanSymbol.parse(symbol)
    return _realize_symbol(symbol)


@cache
def _realize_symbol(symbol: JordanSymbol) -> DiscriminantForm:
    orders: list[int] = []
    q_gen: list[Fraction] = []
    b_off: dict[tuple[int, int], Fraction] = {}

    def odd_gen_value(p: int, sign: int) -> int:
        for a in range(1, p):
            if legendre(2 * a, p) == sign:
                return a
        raise SymbolError(f"no residue with (2a/{p}) = {sign}")

    for comp in symbol.components:
        p = comp.p
        if p != 2:
            for s in [1] * (comp.n - 1) + [comp.sign]:
                orders.append(comp.q)
                q_gen.append(Fraction(odd_gen_value(p, s), comp.q))
        elif comp.even:
            for s in [1] * (comp.n // 2 - 1) + [comp.sign]:
                pos = len(orders)
                orders.extend([comp.q, comp.q])
                val = Fraction(0 if s > 0 else 1, comp.q)
                q_gen.extend([val, val])
                b_off[(pos, pos + 1)] = b_off[(pos + 1, pos)] = Fraction(1, comp.q)
        else:
            subs = _split_odd_two_adic(comp.t % 8, comp.sign, comp.n)
            assert subs is not None  # validated at parse time
            for u in subs:
                orders.append(comp.q)
                q_gen.append(Fraction(u, 2 * comp.q))

    b_gen = [[2 * q if i == j else b_off.get((i, j), 0) for j in range(len(orders))] for i, q in enumerate(q_gen)]
    form = DiscriminantForm(orders, q_gen, b_gen, symbol=symbol)
    if form.level() != symbol.level():
        raise InternalInconsistency(f"realized level {form.level()} != symbol level {symbol.level()}")
    return form


# ---------------------------------------------------------------------------
# Construction from a Gram matrix
# ---------------------------------------------------------------------------


def from_gram(gram) -> DiscriminantForm:
    """The dual quotient L'/L of an even lattice with the given Gram matrix.

    Equal Gram matrices return the same (immutable) instance, keyed by an
    immutable copy of the validated matrix, so that per-form caches are
    shared.
    """
    if not isinstance(gram, (list, tuple)) or not all(isinstance(row, (list, tuple)) for row in gram):
        raise ValueError("Gram matrix must be an array of arrays")
    if any(isinstance(x, bool) or not isinstance(x, int) for row in gram for x in row):
        raise ValueError("Gram matrix entries must be integers")
    g = [list(row) for row in gram]
    n = len(g)
    if any(len(row) != n for row in g):
        raise ValueError("Gram matrix must be square")
    for i in range(n):
        if g[i][i] % 2:
            raise ValueError("Gram matrix must have even diagonal")
        for j in range(n):
            if g[i][j] != g[j][i]:
                raise ValueError("Gram matrix must be symmetric")
    return _realize_gram(tuple(map(tuple, g)))


@cache
def _realize_gram(gram: tuple[tuple[int, ...], ...]) -> DiscriminantForm:
    g, n = [list(row) for row in gram], len(gram)
    s, v_inv = smith_normal_form(g)
    diag = [s[i][i] for i in range(n)]
    if any(d == 0 for d in diag):
        raise ValueError("Gram matrix must be non-singular")
    g_inv = rational_inverse(g)
    orders = [d for d in diag if d > 1]
    gens = [v_inv[j] for j, d in enumerate(diag) if d > 1]
    dual_vecs = []
    for row in gens:
        dual_vecs.append([sum(Fraction(g_inv[i][k]) * row[k] for k in range(n)) for i in range(n)])
    # b(x_a, x_b) = x_a . G x_b = dual_a . gens_b and q(x_a) = b(x_a, x_a) / 2 for x_a = G^-1 gens_a
    b_gen = [[sum(x * y for x, y in zip(dual, row)) for row in gens] for dual in dual_vecs]
    q_gen = [row[a] / 2 for a, row in enumerate(b_gen)]
    form = DiscriminantForm(orders, q_gen, b_gen, lattice=Lattice(g, dual_vecs))
    if form.order != prod(abs(d) for d in diag):
        raise InternalInconsistency("group order does not match |det G|")
    return form


@dataclass
class Lattice:
    """Ambient lattice data for forms built from a Gram matrix."""

    gram: list[list[int]]
    dual_vectors: list[list[Fraction]]

    def lift(self, el: Element) -> list[Fraction]:
        n = len(self.gram)
        out = [Fraction(0)] * n
        for a, vec in zip(el, self.dual_vectors):
            if a:
                for i in range(n):
                    out[i] += a * vec[i]
        return out
