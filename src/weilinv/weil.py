"""The Weil representation of SL2(Z) on C[D] and its invariant projection.

rho is defined on the standard generators by

    rho(T) e^gamma = e(-q(gamma)) e^gamma
    rho(S) e^gamma = e(sign(D)/8)/sqrt(|D|) * sum_beta e((gamma,beta)) e^beta

and extended to arbitrary matrices by short words in S and T.  For even
signature rho factors through SL2(Z/N), N the level, so a matrix is first
replaced by the element of SL2(Z/N) it represents, L T^t with L a lift of
its first column mod N with small entries; the word of L T^t is
nearest-integer Euclid, which at least halves the lower-left entry per S
letter, so its length is bounded in N, not in the entries of the matrix.
The cosets and the conjugacy classes get their words the same way.  An
SL2Word is applied as given.  Two adjacent S letters are applied as rho(-1),
e(sign(D)/4) times the permutation e^gamma -> e^-gamma.  The closed product
formula with its local factors is never used.  The projection inv averages
rho over SL2(Z/N), with the cosets grouped as +-M_s T^n per cusp s so the
per-cusp pieces sum to the total by construction.  Per cusp one word is
applied, to e^0 of each orthogonal block; every column of rho(M) = rho(M_s^-1)
follows from that c0 = rho(M) e^0 by the Heisenberg intertwining, for
M = (a b; c d),

    rho(M) e^gamma = e(-b d q(gamma)) sum_beta c0(beta) e(-b (beta,gamma)) e^(d gamma + beta).

With beta = mu - d gamma its coefficient at e^mu is
c0(mu - d gamma) e(b (d q(gamma) - (gamma, mu))), read with N q and N b from
q_int and b_row, N the level.  The nonzero entries of c0 are one scalar
times roots of unity (checked on the integer image), so each cusp has one
scalar and integer exponents.  rho(-M) at e^mu is e(sig/4) times rho(M) at
e^-mu.

dim C[D]^G = (1/|G|) sum_g tr rho(g) does not go per cusp.  rho_D is the
tensor product of the rho of its p-parts, so a form with several p-parts
has the product of their dimensions; at prime-power level N, tr rho is a
class function, summed over the conjugacy classes of SL2(Z/N) with one
word per class.  rho is also the tensor product of its orthogonal blocks,
and the trace of a block is the diagonal mu = gamma of the identity,
c0((1-d) gamma) e(b (d - 2) q(gamma)), from the block's memoized c0.

Everything is exact.  Inside a word a coefficient is an element of
Z[x]/(x^u - 1), x = zeta_u, u a multiple of the level, as u non-negative
digits packed into one int (Kronecker substitution): an entry holds C
blocks, one per input column, digit e of block c at bit (c*u + e)*B.
zeta_u^j rotates every block by j*B bits (two masks per j); rho(S) without
its scalar e(sign(D)/8)/sqrt(|D|) is a mixed-radix character transform, one
generator axis at a time, of rotations and int sums; an S S pair multiplies
by |D|.  An S letter sums at most |D| digits into one, so no digit carries
when B is the bit length of c0 * terms * |D|^s, c0 the largest input digit,
`terms` the images summed and s the S letters.  The scalars are counted and
multiplied in once.  A Cyclo is integer power-basis coordinates over one
denominator: a coordinate c of zeta_m^e enters at digit e*u/m, over the
common denominator, and -c as c at digit e*u/m + u/2 (u even, x^(u/2) = -1
modulo Phi_u); the image leaves through the Cyclo constructor at the order
lcm(w, u), w the working order, which reduces and divides out the gcd.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, lcm, prod
from operator import add, index, itemgetter, mul

from . import cyclo
from .arith import ext_gcd, factorize, frac1, kronecker, legendre
from .config import LIMITS
from .cyclo import Cyclo, e_of, sqrt_int
from .fqm import (
    BoundExceeded,
    DiscriminantForm,
    Element,
    InternalInconsistency,
    JordanSymbol,
)
from .intmat import Echelon

Matrix2 = tuple[tuple[int, int], tuple[int, int]]

S_MAT: Matrix2 = ((0, -1), (1, 0))


class OddSignatureError(ValueError):
    """Representation operators are only defined for even signature."""


def _require_even(form: DiscriminantForm) -> None:
    if form.signature() % 2:
        raise OddSignatureError(f"{form!r} has odd signature {form.signature()}")


# ---------------------------------------------------------------------------
# Vectors of the group algebra
# ---------------------------------------------------------------------------


class GroupAlgebraVector:
    """Finitely supported map from elements of D to cyclotomic numbers."""

    __slots__ = ("form", "coeffs")

    def __init__(self, form: DiscriminantForm, coeffs: dict[Element, Cyclo] | None = None):
        self.form = form
        self.coeffs = {el: c for el, c in (coeffs or {}).items() if not c.is_zero()}

    @staticmethod
    def basis(form: DiscriminantForm, el: Element) -> "GroupAlgebraVector":
        return GroupAlgebraVector(form, {form.normalize(el): cyclo.ONE})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "GroupAlgebraVector") -> "GroupAlgebraVector":
        out = dict(self.coeffs)
        for el, c in other.coeffs.items():
            out[el] = out[el] + c if el in out else c
        return GroupAlgebraVector(self.form, out)

    def __sub__(self, other: "GroupAlgebraVector") -> "GroupAlgebraVector":
        return self + other.scale(-1)

    def scale(self, c) -> "GroupAlgebraVector":
        return GroupAlgebraVector(self.form, {el: v * c for el, v in self.coeffs.items()})

    def inner(self, other: "GroupAlgebraVector") -> Cyclo:
        """Hermitian product, antilinear in the second argument."""
        total = cyclo.ZERO
        for el, c in self.coeffs.items():
            oc = other.coeffs.get(el)
            if oc is not None:
                total = total + c * oc.conjugate()
        return total

    def coefficient(self, el: Element) -> Cyclo:
        return self.coeffs.get(self.form.normalize(el), cyclo.ZERO)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupAlgebraVector) or self.form is not other.form:
            return NotImplemented
        keys = set(self.coeffs) | set(other.coeffs)
        return all(self.coefficient(k) == other.coefficient(k) for k in keys)

    __hash__ = None

    def items_sorted(self):
        return sorted(self.coeffs.items())

    def __repr__(self) -> str:
        inside = ", ".join(f"{el}: {cyclo.serialize(c)}" for el, c in self.items_sorted())
        return f"GroupAlgebraVector({{{inside}}})"


Vec = GroupAlgebraVector


# ---------------------------------------------------------------------------
# Words in the generators S, T
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SL2Word:
    """A matrix together with a word in S and powers of T that equals it."""

    target: Matrix2
    tokens: tuple[tuple[str, int], ...]

    def matrix(self) -> Matrix2:
        m = ((1, 0), (0, 1))
        for kind, n in self.tokens:
            m = mat2_mul(m, S_MAT if kind == "S" else t_power(n))
        return m


def mat2_mul(a: Matrix2, b: Matrix2) -> Matrix2:
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def mat2_inv(m: Matrix2) -> Matrix2:
    (a, b), (c, d) = m
    if a * d - b * c != 1:
        raise ValueError("matrix must have determinant 1")
    return ((d, -b), (-c, a))


def t_power(n: int) -> Matrix2:
    return ((1, n), (0, 1))


def _as_sl2z(m) -> Matrix2:
    """m as a matrix of ints with determinant exactly 1: TypeError for an
    entry that is not an integer (never truncated), ValueError otherwise."""
    try:
        m = ((index(m[0][0]), index(m[0][1])), (index(m[1][0]), index(m[1][1])))
    except TypeError:
        raise TypeError(f"matrix entries must be integers: {m!r}") from None
    (a, b), (c, d) = m
    if a * d - b * c != 1:
        raise ValueError(f"matrix must have determinant 1: {m!r}")
    return m


def word_decompose(m) -> SL2Word:
    """Nearest-integer Euclidean decomposition of a determinant-1 integer
    matrix into T-powers and S, with the exact product re-checked.  Each S
    letter of the loop at least halves the lower-left entry c, so there are
    at most c.bit_length() of them, and two more when it ends at -T^n."""
    m = _as_sl2z(m)
    (a, b), (c, d) = m
    tokens: list[tuple[str, int]] = []
    while c != 0:
        k = (2 * a + c) // (2 * c)  # the integer nearest a / c
        if k:
            tokens.append(("T", k))
        # S^-1 T^-k M has smaller lower-left entry
        a, b, c, d = c, d, -(a - k * c), -(b - k * d)
        tokens.append(("S", 1))
    # now the matrix is +-(1, n; 0, 1)
    if a == 1:
        if b:
            tokens.append(("T", b))
    else:
        tokens.extend([("S", 1), ("S", 1)])
        if b:
            tokens.append(("T", -b))
    word = SL2Word(m, tuple(tokens))
    if word.matrix() != m:
        raise InternalInconsistency("word decomposition failed to reproduce the matrix")
    return word


# ---------------------------------------------------------------------------
# Transform tables per form
# ---------------------------------------------------------------------------


def _working_order(form: DiscriminantForm) -> int:
    """One cyclotomic order containing every value the transforms produce (bounded)."""
    w = lcm(8, form.level())
    for part, _ in form.orthogonal_components():
        w = lcm(w, sqrt_int(part.order).order)
    w = lcm(w, sqrt_int(form.order).order)
    if w > LIMITS.max_cyclo_order:
        raise cyclo.CycloOrderError(f"cyclotomic order {w} of {form!r} exceeds bound {LIMITS.max_cyclo_order}")
    return w


def _check_bounds(form: DiscriminantForm) -> None:
    """The bounds that a cold dim_invariants or inv on form would hit, checked
    on every call, so that they hold for a memoized answer too."""
    _working_order(form)
    if form.signature() % 2 == 0:
        _check_level(form.level())
        form.elements()


def _tables(form: DiscriminantForm):
    """Memoized per-form data: the working order w and q scaled to exponents
    of zeta_w."""

    def build():
        w = _working_order(form)
        step = w // form.level()
        return {"w": w, "q_exp": [x * step for x in form.q_values()]}

    return form.memo("tables", build)


def _word_tables(form: DiscriminantForm):
    """_tables plus the S data (frequency reindexing; per axis, for each t,
    the pick of zeta_d^(m t), m < d) and the negation permutation."""

    def build():
        n = form.level()
        # e(b(el, e_i)) = zeta_{d_i}^f_i, f_i = d_i b(el, e_i) an integer since d_i e_i = 0
        freq = [[r * d // n % d for r, d in zip(form.b_row(el), form.orders)] for el in form.elements()]
        neg = [form.index(form.neg(el)) for el in form.elements()]
        picks = [[itemgetter(*(m * t % d for m in range(d))) for t in range(d)] for d in form.orders]
        return {**_tables(form), "freq_index": [form.index(ell) for ell in freq], "neg_index": neg, "picks": picks}

    return form.memo("word_tables", build)


# Inside a word an entry is a packed int (module docstring), 0 for zero; the
# S scalars e(sig/8)/sqrt|D| are left out of the letters and multiplied in
# once, in Q(zeta_w), when the word is done.


def _rot(x: list[int], k: int) -> list[int]:
    """x * zeta_u^k, u = len(x); x itself when k = 0 (no list is changed in place)."""
    k %= len(x)
    return x[-k:] + x[:-k] if k else x


def _scaled(form: DiscriminantForm, tab, x: list[int], k: int, den: int) -> list[int]:
    """den times the k-th power of the S scalar times x, in Z[x]/(x^W - 1),
    W = lcm(w, len(x)); den is a multiple of the scalar power's denominator."""
    w = tab["w"]
    big = lcm(w, len(x))
    num, den_k = _scalar_power(form, tab, k)
    y = [0] * big
    y[:: big // len(x)] = x
    terms = [[c * den // den_k * v for v in _rot(y, e * big // w)] for e, c in num.items()]
    return terms[0] if len(terms) == 1 else list(map(sum, zip(*terms)))


def _scalar_power(form: DiscriminantForm, tab, k: int) -> tuple[dict[int, int], int]:
    """(num, den): the k-th power of the S scalar e(sig/8)/sqrt|D| equals
    sum c zeta_w^e over num, divided by den = |D|^ceil(k/2) (memoized); the
    numerator is an algebraic integer, so its coordinates c are integers."""

    def build():
        root = sqrt_int(form.order) if k % 2 else cyclo.ONE
        x = (e_of(Fraction(k * form.signature(), 8)) * root).to_order(tab["w"])
        return {e: c for e, c in enumerate(x.num) if c}, form.order ** ((k + 1) // 2)

    return form.memo(("scalar_pow", k), build)


def _rotations(u: int, bits: int, blocks: int) -> tuple[tuple[int, int, int, int], ...]:
    """(low, high, up, down) per j: x * zeta_u^j in every block is
    ((x & low) << up) | ((x & high) >> down), low the digits below u - j."""
    ones = sum(1 << c * u * bits for c in range(blocks))
    lows = [ones * ((1 << (u - j) * bits) - 1) for j in range(u)]
    return tuple((low, lows[0] ^ low, j * bits, (u - j) * bits) for j, low in enumerate(lows))


def _unpack(x: int, u: int, bits: int, blocks: int) -> list[list[int] | None]:
    """The digit lists of the blocks of x, None for a zero block."""
    mask = (1 << bits) - 1
    digits = [x >> e & mask for e in range(0, u * bits * blocks, bits)]
    return [d if any(d) else None for d in (digits[c * u : c * u + u] for c in range(blocks))]


def _apply_s_ints(form: DiscriminantForm, tab, data: list[int], rot) -> list[int]:
    """rho(S) without its scalar: per-axis character sums of rotations,
    then the frequency reindexing."""
    n, u = form.order, len(rot)
    for d, stride, picks in zip(form.orders, form._strides, tab["picks"]):
        masks = [rot[r * u // d] for r in range(1, d)]  # x * zeta_d^r
        out = [0] * n
        for base in range(0, n, d * stride):
            for off in range(base, base + stride):
                acc = None  # the column's character sums, entry t at a time
                for t, pick in enumerate(picks):
                    x = data[off + t * stride]
                    if x:
                        row = pick([x, *[((x & lo) << a) | ((x & hi) >> b) for lo, hi, a, b in masks]] if t else [x])
                        acc = row if acc is None else list(map(add, acc, row))
                if acc is not None:
                    out[off : off + d * stride : stride] = acc
        data = out
    return [data[i] for i in tab["freq_index"]]


def _apply_word_packed(form: DiscriminantForm, tab, tokens, data: list[int], rot) -> tuple[list[int], int]:
    """The word right to left on packed entries, rot = _rotations(u, B, C);
    returns the image and the number of S letters, whose scalars are left
    out.  Two adjacent S letters are rho(-1), e(sig/4) times the negation
    e^gamma -> e^-gamma: without their scalars, |D| times the negation."""
    u = len(rot)
    q_exp = [q * u // tab["w"] for q in tab["q_exp"]]
    count, i = 0, len(tokens)
    while i:
        i -= 1
        if tokens[i][0] == "T":
            steps = [rot[-tokens[i][1] * q % u] for q in q_exp]
            data = [((x & lo) << a) | ((x & hi) >> b) for x, (lo, hi, a, b) in zip(data, steps)]
        elif i and tokens[i - 1][0] == "S":
            i, count = i - 1, count + 2
            data = [data[j] * form.order for j in tab["neg_index"]]
        else:
            data = _apply_s_ints(form, tab, data, rot)
            count += 1
    return data, count


def _apply_word_ints(form: DiscriminantForm, tab, tokens, data: list, u: int) -> tuple[list, int]:
    """_apply_word_packed with one block, on entries given as lists of u
    non-negative digits (None for zero)."""
    top = max([1] + [max(x) for x in data if x is not None])
    bits = (top * form.order ** sum(kind == "S" for kind, _ in tokens)).bit_length()
    shifts, mask = range(0, u * bits, bits), (1 << bits) - 1
    packed = [0 if x is None else sum(v << e for v, e in zip(x, shifts)) for x in data]
    image, k = _apply_word_packed(form, tab, tokens, packed, _rotations(u, bits, 1))
    return [[x >> e & mask for e in shifts] if x else None for x in image], k


def _apply_word_dense(form: DiscriminantForm, tokens, vec: list[Cyclo]) -> list[Cyclo]:
    """rho(word) on a dense vector.  The coefficients are scaled to integers
    by one common denominator, which is divided out with the scalars; the
    image lies in Q(zeta_W), W = lcm(w, u)."""
    tab = _word_tables(form)
    u = lcm(2, form.level(), *(c.order for c in vec if c))
    den = lcm(*(c.den for c in vec if c))
    data: list = [None] * len(vec)
    for i, c in enumerate(vec):
        if c:
            step, f, data[i] = u // c.order, den // c.den, [0] * u
            for e, v in enumerate(c.num):  # -v zeta_u^j = v zeta_u^(j + u/2)
                data[i][(e * step + (v < 0) * u // 2) % u] += abs(v) * f
    data, k = _apply_word_ints(form, tab, tokens, data, u)
    den_k, big = _scalar_power(form, tab, k)[1], lcm(tab["w"], u)
    return [cyclo.ZERO if x is None else Cyclo(big, _scaled(form, tab, x, k, den_k), den * den_k) for x in data]


def _vec_from_dense(form: DiscriminantForm, dense: list[Cyclo]) -> Vec:
    els = form.elements()
    return Vec(form, {els[i]: c for i, c in enumerate(dense) if c})


# ---------------------------------------------------------------------------
# Generator actions and general matrices
# ---------------------------------------------------------------------------


def rho_T(v: Vec) -> Vec:
    return rho(t_power(1), v)


def rho_S(v: Vec) -> Vec:
    return rho(S_MAT, v)


def rho(m, v: Vec) -> Vec:
    """rho(M) v for any M in SL2(Z).  An SL2Word is applied letter by letter
    as given.  A matrix must have integer entries and determinant 1; as rho
    factors through SL2(Z/N) for even signature, N the level, it is applied
    as the element of SL2(Z/N) it represents, by the short word of
    _lift(a, c, N) T^t that the cosets use, whatever the size of its entries."""
    _require_even(v.form)
    word = m if isinstance(m, SL2Word) else _reduced_word(m, v.form.level())
    dense = [cyclo.ZERO] * v.form.order
    for el, c in v.coeffs.items():
        dense[v.form.index(el)] = c
    return _vec_from_dense(v.form, _apply_word_dense(v.form, word.tokens, dense))


# ---------------------------------------------------------------------------
# SL2(Z/N): enumeration, lifting, cusps
# ---------------------------------------------------------------------------


def sl2_group_order(n: int) -> int:
    out = n**3
    for p in factorize(n):
        out = out // (p * p) * (p * p - 1)
    return out


def _nearest_steps(a: int, c: int) -> int:
    """The number of S letters word_decompose writes for a first column (a, c)."""
    steps = 0
    while c:
        a, c, steps = c, (2 * a + c) // (2 * c) * c - a, steps + 1
    return steps


def _lift(a: int, c: int, n: int) -> Matrix2:
    """A matrix of SL2(Z) with first column (a, c) mod n, gcd(a, c, n) = 1,
    whose words are short; every matrix of SL2(Z/n) with that first column
    is the lift times a power of T.  The lower-left entry c1 is c reduced
    into (-n/2, n/2], or n when c = 0 mod n unless a = +-1 (the lift is then
    +-1).  Over one period of j, the first a1 = a + j n coprime to c1 with
    the fewest nearest-integer steps is taken; ext_gcd gives the rest."""
    h = (n - 1) // 2
    a0, c1 = (a + h) % n - h, (c + h) % n - h
    unit = next((s for s in (1, -1) if (a - s) % n == 0), 0)
    if c1 == 0 and unit:
        a1 = unit
    else:
        c1 = c1 or n
        coprime = (a0 + j * n for j in range(abs(c1) // gcd(n, c1)) if gcd(a0 + j * n, c1) == 1)
        a1 = min(coprime, key=lambda x: _nearest_steps(x, c1), default=0)
    _, x, y = ext_gcd(a1, c1)  # a1*x + c1*y = gcd(a1, c1)
    if a1 * x + c1 * y != 1 or (a1 - a) % n or (c1 - c) % n:
        raise InternalInconsistency("lift to SL2(Z) failed")
    return ((a1, -y), (c1, x))


def _lift_word(lift: Matrix2, t: int) -> SL2Word:
    """The word of lift T^t, lift = _lift(a, c, n): the one way an element
    of SL2(Z/n) gets its word, in _cosets, _classes and rho."""
    return word_decompose(mat2_mul(lift, t_power(t)))


def _reduced_word(m, n: int) -> SL2Word:
    """The word of the element of SL2(Z/n) that m represents, m an integer
    matrix of determinant 1: _lift(a, c, n) T^t, t = (L^-1 M)[0][1] mod n,
    as L^-1 M is T^t modulo n."""
    m = _as_sl2z(m)
    (a, _), (c, _) = m
    lift = _lift(a % n, c % n, n)
    word = _lift_word(lift, mat2_mul(mat2_inv(lift), m)[0][1] % n)
    if any((x - y) % n for row, mrow in zip(word.target, m) for x, y in zip(row, mrow)):
        raise InternalInconsistency("reduction modulo the level failed to reproduce the matrix")
    return word


def _check_level(n: int) -> None:
    if n > LIMITS.max_level:
        raise BoundExceeded(f"level {n} exceeds bound {LIMITS.max_level}")


@cache
def _primitive_pairs(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(
        (a, c)
        for a in range(n)
        for c in range(n)
        if gcd(gcd(a, c), n) == 1
    )


def enumerate_cosets(n: int) -> tuple[SL2Word, ...]:
    """All of SL2(Z/N) lifted to determinant-1 integer matrices with words:
    per first column the small lift times T^t, t = 0 .. N-1."""
    _check_level(n)
    return _cosets(n)


@cache
def _cosets(n: int) -> tuple[SL2Word, ...]:
    out = []
    for a, c in _primitive_pairs(n):
        m = _lift(a, c, n)
        out.extend(_lift_word(m, t) for t in range(n))
    if len(out) != sl2_group_order(n):
        raise InternalInconsistency("coset enumeration has the wrong size")
    return tuple(out)


@cache
def _classes(n: int) -> tuple[tuple[int, SL2Word], ...]:
    """The conjugacy classes of SL2(Z/n) as (size, word of a representative):
    orbits under conjugation by S and T, which generate the group, with
    (a, b, c, d) mod n marked in one visited array of n^4 bytes.  Elements
    are met as _lift(a, c, n) T^t; the first of an orbit is its
    representative.  Reached only after _check_level(n)."""
    seen, out = bytearray(n**4), []
    for a, c in _primitive_pairs(n):
        (a1, b1), (c1, d1) = lift = _lift(a, c, n)
        for t in range(n):
            x = (a1 % n, (b1 + t * a1) % n, c1 % n, (d1 + t * c1) % n)
            key = ((x[0] * n + x[1]) * n + x[2]) * n + x[3]
            if seen[key]:
                continue
            seen[key], stack, size = 1, [x], 0
            while stack:
                a2, b2, c2, d2 = stack.pop()
                size += 1
                # S M S^-1 and T M T^-1
                for y in ((d2, -c2 % n, -b2 % n, a2), ((a2 + c2) % n, (b2 + d2 - a2 - c2) % n, c2, (d2 - c2) % n)):
                    key = ((y[0] * n + y[1]) * n + y[2]) * n + y[3]
                    if not seen[key]:
                        seen[key] = 1
                        stack.append(y)
            out.append((size, _lift_word(lift, t)))
    if sum(size for size, _ in out) != sl2_group_order(n):
        raise InternalInconsistency("conjugacy classes do not partition SL2(Z/N)")
    return tuple(out)


@dataclass(frozen=True)
class Cusp:
    """A cusp class of Gamma(N), keyed by +-(a, c) of order N in (Z/N)^2."""

    key: tuple[int, int]
    matrix: Matrix2  # the small lift M_s in SL2(Z) with first column = key mod N
    inv_word: SL2Word  # word for M_s^{-1}


def normalize_cusp_key(a: int, c: int, n: int) -> tuple[int, int]:
    if n == 1:
        return (0, 0)
    a %= n
    c %= n
    if n == 2:
        return (a, c)
    return min((a, c), ((-a) % n, (-c) % n))


def cusp_classes(n: int) -> tuple[Cusp, ...]:
    _check_level(n)
    return _cusps(n)


@cache
def _cusps(n: int) -> tuple[Cusp, ...]:
    out = []
    for key in sorted({normalize_cusp_key(a, c, n) for a, c in _primitive_pairs(n)}):
        m = _lift(*key, n)
        out.append(Cusp(key, m, word_decompose(mat2_inv(m))))
    per_cusp = n if n <= 2 else 2 * n
    if len(out) * per_cusp != sl2_group_order(n):
        raise InternalInconsistency("cusp classes do not partition SL2(Z/N)")
    return tuple(out)


# ---------------------------------------------------------------------------
# The averaging projection, computed per cusp and per orthogonal block
# ---------------------------------------------------------------------------


def _e0_column(part: DiscriminantForm, word: SL2Word) -> tuple[Cyclo, dict[int, int]]:
    """rho_part(M) e^0 for M = word.target as (s, {index: k}): the entry at
    each support index is s * zeta_w^k, s being the first nonzero entry.
    The one word application per (part, word), memoized on the shared part.
    The entries share the S scalar, so each integer image, reduced modulo
    Phi_u, is looked up among the +- rotations of the first; only that first
    entry is scaled into a Cyclo."""

    def build():
        tab, u = _word_tables(part), part.level()
        w = tab["w"]
        start = [[1] + [0] * (u - 1)] + [None] * (part.order - 1)
        image, k = _apply_word_ints(part, tab, word.tokens, start, u)
        reduced = ((i, tuple(cyclo.reduce_mod_phi(u, x))) for i, x in enumerate(image) if x is not None)
        support = [(i, x) for i, x in reduced if any(x)]
        i0 = support[0][0]
        rotations: dict[tuple, int] = {}  # +- zeta_u^j x_0, reduced -> its exponent over w
        for j in range(u):
            r = cyclo.reduce_mod_phi(u, _rot(image[i0], j))
            rotations.setdefault(tuple(r), j * w // u)
            rotations.setdefault(tuple(-c for c in r), (j * w // u + w // 2) % w)
        exps = {i: rotations.get(x) for i, x in support}
        if None in exps.values():
            raise InternalInconsistency(f"cusp column check: rho(M) e^0 on {part!r} is not s times roots of unity")
        den_k = _scalar_power(part, tab, k)[1]
        return Cyclo(w, _scaled(part, tab, image[i0], k, den_k), den_k), exps

    return part.memo(("e0_col", word.tokens), build)


def _column(form: DiscriminantForm, word: SL2Word, js: list[int]) -> tuple[Cyclo, list[int | None]]:
    """(s, ks): rho(M) e^0, M = word.target, is s * zeta_W^k at the element
    of index j, k the entry of ks for each j of js, 0 where k is None,
    W = _working_order(form) = s.order; the product of the parts' memoized
    _e0_column, read through the per-form table of the index in each part
    of each element."""
    w, comps = _tables(form)["w"], form.orthogonal_components()
    els = form.elements()
    tables = form.memo("part_index", lambda: [[p.index([el[i] for i in pos]) for el in els] for p, pos in comps])
    s, ks = cyclo.ONE, [0] * len(js)
    for (part, _), idx in zip(comps, tables):
        part_s, exps = _e0_column(part, word)
        s, step = s * part_s, w // _tables(part)["w"]
        ks = [None if k is None or (e := exps.get(idx[j])) is None else k + e * step for k, j in zip(ks, js)]
    return s.to_order(w), ks


def _entries(form: DiscriminantForm, word: SL2Word, gamma: Element, mus: list[Element]) -> tuple[Cyclo, list]:
    """(s, ks): rho(M) e^gamma, M = word.target = (a b; c d), is s * zeta_W^k
    at each mu of mus, k its entry of ks (0 where k is None), W = s.order;
    the intertwining identity (module docstring) on the column of e^0."""
    (_, b), (_, d) = word.target
    dg, row, dq = form.smul(d, gamma), form.b_row(gamma), d * form.q_int(gamma)
    s, ks = _column(form, word, [form.index(form.sub(mu, dg)) for mu in mus])
    step = s.order // form.level()
    return s, [None if k is None else k + step * b * (dq - sum(map(mul, row, mu))) for k, mu in zip(ks, mus)]


def _cusp_terms(form: DiscriminantForm, cusp: Cusp, gamma: Element) -> Vec:
    """The piece of inv(e^gamma) at the cusp: the partial average of
    rho(+-M_s T^n) e^gamma (no +- for N <= 2), which keeps the isotropic
    coordinates.  Each exponent k(mu) of rho(M_s^-1) e^gamma is computed
    once; the -M_s^-1 term at -mu is k(mu) + sig/4, as rho(-1) e^mu = e(sig/4) e^-mu."""
    n, iso = form.level(), form.isotropic_elements()
    s, ks = _entries(form, cusp.inv_word, gamma, iso)
    z = form.signature() * s.order // 4
    counts: defaultdict[Element, Counter] = defaultdict(Counter)
    for mu, k in zip(iso, ks):
        if k is not None:
            counts[mu][k] += 1
            if n >= 3:
                counts[form.neg(mu)][k + z] += 1
    scale = s * Fraction(n, sl2_group_order(n))
    return Vec(form, {mu: scale * Cyclo(s.order, c) for mu, c in counts.items()})


def inv_at_cusp(form: DiscriminantForm, gamma: Element, s: tuple[int, int]) -> Vec:
    """Contribution of one cusp class to inv(e^gamma): the partial average
    over the cosets +-M_s T^n (no +- for N <= 2)."""
    n = form.level()
    if form.signature() % 2:
        return Vec(form)
    a, c = s
    if n > 1 and gcd(gcd(a, c), n) != 1:
        raise ValueError(f"({a}, {c}) does not have order {n} in (Z/{n})^2")
    key = normalize_cusp_key(a, c, n)
    cusp = next(cu for cu in cusp_classes(n) if cu.key == key)
    return _cusp_terms(form, cusp, form.normalize(gamma))


def _inv_basis(form: DiscriminantForm, gamma: Element) -> Vec:
    """inv(e^gamma) for even signature, as the sum of all cusp pieces (memoized)."""
    _check_bounds(form)
    gamma = form.normalize(gamma)

    def build() -> Vec:
        return sum((_cusp_terms(form, cusp, gamma) for cusp in cusp_classes(form.level())), Vec(form))

    return form.memo(("inv", gamma), build)


def inv(form: DiscriminantForm, v) -> Vec:
    """Projection onto the invariants: the average of rho over SL2(Z/N).

    Returns the zero vector when the signature is odd.
    """
    if isinstance(v, tuple):
        v = Vec.basis(form, v)
    if form.signature() % 2:
        return Vec(form)
    out = Vec(form)
    for el, c in v.coeffs.items():
        out = out + _inv_basis(form, el).scale(c)
    return out


def inv_average_oracle(form: DiscriminantForm, gamma: Element) -> Vec:
    """Reference implementation of inv(e^gamma): the literal average of
    rho(M) e^gamma over every coset of SL2(Z/N), one full word evaluation
    per coset; no cusp grouping, no block factorization and no sharing of
    word prefixes or suffixes between cosets.  Each coset is a small lift
    times T^t with a nearest-integer word, about 1-2 S transforms at small
    levels (an S S pair is the rho(-1) permutation).  Only each word is
    shared: it is applied once to every e^beta with N q(beta) = N q(gamma),
    one packed block per beta, and the class's answers are memoized; the
    images are summed per number of S letters, unpacked and scaled once."""
    if form.signature() % 2:
        return Vec(form)
    _check_bounds(form)
    g, qn = form.index(form.normalize(gamma)), form.q_values()
    return form.memo(("oracle", qn[g]), lambda: _oracle_class(form, qn[g]))[g]


def _oracle_class(form: DiscriminantForm, qn: int) -> dict[int, Vec]:
    """inv_average_oracle of every e^beta with N q(beta) = qn, by element index."""
    tab, u = _word_tables(form), form.level()
    cols = [i for i, x in enumerate(form.q_values()) if x == qn]
    cosets = enumerate_cosets(u)
    by_count = defaultdict(list)  # number of S letters -> the coset words
    for word in cosets:
        by_count[sum(kind == "S" for kind, _ in word.tokens)].append(word.tokens)
    den = max(_scalar_power(form, tab, k)[1] for k in by_count)
    totals = [[None] * form.order for _ in cols]
    for k, words in by_count.items():
        bits = (len(words) * form.order**k).bit_length()
        rot, start, acc = _rotations(u, bits, len(cols)), [0] * form.order, [0] * form.order
        for c, i in enumerate(cols):
            start[i] = 1 << c * u * bits
        for tokens in words:
            acc = list(map(add, acc, _apply_word_packed(form, tab, tokens, start, rot)[0]))
        for i, x in enumerate(acc):
            for total, y in zip(totals, _unpack(x, u, bits, len(cols))):
                if y is not None:
                    y = _scaled(form, tab, y, k, den)
                    total[i] = y if total[i] is None else list(map(add, total[i], y))
    dense = ([cyclo.ZERO if t is None else Cyclo(tab["w"], t, den * len(cosets)) for t in total] for total in totals)
    return {i: _vec_from_dense(form, x) for i, x in zip(cols, dense)}


def _block_trace(part: DiscriminantForm, word: SL2Word) -> Cyclo:
    """tr rho_part(M), M = word.target = (a b; c d): the diagonal of the
    intertwining identity, s * sum_gamma zeta_W^(k((1-d) gamma) + (W/N) b (d-2) N q(gamma))
    over the gamma with c0((1-d) gamma) nonzero, c0 = s * zeta_W^k the
    memoized _e0_column, counted in integer exponents."""
    s, exps = _e0_column(part, word)
    (_, b), (_, d) = word.target
    step = _tables(part)["w"] // part.level() * b * (d - 2)
    counts: Counter = Counter()
    for el, qn in zip(part.elements(), part.q_values()):
        k = exps.get(part.index(part.smul(1 - d, el)))
        if k is not None:
            counts[k + step * qn] += 1
    return s * Cyclo(s.order, counts)


def dim_invariants(form: DiscriminantForm) -> int:
    """dim C[D]^Gamma = (1/|G|) sum_g tr rho(g), G = SL2(Z/N).  A form with
    several p-parts gives the product of their dimensions; at prime-power
    level the trace is summed over the conjugacy classes of G, as the
    product of the block traces of one representative per class."""
    _check_bounds(form)
    if form.signature() % 2:
        return 0

    def build() -> int:
        parts = form.p_part_decompose() if form.order > 1 else []
        if len(parts) > 1:
            return prod(dim_invariants(part) for _, part, _ in parts)
        n, total = form.level(), cyclo.ZERO
        blocks = [part for part, _ in form.orthogonal_components()]
        for size, word in _classes(n):
            total = total + prod((_block_trace(part, word) for part in blocks), start=cyclo.ONE) * size
        total = total * Fraction(1, sl2_group_order(n))
        value = cyclo.as_rational(total)
        if value is None or value.denominator != 1 or value < 0:
            raise InternalInconsistency(f"trace of inv is not a non-negative integer: {total}")
        return int(value)

    return form.memo(("dim",), build)


def check_invariant_basis(form: DiscriminantForm, vectors: list[dict[Element, int]]) -> None:
    """Raise InternalInconsistency("basis invariance check: ...") unless rho
    fixes every vector, a map element -> integer coefficient.  rho(T) fixes
    a vector exactly when its support is isotropic.  For rho(S) the vectors
    are packed one block each, a coefficient -v as v at digit u/2,
    u = lcm(2, N), with digits of whole bytes; one S transform without its
    scalar gives X, and rho(S) b = b reads X = conj(G) b entry by entry,
    G = sum_gamma e(q(gamma)) = sqrt|D| e(sig/8) the Gauss sum (Milgram), so
    conj(G) has the digits sum_gamma x^(-u q(gamma)).  Both sides are
    compared as integer digits folded by x^(u/2) = -1 and reduced modulo
    Phi_u: each block of X is read as a byte string, and each distinct byte
    string is folded once, to the multiple of conj(G) it equals (None when
    it is none)."""
    iso = set(form.isotropic_elements())
    for i, v in enumerate(vectors):
        if not iso.issuperset(v):
            raise InternalInconsistency(f"basis invariance check: vector {i} is not supported on isotropic elements")
    if not vectors:
        return
    _require_even(form)
    tab, n, u = _word_tables(form), form.level(), lcm(2, form.level())
    half = u // 2
    ints = [{form.index(el): x for el, x in v.items()} for v in vectors]
    width = -(-(max((abs(x) for v in ints for x in v.values()), default=1) * form.order).bit_length() // 8)
    bits = 8 * width
    data = [0] * form.order
    for c, v in enumerate(ints):
        for i, x in v.items():
            data[i] |= abs(x) << (c * u + (x < 0) * half) * bits
    image = _apply_s_ints(form, tab, data, _rotations(u, bits, len(ints)))

    def fold(x: list[int]) -> list[int]:
        return cyclo.reduce_mod_phi(u, [a - b for a, b in zip(x[:half], x[half:])])

    gauss = [0] * u
    for qn in form.q_values():
        gauss[-qn * (u // n) % u] += 1
    gauss = fold(gauss)
    lead, block = next(k for k, g in enumerate(gauss) if g), u * width

    class Multiples(dict):  # the byte string of a block -> the multiple of conj(G) it folds to, or None
        def __missing__(self, raw: bytes) -> int | None:
            y = fold([int.from_bytes(raw[k : k + width], "little") for k in range(0, block, width)])
            m, r = divmod(y[lead], gauss[lead])
            if r or y != [m * g for g in gauss]:
                m = None
            self[raw] = m
            return m

    multiples, size = Multiples({bytes(block): 0}), block * len(ints)
    expected = [[0] * len(ints) for _ in image]
    for c, v in enumerate(ints):
        for i, x in v.items():
            expected[i][c] = x
    for i, (x, want) in enumerate(zip(image, expected)):
        raw = x.to_bytes(size, "little")
        got = [multiples[raw[k : k + block]] for k in range(0, size, block)]
        if got != want:
            c = next(c for c, (a, b) in enumerate(zip(got, want)) if a != b)
            raise InternalInconsistency(f"basis invariance check: rho(S) moves vector {c} at {form.elements()[i]}")


# ---------------------------------------------------------------------------
# Rank of a family of vectors (exact elimination in intmat.Echelon)
# ---------------------------------------------------------------------------


def rank_of_vectors(vectors: list[Vec]) -> int:
    """The rank over Q when every coordinate is rational, else over the
    cyclotomic field; the same Echelon either way."""
    rows = [{el: cyclo.as_rational(c) for el, c in v.coeffs.items()} for v in vectors]
    if any(None in row.values() for row in rows):
        rows = [v.coeffs for v in vectors]
    ech = Echelon()
    return sum(ech.add(row) for row in rows)


# ---------------------------------------------------------------------------
# Closed dimension formulas for the covered families
# ---------------------------------------------------------------------------


def dim_closed_form(symbol) -> int | None:
    """Closed-form dimension where a formula is available, else None."""
    if isinstance(symbol, str):
        symbol = JordanSymbol.parse(symbol)
    if symbol.signature() % 2:
        return 0
    if not symbol.components:
        return 1
    kind, c = symbol.family() or (None, None)
    if kind == "elementary":
        p, n, eps = c.p, c.n, c.sign
        if n % 2:
            val = Fraction(p ** (n - 1) - 1, p * p - 1)
        else:
            val = Fraction(p ** (n - 1) - p, p * p - 1) + eps * kronecker(-1, p) ** (n // 2) * p ** ((n - 2) // 2) + 1
    elif kind == "two-odd":
        n, eps, t = c.n, c.sign, c.t % 8
        if t % 4 == 2:
            return 0
        val = (Fraction(2) ** (n - 3) + 1) / 3 + eps * (-1) ** (t // 4) * Fraction(2) ** ((n - 4) // 2)
    elif kind == "two-four":
        n, eps, t = c.n, c.sign, c.t % 8
        if n % 2:
            return 0
        dev = eps * 2 ** ((n + 2) // 2) * (1 if t % 4 == 0 else 0) * kronecker((t - 1) % 8, 2)
        size_i = 2 ** (n + 2) + dev
        size_i2 = 2**n + dev
        brace = cyclo.ONE + Fraction(eps, 2 ** (n // 2)) * e_of(Fraction(3 * t, 8)) * (cyclo.ONE + e_of(Fraction(t, 4)))
        val = cyclo.as_rational(brace * Fraction(size_i, 12) + e_of(Fraction(t, 4)) * Fraction(size_i2, 12))
        if val is None:
            raise InternalInconsistency("dimension formula did not evaluate to a rational")
    else:
        return None
    return _as_int(val)


def _as_int(val: Fraction) -> int:
    if val.denominator != 1:
        raise InternalInconsistency(f"closed-form dimension {val} is not an integer")
    return int(val)


# ---------------------------------------------------------------------------
# Closed projection formulas for the covered families
# ---------------------------------------------------------------------------


def projection_closed_form(form: DiscriminantForm, gamma: Element) -> Vec | None:
    """Closed form for inv(e^gamma) where available, else None.

    The input form must have been built from a genus symbol of one of the
    covered families; gamma must be isotropic.
    """
    symbol = form.symbol
    if symbol is None:
        return None
    if form.signature() % 2:
        return Vec(form)
    gamma = form.normalize(gamma)
    if form.q(gamma) != 0:
        return None
    if not symbol.components:
        return Vec.basis(form, gamma)
    kind, comp = symbol.family() or (None, None)
    build = _PROJECTIONS.get(kind)
    return None if build is None else build(form, gamma, comp)


def _bump(out: dict[Element, Cyclo], el: Element, c) -> None:
    """out[el] += c for a cyclotomic or rational c."""
    out[el] = out.get(el, cyclo.ZERO) + c


def _projection_elementary(form: DiscriminantForm, gamma: Element, comp) -> Vec:
    """p^(eps n); 2_II^(eps n) is its case p = 2 (even rank, (-1/2) = 1)."""
    p, n, eps = comp.p, comp.n, comp.sign
    iso = form.isotropic_elements()
    out: dict[Element, Cyclo] = {}

    if n % 2 == 0:
        lead = Fraction(eps * kronecker(-1, p) ** (n // 2), (p * p - 1)) * Fraction(p) ** (-((n - 2) // 2))
        for mu in iso:
            c = Fraction(p) if form.b(mu, gamma) == 0 else Fraction(0)
            _bump(out, mu, cyclo.Cyclo.rational((c - 1) * lead))
        for a in range(1, p):
            _bump(out, form.smul(a, gamma), cyclo.Cyclo.rational(Fraction(1, p * p - 1)))
    else:
        lead = Fraction(eps * legendre(-1, p) ** ((n + 1) // 2) * legendre(2, p), p * p - 1) * Fraction(p) ** (
            -((n - 3) // 2)
        )
        for mu in iso:
            sym = legendre(int(form.b(mu, gamma) * p), p)
            if sym:
                _bump(out, mu, cyclo.Cyclo.rational(sym * lead))
        for a in range(1, p):
            _bump(out, form.smul(a, gamma), cyclo.Cyclo.rational(Fraction(legendre(a, p), p * p - 1)))
    return Vec(form, out)


def _projection_two_odd(form: DiscriminantForm, gamma: Element, comp) -> Vec:
    n, eps, t = comp.n, comp.sign, comp.t % 8
    if n % 2 or t % 4 == 2:
        return Vec(form)
    x2 = form.canonical_xc(2)
    iso = form.isotropic_elements()
    out: dict[Element, Cyclo] = {}

    _bump(out, gamma, Fraction(1, 6))
    _bump(out, form.add(gamma, x2), Fraction(1, 6))
    lead = Fraction(eps * (-1) ** (t // 4), 6) * Fraction(2) ** (-((n - 4) // 2))
    for mu in iso:
        c = Fraction(2) if form.b(mu, gamma) == 0 else Fraction(0)
        _bump(out, mu, (c - 1) * lead)
    return Vec(form, out)


def _projection_two_four(form: DiscriminantForm, gamma: Element, c2) -> Vec:
    n, eps, t = c2.n, c2.sign, c2.t % 8
    if n % 2:
        return Vec(form)
    iso = form.isotropic_elements()
    star2 = set(form.coset_dcstar(2))
    phase_t4 = e_of(Fraction(t, 4))
    out: dict[Element, Cyclo] = {}

    _bump(out, gamma, cyclo.Cyclo.rational(Fraction(1, 12)))
    _bump(out, form.neg(gamma), phase_t4 * Fraction(1, 12))
    for mu in iso:
        if form.sub(mu, gamma) in star2:
            w = e_of(form.q_c(2, form.sub(mu, gamma))) * Fraction(1, 24)
            _bump(out, mu, w)
            _bump(out, form.neg(mu), w * phase_t4)
    lead = e_of(Fraction(3 * t, 8)) * Fraction(eps, 12) * Fraction(2) ** (-(n // 2))
    for mu in iso:
        w = e_of(-form.b(mu, gamma)) * lead
        _bump(out, mu, w)
        _bump(out, form.neg(mu), w * phase_t4)
    return Vec(form, out)


def _projection_level_eight(form: DiscriminantForm, gamma: Element, c4) -> Vec:
    eps, t = c4.sign, c4.t % 8
    sign = form.signature()
    iso = form.isotropic_elements()
    star2, star4 = set(form.coset_dcstar(2)), set(form.coset_dcstar(4))
    z_phase = e_of(Fraction(sign, 4))
    sqrt2 = sqrt_int(2)
    out: dict[Element, Cyclo] = {}

    def pair(mu, w):
        _bump(out, mu, w)
        _bump(out, form.neg(mu), w * z_phase)

    lead1 = e_of(Fraction(-sign, 8)) * Fraction(1, 48) * sqrt2 * Fraction(1, 4)  # 1/(2 sqrt 2)
    for mu in iso:
        bmg = form.b(mu, gamma)
        w = e_of(-bmg) * (cyclo.ONE - e_of(frac1(-4 * bmg)))
        if not w.is_zero():
            pair(mu, w * lead1)
    lead2 = e_of(Fraction(-t, 8)) * Fraction(eps, 48) * sqrt2 * Fraction(1, 8)  # 1/(4 sqrt 2)
    for a in (1, 3, 5, 7):
        ag = form.smul(a, gamma)
        for mu in iso:
            if form.sub(mu, ag) in star2:
                w = e_of(form.q_c(2, form.sub(mu, ag))) * e_of(frac1(Fraction(a - 1, 2) * form.b(mu, gamma)))
                pair(mu, w * lead2)
    lead3 = Fraction(1, 96)
    for a in (1, 5):
        ag = form.smul(a, gamma)
        for mu in iso:
            if form.sub(mu, ag) in star4:
                w = e_of(form.q_c(4, form.sub(mu, ag))) * e_of(frac1(Fraction(a - 1, 4) * form.b(mu, gamma)))
                pair(mu, w * lead3)
    for a in (1, 3, 5, 7):
        _bump(out, form.smul(a, gamma), cyclo.Cyclo.rational(Fraction(form.chi(a), 48)))
    return Vec(form, out)


_PROJECTIONS = {
    "elementary": _projection_elementary,
    "two-odd": _projection_two_odd,
    "two-four": _projection_two_four,
    "level-eight": _projection_level_eight,
}
