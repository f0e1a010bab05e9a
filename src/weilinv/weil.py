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
per-cusp pieces sum to the total by construction; this cusp route is the
reference for fundamental.invariant_projection, in the tests and in the
CLI's verify.  Per cusp one word is applied, to e^0 of each orthogonal
block; every column of rho(M) = rho(M_s^-1) follows from that
c0 = rho(M) e^0 by the Heisenberg intertwining, for M = (a b; c d),

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

Everything is exact, and every entry of rho lies in Q(zeta_N), N the level: the S
scalar e(sign(D)/8)/sqrt(|D|) is G/|D|, G = sum_gamma e(q(gamma)) in
Z[zeta_N] the Gauss sum (Milgram), so k S letters contribute G^k/|D|^k;
exponents of +- roots of unity count over lcm(2, N).  Inside a word a
coefficient is an element of Z[x]/(x^u - 1), x = zeta_u, u a multiple of
the level, as u non-negative digits packed into one int (Kronecker
substitution), and only _Codec knows the layout: an entry holds L lanes of
C blocks, one block per input column, of u digits of B bits, each block in
whole bytes, and at most _MAX_BLOCKS blocks in all.
zeta_u^j rotates every block by j*B bits (two masks per j); rho(S) without
its scalar G/|D| is a mixed-radix character transform, one generator axis
at a time, of rotations and int sums; an S S pair multiplies by |D|.  The
width rule: an S transform sums at most |D| digits into one, so no digit
carries when B is the bit length of top * terms * |D|^k, top the largest
input digit, `terms` the images summed and k the scalar-free S transforms.
The sign rule: a coordinate c of zeta_m^e enters at digit e*u/m, and -c as
c at digit e*u/m + u/2 (u even, x^(u/2) = -1 modulo Phi_u).  _apply_words
runs the words that differ only in a first-applied T^p, as the N cosets
L T^t of one first column do, as one pass of the rest of the word: lane l
holds the columns times rho(T^p_l), the exponent e - p_l (u/N) N q(i) at
element i by the sign rule, and every letter acts on each block alone, so
no lane reads another lane's digits; a group larger than the lanes that
fit takes several passes.  A block is read as its digits reduced modulo
Phi_u, once per distinct block.  The images of the words with k S letters
are summed, lanes and all, then read, which sums the lanes, multiplied by
the coordinates of G^k and leave as Cyclo values at the order u over |D|^k.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, isqrt, lcm, prod
from operator import add, index, itemgetter, mul

from . import cyclo
from .arith import ext_gcd, factorize, frac1, kronecker, legendre
from .config import LIMITS
from .cyclo import Cyclo, e_of
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


def _check_bounds(form: DiscriminantForm) -> None:
    """The bounds that a cold dim_invariants, inv or inv_average_oracle on
    form would hit, checked on every call, so that they hold for a memoized
    answer too: the order lcm(2, N) that their whole-form values live in,
    N the level, and for even signature the level and order bounds."""
    w = lcm(2, form.level())
    if w > LIMITS.max_cyclo_order:
        raise cyclo.CycloOrderError(f"cyclotomic order {w} of {form!r} exceeds bound {LIMITS.max_cyclo_order}")
    if form.signature() % 2 == 0:
        _check_level(form.level())
        form.elements()


def _word_tables(form: DiscriminantForm):
    """Memoized S data: the frequency reindexing; per axis, for each t, the
    pick of zeta_d^(m t), m < d; and the negation permutation.  The tables
    are ints: every value built from them leaves as a Cyclo, whose
    reduction modulo Phi_u checks the cyclotomic bound."""

    def build():
        n = form.level()
        # e(b(el, e_i)) = zeta_{d_i}^f_i, f_i = d_i b(el, e_i) an integer since d_i e_i = 0
        freq = [[r * d // n % d for r, d in zip(form.b_row(el), form.orders)] for el in form.elements()]
        neg = [form.index(form.neg(el)) for el in form.elements()]
        picks = [[itemgetter(*(m * t % d for m in range(d))) for t in range(d)] for d in form.orders]
        return {"freq_index": [form.index(ell) for ell in freq], "neg_index": neg, "picks": picks}

    return form.memo("word_tables", build)


def _gauss_power(form: DiscriminantForm, k: int, u: int) -> dict[int, int]:
    """G^k = sum c zeta_u^e over {e: c} (memoized), G = sum_gamma e(q(gamma))
    = sqrt|D| e(sig/8) (Milgram), u a multiple of the level: the k-th power
    of the S scalar is G^k/|D|^k.  When r = sqrt(|D|^k) is an integer, G^k
    is one term r e(k sig/8), or -r e(x - 1/2) where e(x) is no power of
    zeta_u; else it is G times G^(k-1), reduced modulo Phi_u."""

    def build():
        r = isqrt(form.order**k)
        if r * r != form.order**k:
            return {e: c for e, c in enumerate((form.gauss_sum() * Cyclo(u, _gauss_power(form, k - 1, u))).num) if c}
        x = frac1(Fraction(k * form.signature(), 8)) * u
        if x.denominator == 2:
            x, r = x - Fraction(u, 2), -r
        if x.denominator != 1:
            raise InternalInconsistency(f"Gauss sum check: e({k} sig/8) of {form!r} is not in Q(zeta_{u})")
        return {int(x): r}

    return form.memo(("gauss", k, u), build)


def _times(x: list[int], terms: dict[int, int], f: int) -> list[int]:
    """f x sum c zeta_u^e over terms, 0 <= e < u, in Z[x]/(x^u - 1), u = len(x)."""
    out = [[f * c * v for v in x[len(x) - e :] + x[: len(x) - e]] for e, c in terms.items()]
    return out[0] if len(out) == 1 else list(map(sum, zip(*out)))


#: the most blocks one packed entry holds, lanes times columns, which
#: bounds the memory of a pass.  Measured cold inv_average_oracle on a 2-vCPU
#: machine, Python 3.11, against one lane per pass: 16_II^+2 (48 columns, so
#: 2 lanes) 101 s and 38.3 MiB peak against 102 s and 31.6 MiB, and with all
#: 16 lanes of a first column (768 blocks) 97 s and 127 MiB; 5^+1.7^+1 (one
#: column, 35 lanes) 2.3-2.7 s against 8.5-8.6 s.  Where lanes pay, few
#: columns share an entry, and 96 holds the 6 lanes of the 15 isotropic
#: columns of 2_II^+2.3^-2.
_MAX_BLOCKS = 96


class _Codec(dict):
    """The packed layout of `blocks` columns (module docstring): B bits per
    digit by the width rule, block c from byte c * size, and `lanes` lanes
    of `blocks` blocks, `width` bytes each, lane l from block l * blocks: as
    many as asked for and _MAX_BLOCKS holds, at least one; rot, the rotation
    masks over every lane.  As a dict: the bytes of a block read -> its u
    digits mod Phi_u."""

    def __init__(
        self, form: DiscriminantForm, u: int, blocks: int, top: int = 1, terms: int = 1, k: int = 0, lanes: int = 1
    ):
        self.u, self.blocks, self.bits = u, blocks, (top * terms * form.order**k).bit_length()
        self.size = -(-u * self.bits // 8)
        self.width, self.lanes = self.size * blocks, max(1, min(lanes, _MAX_BLOCKS // blocks))
        self.rot = self._rotations(u, self.bits)

    def _rotations(self, u: int, bits: int) -> tuple[tuple[int, int, int, int], ...]:
        """(low, high, up, down) per j: x * zeta_u^j in every block is
        ((x & low) << up) | ((x & high) >> down), low the digits below u - j."""
        ones = sum(1 << 8 * self.size * c for c in range(self.blocks * self.lanes))
        lows = [ones * ((1 << (u - j) * bits) - 1) for j in range(u)]
        return tuple((low, lows[0] ^ low, j * bits, (u - j) * bits) for j, low in enumerate(lows))

    def pack(self, n: int, terms, diag=None, powers=(0,)) -> list[int]:
        """n entries from (index, block, exponent, coefficient) terms, by the
        sign rule, one lane per power p of powers, at most `lanes` of them:
        lane l holds the terms times zeta_u^(p diag[index]), p = powers[l]."""
        data, half = [0] * n, self.u // 2
        for lane, p in enumerate(powers):
            for i, c, e, x in terms:
                e += (x < 0) * half + (p * diag[i] if p else 0)
                data[i] += abs(x) << 8 * self.size * (lane * self.blocks + c) + e % self.u * self.bits
        return data

    def unpack(self, raw: bytes) -> list[int]:
        """The u digits of a block, from its bytes."""
        y, mask = int.from_bytes(raw, "little"), (1 << self.bits) - 1
        return [y >> e & mask for e in range(0, self.u * self.bits, self.bits)]

    def __missing__(self, raw: bytes) -> tuple[int, ...]:
        digits = cyclo.reduce_mod_phi(self.u, self.unpack(raw))
        self[raw] = value = (*digits, *[0] * (self.u - len(digits)))
        return value

    def read(self, x: int) -> list:
        """The blocks of the entry x summed over its lanes, the only place
        lanes meet; each distinct block unpacked and reduced once."""
        size, width = self.size, self.width
        if self.lanes > 1:
            raw = x.to_bytes(width * self.lanes, "little")
            x = sum(int.from_bytes(raw[k : k + width], "little") for k in range(0, len(raw), width))
        raw = x.to_bytes(width, "little")
        return [self[raw[k : k + size]] for k in range(0, width, size)]


def _apply_s_ints(form: DiscriminantForm, tab, data: list[int], codec: _Codec) -> list[int]:
    """rho(S) without its scalar: per-axis character sums of rotations,
    then the frequency reindexing."""
    n, u, rot = form.order, codec.u, codec.rot
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


def _apply_word_packed(form: DiscriminantForm, tab, tokens, data: list[int], codec: _Codec) -> list[int]:
    """The word right to left on packed entries, without the scalars of its
    S letters.  Two adjacent S letters are rho(-1), e(sig/4) times the
    negation e^gamma -> e^-gamma: without their scalars, |D| times it."""
    u, rot = codec.u, codec.rot
    step = u // form.level()
    i = len(tokens)
    while i:
        i -= 1
        if tokens[i][0] == "T":
            steps = [rot[-tokens[i][1] * q * step % u] for q in form.q_values()]
            data = [((x & lo) << a) | ((x & hi) >> b) for x, (lo, hi, a, b) in zip(data, steps)]
        elif i and tokens[i - 1][0] == "S":
            i -= 1
            data = [data[j] * form.order for j in tab["neg_index"]]
        else:
            data = _apply_s_ints(form, tab, data, codec)
    return data


def _apply_words(form: DiscriminantForm, words, columns: list[dict[int, Cyclo]], weight=1) -> list[Vec]:
    """weight times the sum of rho(word) over the token tuples in words, on
    each column, a map from element index to Cyclo: one Vec per column, each
    packed as one block over u = lcm(N, the orders of its values), even if
    a coordinate is negative.  Words that differ only in a first-applied
    T^p share one pass of the rest of the word, on one lane per word packed
    with the columns times rho(T^p), zeta_u^(-p (u/N) N q) at each element.
    The images of the words with k S letters are summed, lanes and all,
    read once (which sums the lanes) and scaled by G^k/|D|^k."""
    tab, els, n = _word_tables(form), form.elements(), form.order
    values = [c for col in columns for c in col.values()]
    u = lcm(form.level(), *(c.order for c in values))
    u, den = lcm(2, u) if any(x < 0 for c in values for x in c.num) else u, lcm(*(c.den for c in values))
    terms = [  # (index, block, exponent over u, coefficient)
        (i, b, e * (u // c.order), x * (den // c.den))
        for b, col in enumerate(columns) for i, c in col.items() for e, x in enumerate(c.num) if x
    ]
    top, diag = max((abs(x) for *_, x in terms), default=1), [-q * (u // form.level()) for q in form.q_values()]
    by_count = defaultdict(lambda: defaultdict(list))  # S count -> a word without its first T -> the T powers
    for tokens in words:
        rest, p = (tokens[:-1], tokens[-1][1]) if tokens and tokens[-1][0] == "T" else (tokens, 0)
        by_count[sum(kind == "S" for kind, _ in rest)][tuple(rest)].append(p % form.level())
    last = max(by_count, default=0)
    weight, totals = Fraction(weight, den * n**last), [[None] * n for _ in columns]
    for k, rests in by_count.items():
        sizes = [len(powers) for powers in rests.values()]
        codec = _Codec(form, u, len(columns), top, sum(sizes), k, max(sizes))
        acc, packed = [0] * n, None
        for rest, powers in rests.items():
            powers.sort()  # the lanes are summed, so their order is free
            for at in range(0, len(powers), codec.lanes):
                chunk = tuple(powers[at : at + codec.lanes])
                if chunk != packed:  # consecutive passes on the same powers share one input
                    packed, data = chunk, codec.pack(n, terms, diag, chunk)
                acc = list(map(add, acc, _apply_word_packed(form, tab, rest, data, codec)))
        gauss, f = _gauss_power(form, k, u), weight.numerator * n ** (last - k)
        for i, x in enumerate(acc):
            for total, y in zip(totals, codec.read(x) if x else ()):
                if any(y):
                    y = _times(y, gauss, f)
                    total[i] = y if total[i] is None else list(map(add, total[i], y))
    return [Vec(form, {els[i]: Cyclo(u, t, weight.denominator) for i, t in enumerate(total) if t}) for total in totals]


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
    return _apply_words(v.form, [word.tokens], [{v.form.index(el): c for el, c in v.coeffs.items()}])[0]


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
    each support index is s * zeta_w^k, w = lcm(2, u) = s.order, u the
    level, s the first nonzero entry, found among the read +- rotations of
    the first.  Memoized on the shared part, whose words with k S letters
    share one codec, so each distinct block is reduced once per part."""

    def build():
        tab, u, k = _word_tables(part), part.level(), sum(kind == "S" for kind, _ in word.tokens)
        w, codec = lcm(2, u), part.memo(("e0_codec", k), lambda: _Codec(part, u, 1, k=k))
        packed = _apply_word_packed(part, tab, word.tokens, codec.pack(part.order, [(0, 0, 0, 1)]), codec)
        support = [(i, y) for i, y in ((i, codec.read(x)[0]) for i, x in enumerate(packed) if x) if any(y)]
        x0, rotations = packed[support[0][0]], {}  # +- zeta_u^j x0, reduced -> its exponent over w
        for j, (lo, hi, a, b) in enumerate(codec.rot):
            r = codec.read(((x0 & lo) << a) | ((x0 & hi) >> b))[0]
            rotations.setdefault(r, j * w // u)
            rotations.setdefault(tuple(-c for c in r), (j * w // u + w // 2) % w)
        exps = {i: rotations.get(y) for i, y in support}
        if None in exps.values():
            raise InternalInconsistency(f"cusp column check: rho(M) e^0 on {part!r} is not s times roots of unity")
        return Cyclo(u, _times(support[0][1], _gauss_power(part, k, u), 1), part.order**k).to_order(w), exps

    return part.memo(("e0_col", word.tokens), build)


def _column(form: DiscriminantForm, word: SL2Word, js: list[int]) -> tuple[Cyclo, list[int | None]]:
    """(s, ks): rho(M) e^0, M = word.target, is s * zeta_W^k at the element
    of index j, k the entry of ks for each j of js, 0 where k is None,
    W = lcm(2, N) = s.order, N the level; the product of the parts' memoized
    _e0_column, each part's exponents over lcm(2, its level) scaled to W,
    read through the per-form table of the index in each part of each
    element."""
    w, comps = lcm(2, form.level()), form.orthogonal_components()
    els = form.elements()
    tables = form.memo("part_index", lambda: [[p.index([el[i] for i in pos]) for el in els] for p, pos in comps])
    s, ks = cyclo.ONE, [0] * len(js)
    for (part, _), idx in zip(comps, tables):
        part_s, exps = _e0_column(part, word)
        s, step = s * part_s, w // part_s.order
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
    _check_bounds(form)
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
    """Projection onto the invariants: the average of rho over SL2(Z/N),
    summed cusp by cusp.  The reference for fundamental.invariant_projection,
    through which the library projects; the CLI's verify compares the two on
    one isotropic element (cusp-partition).  Zero for odd signature."""
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
    rho(M) e^gamma over every coset of SL2(Z/N), each coset's own word
    evaluated in full in its own lane.  Each coset is a small lift L times
    T^t with a nearest-integer word, about 1-2 S transforms at small levels
    (an S S pair is the rho(-1) permutation); the N words of one first
    column differ only in their first-applied T, so they run as one pass
    of the rest of the word, lane by lane on the columns times their own
    T power: the lanes share the sequence of letters but never a value, and
    meet only in the sum read after the last letter.  No cusp grouping,
    intertwining, e^0 column or block factorization enters.  A pass runs
    on every e^beta with N q(beta) = N q(gamma), one packed block per beta
    and lane, at most _MAX_BLOCKS blocks per entry (a first column whose
    lanes do not fit takes several passes), and the class's answers are
    memoized; the images are summed per number of S letters, unpacked and
    scaled once."""
    if form.signature() % 2:
        return Vec(form)
    _check_bounds(form)
    g, qn = form.index(form.normalize(gamma)), form.q_values()
    return form.memo(("oracle", qn[g]), lambda: _oracle_class(form, qn[g]))[g]


def _oracle_class(form: DiscriminantForm, qn: int) -> dict[int, Vec]:
    """inv_average_oracle of every e^beta with N q(beta) = qn, by element index."""
    cols = [i for i, x in enumerate(form.q_values()) if x == qn]
    cosets = [word.tokens for word in enumerate_cosets(form.level())]
    images = _apply_words(form, cosets, [{i: cyclo.ONE} for i in cols], Fraction(1, len(cosets)))
    return dict(zip(cols, images))


def _block_trace(part: DiscriminantForm, word: SL2Word) -> Cyclo:
    """tr rho_part(M), M = word.target = (a b; c d): the diagonal of the
    intertwining identity, s * sum_gamma zeta_W^(k((1-d) gamma) + (W/N) b (d-2) N q(gamma))
    over the gamma with c0((1-d) gamma) nonzero, c0 = s * zeta_W^k the
    memoized _e0_column, W = lcm(2, N) = s.order, counted in integer
    exponents."""
    s, exps = _e0_column(part, word)
    (_, b), (_, d) = word.target
    step = s.order // part.level() * b * (d - 2)
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


def _s_mismatches(form: DiscriminantForm, u: int, k: int, columns: list[dict[int, int]], images, scalar: Cyclo):
    """(i, c) for each element index i where k scalar-free S transforms of
    column c, a map index -> int, differ from scalar times the map images[c]."""
    tab, s = _word_tables(form), scalar.to_order(u).num
    s += (0,) * (u - len(s))  # u digits, as _Codec reads a block
    codec = _Codec(form, u, len(columns), max((abs(x) for col in columns for x in col.values()), default=1), 1, k)
    data = codec.pack(form.order, [(i, c, 0, x) for c, col in enumerate(columns) for i, x in col.items()])
    for _ in range(k):
        data = _apply_s_ints(form, tab, data, codec)
    times = {x: tuple(x * g for g in s) for x in {0, *(x for image in images for x in image.values())}}
    want = [[times[0]] * len(columns) for _ in data]
    for c, image in enumerate(images):
        for i, x in image.items():
            want[i][c] = times[x]
    for i, x in enumerate(data):
        got = codec.read(x)
        if got != want[i]:
            yield from ((i, c) for c, (a, b) in enumerate(zip(got, want[i])) if a != b)


def check_invariant_basis(form: DiscriminantForm, vectors: list[dict[Element, int]]) -> None:
    """Raise InternalInconsistency("basis invariance check: ...") unless rho
    fixes every vector b, a map element -> integer coefficient: rho(T) does
    when its support is isotropic, rho(S) when one S transform without its
    scalar gives conj(G) b, G from _gauss_power, read through _Codec."""
    iso = set(form.isotropic_elements())
    for i, v in enumerate(vectors):
        if not iso.issuperset(v):
            raise InternalInconsistency(f"basis invariance check: vector {i} is not supported on isotropic elements")
    if not vectors:
        return
    _require_even(form)
    index = form.memo("element_index", lambda: {el: i for i, el in enumerate(form.elements())})
    u, ints = lcm(2, form.level()), [{index[el]: x for el, x in v.items()} for v in vectors]
    for i, c in _s_mismatches(form, u, 1, ints, ints, Cyclo(u, _gauss_power(form, 1, u)).conjugate()):
        raise InternalInconsistency(f"basis invariance check: rho(S) moves vector {c} at {form.elements()[i]}")


def rho_s_squared_failure(form: DiscriminantForm, gammas: list[Element]) -> Element | None:
    """A gamma of gammas with rho(S)^2 e^gamma != e(sig/4) e^-gamma, or None.
    rho(S) = G/|D| S0, so this needs G^2 = |D| e(sig/4), as G*G and as the
    scalar of two S letters from _gauss_power, and S0 S0 e^gamma = |D| e^-gamma
    by two S transforms (not the S S pair of _apply_word_packed, which assumes it)."""
    _require_even(form)
    u, n = form.level(), form.order
    g = Cyclo(u, _gauss_power(form, 1, u))
    if not g * g == Cyclo(u, _gauss_power(form, 2, u)) == n * e_of(Fraction(form.signature(), 4)):
        return gammas[0] if gammas else None
    columns, images = [{form.index(x): 1} for x in gammas], [{form.index(form.neg(x)): n} for x in gammas]
    return next((gammas[c] for _, c in _s_mismatches(form, u, 2, columns, images, cyclo.ONE)), None)


# ---------------------------------------------------------------------------
# Rank of a family of vectors (exact elimination in intmat.Echelon)
# ---------------------------------------------------------------------------


def rank_of_vectors(vectors: list[Vec]) -> int:
    """The rank over Q when every coordinate is rational, else over the
    cyclotomic field; the same Echelon either way.  Over Q each vector is
    scaled to integers (cyclo.integer_multiple), which keeps the rank and
    lets Echelon eliminate fraction-free."""
    rows = [cyclo.integer_multiple(v.coeffs) for v in vectors]
    if None in rows:
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
    sqrt2 = e_of(Fraction(1, 8)) + e_of(Fraction(-1, 8))
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
