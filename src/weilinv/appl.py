"""Applications: weight-2 cusp form dimensions at prime level, and singular
weight Jacobi form bases from lattice data.

The cusp-form count follows the standard fixed-point dimension formula for
a finite-image representation, evaluated on the subrepresentation spanned
by e^gamma + e^(-gamma); every trace is computed exactly and the result
must come out an integer.  The Jacobi basis reads each fundamental lift
(fundamental.fundamental_lifts: an overlattice whose dual quotient has
fundamental p-parts, with the product of the fundamental generators) as
integer theta coefficients, sorted by the elements of the overlattice's
subgroup.

The theta series of a basis entry is a level-one modular form of weight
k = n/2, so jacobi_theta enumerates only its first dim M_k + 1
coefficients, writes the series in the basis E4^a E6^b Delta^j of
M_k(SL2(Z)) and reads the rest from divisor sums, checking the last
enumerated coefficient against the prediction.  theta_q_expansion, the
enumeration itself and the oracle of that route, counts lattice vectors by
Fincke-Pohst search in integers only: one exact square completion per form
fixes integer weights for every coset, so every loop range is exact and no
count rests on a rounded bound.  The search uses v -> -v, which keeps the
norm and maps gamma + M onto -gamma + M: a coset with 2 gamma in M is
searched by halves, and one search serves each pair {gamma, -gamma}.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import isqrt, lcm
from operator import mul

from . import cyclo
from .arith import legendre
from .cyclo import Cyclo, e_of, sqrt_int
from .fqm import (
    BoundExceeded,
    DiscriminantForm,
    Element,
    InternalInconsistency,
    JordanSymbol,
    from_gram,
    from_jordan_symbol,
)
from .fundamental import fundamental_lifts
from .induct import IsotropicSubgroup
from .intmat import rational_inverse, row_lattice_basis
from .weil import GroupAlgebraVector, dim_invariants


# ---------------------------------------------------------------------------
# Weight-2 cusp forms for prime-level forms of even rank
# ---------------------------------------------------------------------------


def _parse_prime_even(symbol) -> tuple[DiscriminantForm, int, int, int]:
    if isinstance(symbol, str):
        symbol = JordanSymbol.parse(symbol)
    kind, comp = symbol.family() or (None, None)
    if kind != "elementary":
        raise ValueError("expected a single component of prime level")
    if comp.n % 2:
        raise ValueError("only even rank is supported")
    return from_jordan_symbol(symbol), comp.p, comp.n, comp.sign


def dim_s2(symbol) -> int:
    """Closed form for dim S_2 of a form of prime level p and even rank;
    zero for p <= 3 (no cusp forms of weight 2 at those levels)."""
    _, p, n, eps = _parse_prime_even(symbol)
    if p <= 3:
        return 0
    val = (
        Fraction(p**n + 5, 24)
        - Fraction(p ** (n - 1), 4)
        - eps * legendre(-1, p) ** (n // 2) * Fraction(p - 5, 4) * p ** ((n - 2) // 2)
        + Fraction(p ** (n - 1) - p, p * p - 1)
    )
    if val.denominator != 1 or val < 0:
        raise InternalInconsistency(f"closed cusp-form dimension {val} is not a non-negative integer")
    return int(val)


@dataclass
class S2TraceData:
    """Every intermediate quantity of the trace-based dimension count."""

    d: int
    tr_s: Fraction  # trace of e(1/2) rho(S) on the symmetrized subspace
    alpha_s: Fraction
    alpha_st: Fraction
    alpha_t: Fraction
    isotropic_classes: int
    dim_inv: int
    dim: int


def dim_s2_trace(symbol) -> S2TraceData:
    """Fixed-point dimension count evaluated with exact traces.

    Works on the subspace spanned by e^gamma + e^(-gamma); the elliptic
    contributions come from the order-2 element e(1/2) rho(S) and the
    order-3 element (e(1/3) rho(ST))^(-1), the parabolic one from rho(T).
    """
    form, p, n, eps = _parse_prime_even(symbol)
    scalar = form.gauss_sum() * Fraction(1, form.order)  # e(sig/8)/sqrt|D| = G/|D| (Milgram)
    # x = level * q(beta); rho(S) gives e(2q) + e(-2q), rho(ST) e(q) + e(-3q), one term if 2 beta = 0
    level = form.level()
    reps = [(el, x) for el, x in zip(form.elements(), form.q_values()) if el <= form.neg(el)]
    d = len(reps)
    s_exps, st_exps = Counter(), Counter()
    for beta, x in reps:
        s_exps[2 * x % level] += 1
        st_exps[x] += 1
        if form.smul(2, beta) != form.zero():
            s_exps[-2 * x % level] += 1
            st_exps[-3 * x % level] += 1
    tr_s_raw, tr_st_raw = Cyclo(level, s_exps), Cyclo(level, st_exps)
    alpha_t = Fraction(sum(-x % level for _, x in reps), level)
    iso_classes = sum(1 for _, x in reps if x == 0)
    tr_s = cyclo.as_rational(e_of(Fraction(1, 2)) * scalar * tr_s_raw)
    if tr_s is None:
        raise InternalInconsistency("trace of the order-2 element is irrational")
    alpha_s = Fraction(d, 4) - Fraction(tr_s, 4)
    z = e_of(Fraction(1, 3)) * scalar * tr_st_raw  # = tr(M^{-1}) for M the order-3 element
    re_z = (z + z.conjugate()) * Fraction(1, 2)
    im_z = (z - z.conjugate()) * e_of(Fraction(-1, 4)) * Fraction(1, 2)
    alpha_st = cyclo.as_rational(Fraction(d, 3) - re_z * Fraction(1, 3) + im_z * sqrt_int(3) * Fraction(1, 9))
    if alpha_st is None:
        raise InternalInconsistency("order-3 angle sum is irrational")
    dim_inv = dim_invariants(form)
    total = Fraction(d, 6) + d - alpha_s - alpha_st - alpha_t - iso_classes + dim_inv
    if total.denominator != 1 or total < 0:
        raise InternalInconsistency(f"trace-based cusp-form dimension {total} is not a non-negative integer")
    return S2TraceData(d, tr_s, alpha_s, alpha_st, alpha_t, iso_classes, dim_inv, int(total))


# ---------------------------------------------------------------------------
# Jacobi forms of singular weight
# ---------------------------------------------------------------------------


@dataclass
class JacobiBasisEntry:
    """One generator: an overlattice (as an isotropic subgroup of L'/L)
    together with integer theta coefficients on the cosets of M'/M."""

    subgroup: IsotropicSubgroup
    coefficients: dict[Element, int]  # keyed by coset representatives in L'/L
    rank: int
    weight: Fraction
    vector: GroupAlgebraVector  # the lifted invariant on L'/L


def jacobi_singular_basis(gram) -> list[JacobiBasisEntry]:
    """Generators of the space of Jacobi forms of singular weight n/2 for a
    positive-definite even lattice with the given Gram matrix.

    Empty for odd rank.  Each generator is one fundamental lift of L'/L
    (fundamental.fundamental_lifts): an overlattice M with every p-part of
    M'/M fundamental, carrying the product of the fundamental invariants.
    The generators are sorted by the elements of H = M/L.  The lift is
    constant on the cosets of H, so each coset's theta coefficient is its
    value at the coset's least element.
    """
    n = len(gram)
    if n % 2:
        return []
    form = from_gram(gram)
    out = []
    for sub, v in sorted(fundamental_lifts(form), key=lambda lift: lift[0].elements):
        coeffs, covered = {}, set()
        for el, c in v.items_sorted():
            if el not in covered:
                coeffs[el] = int(cyclo.as_rational(c))
                covered.update(form.add(el, h) for h in sub.elements)
        out.append(JacobiBasisEntry(sub, coeffs, n, Fraction(n, 2), v))
    return out


# ---------------------------------------------------------------------------
# Theta q-expansions by bounded lattice enumeration
# ---------------------------------------------------------------------------


def check_theta_precision(precision: int) -> None:
    """Refuse a theta precision outside 0..50 with BoundExceeded."""
    if not 0 <= precision <= 50:
        raise BoundExceeded("precision out of the supported range 0..50")


@cache
def _square_completion(qmat: tuple[tuple[int, ...], ...]) -> tuple[tuple, tuple, tuple]:
    """F = sum d_i y_i^2, y_i = x_i + sum_(j>i) u_ij x_j, for the form F of
    qmat: each row u_i as integers over one denominator (zero up to i),
    those denominators, and the d_i.  Raises ValueError, which is not
    cached, unless every d_i is positive."""
    n = len(qmat)
    q = [[Fraction(x) for x in row] for row in qmat]
    nums, dens, diag = [], [], []
    for i in range(n):
        if q[i][i] <= 0:
            raise ValueError("form is not positive definite")
        u = [q[i][j] / q[i][i] if j > i else Fraction(0) for j in range(n)]
        for j in range(i + 1, n):  # complete the square in x_i
            for k in range(j, n):
                q[j][k] -= q[i][i] * u[j] * u[k]
        den = lcm(*(x.denominator for x in u))
        nums.append(tuple(int(x * den) for x in u))
        dens.append(den)
        diag.append(q[i][i])
    return tuple(nums), tuple(dens), tuple(diag)


def _enumerate_norms(qmat: list[list[int]], shift: list[Fraction], bound: int) -> tuple[int, Counter]:
    """Count integer vectors c with F(c + shift) <= bound, F the positive
    definite form of qmat: returns G and the counts keyed by G F(c + shift).

    Square completion (_square_completion, once per qmat) gives F = sum d_i
    y_i^2, y_i = c_i + shift_i + sum_(j>i) u_ij (c_j + shift_j).  Level i
    gets a scale m_i making t_i = m_i y_i = m_i c_i + C_i integral (C_i is
    integral in the c_j, j > i) and a weight w_i = G d_i / m_i^2, integral
    for one denominator G.  So G F = sum w_i t_i^2, and |t_i| <= isqrt(R //
    w_i) is exact for the budget R left.

    With 2 shift integral, c -> -c - 2 shift maps the search set onto itself
    and every t_i to -t_i, keeping F.  So only t >= 0 is searched: a t > 0
    stands for its mirror too and counts twice, and a branch with t = 0 is
    itself symmetric and is halved one level down (a leaf t = 0 counts once)."""
    n = len(qmat)
    if not n:
        return 1, Counter({0: 1})
    nums, dens, diag = _square_completion(tuple(map(tuple, qmat)))
    shift_den = lcm(*(x.denominator for x in shift))
    s = [x.numerator * (shift_den // x.denominator) for x in shift]  # shift_den * shift
    m, a, c0, scaled = [], [], [], []
    for i, (num, den, d) in enumerate(zip(nums, dens, diag)):
        centre = Fraction(den * s[i] + sum(x * y for x, y in zip(num, s)), den * shift_den)
        mi = lcm(centre.denominator, den)
        m.append(mi)
        a.append([mi // den * x for x in num])
        c0.append(mi // centre.denominator * centre.numerator)
        scaled.append(d / (mi * mi))
    big_g = lcm(*(x.denominator for x in scaled))
    w = [int(big_g * x) for x in scaled]
    top, counts, chosen = big_g * bound, Counter(), [0] * n

    def recurse(i: int, budget: int, centre: int, mult: int) -> None:
        # mult == 0: the branch is closed under t -> -t, so only t >= 0 is visited
        mi, wi = m[i], w[i]
        s = isqrt(budget // wi)
        lo, hi = -((s + centre) // mi), (s - centre) // mi
        if not mult:
            lo = max(lo, -(centre // mi))
        if not i:
            base = top - budget
            for t in range(mi * lo + centre, mi * hi + centre + 1, mi):
                counts[base + wi * t * t] += mult or 1 + (t != 0)
            return
        # C_(i-1) = below + a[i-1][i] c_i for every c_i of this level
        below = c0[i - 1] + sum(a[i - 1][j] * chosen[j] for j in range(i + 1, n))
        for c_i in range(lo, hi + 1):
            t = mi * c_i + centre
            chosen[i] = c_i
            recurse(i - 1, budget - wi * t * t, below + a[i - 1][i] * c_i, mult or 2 * (t != 0))

    recurse(n - 1, top, c0[n - 1], 0 if all((2 * x).denominator == 1 for x in shift) else 1)
    return big_g, counts


def theta_q_expansion(gram, subgroup_elements, coefficients: dict[Element, int], precision: int) -> list[int]:
    """Fourier coefficients c(0..precision) of sum_gamma v_gamma theta_gamma
    at z = 0, for the overlattice M generated by L and the given classes.

    Coefficient keys are classes of L'/L lying in M'/L.  The vectors of norm
    at most precision in each coset are counted in a basis of M by exact
    integer enumeration (_enumerate_norms), so no count depends on a
    rounded range.  -gamma + M is the negation of gamma + M and has the same
    counts, so v_gamma and v_-gamma are summed and the pair is searched once.
    """
    check_theta_precision(precision)
    form = from_gram(gram)
    if form.lattice is None:
        raise ValueError("gram construction did not record lattice data")
    n = len(gram)
    lifts = [form.lattice.lift(form.normalize(el)) for el in subgroup_elements]
    denom = lcm(1, *(x.denominator for vec in lifts for x in vec))
    rows = [[denom * (i == j) for j in range(n)] for i in range(n)] + [[int(x * denom) for x in vec] for vec in lifts]
    basis = row_lattice_basis(rows, n)  # basis of denom * M
    binv = rational_inverse(basis)
    binv_den = lcm(*(x.denominator for row in binv for x in row))
    binv_cols = [[int(row[b] * binv_den) for row in binv] for b in range(n)]  # binv_den * binv, by column
    bg = [[sum(map(mul, row, col)) for col in zip(*gram)] for row in basis]
    qmat = [[sum(map(mul, row, other)) for other in basis] for row in bg]  # (B G) B^T
    paired = Counter()  # -gamma + M has the counts of gamma + M
    for el, v in coefficients.items():
        el = form.normalize(el)
        paired[min(el, form.neg(el))] += v
    out = [0] * (precision + 1)
    for el, v in paired.items():
        if v == 0:
            continue
        x = form.lattice.lift(el)
        x_den = lcm(*(c.denominator for c in x))
        x = [int(c * x_den) for c in x]
        shift = [Fraction(denom * sum(map(mul, x, col)), x_den * binv_den) for col in binv_cols]
        big_g, counts = _enumerate_norms(qmat, shift, 2 * precision * denom * denom)
        step = 2 * big_g * denom * denom  # G F = step * (norm of the vector in M')
        for norm, count in counts.items():
            if norm % step == 0:
                out[norm // step] += v * count
    return out


# ---------------------------------------------------------------------------
# Theta series of Jacobi basis entries as level-one modular forms
# ---------------------------------------------------------------------------


def _dim_level_one(k: int) -> int:
    """dim M_k(SL2(Z)) for an integer weight k >= 0; 0 for odd k and k = 2."""
    if k % 2 or k == 2:
        return 0
    return k // 12 + (k % 12 != 2)


@cache
def _level_one_basis(k: int, precision: int) -> tuple[tuple[int, ...], ...]:
    """The triangular basis E4^a E6^b Delta^j (4a + 6b + 12j = k, j < dim
    M_k) of M_k(SL2(Z)), each q^j + O(q^(j+1)), as integer coefficients
    c(0..precision): E4 = 1 + 240 sum sigma_3(n) q^n, E6 = 1 - 504 sum
    sigma_5(n) q^n and Delta = (E4^3 - E6^2) / 1728."""

    def eisenstein(r: int, scale: int) -> list[int]:
        sigma = [0] * (precision + 1)
        for d in range(1, precision + 1):
            for n in range(d, precision + 1, d):
                sigma[n] += d**r
        return [1] + [scale * x for x in sigma[1:]]

    def times(f: list[int], g: list[int]) -> list[int]:
        return [sum(f[i] * g[n - i] for i in range(n + 1)) for n in range(precision + 1)]

    def power(f: list[int], e: int) -> list[int]:
        out = [1] + [0] * precision
        for _ in range(e):
            out = times(out, f)
        return out

    e4, e6 = eisenstein(3, 240), eisenstein(5, -504)
    delta = [(x - y) // 1728 for x, y in zip(power(e4, 3), times(e6, e6))]
    basis = []
    for j in range(_dim_level_one(k)):
        b = (k - 12 * j) % 4 // 2  # k - 12j is 0 or at least 4, never 2
        a = (k - 12 * j - 6 * b) // 4
        basis.append(tuple(times(times(power(e4, a), power(e6, b)), power(delta, j))))
    return tuple(basis)


def jacobi_theta(gram, entry: JacobiBasisEntry, precision: int) -> list[int]:
    """Fourier coefficients c(0..precision) of the theta series of one entry
    of jacobi_singular_basis(gram), read from M_k(SL2(Z)), k = n/2.

    The entry's lift is an invariant, so its theta series is phi(tau, 0) for
    a singular-weight Jacobi form phi (Skoruppa), a level-one modular form of
    weight k, and a form in M_k is fixed by its first d = dim M_k
    coefficients.  Only c(0..d) are enumerated (theta_q_expansion, the
    oracle, at precision min(precision, d)); c(0..d-1) are written in the
    basis of _level_one_basis by forward substitution in integers, which
    gives every further coefficient.  The enumerated c(d) must equal the
    predicted one.  For odd k and for k = 2, d = 0: c(0) must be 0, and so
    is every coefficient.
    """
    check_theta_precision(precision)
    k = entry.rank // 2
    d = _dim_level_one(k)
    low = theta_q_expansion(gram, list(entry.subgroup.elements), entry.coefficients, min(precision, d))
    if precision < d:
        return low
    out = [0] * (precision + 1)
    for j, form in enumerate(_level_one_basis(k, precision)):
        x = low[j] - out[j]
        out = [y + x * z for y, z in zip(out, form)]
    if out[d] != low[d]:
        raise InternalInconsistency(
            f"theta modularity check: c({d}) is {low[d]} by enumeration but {out[d]} in M_{k}(SL2(Z))"
        )
    return out
