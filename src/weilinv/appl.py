"""Applications: weight-2 cusp form dimensions at prime level, and singular
weight Jacobi form bases from lattice data.

The cusp-form count follows the standard fixed-point dimension formula for
a finite-image representation, evaluated on the subrepresentation spanned
by e^gamma + e^(-gamma); every trace is computed exactly and the result
must come out an integer.  The Jacobi basis enumerates overlattices whose
dual quotients have fundamental p-parts and attaches the product of the
fundamental generators, mapped through theta functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import cyclo
from .arith import factorize, frac1
from .cyclo import Cyclo, e_of, sqrt_int
from .fqm import (
    BoundExceeded,
    DiscriminantForm,
    Element,
    InternalInconsistency,
    JordanSymbol,
    from_gram,
    from_jordan_symbol,
    trivial_form,
)
from .fundamental import (
    fundamental_form,
    is_fundamental_quotient,
    integer_normalize,
    tensor_combine,
    _generic_generator,
)
from .induct import IsotropicSubgroup, isotropic_subgroups, lift_up, quotient
from .intmat import rational_inverse, row_lattice_basis
from .weil import GroupAlgebraVector, Vec, dim_invariants


# ---------------------------------------------------------------------------
# Weight-2 cusp forms for prime-level forms of even rank
# ---------------------------------------------------------------------------


def _parse_prime_even(symbol) -> tuple[DiscriminantForm, int, int, int]:
    if isinstance(symbol, str):
        symbol = JordanSymbol.parse(symbol)
    if len(symbol.components) != 1:
        raise ValueError("expected a single component of prime level")
    comp = symbol.components[0]
    if comp.level != comp.p:
        raise ValueError("expected prime level")
    if comp.n % 2:
        raise ValueError("only even rank is supported")
    return from_jordan_symbol(symbol), comp.p, comp.n, comp.sign


def dim_s2(symbol) -> int:
    """Closed form for dim S_2 of a form of prime level p and even rank;
    zero for p <= 3 (no cusp forms of weight 2 at those levels)."""
    _, p, n, eps = _parse_prime_even(symbol)
    if p <= 3:
        return 0
    from .arith import legendre

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
    scalar = e_of(Fraction(form.signature(), 8)) / sqrt_int(form.order)
    reps = [el for el in form.elements() if el <= form.neg(el)]
    d = len(reps)

    def w(beta: Element) -> Cyclo:
        two_q = frac1(2 * form.q(beta))
        if form.smul(2, beta) == form.zero():
            return e_of(two_q)
        return e_of(two_q) + e_of(-two_q)

    tr_s_raw = cyclo.ZERO
    tr_st_raw = cyclo.ZERO
    alpha_t = Fraction(0)
    iso_classes = 0
    for beta in reps:
        wb = w(beta)
        tr_s_raw = tr_s_raw + wb
        tr_st_raw = tr_st_raw + e_of(-form.q(beta)) * wb
        alpha_t += frac1(-form.q(beta))
        if form.q(beta) == 0:
            iso_classes += 1
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

    Empty for odd rank.  Each generator comes from an overlattice M with
    every p-part of M'/M fundamental, carrying the product of the
    fundamental invariants.
    """
    n = len(gram)
    if n % 2:
        return []
    form = from_gram(gram)
    level = form.level()
    primes = sorted(factorize(level)) if level > 1 else []
    descs = {}
    for p, part, _ in form.p_part_decompose():
        descs[p] = fundamental_form(p, part.square_class(), part.signature())
        if descs[p] is None:
            return []
    target = 1
    for p in descs:
        target *= descs[p].realize().order
    out = []
    for sub in isotropic_subgroups(form):
        if sub.order**2 * target != form.order:
            continue
        qf = quotient(form, sub)
        q_parts = qf.form.p_part_decompose()
        parts_by_prime = {p: part for p, part, _ in q_parts}
        if not all(is_fundamental_quotient(parts_by_prime.get(p, trivial_form()), desc) for p, desc in descs.items()):
            continue
        part_data = [(part, emb, [_generic_generator(part, descs[p].kind)]) for p, part, emb in q_parts]
        if part_data:
            vecs = tensor_combine(part_data)
            if len(vecs) != 1:
                raise InternalInconsistency("expected a single product invariant")
            v_q = integer_normalize(vecs[0])
        else:
            v_q = Vec.basis(qf.form, qf.form.zero())
        lifted = lift_up(qf, v_q)
        coeffs = {}
        for qel, c in v_q.coeffs.items():
            r = cyclo.as_rational(c)
            coeffs[qf.section[qel]] = int(r)
        out.append(JacobiBasisEntry(sub, coeffs, n, Fraction(n, 2), lifted))
    return out


# ---------------------------------------------------------------------------
# Theta q-expansions by bounded lattice enumeration
# ---------------------------------------------------------------------------


def _square_completion(q: list[list[Fraction]]):
    """Diagonalize a positive-definite rational form: F(t) = sum d_i
    (t_i + sum_(j>i) u_ij t_j)^2."""
    n = len(q)
    q = [[Fraction(x) for x in row] for row in q]
    d = [Fraction(0)] * n
    u = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = q[i][i]
        if d[i] <= 0:
            raise ValueError("form is not positive definite")
        for j in range(i + 1, n):
            u[i][j] = q[i][j] / d[i]
        for j in range(i + 1, n):
            for k in range(j, n):
                q[j][k] -= d[i] * u[i][j] * u[i][k]
    return d, u


def _enumerate_norms(qmat: list[list[int]], shift: list[Fraction], bound: Fraction) -> dict[Fraction, int]:
    """Count integer vectors c with F(c + shift) <= bound for the positive
    definite form F given by qmat, grouped by exact value of F."""
    n = len(qmat)
    d, u = _square_completion([[Fraction(x) for x in row] for row in qmat])
    counts: dict[Fraction, int] = {}
    chosen = [0] * n

    def recurse(i: int, remaining: Fraction, partial: Fraction) -> None:
        if i < 0:
            counts[partial] = counts.get(partial, 0) + 1
            return
        center = shift[i]
        for j in range(i + 1, n):
            center += u[i][j] * (chosen[j] + shift[j])
        # integer range for c_i: d_i (c_i + center)^2 <= remaining
        approx = float(remaining / d[i]) ** 0.5
        lo = int(-float(center) - approx) - 2
        hi = int(-float(center) + approx) + 2
        for c_i in range(lo, hi + 1):
            val = d[i] * (c_i + center) ** 2
            if val <= remaining:
                chosen[i] = c_i
                recurse(i - 1, remaining - val, partial + val)
        chosen[i] = 0

    recurse(n - 1, bound, Fraction(0))
    return counts


def theta_q_expansion(gram, subgroup_elements, coefficients: dict[Element, int], precision: int) -> list[int]:
    """Fourier coefficients c(0..precision) of sum_gamma v_gamma theta_gamma
    at z = 0, for the overlattice M generated by L and the given classes.

    Coefficient keys are classes of L'/L lying in M'/L; counts come from
    exact enumeration of lattice vectors of each norm.
    """
    if precision < 0 or precision > 50:
        raise BoundExceeded("precision out of the supported range 0..50")
    form = from_gram(gram)
    if form.lattice is None:
        raise ValueError("gram construction did not record lattice data")
    n = len(gram)
    lifts = [form.lattice.lift(form.normalize(el)) for el in subgroup_elements]
    denom = 1
    for vec in lifts:
        for x in vec:
            denom = denom * x.denominator // gcd(denom, x.denominator)
    rows = [[denom if i == j else 0 for j in range(n)] for i in range(n)]
    for vec in lifts:
        rows.append([int(x * denom) for x in vec])
    basis = row_lattice_basis(rows, n)  # basis of denom * M
    binv = rational_inverse(basis)
    qmat = [
        [sum(basis[i][a] * gram[a][b] * basis[j][b] for a in range(n) for b in range(n)) for j in range(n)]
        for i in range(n)
    ]
    out = [0] * (precision + 1)
    bound = Fraction(2 * precision * denom * denom)
    for el, v in coefficients.items():
        if v == 0:
            continue
        x = form.lattice.lift(form.normalize(el))
        shift = [sum(denom * x[a] * binv[a][b] for a in range(n)) for b in range(n)]
        for norm, count in _enumerate_norms(qmat, shift, bound).items():
            scaled = norm / (2 * denom * denom)
            if scaled.denominator == 1 and scaled <= precision:
                out[int(scaled)] += v * count
    return out
