"""The five fundamental discriminant forms, their one-dimensional invariant
spaces, and the construction of all invariants by isotropic induction.

For each prime p, square class x and even signature s there is at most one
fundamental form: the smallest p-adic discriminant form with that data and
a non-trivial invariant.  Every invariant of a p-power-level form is a
linear combination of lifts of the fundamental generator along isotropic
subgroups H with H-perp/H isomorphic to the fundamental form; composite
levels reduce to the p-parts by a tensor decomposition.  fundamental_lifts
is the one enumeration of those H, at any level (every p-part of H-perp/H
fundamental): induced_generating_set lifts them to C[D], and the Jacobi
application in appl reads them as overlattices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod

from . import cyclo
from .arith import legendre, prime_power
from .cyclo import Cyclo
from .fqm import (
    DiscriminantForm,
    Element,
    InternalInconsistency,
    from_jordan_symbol,
    trivial_form,
)
from .induct import QuotientForm, isotropic_subgroups, lift_up, quotient
from .weil import GroupAlgebraVector, Vec, dim_invariants, inv


@dataclass(frozen=True)
class FundamentalDescriptor:
    prime: int
    square_class: str  # "square" | "non-square"
    signature: int  # mod 8, even
    symbol: str
    kind: str  # trivial | odd-four | odd-three | two-even-four | two-four | two-eight

    def realize(self) -> DiscriminantForm:
        return from_jordan_symbol(self.symbol)


@dataclass
class FundamentalInvariant:
    descriptor: FundamentalDescriptor
    vector: GroupAlgebraVector  # primitive integer coefficients
    plus_set: tuple[Element, ...] | None
    minus_set: tuple[Element, ...] | None


def fundamental_form(p: int, square_class: str, signature: int) -> FundamentalDescriptor | None:
    """Table lookup: the fundamental form for (p, x, s), or None when the
    combination is not realized by any p-adic form."""
    s = signature % 8
    if s % 2:
        return None
    if square_class not in ("square", "non-square"):
        raise ValueError(f"unknown square class {square_class!r}")
    if p == 2:
        if square_class == "square":
            if s == 0:
                return FundamentalDescriptor(2, square_class, 0, "", "trivial")
            if s == 4:
                return FundamentalDescriptor(2, square_class, 4, "2_II^-4", "two-even-four")
            return FundamentalDescriptor(2, square_class, s, f"2_{s}^+2.4_II^+2", "two-four")
        t = (s - 1) % 8
        eps = "+" if t % 8 in (1, 7) else "-"
        return FundamentalDescriptor(2, square_class, s, f"2_1^+1.4_{t}^{eps}1.8_II^+2", "two-eight")
    if prime_power(p) != (p, 1):
        raise ValueError(f"{p} is not a prime")
    if square_class == "square":
        if s == 0:
            return FundamentalDescriptor(p, square_class, 0, "", "trivial")
        if s == 4:
            return FundamentalDescriptor(p, square_class, 4, f"{p}^-4", "odd-four")
        return None
    for eps in (1, -1):
        sym = f"{p}^{'+' if eps > 0 else '-'}3"
        if from_jordan_symbol(sym).signature() == s:
            return FundamentalDescriptor(p, square_class, s, sym, "odd-three")
    return None


def is_fundamental_quotient(candidate: DiscriminantForm, desc: FundamentalDescriptor | None) -> bool:
    """Recognize the fundamental form from (order, level, exponent,
    signature); these data characterize it among prime-power-level forms."""
    if desc is None:
        return False
    level = candidate.level()
    if level > 1 and prime_power(level) is None:
        raise ValueError("recognition requires prime-power level")
    ref = desc.realize()
    return (
        candidate.order == ref.order
        and level == ref.level()
        and candidate.exponent() == ref.exponent()
        and candidate.signature() == ref.signature()
    )


# ---------------------------------------------------------------------------
# Integer normalization of invariant vectors
# ---------------------------------------------------------------------------


def integer_normalize(v: GroupAlgebraVector) -> GroupAlgebraVector:
    """Scale to coprime integer coefficients with the lex-least nonzero
    coefficient positive; requires all coefficients rational."""
    if v.is_zero():
        return v
    vals: dict[Element, Fraction] = {}
    for el, c in v.coeffs.items():
        r = cyclo.as_rational(c)
        if r is None:
            raise ValueError(f"coefficient at {el} is irrational: {c}")
        vals[el] = r
    denom = lcm(*(r.denominator for r in vals.values()))
    ints = {el: int(r * denom) for el, r in vals.items()}
    g = gcd(*ints.values())
    ints = {el: x // g for el, x in ints.items()}
    if ints[min(ints)] < 0:
        ints = {el: -x for el, x in ints.items()}
    return GroupAlgebraVector(v.form, {el: Cyclo.rational(x) for el, x in ints.items()})


def _generic_generator(form: DiscriminantForm, kind: str) -> GroupAlgebraVector:
    """Span of the invariants via a single projection, no isomorphism used."""
    if kind in ("trivial", "odd-four", "two-even-four"):
        gamma = form.zero()
    else:
        level = form.level()
        candidates = [g for g in form.isotropic_elements() if form.element_order(g) == level]
        if not candidates:
            raise InternalInconsistency("no isotropic element of full level")
        gamma = min(candidates)
    v = inv(form, gamma)
    if v.is_zero():
        raise InternalInconsistency("fundamental projection vanished; dimension is not 1")
    return integer_normalize(v)


# ---------------------------------------------------------------------------
# Explicit generators with their plus/minus supports
# ---------------------------------------------------------------------------


def _plus_minus_odd_three(form: DiscriminantForm, eps: int, p: int):
    iso = [g for g in form.isotropic_elements() if g != form.zero()]
    gamma = min(iso)
    vareps = eps * legendre(2, p)
    plus, minus = [], []
    multiples = {form.smul(j, gamma) for j in range(1, p)}
    for mu in iso:
        if mu in multiples:
            continue
        j = int(form.b(mu, gamma) * p) % p
        if j == 0:
            raise InternalInconsistency("unexpected isotropic element orthogonal to gamma")
        (plus if vareps * form.chi(j) > 0 else minus).append(mu)
    for j in range(1, p):
        (plus if form.chi(j) > 0 else minus).append(form.smul(j, gamma))
    return gamma, tuple(sorted(plus)), tuple(sorted(minus))


def _plus_minus_two_four(form: DiscriminantForm, t: int):
    iso = form.isotropic_elements()
    i2 = {g for g in iso if form.smul(2, g) == form.zero()}
    gamma = min(g for g in iso if g not in i2)
    star = set(form.coset_dcstar(2))
    pair = sorted(mu for mu in iso if form.sub(mu, gamma) in star)
    if len(pair) != 2:
        raise InternalInconsistency("M(gamma)_2 does not have two elements")
    alpha = next(mu for mu in pair if form.q_c(2, form.sub(mu, gamma)) == 0)
    vareps = 1 if t % 8 == 6 else -1
    j_plus = next(j for j in (1, 3) if vareps * form.chi(j) > 0)
    plus = [mu for mu in iso if mu not in i2 and form.b(mu, gamma) == Fraction(j_plus, 4)]
    plus += [alpha, gamma]
    minus = sorted(set(iso) - i2 - set(plus))
    return gamma, tuple(sorted(plus)), tuple(minus)


def _plus_minus_two_eight(form: DiscriminantForm, t: int):
    gamma = (0, 0, 1, 0)
    alpha1 = (1, 2, 1, 2)
    alpha2 = (1, 0, 1, 6)
    alpha = (0, 2, 1, 4)
    iso = form.isotropic_elements()
    i4 = {g for g in iso if form.smul(4, g) == form.zero()}
    for el, j in ((gamma, 0), (alpha1, 2), (alpha2, 6), (alpha, 4)):
        if form.q(el) != 0 or el in i4 or form.b(el, gamma) != Fraction(j, 8) % 1:
            raise InternalInconsistency(f"element {el} is not in M(gamma)_{j}")
    vareps = 1 if t % 8 in (5, 7) else -1
    plus, minus = set(), set()
    for j in (1, 3, 5, 7):
        bucket = plus if vareps * form.chi(j) > 0 else minus
        bucket.update(mu for mu in iso if mu not in i4 and form.b(mu, gamma) == Fraction(j, 8))
        special = plus if form.chi(j) > 0 else minus
        special.update(form.smul(j, el) for el in (alpha1, alpha2, alpha, gamma))
    if plus & minus:
        raise InternalInconsistency("plus and minus supports overlap")
    return gamma, tuple(sorted(plus)), tuple(sorted(minus))


def fundamental_invariant(desc: FundamentalDescriptor) -> FundamentalInvariant:
    """The generator of the (one-dimensional) invariant space, in integer
    form, together with its plus/minus support when the table gives one.

    The explicit support construction is cross-checked against the generic
    projection; they must agree up to global sign.
    """
    form = desc.realize()
    if dim_invariants(form) != 1:
        raise InternalInconsistency(f"{desc.symbol}: invariant space is not one-dimensional")
    generic = _generic_generator(form, desc.kind)
    if desc.kind == "trivial":
        return FundamentalInvariant(desc, generic, None, None)
    if desc.kind in ("odd-four", "two-even-four"):
        p = desc.prime
        level = form.level()
        m_set = [g for g in form.isotropic_elements() if form.element_order(g) == level]
        expected = Vec(form, {form.zero(): Cyclo.rational(p - 1)})
        for mu in m_set:
            expected = expected + Vec(form, {mu: Cyclo.rational(-1)})
        if generic != integer_normalize(expected):
            raise InternalInconsistency(f"{desc.symbol}: generator differs from its table form")
        return FundamentalInvariant(desc, generic, None, None)
    if desc.kind == "odd-three":
        comp = form.symbol.components[0]
        gamma, plus, minus = _plus_minus_odd_three(form, comp.sign, desc.prime)
    elif desc.kind == "two-four":
        gamma, plus, minus = _plus_minus_two_four(form, desc.signature)
    else:
        t = (desc.signature - 1) % 8
        gamma, plus, minus = _plus_minus_two_eight(form, t)
    explicit = Vec(
        form,
        {**{mu: cyclo.ONE for mu in plus}, **{mu: Cyclo.rational(-1) for mu in minus}},
    )
    if not (generic == explicit or generic == explicit.scale(-1)):
        raise InternalInconsistency(f"{desc.symbol}: explicit generator is not proportional to inv")
    return FundamentalInvariant(desc, explicit, plus, minus)


# ---------------------------------------------------------------------------
# The generating set of all invariants
# ---------------------------------------------------------------------------


def tensor_combine(parts) -> list[GroupAlgebraVector]:
    """Products of one basis vector per p-part, re-indexed along the
    embeddings; parts is a list of (part_form, embedding, basis).

    The rank of the output equals the product of the part ranks.
    """
    if not parts:
        return []
    parent = parts[0][1].parent
    out = []
    for combo in product(*(basis for _, _, basis in parts)):
        coeffs: dict[Element, Cyclo] = {}
        for support in product(*(v.coeffs.items() for v in combo)):
            el = parent.zero()
            val = cyclo.ONE
            for (part_el, c), (_, emb, _) in zip(support, parts):
                el = parent.add(el, emb.apply(part_el))
                val = val * c
            coeffs[el] = coeffs.get(el, cyclo.ZERO) + val
        out.append(GroupAlgebraVector(parent, coeffs))
    return out


def fundamental_lifts(form: DiscriminantForm) -> list[tuple[QuotientForm, GroupAlgebraVector]]:
    """(H-perp/H, v) for every isotropic subgroup H whose quotient has, as
    each p-part, the fundamental form of that p-part of D; v is the product
    of the fundamental generators of the quotient's p-parts, normalized to
    integers (e^0 for a trivial quotient).  Empty when some p-part of D has
    no fundamental form.  Read as overlattices, these are the Jacobi forms
    of singular weight."""
    descs = {}
    for p, part, _ in form.p_part_decompose():
        descs[p] = fundamental_form(p, part.square_class(), part.signature())
        if descs[p] is None:
            return []
    target = prod(desc.realize().order for desc in descs.values())
    out = []
    for sub in isotropic_subgroups(form):
        if sub.order**2 * target != form.order:
            continue
        qf = quotient(form, sub)
        q_parts = qf.form.p_part_decompose()
        by_prime = {p: part for p, part, _ in q_parts}
        if not all(is_fundamental_quotient(by_prime.get(p, trivial_form()), desc) for p, desc in descs.items()):
            continue
        if not q_parts:
            out.append((qf, Vec.basis(qf.form, qf.form.zero())))
            continue
        vecs = tensor_combine([(part, emb, [_generic_generator(part, descs[p].kind)]) for p, part, emb in q_parts])
        if len(vecs) != 1:
            raise InternalInconsistency("expected a single product invariant")
        out.append((qf, integer_normalize(vecs[0])))
    return out


def induced_generating_set(form: DiscriminantForm) -> list[GroupAlgebraVector]:
    """Lifts of the fundamental generator along every isotropic subgroup H
    whose quotient H-perp/H is the fundamental form of (x, s); the returned
    vectors span the entire invariant space (verified by rank elsewhere)."""
    if form.signature() % 2:
        return []
    if form.level() == 1:
        return [Vec.basis(form, form.zero())]
    if prime_power(form.level()) is None:
        raise ValueError("prime-power level required; decompose composite forms first")
    return [lift_up(qf, v) for qf, v in fundamental_lifts(form)]


def invariant_generators(form: DiscriminantForm) -> list[GroupAlgebraVector]:
    """Generating set of C[D]^Gamma for arbitrary level: fundamental lifts
    on each p-part, tensored together; memoized per form, returned as a new
    list."""
    if form.signature() % 2:
        return []
    form.elements()  # the order bound, checked before the memo is read

    def build():
        if form.level() == 1 or prime_power(form.level()):
            return induced_generating_set(form)
        return tensor_combine([(part, emb, induced_generating_set(part)) for _, part, emb in form.p_part_decompose()])

    return list(form.memo("generators", build))
