"""The five fundamental discriminant forms, their one-dimensional invariant
spaces, and the construction of all invariants by isotropic induction.

For each prime p, square class x and even signature s there is at most one
fundamental form F: the smallest p-adic discriminant form with that data and
a non-trivial invariant.  Every invariant of a p-power-level form D is a
linear combination of lifts of the generator of F along the isotropic
subgroups H of order sqrt(|D| / |F|) with H-perp/H isomorphic to F;
composite levels reduce to the p-parts by a tensor decomposition.

The lifts are built on D itself.  For the trivial, odd-four, two-even-four
and odd-three kinds H-perp/H is recognized by its exponent (element orders
modulo H) and its level (q on H-perp), as order and signature are fixed,
and the lifted generator is a closed integer map on D: 1_H (trivial),
p 1_H - 1_{iso(H-perp)} (odd-four, two-even-four), and the +-chi support
around an isotropic gamma of H-perp outside H (odd-three).  The two-four
and two-eight kinds still realize H-perp/H (induct.quotient) and lift its
cusp-route generator.  The lifts of each p-part pass one batched
weil.check_invariant_basis and are memoized with it.  fundamental_lifts is
the one enumeration, at any level: induced_generating_set reads its
vectors, and the Jacobi application in appl reads its subgroups as
overlattices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, isqrt, lcm
from operator import mul

from . import cyclo
from .arith import legendre, prime_power
from .cyclo import Cyclo
from .fqm import (
    DiscriminantForm,
    Element,
    InternalInconsistency,
    from_jordan_symbol,
)
from .induct import IsotropicSubgroup, isotropic_subgroups, lift_up, make_isotropic_subgroup, quotient
from .weil import GroupAlgebraVector, Vec, check_invariant_basis, dim_invariants, inv


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
    coefficient positive; an irrational coefficient fails the integer
    normalization check."""
    if v.is_zero():
        return v
    vals: dict[Element, Fraction] = {}
    for el, c in v.coeffs.items():
        r = cyclo.as_rational(c)
        if r is None:
            raise InternalInconsistency(f"integer normalization check: coefficient {c} at {list(el)} is irrational")
        vals[el] = r
    denom = lcm(*(r.denominator for r in vals.values()))
    ints = {el: int(r * denom) for el, r in vals.items()}
    g = gcd(*ints.values())
    ints = {el: x // g for el, x in ints.items()}
    if ints[min(ints)] < 0:
        ints = {el: -x for el, x in ints.items()}
    return _vec(v.form, ints)


def _vec(form: DiscriminantForm, ints: dict[Element, int]) -> GroupAlgebraVector:
    return GroupAlgebraVector(form, {el: Cyclo.rational(x) for el, x in ints.items()})


def _generic_generator(form: DiscriminantForm, kind: str) -> GroupAlgebraVector:
    """Span of the invariants via a single cusp-route projection, no
    isomorphism used."""
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
# Lifted generators in closed form: integer maps on D for one isotropic H
# ---------------------------------------------------------------------------


def _table_lift(sub: IsotropicSubgroup, iso_perp: list[Element], p: int) -> dict[Element, int]:
    """odd-four and two-even-four: the table vector p e^0 minus every
    isotropic element of F (all of them of full level), lifted to
    p 1_H - 1_{iso(H-perp)}."""
    out = dict.fromkeys(iso_perp, -1)
    out.update(dict.fromkeys(sub.elements, p - 1))
    return out


def _chi_lift(form: DiscriminantForm, sub: IsotropicSubgroup, iso_perp: list[Element], desc) -> dict[Element, int]:
    """odd-three, F = p^(eps 3): gamma the least isotropic element of H-perp
    outside H; the coset of j gamma gets chi(j), any other isotropic coset mu
    gets eps (2/p) chi(j) for b(mu, gamma) = j/p (nonzero, as the isotropic
    elements of F orthogonal to gamma are its multiples)."""
    p, ref = desc.prime, desc.realize()
    chi = [0] + [ref.chi(j) for j in range(1, p)]
    vareps = ref.symbol.components[0].sign * legendre(2, p)
    h_set = set(sub.elements)
    gamma = next(x for x in iso_perp if x not in h_set)
    multiples = {form.add(form.smul(j, gamma), h): j for j in range(1, p) for h in sub.elements}
    row, n = form.b_row(gamma), form.level()
    out = {}
    for mu in iso_perp:
        if mu in h_set:
            continue
        j = multiples.get(mu)
        if j is not None:
            out[mu] = chi[j]
            continue
        r = sum(map(mul, row, mu)) % n  # n b(mu, gamma), a multiple of n/p as p gamma is in H
        if not r:
            raise InternalInconsistency("unexpected isotropic element orthogonal to gamma")
        out[mu] = vareps * chi[r * p // n]
    return out


def _closed_lift(form: DiscriminantForm, sub: IsotropicSubgroup, desc, iso: set[Element]) -> dict[Element, int]:
    """The lifted generator of a closed kind; iso is the set of isotropic
    elements of D.  trivial: H-perp = H, and e^0 lifts to 1_H."""
    if desc.kind == "trivial":
        return dict.fromkeys(sub.elements, 1)
    iso_perp = [x for x in sub.perp if x in iso]
    if desc.kind == "odd-three":
        return _chi_lift(form, sub, iso_perp, desc)
    return _table_lift(sub, iso_perp, desc.prime)


def _quotient_exponent_and_level(form: DiscriminantForm, sub: IsotropicSubgroup, p: int) -> tuple[int, int]:
    """Exponent and level of H-perp/H for a p-power form, read on D: the
    largest order of an element of H-perp modulo H, and the level of q on
    H-perp.  They divide the exponent and level of D, so each scan stops
    once it reaches D's value."""
    h_set, top = set(sub.elements), form.exponent()
    exponent = 1
    for x in sub.perp:
        if exponent == top:
            break
        while form.smul(exponent, x) not in h_set:
            exponent *= p
    n, q_values = form.level(), form.q_values()
    g = n
    for x in sub.perp:
        if g == 1:
            break
        g = gcd(g, q_values[form.index(x)])
    return exponent, n // g


CLOSED_KINDS = ("trivial", "odd-four", "odd-three", "two-even-four")


def _part_lifts(part: DiscriminantForm, desc: FundamentalDescriptor) -> list[tuple[IsotropicSubgroup, GroupAlgebraVector]]:
    """(H, lifted generator) on a p-power form for every isotropic H of the
    kept order with H-perp/H isomorphic to the fundamental form desc; the
    vectors pass one batched invariance check and are memoized with it."""

    def build():
        ref = desc.realize()
        square, rem = divmod(part.order, ref.order)
        h_order = isqrt(square)
        if rem or h_order * h_order != square:
            return []
        data, iso = (ref.exponent(), ref.level()), set(part.isotropic_elements())
        lifts = []
        for sub in isotropic_subgroups(part, h_order):
            if desc.kind in CLOSED_KINDS:
                if _quotient_exponent_and_level(part, sub, desc.prime) == data:
                    lifts.append((sub, _closed_lift(part, sub, desc, iso)))
                continue
            qf = quotient(part, sub)  # two-four and two-eight: the quotient route
            if is_fundamental_quotient(qf.form, desc):
                v = lift_up(qf, _generic_generator(qf.form, desc.kind))
                lifts.append((sub, {el: int(cyclo.as_rational(c)) for el, c in v.coeffs.items()}))
        check_invariant_basis(part, [v for _, v in lifts])
        return [(sub, _vec(part, v)) for sub, v in lifts]

    return part.memo("fundamental_lifts", build)


# ---------------------------------------------------------------------------
# Explicit generators with their plus/minus supports
# ---------------------------------------------------------------------------


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

    The closed builders run on F with H = 0 (two-four and two-eight have
    their own supports); the result is cross-checked against the generic
    cusp-route projection, up to global sign.
    """
    form = desc.realize()
    if dim_invariants(form) != 1:
        raise InternalInconsistency(f"{desc.symbol}: invariant space is not one-dimensional")
    generic = _generic_generator(form, desc.kind)
    if desc.kind in CLOSED_KINDS:
        ints = _closed_lift(form, make_isotropic_subgroup(form, ()), desc, set(form.isotropic_elements()))
    else:
        if desc.kind == "two-four":
            _, plus, minus = _plus_minus_two_four(form, desc.signature)
        else:
            _, plus, minus = _plus_minus_two_eight(form, (desc.signature - 1) % 8)
        ints = {**dict.fromkeys(plus, 1), **dict.fromkeys(minus, -1)}
    explicit = _vec(form, ints)
    if integer_normalize(explicit) != generic:
        raise InternalInconsistency(f"{desc.symbol}: explicit generator is not proportional to inv")
    if desc.kind not in ("odd-three", "two-four", "two-eight"):
        return FundamentalInvariant(desc, explicit, None, None)
    plus = tuple(sorted(el for el, x in ints.items() if x > 0))
    minus = tuple(sorted(el for el, x in ints.items() if x < 0))
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


def _direct_sum(form: DiscriminantForm, subs) -> IsotropicSubgroup:
    """The subgroup of D that is the sum of one isotropic subgroup per p-part,
    subs a list of (embedding, part subgroup); its perp is the sum of the
    parts' perps."""

    def total(sets):
        out = [form.zero()]
        for emb, els in sets:
            out = [form.add(x, emb.apply(y)) for x in out for y in els]
        return tuple(sorted(out))

    gens = tuple(emb.apply(g) for emb, sub in subs for g in sub.generators)
    return IsotropicSubgroup(
        form, gens, total((emb, sub.elements) for emb, sub in subs), total((emb, sub.perp) for emb, sub in subs)
    )


def fundamental_lifts(form: DiscriminantForm) -> list[tuple[IsotropicSubgroup, GroupAlgebraVector]]:
    """(H, v) for every isotropic subgroup H whose quotient H-perp/H has, as
    each p-part, the fundamental form of that p-part of D; v is the lift to
    C[D] of the product of the fundamental generators of those p-parts, with
    primitive integer coefficients (1_H for a trivial quotient).  Sorted by
    the elements of H.  Empty when some p-part of D has no fundamental form.
    At composite level H and v are the direct sums and products of the
    p-parts' lifts.  Read as overlattices, these are the Jacobi forms of
    singular weight."""
    form.elements()  # the order bound, checked before any memo is read
    parts = []
    for p, part, emb in form.p_part_decompose():
        desc = fundamental_form(p, part.square_class(), part.signature())
        if desc is None:
            return []
        parts.append((part, emb, _part_lifts(part, desc)))
    if not parts:  # |D| = 1
        return [(make_isotropic_subgroup(form, ()), Vec.basis(form, form.zero()))]
    if len(parts) == 1 and parts[0][0] is form:
        return list(parts[0][2])
    out = []
    for combo in product(*(lifts for _, _, lifts in parts)):
        sub = _direct_sum(form, [(emb, h) for (_, emb, _), (h, _) in zip(parts, combo)])
        (v,) = tensor_combine([(part, emb, [v]) for (part, emb, _), (_, v) in zip(parts, combo)])
        out.append((sub, v))
    return sorted(out, key=lambda lift: lift[0].elements)


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
    return [v for _, v in fundamental_lifts(form)]


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
