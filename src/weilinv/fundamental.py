"""The five fundamental discriminant forms, their one-dimensional invariant
spaces, and the construction of all invariants by isotropic induction.

For each prime p, square class x and even signature s there is at most one
fundamental form F: the smallest p-adic discriminant form with that data and
a non-trivial invariant.  Every invariant of a p-power-level form D is a
linear combination of lifts of the generator of F along the isotropic
subgroups H of order sqrt(|D| / |F|) with H-perp/H isomorphic to F;
composite levels reduce to the p-parts by a tensor decomposition.

The lifts are built on D itself, for every kind.  H-perp/H is recognized by
its exponent (element orders modulo H) and its level (q on H-perp), as order
and signature are fixed, and the lifted generator is a closed integer map
on D, one value per coset of H, read off b and H: 1_H (trivial),
p 1_H - 1_{iso(H-perp)} (odd-four, two-even-four), and +-1 supports around
an isotropic gamma of H-perp outside H (odd-three, two-four, two-eight).
Realizing H-perp/H (induct.quotient) and lifting its cusp-route generator
is left to the tests as an oracle.  The lifts of each p-part pass one
batched weil.check_invariant_basis and are memoized with it.
fundamental_lifts is the one enumeration, at any level, memoized per form;
at composite level it makes one tensor_combine call over the p-parts' lifts.
invariant_generators reads its vectors, fundamental_invariant reads F's one
lift (H = 0), and the Jacobi application in appl reads its subgroups as
overlattices.

The projection onto the invariants is read off the lifts: rho is unitary,
so inv = B (B^T B)^-1 B^T for any basis B of C[D]^G, and B is picked from
the generators by the rows of their matrix at the isotropic elements.
invariant_projection and invariant_basis share one memoized projector per
form; weil.inv, the average over the cusps, is the reference they are
compared with, in the tests and once per form by the CLI's verify.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product
from math import gcd, isqrt, lcm
from operator import mul

from . import cyclo
from .arith import legendre, prime_power
from .cyclo import Cyclo
from .fqm import DiscriminantForm, Element, InternalInconsistency, from_jordan_symbol
from .induct import IsotropicSubgroup, isotropic_subgroups, make_isotropic_subgroup
from .intmat import Echelon, rational_inverse
from .weil import GroupAlgebraVector, Vec, check_invariant_basis, dim_invariants


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


def _integer_map(v: GroupAlgebraVector, failure: str) -> dict[Element, int]:
    """v scaled to an integer map element -> int (cyclo.integer_multiple); an
    irrational coefficient c at el raises "{failure} {c} at {el} is irrational"."""
    ints = cyclo.integer_multiple(v.coeffs)
    if ints is None:
        el, c = next((el, c) for el, c in v.coeffs.items() if cyclo.as_rational(c) is None)
        raise InternalInconsistency(f"{failure} {c} at {list(el)} is irrational")
    return ints


def integer_coefficients(v: GroupAlgebraVector) -> dict[Element, int]:
    """The coefficients of v scaled to coprime integers, as a map element ->
    int, with the lex-least nonzero coefficient positive; an irrational
    coefficient fails the integer normalization check."""
    if v.is_zero():
        return {}
    ints = _integer_map(v, "integer normalization check: coefficient")
    g = gcd(*ints.values())
    if ints[min(ints)] < 0:
        g = -g
    return {el: x // g for el, x in ints.items()}


def _vec(form: DiscriminantForm, ints: dict[Element, int]) -> GroupAlgebraVector:
    return GroupAlgebraVector(form, {el: Cyclo.rational(x) for el, x in ints.items()})


# ---------------------------------------------------------------------------
# Lifted generators in closed form: integer maps on D for one isotropic H
# ---------------------------------------------------------------------------


def _first(kind: str, what: str, items):
    """The first of items; none means an element the lift rules expect is missing."""
    for x in items:
        return x
    raise InternalInconsistency(f"{kind} lift check: no {what}")


def _pairing(form: DiscriminantForm, x: Element, m: int):
    """y -> m b(x, y) mod m, for the y with m b(x, y) integral."""
    row, n = form.b_row(x), form.level()
    return lambda y: sum(map(mul, row, y)) % n // (n // m)


def _table_lift(form: DiscriminantForm, sub: IsotropicSubgroup, iso_perp: list[Element], desc) -> dict[Element, int]:
    """odd-four and two-even-four: the table vector p e^0 minus every
    isotropic element of F (all of them of full level), lifted to
    p 1_H - 1_{iso(H-perp)}."""
    out = dict.fromkeys(iso_perp, -1)
    out.update(dict.fromkeys(sub.elements, desc.prime - 1))
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
    gamma = _first("odd-three", "isotropic element outside H", (x for x in iso_perp if x not in h_set))
    multiples = {form.add(form.smul(j, gamma), h): j for j in range(1, p) for h in sub.elements}
    by_gamma = _pairing(form, gamma, p)
    out = {}
    for mu in iso_perp:
        if mu in multiples:
            out[mu] = chi[multiples[mu]]
        elif mu not in h_set:
            j = by_gamma(mu)
            if not j:
                raise InternalInconsistency("odd-three lift check: an isotropic element orthogonal to gamma")
            out[mu] = vareps * chi[j]
    return out


def _base_points(kind: str, form: DiscriminantForm, sub: IsotropicSubgroup, iso_perp: list[Element], m: int):
    """H as a set; the support, the isotropic mu of H-perp with (m/2) mu
    outside H; and mu -> m b(gamma, mu) and m b(x0, mu), for gamma the least
    element of the support (of order m modulo H) and x0 the least isotropic
    element of H-perp with b(x0, gamma) = 1/m."""
    h_set = set(sub.elements)
    support = [mu for mu in iso_perp if form.smul(m // 2, mu) not in h_set]
    gamma = _first(kind, f"isotropic element of order {m} modulo H", support)
    by_gamma = _pairing(form, gamma, m)
    x0 = _first(kind, f"x0 with b(x0, gamma) = 1/{m}", (x for x in iso_perp if by_gamma(x) == 1))
    return h_set, support, gamma, by_gamma, _pairing(form, x0, m)


def _two_four_lift(form: DiscriminantForm, sub: IsotropicSubgroup, iso_perp: list[Element], desc) -> dict[Element, int]:
    """two-four, F = 2_t^+2.4_II^+2, m = 4 in _base_points: mu gets +1 for
    b(mu, gamma) = j/4 with eps chi(j) > 0, j in {1, 3} and eps = +1 iff
    t = 6, and -1 otherwise, but the cosets of gamma and alpha get +1:
    alpha has 2 alpha = 2 gamma mod H, b(alpha, gamma) = 1/2 and
    b(x0, alpha) = 1/4."""
    h_set, support, gamma, by_gamma, by_x0 = _base_points("two-four", form, sub, iso_perp, 4)
    chi, eps, two_gamma = desc.realize().chi, 1 if desc.signature == 6 else -1, form.smul(2, gamma)
    j_plus = _first("two-four", "j with eps chi(j) > 0", (j for j in (1, 3) if eps * chi(j) > 0))
    pair = (mu for mu in support if by_gamma(mu) == 2 and form.sub(form.smul(2, mu), two_gamma) in h_set)
    alpha = _first("two-four", "alpha", (mu for mu in pair if by_x0(mu) == 1))
    plus = {form.add(x, h) for x in (gamma, alpha) for h in sub.elements}
    return {mu: 1 if mu in plus or by_gamma(mu) == j_plus else -1 for mu in support}


def _two_eight_lift(form: DiscriminantForm, sub: IsotropicSubgroup, iso_perp: list[Element], desc) -> dict[Element, int]:
    """two-eight, F = 2_1^+1.4_t^(+-1).8_II^+2, m = 8 in _base_points: for
    k = 8 b(mu, gamma), mu gets eps chi(k) for odd k, eps = +1 iff t is 5 or
    7, and chi(8 b(x0, mu)) for k = 2 or 6; the cosets of j gamma and
    j alpha, j odd, get chi(j), where alpha = gamma + a1 - a2 for a1 the
    least k = 2 element of value +1 and a2 the least k = 6 element of value
    +1 that is no odd multiple of a1 modulo H."""
    h_set, support, gamma, by_gamma, by_x0 = _base_points("two-eight", form, sub, iso_perp, 8)
    ref = desc.realize()
    chi, eps = {j: ref.chi(j) for j in (1, 3, 5, 7)}, 1 if (desc.signature - 1) % 8 in (5, 7) else -1
    out = {}
    for mu in support:
        k = by_gamma(mu)
        if k % 2:
            out[mu] = eps * chi[k]
        elif k in (2, 6):
            out[mu] = chi.get(by_x0(mu))
            if out[mu] is None:
                raise InternalInconsistency(f"two-eight lift check: b(x0, {list(mu)}) is not an odd multiple of 1/8")
    a1 = _first("two-eight", "a1", (mu for mu, x in out.items() if by_gamma(mu) == 2 and x == 1))
    a1_multiples = {form.add(form.smul(j, a1), h) for j in chi for h in sub.elements}
    a2 = _first("two-eight", "a2", (mu for mu, x in out.items() if by_gamma(mu) == 6 and x == 1 and mu not in a1_multiples))
    alpha = form.sub(form.add(gamma, a1), a2)
    out.update((form.add(form.smul(j, x), h), chi[j]) for j in chi for x in (gamma, alpha) for h in sub.elements)
    return out


def _closed_lift(form: DiscriminantForm, sub: IsotropicSubgroup, desc, iso: set[Element]) -> dict[Element, int]:
    """The lifted generator along H; iso is the set of isotropic elements of
    D.  trivial: H-perp = H, and e^0 lifts to 1_H."""
    if desc.kind == "trivial":
        return dict.fromkeys(sub.elements, 1)
    lift = {"odd-three": _chi_lift, "two-four": _two_four_lift, "two-eight": _two_eight_lift}.get(desc.kind, _table_lift)
    return lift(form, sub, [x for x in sub.perp if x in iso], desc)


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
        lifts = [
            (sub, _closed_lift(part, sub, desc, iso))
            for sub in isotropic_subgroups(part, h_order)
            if _quotient_exponent_and_level(part, sub, desc.prime) == data
        ]
        check_invariant_basis(part, [v for _, v in lifts])
        return [(sub, _vec(part, v)) for sub, v in lifts]

    return part.memo("fundamental_lifts", build)


# ---------------------------------------------------------------------------
# Explicit generators with their plus/minus supports
# ---------------------------------------------------------------------------


def fundamental_invariant(desc: FundamentalDescriptor) -> FundamentalInvariant:
    """The generator of the (one-dimensional) invariant space, in integer
    form, together with its plus/minus support when the table gives one.

    The generator is F's one lift, along H = 0 (_part_lifts, which checks
    it invariant and shares its memo with fundamental_lifts on F).  As the
    invariant space is one dimensional, it spans the space once it is
    nonzero.
    """
    form = desc.realize()
    if dim_invariants(form) != 1:
        raise InternalInconsistency(f"{desc.symbol}: invariant space is not one-dimensional")
    ((_, explicit),) = _part_lifts(form, desc)
    if explicit.is_zero():
        raise InternalInconsistency(f"{desc.symbol}: the explicit generator vanished")
    if desc.kind not in ("odd-three", "two-four", "two-eight"):
        return FundamentalInvariant(desc, explicit, None, None)
    positive = {el: cyclo.as_rational(c) > 0 for el, c in explicit.coeffs.items()}
    plus = tuple(sorted(el for el, pos in positive.items() if pos))
    minus = tuple(sorted(el for el, pos in positive.items() if not pos))
    return FundamentalInvariant(desc, explicit, plus, minus)


# ---------------------------------------------------------------------------
# The generating set of all invariants
# ---------------------------------------------------------------------------


def tensor_combine(parts) -> list[GroupAlgebraVector]:
    """Products of one basis vector per p-part, re-indexed along the
    embeddings, in the order of itertools.product over the bases; parts is
    a list of (part_form, embedding, basis).

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
    primitive integer coefficients (1_H for a trivial quotient).  Empty when
    some p-part of D has no fundamental form.  At composite level H and v
    are the direct sums and the products (one tensor_combine call) of the
    p-parts' lifts, in the order of their product over the p-parts; each
    p-part's lifts are sorted by the elements of H.  Memoized per form,
    returned as a new list.  Read as overlattices, these are the Jacobi
    forms of singular weight."""
    form.elements()  # the order bound, checked before any memo is read
    parts = []
    for p, part, emb in form.p_part_decompose():
        desc = fundamental_form(p, part.square_class(), part.signature())
        if desc is None:
            return []
        if part is form:
            return list(_part_lifts(form, desc))
        parts.append((part, emb, _part_lifts(part, desc)))
    if not parts:  # |D| = 1
        return [(make_isotropic_subgroup(form, ()), Vec.basis(form, form.zero()))]

    def build():
        vectors = tensor_combine([(part, emb, [v for _, v in lifts]) for part, emb, lifts in parts])
        combos = product(*(lifts for _, _, lifts in parts))
        subs = (_direct_sum(form, [(emb, h) for (_, emb, _), (h, _) in zip(parts, combo)]) for combo in combos)
        return list(zip(subs, vectors))

    return list(form.memo("fundamental_lifts", build))


def invariant_generators(form: DiscriminantForm) -> list[GroupAlgebraVector]:
    """Generating set of C[D]^Gamma at any level: the vectors of
    fundamental_lifts, in its order; empty for odd signature."""
    if form.signature() % 2:
        return []
    return [v for _, v in fundamental_lifts(form)]


# ---------------------------------------------------------------------------
# The projection onto the invariants
# ---------------------------------------------------------------------------


def _projector(form: DiscriminantForm):
    """(picks, B, A, den), memoized per form.  The picks are the first
    isotropic gammas whose rows M[gamma] of the generator matrix M are
    independent, eliminated over Q; B is the dim generators at the pivot
    columns of those rows, scaled to integer maps element -> int and checked
    to be fixed by rho, so a basis of C[D]^G.  With inv = M (M^* M)^+ M^*,
    inv(e^gamma) is new exactly when the row M[gamma] is, so the picks are
    those of the greedy loop over every inv(e^gamma).  Each generator is
    scaled to integers first: that scales the columns of M, keeps which rows
    are independent, and lets Echelon eliminate fraction-free.  A / den is
    (B^T B)^-1, A an integer matrix."""
    dim = dim_invariants(form)  # the bounds, checked before the memo is read

    def build():
        gens = invariant_generators(form) if dim else []
        gens = [_integer_map(g, "basis rank check: generator coefficient") for g in gens]
        rows, picked = Echelon(), []
        for gamma in form.isotropic_elements():
            if len(picked) == dim:
                break
            if rows.add({j: g[gamma] for j, g in enumerate(gens) if gamma in g}):
                picked.append(gamma)
        if len(picked) != dim:
            raise InternalInconsistency("basis rank check: the projection basis has the wrong rank")
        basis = [gens[j] for j in sorted(rows.rows)]
        check_invariant_basis(form, basis)
        gram = [[sum(x * b[el] for el, x in a.items() if el in b) for b in basis] for a in basis]
        inverse = rational_inverse(gram)
        den = lcm(*(x.denominator for row in inverse for x in row))
        return picked, basis, [[int(x * den) for x in row] for row in inverse], den

    return form.memo("projector", build)


def _project(basis, adj, col) -> dict:
    """sum_i (A col)_i b_i, a map element -> number, for col = B^T v; ints
    stay ints, and Cyclo values work alike."""
    out: dict = {}
    for row, b in zip(adj, basis):
        if y := sum(map(mul, row, col)):
            for el, x in b.items():
                out[el] = out.get(el, 0) + y * x
    return {el: x for el, x in out.items() if x}


def invariant_projection(form: DiscriminantForm, v) -> GroupAlgebraVector:
    """inv(v), v a vector or an element (for e^v): B (B^T B)^-1 B^T v, the
    orthogonal projection onto C[D]^G, as rho is unitary.  Zero for odd
    signature.  weil.inv is the cusp-route reference, which verify reads.
    A v with rational coefficients is projected in ints, scaled to integers
    (cyclo.integer_multiple) and divided once at the end, with one Cyclo
    per distinct coefficient; any other v is projected in Cyclo."""
    if isinstance(v, tuple):
        v = Vec.basis(form, v)
    _, basis, adj, den = _projector(form)
    ints = cyclo.integer_multiple(v.coeffs)
    if ints is None:
        col = [sum((c * b[el] for el, c in v.coeffs.items() if el in b), cyclo.ZERO) for b in basis]
        return Vec(form, {el: x / den for el, x in _project(basis, adj, col).items()})
    scale = den * lcm(*(c.den for c in v.coeffs.values()))
    value = cache(lambda x: Cyclo(1, [x], scale))  # Cyclo is immutable, so a value is shared
    col = [sum(x * b[el] for el, x in ints.items() if el in b) for b in basis]
    return Vec(form, {el: value(x) for el, x in _project(basis, adj, col).items()})


def invariant_basis(form: DiscriminantForm) -> list[tuple[Element, GroupAlgebraVector]]:
    """(gamma, inv(e^gamma)) for the picks of the projector, in element
    order: a basis of C[D]^G.  Each image is projected in ints, over the
    common denominator den.  The images are independent when their
    coordinates at the picks are: a dependency among the images is one among
    those rows, which are eliminated in ints."""
    picked, basis, adj, den = _projector(form)
    images, rows = [_project(basis, adj, [b.get(gamma, 0) for b in basis]) for gamma in picked], Echelon()
    if not all(rows.add({j: v[g] for j, g in enumerate(picked) if g in v}) for v in images):
        raise InternalInconsistency("basis rank check: the projection basis has the wrong rank")
    return [(gamma, Vec(form, {el: Cyclo(1, [x], den) for el, x in v.items()})) for gamma, v in zip(picked, images)]
