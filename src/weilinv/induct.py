"""Isotropic subgroups, the quotient form on H-perp/H, and the lift/descend
maps between C[H-perp/H] and C[D].

The lift sends e^(gamma+H) to the sum of e^(gamma+mu) over mu in H; the
descend kills everything outside H-perp and projects the rest.  Both maps
commute with the Weil representations and with the invariant projections,
and are adjoint to each other for the standard inner products.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from math import gcd
from operator import mul

from .fqm import DiscriminantForm, Element, InternalInconsistency
from .intmat import lattice_coordinates, row_lattice_basis, smith_normal_form
from .weil import GroupAlgebraVector, Vec


@dataclass(frozen=True)
class IsotropicSubgroup:
    """A subgroup of D on which q vanishes identically."""

    parent: DiscriminantForm
    generators: tuple[Element, ...]
    elements: tuple[Element, ...]
    perp: tuple[Element, ...] = field(compare=False)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"IsotropicSubgroup(order={self.order}, generators={list(self.generators)})"


def _extend(form: DiscriminantForm, sub: IsotropicSubgroup, h: Element, seen=(), same=None) -> IsotropicSubgroup | None:
    """H + <h> from H = sub: its elements are the cosets j h + H, j = 0, 1, ...
    up to the first j h in H, and its H-perp is sub.perp cut by b(h, .) = 0;
    None when its element set is in seen.  The elements that generate the
    same extension of H, the cosets j h + H with j prime to the index, are
    added to the set same when one is given."""
    members, cosets, jh = set(sub.elements), [], h
    while jh not in members:
        cosets.append([form.add(jh, x) for x in sub.elements])
        jh = form.add(jh, h)
    if same is not None:
        for j, coset in enumerate(cosets, 1):
            if gcd(j, len(cosets) + 1) == 1:
                same.update(coset)
    els = tuple(sorted(chain(sub.elements, *cosets)))
    if els in seen:
        return None
    row, n = form.b_row(h), form.level()
    perp = tuple(x for x in sub.perp if sum(map(mul, row, x)) % n == 0)
    if len(perp) * len(els) != form.order:
        raise InternalInconsistency("|H| * |H-perp| != |D|")
    return IsotropicSubgroup(form, sub.generators + (h,), els, perp)


def make_isotropic_subgroup(form: DiscriminantForm, gens) -> IsotropicSubgroup:
    gens = tuple(form.normalize(g) for g in gens)
    sub = IsotropicSubgroup(form, (), (form.zero(),), tuple(form.elements()))
    for g in gens:
        sub = _extend(form, sub, g)
    for el in sub.elements:
        if form.q(el) != 0:
            raise ValueError(f"subgroup generated by {gens} is not isotropic at {el}")
    return sub


def isotropic_subgroups(form: DiscriminantForm, order: int | None = None) -> list[IsotropicSubgroup]:
    """All isotropic subgroups of D, each listed once, sorted by (order,
    elements); with order given, only those of that order.

    Breadth-first: extend each subgroup H of the last round by every
    isotropic h in H-perp (forced by q(h+k) = q(h) + q(k) + b(h,k)), in
    element order; an extension whose element set was found before is
    dropped, and an h that generates an extension of H already built is
    skipped, as its extension would be dropped.  Under the order cut only
    subgroups whose order divides it are kept, and those of that order are
    not extended: every subgroup of a kept one is itself kept, so each kept
    subgroup is found in the same round from the same parent, with the same
    generators, as without the cut.
    """
    iso = set(form.isotropic_elements())
    zero_sub = make_isotropic_subgroup(form, ())
    found: dict[tuple[Element, ...], IsotropicSubgroup] = {zero_sub.elements: zero_sub}
    frontier = [zero_sub] if order != 1 else []
    while frontier:
        nxt = []
        for sub in frontier:
            same = set(sub.elements)
            for h in sub.perp:
                new = _extend(form, sub, h, found, same) if h in iso and h not in same else None
                if new is not None and (order is None or order % new.order == 0):
                    found[new.elements] = new
                    if new.order != order:
                        nxt.append(new)
        frontier = nxt
    subs = found.values() if order is None else [s for s in found.values() if s.order == order]
    return sorted(subs, key=lambda s: (s.order, s.elements))


@dataclass
class QuotientForm:
    """H-perp/H as a discriminant form, with a fixed section into D."""

    parent: DiscriminantForm
    subgroup: IsotropicSubgroup
    form: DiscriminantForm
    section: dict[Element, Element]  # quotient element -> lex-least coset rep
    projection: dict[Element, Element]  # element of H-perp -> quotient element


def quotient(form: DiscriminantForm, subgroup: IsotropicSubgroup) -> QuotientForm:
    """Realize H-perp/H with its own generators via Smith normal form.

    H-perp and H are lifted to full-rank integer lattices in Z^k (k the
    number of generators of D), spanned by the elements of H-perp and by
    the generators of H, each with the diagonal of the generator orders.
    H's Hermite basis is written in the triangular H-perp basis by integer
    back-substitution; the Smith form of those coordinates gives the
    generator orders, and the rows of V^-1 times the H-perp basis give the
    generators.  All lattice arithmetic is in integers.
    """
    k = form.rank
    perp = subgroup.perp
    if k == 0:
        return QuotientForm(form, subgroup, form, {(): ()}, {(): ()})
    diagonal = [[form.orders[i] if i == j else 0 for j in range(k)] for i in range(k)]
    basis_perp = row_lattice_basis([list(el) for el in perp] + diagonal, k)
    basis_h = row_lattice_basis([list(el) for el in subgroup.generators] + diagonal, k)
    try:
        coords = [lattice_coordinates(basis_perp, row) for row in basis_h]
    except ValueError:
        raise InternalInconsistency("H lattice is not inside the H-perp lattice") from None
    _, s, _, v_inv = smith_normal_form(coords)
    picks = [j for j in range(k) if s[j][j] > 1]
    orders = [s[j][j] for j in picks]
    gens = [form.normalize([sum(v_inv[j][a] * basis_perp[a][b] for a in range(k)) for b in range(k)]) for j in picks]
    qf = form.subform(orders, gens)
    if qf.order * subgroup.order**2 != form.order:
        raise InternalInconsistency("|H-perp/H| != |D| / |H|^2")
    section: dict[Element, Element] = {}
    projection: dict[Element, Element] = {}
    h_els = subgroup.elements
    for qel in qf.elements():
        rep = form.zero()
        for a, g in zip(qel, gens):
            if a:
                rep = form.add(rep, form.smul(a, g))
        coset = sorted(form.add(rep, h) for h in h_els)
        section[qel] = coset[0]
        for el in coset:
            if el in projection:
                raise InternalInconsistency("cosets of H in H-perp overlap")
            projection[el] = qel
    if len(projection) != len(perp):
        raise InternalInconsistency("cosets do not cover H-perp")
    for qel in qf.elements():  # q values compared as integers over the two levels
        if qf.q_int(qel) * form.level() != form.q_int(section[qel]) * qf.level():
            raise InternalInconsistency("quotient form does not restrict q correctly")
    return QuotientForm(form, subgroup, qf, section, projection)


def lift_up(qf: QuotientForm, v: GroupAlgebraVector) -> GroupAlgebraVector:
    """C[H-perp/H] -> C[D]: e^(gamma+H) goes to the sum over the coset."""
    if v.form is not qf.form:
        raise ValueError("vector does not live on the quotient form")
    parent = qf.parent
    out: dict[Element, object] = {}
    for qel, c in v.coeffs.items():
        rep = qf.section[qel]
        for h in qf.subgroup.elements:
            out[parent.add(rep, h)] = c
    return GroupAlgebraVector(parent, out)


def descend(qf: QuotientForm, v: GroupAlgebraVector) -> GroupAlgebraVector:
    """C[D] -> C[H-perp/H]: kill the complement of H-perp, project the rest."""
    if v.form is not qf.parent:
        raise ValueError("vector does not live on the parent form")
    out: dict[Element, object] = {}
    for el, c in v.coeffs.items():
        qel = qf.projection.get(el)
        if qel is not None:
            out[qel] = out[qel] + c if qel in out else c
    return GroupAlgebraVector(qf.form, out)
