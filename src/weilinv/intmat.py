"""Exact matrix utilities: the one elimination routine (Echelon), fraction-free
on integer rows and over the field otherwise; Smith normal form with V^-1;
triangular lattice bases and integer coordinates in them."""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def smith_normal_form(a: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Return (S, V^-1) with U*A*V = S diagonal for some unimodular U and V,
    so that A and S*V^-1 span the same row lattice.

    The diagonal is normalized so each entry is non-negative and divides
    the next.  V^-1 undoes each column operation as a row operation: a swap
    swaps rows, col_dst += f col_src becomes row_src -= f row_dst.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    s = [row[:] for row in a]
    v_inv = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]

    def swap_cols(i, j):
        for r in s:
            r[i], r[j] = r[j], r[i]
        v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    def add_row(src, dst, f):
        s[dst] = [x + f * y for x, y in zip(s[dst], s[src])]

    def add_col(src, dst, f):
        for r in s:
            r[dst] += f * r[src]
        v_inv[src] = [x - f * y for x, y in zip(v_inv[src], v_inv[dst])]

    t = 0
    while t < min(rows, cols):
        # move a non-zero pivot to (t, t)
        piv = None
        for i in range(t, rows):
            for j in range(t, cols):
                if s[i][j]:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            done = True
            for i in range(t + 1, rows):
                if s[i][t]:
                    q = s[i][t] // s[t][t]
                    add_row(t, i, -q)
                    if s[i][t]:
                        swap_rows(t, i)
                        done = False
            for j in range(t + 1, cols):
                if s[t][j]:
                    q = s[t][j] // s[t][t]
                    add_col(t, j, -q)
                    if s[t][j]:
                        swap_cols(t, j)
                        done = False
            if done:
                break
        # pivot must divide the rest of the block
        fixed = True
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if s[i][j] % s[t][t]:
                    add_row(i, t, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            t += 1
    for i in range(min(rows, cols)):
        if s[i][i] < 0:
            s[i] = [-x for x in s[i]]
    return s, v_inv


class Echelon:
    """Incremental reduced row echelon form over Q or Q(zeta_N).

    Rows are sparse maps column -> value.  ``rows`` maps each pivot column
    to its stored row, which is 0 at every other pivot column.  A row of
    ints is eliminated fraction-free (Bareiss, Math. Comp. 22, 1968) and
    stored primitive, its entries divided by their gcd and its pivot
    positive: the reduced row over Q times its pivot entry.  A row with
    Fraction or Cyclo entries is stored with 1 at its pivot.  One Echelon
    takes rows of one kind.
    """

    def __init__(self):
        self.rows: dict = {}

    def add(self, row: dict) -> bool:
        """Store the part of row outside the current span; False if none."""
        row = {col: x for col, x in row.items() if x}
        for p in [p for p in row if p in self.rows]:
            row = _clear(row, p, self.rows[p])
        if not row:
            return False
        pivot = min(row)
        lead = row[pivot]
        integral = type(lead) is int
        if integral:
            row = _primitive(row, lead)
        else:
            scale = 1 / lead
            row = {col: x * scale for col, x in row.items()}
        for q, other in self.rows.items():
            if pivot in other:
                other = _clear(other, pivot, row)
                self.rows[q] = _primitive(other, other[q]) if integral else other
        self.rows[pivot] = row
        return True


def _clear(row: dict, p, stored: dict) -> dict:
    """a * row - b * stored, which is 0 at p: for an integer stored row
    a = stored[p] / g and b = row[p] / g with g their gcd, else a = 1 and
    b = row[p], stored being 1 at p.  Entries that vanish are dropped; row
    may be changed in place."""
    s, b = stored[p], row[p]
    if type(s) is int:
        g = gcd(s, b)
        a, b = s // g, b // g
        if a != 1:
            row = {col: a * x for col, x in row.items()}
    for col, x in stored.items():
        val = row.get(col, 0) - b * x
        if val:
            row[col] = val
        else:
            row.pop(col, None)
    return row


def _primitive(row: dict, lead: int) -> dict:
    """An integer row divided by the gcd of its entries, signed so that the
    entry lead becomes positive."""
    g = gcd(*row.values())
    if lead < 0:
        g = -g
    return row if g == 1 else {col: x // g for col, x in row.items()}


def rational_inverse(m: list[list[int]]) -> list[list[Fraction]]:
    """Inverse of a non-singular integer matrix over Q.  The rows [M_i | e_i]
    are eliminated in integers; row i of the inverse is the right half of
    the stored row with pivot i over its pivot entry."""
    n = len(m)
    ech = Echelon()
    for i, row in enumerate(m):
        ech.add(dict(enumerate(row)) | {n + i: 1})
    if sorted(ech.rows) != list(range(n)):
        raise ValueError("singular matrix")
    return [[Fraction(r.get(n + j, 0), r[i]) for j in range(n)] for i, r in sorted(ech.rows.items())]


def row_lattice_basis(rows: list[list[int]], n: int) -> list[list[int]]:
    """Basis (as rows) of the lattice in Z^n spanned by the given rows.

    The input must span a full-rank sublattice.  Computed by column-style
    Hermite reduction via repeated gcd elimination; the basis is upper
    triangular with a positive diagonal.
    """
    work = [row[:] for row in rows if any(row)]
    basis: list[list[int]] = []
    for col in range(n):
        # eliminate column col; rows cleared in this column wait for later columns
        pending = [r for r in work if r[col]]
        rest = [r for r in work if not r[col]]
        while len(pending) > 1:
            pending.sort(key=lambda r: abs(r[col]))
            a = pending[0]
            new_pending = [a]
            for b in pending[1:]:
                q = b[col] // a[col]
                nb = [x - q * y for x, y in zip(b, a)]
                if nb[col]:
                    new_pending.append(nb)
                elif any(nb):
                    rest.append(nb)
            pending = new_pending
        if not pending:
            raise ValueError("rows do not span a full-rank lattice")
        pivot = pending[0]
        if pivot[col] < 0:
            pivot = [-x for x in pivot]
        basis.append(pivot)
        work = rest
    return basis


def lattice_coordinates(basis: list[list[int]], row: list[int]) -> list[int]:
    """The integer x with x * basis = row, for a square upper-triangular
    basis with non-zero diagonal (as from row_lattice_basis), by
    back-substitution with divmod; ValueError when row is not in the lattice.
    Step i clears entry i of the rest, so a zero remainder at every step
    leaves no residue."""
    x, rest = [], list(row)
    for i, b in enumerate(basis):
        c, r = divmod(rest[i], b[i])
        if r:
            raise ValueError("row is not in the lattice")
        rest = [y - c * z for y, z in zip(rest, b)]
        x.append(c)
    return x
