"""Exact matrix utilities: the one field elimination routine (Echelon), Smith
normal form with V^-1, triangular lattice bases and integer coordinates in them."""

from __future__ import annotations

from fractions import Fraction


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(a: list[list[int]]) -> tuple[list[list[int]], ...]:
    """Return (U, S, V, V^-1) with U*A*V = S diagonal, U and V unimodular.

    The diagonal is normalized so each entry is non-negative and divides
    the next.  V^-1 undoes each column operation as a row operation: a swap
    swaps rows, col_dst += f col_src becomes row_src -= f row_dst.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    s = [row[:] for row in a]
    u = _identity(rows)
    v = _identity(cols)
    v_inv = _identity(cols)

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in s:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]
        v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    def add_row(src, dst, f):
        s[dst] = [x + f * y for x, y in zip(s[dst], s[src])]
        u[dst] = [x + f * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, f):
        for r in s:
            r[dst] += f * r[src]
        for r in v:
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
            u[i] = [-x for x in u[i]]
    return u, s, v, v_inv


class Echelon:
    """Incremental reduced row echelon form over an exact field.

    Rows are sparse maps column -> value with Fraction or Cyclo entries.
    ``rows`` maps each pivot column to its stored row, which is 1 at the
    pivot and 0 at every other pivot column.
    """

    def __init__(self):
        self.rows: dict = {}

    def add(self, row: dict) -> bool:
        """Store the part of row outside the current span; False if none."""
        row = {col: x for col, x in row.items() if x}
        for p in [p for p in row if p in self.rows]:
            _sub_multiple(row, row[p], self.rows[p])
        if not row:
            return False
        pivot = min(row)
        scale = 1 / row[pivot]
        row = {col: x * scale for col, x in row.items()}
        for other in self.rows.values():
            if pivot in other:
                _sub_multiple(other, other[pivot], row)
        self.rows[pivot] = row
        return True


def _sub_multiple(row: dict, f, other: dict) -> None:
    """row -= f * other, in place, dropping entries that vanish."""
    for col, x in other.items():
        val = row.get(col, 0) - f * x
        if val:
            row[col] = val
        else:
            row.pop(col, None)


def rational_inverse(m: list[list[int]]) -> list[list[Fraction]]:
    """Inverse of a non-singular integer matrix over Q."""
    n = len(m)
    ech = Echelon()
    for i, row in enumerate(m):
        ech.add({j: Fraction(x) for j, x in enumerate(row)} | {n + i: Fraction(1)})
    if sorted(ech.rows) != list(range(n)):
        raise ValueError("singular matrix")
    return [[ech.rows[i].get(n + j, Fraction(0)) for j in range(n)] for i in range(n)]


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
