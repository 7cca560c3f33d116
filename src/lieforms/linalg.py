"""Exact linear algebra over a field.

Matrices are lists of row lists whose entries come from one field object
(anything with zero()/one() and exact element arithmetic).  Elimination is
Gaussian with division, driven by supports: a row update touches only the
columns where the pivot row is nonzero, and products skip zero entries.
Pivots are chosen as the first nonzero entry scanning columns left to
right and rows top down, ties to the lowest row index, so every result is
deterministic.  _SparseReducer keeps sparse {column: value} rows echelonized.
"""

from __future__ import annotations

from .errors import SingularMatrixError


def _sub_scaled(acc: dict, f, row: dict, skip=None) -> None:
    """acc -= f * row over sparse {index: coeff} dicts, leaving out index
    skip and dropping the entries that cancel."""
    for k, v in row.items():
        if k == skip:
            continue
        cur = acc.get(k)
        nv = -(f * v) if cur is None else cur - f * v
        if nv.is_zero():
            acc.pop(k, None)
        else:
            acc[k] = nv


class _SparseReducer:
    """Online echelon form over sparse rows keyed by column index."""

    def __init__(self, field):
        self.field = field
        self.pivots: dict = {}

    def add(self, row: dict) -> bool:
        work = {c: v for c, v in row.items() if not v.is_zero()}
        while work:
            c = min(work)
            piv = self.pivots.get(c)
            if piv is None:
                if len(work) == 1:
                    self.pivots[c] = {c: self.field.one()}
                else:
                    inv = work[c].inverse()
                    self.pivots[c] = {k: inv * v for k, v in work.items()}
                return True
            _sub_scaled(work, work.pop(c), piv, c)
        return False

    def reduce_fully(self) -> None:
        """Eliminate pivot columns from all rows (descending pivot order)."""
        for c in sorted(self.pivots, reverse=True):
            row = self.pivots[c]
            others = [k for k in row if k != c and k in self.pivots]
            for k in others:
                f = row.pop(k, None)
                if f is None or f.is_zero():
                    continue
                _sub_scaled(row, f, self.pivots[k], k)

    def nullspace(self, ncols: int) -> list:
        """The reduced echelon nullspace basis, one sparse vector per free
        column in ascending order, built in one pass over the nonzeros of
        the pivot rows."""
        self.reduce_fully()
        one = self.field.one()
        out = {free: {free: one} for free in range(ncols)
               if free not in self.pivots}
        for c, row in self.pivots.items():
            for free, coef in row.items():
                vec = out.get(free)
                if vec is not None and not coef.is_zero():
                    vec[c] = -coef
        return list(out.values())


def identity_matrix(field, n: int):
    z, o = field.zero(), field.one()
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def mat_mul(A, B, field):
    n, k = len(A), len(B)
    m = len(B[0]) if B else 0
    z = field.zero()
    out = []
    for i in range(n):
        row = []
        Ai = A[i]
        for j in range(m):
            acc = z
            for t in range(k):
                a = Ai[t]
                if not a.is_zero():
                    acc = acc + a * B[t][j]
            row.append(acc)
        out.append(row)
    return out


def mat_vec(A, v, field):
    z = field.zero()
    out = []
    for row in A:
        acc = z
        for a, x in zip(row, v):
            if not a.is_zero() and not x.is_zero():
                acc = acc + a * x
        out.append(acc)
    return out


def transpose(A):
    return [list(col) for col in zip(*A)]


def rref(rows, field):
    """Reduced row echelon form.

    Returns (reduced nonzero rows, pivot column indices).
    """
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for col in range(ncols):
        sel = None
        for row in range(r, len(m)):
            if not m[row][col].is_zero():
                sel = row
                break
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        pivot_row = m[r]
        # rows r and below are zero left of col, so the support starts there
        support = [c for c in range(col, ncols) if not pivot_row[c].is_zero()]
        inv = field.one() / pivot_row[col]
        for c in support:
            pivot_row[c] = pivot_row[c] * inv
        for row in range(len(m)):
            target = m[row]
            if row != r and not target[col].is_zero():
                f = target[col]
                for c in support:
                    target[c] = target[c] - f * pivot_row[c]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(rows, field) -> int:
    """The rank of a list of rows, by forward elimination of their nonzeros."""
    red = _SparseReducer(field)
    return sum(red.add(dict(enumerate(row))) for row in rows)


def solve(A, b, field):
    """One exact solution of A x = b, or None (free variables set to zero)."""
    if not A:
        return [] if all(c.is_zero() for c in b) else None
    ncols = len(A[0])
    aug = [list(row) + [bi] for row, bi in zip(A, b)]
    red, pivots = rref(aug, field)
    if ncols in pivots:
        return None
    x = [field.zero()] * ncols
    for row, col in zip(red, pivots):
        x[col] = row[-1]
    return x


def nullspace(A, field):
    """Basis of the right nullspace of A (list of coordinate vectors)."""
    if not A:
        return []
    ncols = len(A[0])
    red, pivots = rref(A, field)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [field.zero()] * ncols
        v[free] = field.one()
        for row, col in zip(red, pivots):
            v[col] = -row[free]
        basis.append(v)
    return basis


def inverse(A, field):
    n = len(A)
    aug = [list(row) + ident_row
           for row, ident_row in zip(A, identity_matrix(field, n))]
    red, pivots = rref(aug, field)
    if len(red) < n or pivots[:n] != list(range(n)):
        raise SingularMatrixError("matrix is not invertible")
    return [row[n:] for row in red]


def det(A, field):
    n = len(A)
    if n == 0:
        return field.one()
    m = [list(r) for r in A]
    sign_flip = False
    acc = field.one()
    for col in range(n):
        sel = None
        for row in range(col, n):
            if not m[row][col].is_zero():
                sel = row
                break
        if sel is None:
            return field.zero()
        if sel != col:
            m[col], m[sel] = m[sel], m[col]
            sign_flip = not sign_flip
        acc = acc * m[col][col]
        inv = field.one() / m[col][col]
        for row in range(col + 1, n):
            if not m[row][col].is_zero():
                f = m[row][col] * inv
                m[row] = [a - f * b for a, b in zip(m[row], m[col])]
    return -acc if sign_flip else acc


def express_in_rows(rows, pivots, v, field):
    """Coordinates of v in a row-reduced basis, or None if outside the span.

    rows/pivots must come from rref; reduced rows make this a direct read.
    """
    residual = list(v)
    coords = []
    for row, col in zip(rows, pivots):
        c = residual[col]
        coords.append(c)
        if not c.is_zero():
            residual = [a - c * b for a, b in zip(residual, row)]
    if any(not c.is_zero() for c in residual):
        return None
    return coords
