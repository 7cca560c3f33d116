"""Exact linear algebra over a field.

Every elimination here but det's runs on _SparseReducer, which keeps rows
as {column: value} dicts holding nonzero entries only: a row update costs
the nonzeros of the pivot row, and a row that arrives reduced, 1 at its
pivot, is kept without a product.  Each new row's pivot is its leftmost
nonzero column after reduction, so the reducer ends on the reduced row
echelon form of the span, which is unique: rref, nullspace and inverse
return the same entries whatever order the rows come in.  krylov_relation,
the one rule behind every minimal polynomial, runs on the same reducer:
tag columns record which vectors each kept row combines, and the first
row reduced to tags alone is a relation.  Row updates and sparse products
add each term in place with fields._addmul, which builds one element per
term on Q and quadratic levels.  Dense lists are only the edge, converted
by sparse() and dense(): the matrices callers pass in and the rows,
vectors and inverses they get back.  det eliminates densely on its own:
fields.factor takes field norms with it, and the Pfaffian tests take it
as the independent reference for Pf^2.
"""

from __future__ import annotations

from .errors import SingularMatrixError
from .fields import _addmul
from .polynomials import Polynomial


def _sub_scaled(acc: dict, f, row: dict, skip=None) -> None:
    """acc -= f * row over sparse {index: coeff} dicts, leaving out index
    skip and dropping the entries that cancel."""
    for k, v in row.items():
        if k != skip and _addmul(acc, k, f, v, True).is_zero():
            del acc[k]


class _SparseReducer:
    """Online echelon form over sparse rows keyed by column index."""

    def __init__(self, field):
        self.field = field
        self.pivots: dict = {}

    def add(self, row: dict) -> bool:
        """Reduce row, whose zero entries are dropped here, against the
        pivots and keep what is left as a new pivot row, scaled to 1 at
        its pivot unless it is 1 there already; False when nothing is
        left."""
        work = {c: v for c, v in row.items() if not v.is_zero()}
        one = self.field.one()
        while work:
            c = min(work)
            piv = self.pivots.get(c)
            if piv is None:
                lead = work[c]
                if lead == one:
                    self.pivots[c] = work
                elif len(work) == 1:
                    self.pivots[c] = {c: one}
                else:
                    inv = lead.inverse()
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


def sparse(row) -> dict:
    """The nonzero entries of a dense row as {column: value}."""
    return {k: c for k, c in enumerate(row) if not c.is_zero()}


def dense(row: dict, n: int, field) -> list:
    """A sparse row written out as a list of n entries."""
    out = [field.zero()] * n
    for k, c in row.items():
        out[k] = c
    return out


# The private sparse-matrix kit, for matrices that stay sparse between
# calls: {row: {column: coeff}} dicts that hold nonzero entries only and no
# empty rows, so products and combinations cost what the supports cost.  A
# flat vector holds entry M[r][c] of an n-by-n matrix at r*n + c.


def _dense_matrix(A: dict, n: int, field) -> list:
    return [dense(A.get(r, {}), n, field) for r in range(n)]


def _flat(A: dict, n: int) -> dict:
    """The flat vector of a sparse n-by-n matrix."""
    return {r * n + c: x for r, row in A.items() for c, x in row.items()}


def _unflatten(vec: dict, n: int) -> dict:
    """The sparse n-by-n matrix of a flat vector."""
    M: dict = {}
    for k in sorted(vec):
        M.setdefault(k // n, {})[k % n] = vec[k]
    return M


def _columns(A: dict) -> dict:
    """The sparse columns {c: {r: A[r][c]}} of a sparse matrix, in
    ascending order of c."""
    cols: dict = {}
    for r, row in A.items():
        for c, x in row.items():
            cols.setdefault(c, {})[r] = x
    return dict(sorted(cols.items()))


def _combine(coeffs: dict, vecs: list) -> dict:
    """The sparse sum of c * vecs[t] over the entries t: c of coeffs."""
    out: dict = {}
    for t, c in coeffs.items():
        _sub_scaled(out, -c, vecs[t])
    return out


def _sp_sum(terms) -> dict:
    """The sum of c * A over the (c, A) pairs of terms."""
    out: dict = {}
    for c, A in terms:
        if c.is_zero():
            continue
        for r, row in A.items():
            acc = out.setdefault(r, {})
            _sub_scaled(acc, -c, row)
            if not acc:
                del out[r]
    return out


def _sp_mul(A: dict, B: dict) -> dict:
    out = {}
    for r, row in A.items():
        acc: dict = {}
        for k, x in row.items():
            for c, y in B.get(k, {}).items():
                _addmul(acc, c, x, y)
        acc = {c: v for c, v in acc.items() if not v.is_zero()}
        if acc:
            out[r] = acc
    return out


def echelon(rows, field) -> tuple[list, list]:
    """The reduced row echelon form of the span of sparse rows: its rows,
    sparse, and their pivot columns, ascending."""
    red = _SparseReducer(field)
    for row in rows:
        red.add(row)
    red.reduce_fully()
    pivots = sorted(red.pivots)
    return [red.pivots[c] for c in pivots], pivots


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


def rref(rows, field):
    """Reduced row echelon form.

    Returns (reduced nonzero rows, pivot column indices).
    """
    if not rows:
        return [], []
    red, pivots = echelon([dict(enumerate(r)) for r in rows], field)
    return [dense(r, len(rows[0]), field) for r in red], pivots


def rank(rows, field) -> int:
    """The rank of a list of rows, by forward elimination of their nonzeros."""
    red = _SparseReducer(field)
    return sum(red.add(dict(enumerate(row))) for row in rows)


def krylov_relation(vectors, field, width: int, modulo=()):
    """The monic relation v_k + a_{k-1} v_{k-1} + ... + a_0 v_0 in
    span(modulo) of the first sparse vector v_k that lies in the span of
    modulo and the vectors before it, as the Polynomial a_0 + ... + t^k;
    None when the vectors run out first.

    Vectors and modulo rows hold columns below width, and v_k is reduced
    with a tag column width + k set to 1, so every kept row carries the
    combination of vectors it came from.  The first row whose pivot is a
    tag column has no vector entries left: its tags are the relation,
    scaled to 1 at v_k's tag.  It is unique, as the vectors before v_k are
    independent modulo the span.
    """
    red = _SparseReducer(field)
    for row in modulo:
        red.add(row)
    one, zero = field.one(), field.zero()
    for k, v in enumerate(vectors):
        red.add({**v, width + k: one})
        top = max(red.pivots)  # every earlier pivot is a vector column
        if top >= width:
            row = red.pivots[top]
            lead = row[width + k]
            return Polynomial(field, [row.get(width + i, zero) / lead
                                      for i in range(k + 1)])
    return None


def nullspace(A, field):
    """Basis of the right nullspace of A (list of coordinate vectors)."""
    if not A:
        return []
    ncols = len(A[0])
    red = _SparseReducer(field)
    for row in A:
        red.add(dict(enumerate(row)))
    return [dense(v, ncols, field) for v in red.nullspace(ncols)]


def inverse(A, field):
    n = len(A)
    aug = [list(row) + ident_row
           for row, ident_row in zip(A, identity_matrix(field, n))]
    red, pivots = rref(aug, field)
    if len(red) < n or pivots[:n] != list(range(n)):
        raise SingularMatrixError("matrix is not invertible")
    return [row[n:] for row in red]


def det(A, field):
    """Dense determinant, kept apart from the reducer: fields.factor takes
    field norms with it, and the Pfaffian tests compare Pf^2 against it."""
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


def express(v: dict, rows: list, pivots: list):
    """The nonzero coordinates {t: c} of a sparse v in reduced echelon rows,
    or None when v lies outside their span.  The rows vanish at each
    other's pivots, so c is v's entry at pivot t."""
    residual = {k: c for k, c in v.items() if not c.is_zero()}
    coords = {}
    for t, (row, col) in enumerate(zip(rows, pivots)):
        c = residual.get(col)
        if c is not None:
            coords[t] = c
            _sub_scaled(residual, c, row)
    return None if residual else coords
