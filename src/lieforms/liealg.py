"""Finite-dimensional Lie algebras with exact structure constants.

Structure constants are stored sparsely: brackets[(i, j)] maps k to the
coefficient of e_k in [e_i, e_j], with 0-based i < j and only nonzero
entries kept.  Reading (j, i) negates.

Each algebra reduces D = [L, L] once at construction, into sparse reduced
echelon rows (``derived``).  When D is not a coordinate subspace it also
builds its constants in the basis adapted to D (``adapted_basis``), where
every bracket has at most dim D constants however dense the caller's
basis is, and the Jacobi identity is validated on that table: Jacobi is
trilinear, so it holds in one basis exactly when it holds in every basis.
A violation is then looked up in the caller's own table, so it always
reports the offending basis triple of the caller's basis (1-based, to
match the external bracket format).  The centroid solve and the
fingerprint read the same adapted table; the fingerprint is computed once
per algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import linalg
from .linalg import _SparseReducer
from .errors import (
    DegenerateError,
    JacobiError,
    OwnerMismatchError,
    SingularMatrixError,
    TowerMismatchError,
)
from .fields import (
    FieldElement,
    FieldTower,
    _addmul,
    format_element,
    lift_to,
)

# Largest dimension of an algebra read from input (a manifest's "dim",
# catalog.abelian, catalog.nintot_family), checked before anything is built.
ALGEBRA_DIM_CAP = 1000


def _coerce(field: FieldTower, value) -> FieldElement:
    if isinstance(value, FieldElement):
        if value.field == field:
            return value
        return lift_to(value, field)
    return field.from_rational(Fraction(value))


def _add_bracket(brackets: dict, acc: dict, u: dict, v: dict) -> None:
    """Add [u, v] into acc; u, v and acc are sparse {index: coeff} and
    brackets is a table of stored constants.

    The coefficient of [e_i, e_j] (i < j) is u_i v_j - u_j v_i, gathered
    over the support pairs of u and v that have a stored bracket.
    """
    coeffs: dict = {}
    for a, x in u.items():
        for b, y in v.items():
            if a == b:
                continue
            key = (a, b) if a < b else (b, a)
            if key not in brackets:
                continue
            _addmul(coeffs, key, x, y, a > b)
    for key, coeff in coeffs.items():
        if coeff.is_zero():
            continue
        for k, c in brackets[key].items():
            _addmul(acc, k, coeff, c)


def _touching(brackets: dict) -> dict:
    """m -> [(i, entry, negate)] over the stored brackets, with
    [e_i, e_m] = entry, negated when negate is set."""
    touching: dict = {}
    for (i, j), entry in brackets.items():
        touching.setdefault(j, []).append((i, entry, False))
        touching.setdefault(i, []).append((j, entry, True))
    return touching


def _ad_images(touching: dict, w: dict) -> dict:
    """i -> [e_i, w] for every i at once, expanded over the support of the
    sparse w through the stored brackets that involve it."""
    images: dict = {}
    for b, x in w.items():
        for i, entry, negate in touching.get(b, ()):
            acc = images.setdefault(i, {})
            for k, c in entry.items():
                _addmul(acc, k, x, c, negate)
    return images


def _check_jacobi(brackets: dict) -> None:
    """Check the Jacobi identity on every triple a table reaches.

    The sum for a triple a < b < c is [e_a,[e_b,e_c]] + [e_b,[e_c,e_a]]
    + [e_c,[e_a,e_b]].  Its nonzero terms come from a stored (j, k) ->
    {m: c} and a stored [e_i, e_m] with i not in {j, k}: each adds
    c*[e_i, e_m] to the triple sorted(i, j, k), negated when j < i < k
    (the term is then [e_i, [e_k, e_j]]).  Triples no term reaches sum
    to zero; the first failing triple in lexicographic order is raised.
    """
    touching = _touching(brackets)
    sums: dict = {}
    for (j, k), inner in brackets.items():
        for m, c in inner.items():
            for i, outer, negate in touching.get(m, ()):
                if i < j:
                    triple = (i, j, k)
                elif j < i < k:
                    triple = (j, i, k)
                    negate = not negate
                elif i > k:
                    triple = (j, k, i)
                else:
                    continue
                acc = sums.get(triple)
                if acc is None:
                    acc = sums[triple] = {}
                for t, d in outer.items():
                    _addmul(acc, t, c, d, negate)
    failing = [triple for triple, acc in sums.items()
               if any(not v.is_zero() for v in acc.values())]
    if failing:
        triple = min(failing)
        bad = {m: v for m, v in sums[triple].items() if not v.is_zero()}
        raise JacobiError(tuple(t + 1 for t in triple), bad)


def _derived_rows(field: FieldTower, brackets: dict) -> dict:
    """The reduced echelon basis of D = [L, L], spanned by the stored
    brackets: each pivot column mapped to its sparse row, which is 1 there
    and 0 at the other pivots."""
    rows, pivots = linalg.echelon(brackets.values(), field)
    return dict(zip(pivots, rows))


def _adapted_table(brackets: dict, derived: dict, basis: list) -> dict:
    """The constants in the basis given by adapted_basis.

    Every bracket of two vectors lies in D, because the bracket is
    bilinear, and the coordinates of a vector of D in the echelon rows are
    its entries at D's pivots.  So the stored brackets are cut down to
    those entries once, at the positions of D's rows in the basis, and
    expanded over the supports of each pair of basis vectors; two
    coordinate vectors read their cut bracket directly.
    """
    n = len(basis)
    p = n - len(derived)
    pos = {c: p + s for s, c in enumerate(sorted(derived))}
    cut = {key: {pos[k]: v for k, v in entry.items() if k in pos}
           for key, entry in brackets.items()}
    free = [next(iter(vec)) for vec in basis[:p]]
    table = {}
    for a in range(n):
        for b in range(a + 1, n):
            if b < p:
                entry = cut.get((free[a], free[b]))
            else:
                acc: dict = {}
                _add_bracket(cut, acc, basis[a], basis[b])
                entry = {k: v for k, v in acc.items() if not v.is_zero()}
            if entry:
                table[(a, b)] = entry
    return table


def _default_labels(dim: int) -> tuple:
    return tuple("X%d" % (t + 1) for t in range(dim))


class LieAlgebra:
    """Immutable-by-convention Lie algebra over one field tower.

    derived maps each pivot column of the reduced echelon basis of
    D = [L, L] to its sparse row.  adapted is the same algebra in the basis
    adapted_basis names, or None when D is a coordinate subspace, so that
    L is adapted as it stands.
    """

    __slots__ = ("field", "dim", "brackets", "labels", "meta", "derived",
                 "adapted", "_fingerprint", "_action")

    def __init__(self, field: FieldTower, dim: int, brackets,
                 labels: Optional[Sequence[str]] = None,
                 meta: Optional[dict] = None):
        if dim < 0:
            raise DegenerateError("negative dimension")
        self.field = field
        self.dim = dim
        clean: dict = {}
        for (i, j), comps in brackets.items():
            if not (0 <= i < j < dim):
                raise DegenerateError(
                    "bracket indices (%d,%d) out of range or not i<j (0-based)"
                    % (i, j))
            entry = {}
            for k, c in comps.items():
                if not 0 <= k < dim:
                    raise DegenerateError("target index %d out of range" % k)
                cv = _coerce(field, c)
                if not cv.is_zero():
                    entry[k] = cv
            if entry:
                clean[(i, j)] = entry
        self.brackets = clean
        if labels is None:
            labels = _default_labels(dim)
        else:
            labels = tuple(labels)
            if len(labels) != dim:
                raise DegenerateError("label count does not match dimension")
        self.labels = labels
        self.meta = dict(meta) if meta else {}
        # computed on first use: fingerprint(), and the isomorphism
        # oracle's almost-abelian action (decompose._almost_abelian_action)
        self._fingerprint = self._action = None
        self.derived = _derived_rows(field, clean)
        self.adapted = None
        if all(len(row) == 1 for row in self.derived.values()):
            _check_jacobi(clean)
            return
        table = _adapted_table(clean, self.derived, self.adapted_basis())
        try:
            _check_jacobi(table)
        except JacobiError:
            # the identity is trilinear, so it fails in the caller's basis
            # too: report that basis's first failing triple
            _check_jacobi(clean)
            raise
        adapted = LieAlgebra.__new__(LieAlgebra)
        adapted.field, adapted.dim, adapted.brackets = field, dim, table
        adapted.labels, adapted.meta = _default_labels(dim), {}
        one, p = field.one(), dim - len(self.derived)
        adapted.derived = {k: {k: one} for k in range(p, dim)}
        adapted.adapted = adapted._fingerprint = adapted._action = None
        self.adapted = adapted

    def adapted_basis(self) -> list:
        """The basis adapted to D = [L, L], as sparse vectors in L's
        coordinates: e_c for each column c that is not a pivot of D's
        echelon rows, ascending, then those rows by pivot.  In it, every
        bracket lies in the span of the last dim D vectors."""
        one, derived = self.field.one(), self.derived
        return ([{c: one} for c in range(self.dim) if c not in derived]
                + [derived[c] for c in sorted(derived)])

    # ------------------------------------------------------------ basics

    def bracket_basis(self, i: int, j: int) -> dict:
        """[e_i, e_j] as a sparse {k: coeff} dict."""
        if i == j:
            return {}
        if i < j:
            return self.brackets.get((i, j), {})
        entry = self.brackets.get((j, i), {})
        return {k: -c for k, c in entry.items()}

    def bracket_coords(self, u: Sequence[FieldElement],
                       v: Sequence[FieldElement]) -> list[FieldElement]:
        """[u, v] in coordinates, expanded over the supports of u and v."""
        acc: dict = {}
        _add_bracket(self.brackets, acc, linalg.sparse(u), linalg.sparse(v))
        return linalg.dense(acc, self.dim, self.field)

    def bracket(self, u: "Vector", v: "Vector") -> "Vector":
        self._own(u)
        self._own(v)
        return Vector(self, tuple(self.bracket_coords(u.coords, v.coords)))

    def vector(self, coords: Sequence) -> "Vector":
        cs = [_coerce(self.field, c) for c in coords]
        if len(cs) != self.dim:
            raise OwnerMismatchError("coordinate count != dimension")
        return Vector(self, tuple(cs))

    def structure_constant(self, i: int, j: int, k: int) -> FieldElement:
        return self.bracket_basis(i, j).get(k, self.field.zero())

    def ad_matrix(self, coords: Sequence[FieldElement]) -> list[list]:
        """Matrix of ad_x: column j is [x, e_j]."""
        cols = []
        for j in range(self.dim):
            col = [self.field.zero()] * self.dim
            for i in range(self.dim):
                ci = coords[i]
                if ci.is_zero():
                    continue
                for k, c in self.bracket_basis(i, j).items():
                    col[k] = col[k] + ci * c
            cols.append(col)
        return [[cols[j][r] for j in range(self.dim)] for r in range(self.dim)]

    def with_meta(self, **meta) -> "LieAlgebra":
        merged = dict(self.meta)
        merged.update(meta)
        return LieAlgebra(self.field, self.dim, self.brackets, self.labels,
                          merged)

    def __eq__(self, other) -> bool:
        """Equality of field, dimension and structure constants only."""
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return (self.field == other.field and self.dim == other.dim
                and self.brackets == other.brackets)

    def __hash__(self):
        items = tuple(sorted((ij, tuple(sorted(comps.items())))
                             for ij, comps in self.brackets.items()))
        return hash((self.field, self.dim, items))

    def __repr__(self) -> str:
        name = self.meta.get("name", "LieAlgebra")
        return "%s(dim=%d over %r)" % (name, self.dim, self.field)

    def _own(self, v: "Vector") -> None:
        if v.algebra is not self and v.algebra != self:
            raise OwnerMismatchError("vector belongs to a different algebra")


@dataclass(frozen=True)
class Vector:
    algebra: LieAlgebra
    coords: tuple

    def __add__(self, other: "Vector") -> "Vector":
        self.algebra._own(other)
        return Vector(self.algebra, tuple(a + b for a, b in
                                          zip(self.coords, other.coords)))

    def __sub__(self, other: "Vector") -> "Vector":
        self.algebra._own(other)
        return Vector(self.algebra, tuple(a - b for a, b in
                                          zip(self.coords, other.coords)))

    def __neg__(self) -> "Vector":
        return Vector(self.algebra, tuple(-a for a in self.coords))

    def scale(self, c) -> "Vector":
        cv = _coerce(self.algebra.field, c)
        return Vector(self.algebra, tuple(cv * a for a in self.coords))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def __repr__(self) -> str:
        parts = []
        for c, label in zip(self.coords, self.algebra.labels):
            if not c.is_zero():
                parts.append("(%s)%s" % (format_element(c), label))
        return " + ".join(parts) if parts else "0"


# ------------------------------------------------------------------ maps

@dataclass(frozen=True)
class LinearMap:
    """Map between algebras over one field; matrix rows are target
    coordinates, so column i is the image of e_i.  sigma None means linear;
    otherwise the map is sigma-semilinear: phi(c x) = sigma(c) phi(x)."""

    source: LieAlgebra
    target: LieAlgebra
    matrix: tuple
    sigma: object = None

    @staticmethod
    def make(source: LieAlgebra, target: LieAlgebra, rows,
             sigma=None) -> "LinearMap":
        if source.field != target.field:
            raise TowerMismatchError("map between algebras over two fields")
        mat = tuple(tuple(_coerce(target.field, c) for c in row)
                    for row in rows)
        if len(mat) != target.dim or any(len(r) != source.dim for r in mat):
            raise OwnerMismatchError("matrix shape does not match algebras")
        return LinearMap(source, target, mat, sigma)

    def apply(self, v: Vector) -> Vector:
        self.source._own(v)
        coords = v.coords
        if self.sigma is not None:
            coords = [self.sigma(c) for c in coords]
        return Vector(self.target, tuple(
            linalg.mat_vec(self.matrix, coords, self.target.field)))

    def column(self, i: int) -> list[FieldElement]:
        return [row[i] for row in self.matrix]

    def is_bijective(self) -> bool:
        if self.source.dim != self.target.dim:
            return False
        return linalg.rank(self.matrix, self.target.field) == self.source.dim

    def verify(self) -> bool:
        """Exact check that the map preserves brackets on the basis."""
        return _semilinear_holds(self.source, self.target, self.sigma,
                                 self.matrix)


def _semilinear_holds(source: LieAlgebra, target: LieAlgebra, sigma,
                      mat) -> bool:
    """phi([e_i, e_j]) == [phi e_i, phi e_j] for every pair i < j.

    phi is the sigma-semilinear map whose column i is phi(e_i); sigma None
    is the identity.  The right side is the sum of (phi_ri phi_sj - phi_si
    phi_rj) [f_r, f_s] over the target's stored brackets, expanded over the
    nonzeros of rows r and s of phi; the left is the sum of sigma(c) phi(e_k)
    over the source's stored [e_i, e_j].  Only pairs that either side
    reaches can differ, and there the difference must vanish exactly.
    """
    rows = [linalg.sparse(row) for row in mat]
    cols = linalg._columns(dict(enumerate(rows)))
    coeffs: dict = {}  # (i, j) -> {(r, s): coefficient of [f_r, f_s]}
    for key in target.brackets:
        r, s = key
        for i, x in rows[r].items():
            for j, y in rows[s].items():
                if i == j:
                    continue
                per = coeffs.setdefault((i, j) if i < j else (j, i), {})
                _addmul(per, key, x, y, i > j)
    for pair in coeffs.keys() | source.brackets.keys():
        acc: dict = {}
        for key, coeff in coeffs.get(pair, {}).items():
            if coeff.is_zero():
                continue
            for k, c in target.brackets[key].items():
                _addmul(acc, k, coeff, c)
        for k, c in source.brackets.get(pair, {}).items():
            sc = c if sigma is None else sigma(c)
            for r, x in cols.get(k, {}).items():
                _addmul(acc, r, sc, x, True)
        if any(not c.is_zero() for c in acc.values()):
            return False
    return True


def verify_morphism(source: LieAlgebra, target: LieAlgebra, matrix) -> bool:
    """Exact check that matrix defines a Lie algebra morphism on the basis;
    False when its shape does not fit the algebras."""
    try:
        m = LinearMap.make(source, target, matrix)
    except OwnerMismatchError:
        return False
    return m.verify()


def verify_sigma_isomorphism(source: LieAlgebra, target: LieAlgebra, sigma,
                             matrix) -> bool:
    """Check a bijective sigma-semilinear morphism; sigma None is linear."""
    try:
        m = LinearMap.make(source, target, matrix, sigma)
    except OwnerMismatchError:
        return False
    return m.verify() and m.is_bijective()


# ------------------------------------------------------------------ sums

def direct_sum(*algebras: LieAlgebra) -> LieAlgebra:
    """Direct sum with block-diagonal brackets; labels get block suffixes."""
    if not algebras:
        raise DegenerateError("direct sum of no algebras")
    field = algebras[0].field
    for a in algebras[1:]:
        if a.field != field:
            raise TowerMismatchError("direct sum over mixed fields")
    dim = sum(a.dim for a in algebras)
    brackets = {}
    labels = []
    offset = 0
    for blk, a in enumerate(algebras):
        for (i, j), comps in a.brackets.items():
            brackets[(i + offset, j + offset)] = {
                k + offset: c for k, c in comps.items()}
        suffix = chr(ord("a") + blk) if len(algebras) > 1 else ""
        labels.extend(lab + suffix for lab in a.labels)
        offset += a.dim
    meta = {"direct_sum": [a.meta.get("name", "block%d" % t)
                           for t, a in enumerate(algebras)]}
    return LieAlgebra(field, dim, brackets, labels, meta)


def change_basis(L: LieAlgebra, P) -> LieAlgebra:
    """Rewrite L in the basis whose j-th vector is column j of P."""
    field = L.field
    mat = LinearMap.make(L, L, P).matrix  # raises on a wrong shape
    try:
        inv = linalg.inverse(mat, field)
    except SingularMatrixError:
        raise SingularMatrixError("change of basis matrix is singular")
    cols = [[mat[r][j] for r in range(L.dim)] for j in range(L.dim)]
    brackets = {}
    for a in range(L.dim):
        for b in range(a + 1, L.dim):
            w = L.bracket_coords(cols[a], cols[b])
            entry = linalg.sparse(linalg.mat_vec(inv, w, field))
            if entry:
                brackets[(a, b)] = entry
    return LieAlgebra(field, L.dim, brackets,
                      tuple("Y%d" % (t + 1) for t in range(L.dim)), L.meta)


# ------------------------------------------------------------------ spans

def commutator_rows(L: LieAlgebra) -> tuple[list, list]:
    """Echelonized basis of [L, L]: the rows reduced at construction,
    written out densely."""
    pivots = sorted(L.derived)
    return [linalg.dense(L.derived[c], L.dim, L.field)
            for c in pivots], pivots


def _echelon(L: LieAlgebra, rows) -> tuple[list, list]:
    """The reduced echelon basis of span(rows) as sparse rows, and its
    pivot columns."""
    return linalg.echelon([linalg.sparse(r) for r in rows], L.field)


def is_ideal(L: LieAlgebra, rows) -> bool:
    """True when span(rows) is an ideal of L."""
    return _spans_ideal(L, *_echelon(L, rows))


def _spans_ideal(L: LieAlgebra, red: list, pivots: list) -> bool:
    """True when the span of reduced echelon sparse rows is an ideal of L.

    [e_i, w] is expanded for every i at once over the support of each
    row w, through the stored brackets that involve it, and read off the
    rows at their pivots.
    """
    touching = _touching(L.brackets)
    return all(linalg.express(v, red, pivots) is not None
               for w in red for v in _ad_images(touching, w).values())


def restrict_to_span(L: LieAlgebra, rows,
                     labels: Optional[Sequence[str]] = None) -> LieAlgebra:
    """The induced algebra on a bracket-closed subspace (echelonized rows)."""
    return _restricted(L, *_echelon(L, rows), labels)


def _restricted(L: LieAlgebra, red: list, pivots: list,
                labels: Optional[Sequence[str]] = None) -> LieAlgebra:
    """The induced algebra on the span of reduced echelon sparse rows.

    Each bracket of two rows is expanded over their supports and read off
    the rows at their pivots.
    """
    brackets = {}
    for a in range(len(red)):
        for b in range(a + 1, len(red)):
            acc: dict = {}
            _add_bracket(L.brackets, acc, red[a], red[b])
            coords = linalg.express(acc, red, pivots)
            if coords is None:
                raise DegenerateError("span is not closed under the bracket")
            if coords:
                brackets[(a, b)] = coords
    return LieAlgebra(L.field, len(red), brackets, labels)


# ------------------------------------------------------------------ fingerprint

@dataclass(frozen=True)
class Fingerprint:
    """Cheap exact isomorphism invariants."""

    dim: int
    lower_central: tuple[int, ...]
    derived: tuple[int, ...]
    center_dim: int
    commutator_dim: int
    nilpotency_class: Optional[int]
    solvable: bool
    two_step: Optional[tuple[int, int]]


def fingerprint(L: LieAlgebra) -> Fingerprint:
    """The invariants of L, computed on its first call and kept on L.

    They do not depend on the basis, so they are read from the adapted
    table when L has one.
    """
    if L._fingerprint is None:
        L._fingerprint = _invariants(L if L.adapted is None else L.adapted)
    return L._fingerprint


def _series(dim: int, derived: dict, step) -> tuple:
    """The dimensions of a series L, [L, L], ... that ends when a term
    repeats or vanishes; step maps sparse rows spanning one term to rows
    spanning the next."""
    dims = [dim]
    rows = list(derived.values())
    while True:
        d = len(rows)
        dims.append(d)
        if d == dims[-2] or d == 0:
            return tuple(dims)
        rows = step(rows)


def _invariants(L: LieAlgebra) -> Fingerprint:
    """The fingerprint on sparse rows: each term of the lower central and
    derived series is reduced from the brackets of the term before, [e_i, w]
    through the stored brackets that touch w, [w, w'] over the supports.
    The center is the x with sum_i x_i c_ij^k = 0 for every (j, k), so it
    has dimension dim L minus the rank of that system, taken as the rank of
    its n columns: the flattened ad(e_i).
    """
    field, n = L.field, L.dim
    touching = _touching(L.brackets)

    def lower(rows):
        red = _SparseReducer(field)
        for w in rows:
            for v in _ad_images(touching, w).values():
                red.add(v)
        return list(red.pivots.values())

    def derived(rows):
        red = _SparseReducer(field)
        for a in range(len(rows)):
            for b in range(a + 1, len(rows)):
                acc: dict = {}
                _add_bracket(L.brackets, acc, rows[a], rows[b])
                red.add(acc)
        return list(red.pivots.values())

    lcs = _series(n, L.derived, lower)
    ds = _series(n, L.derived, derived)
    ads: dict = {}  # i -> ad(e_i), with [e_i, e_j] at k read from j*n + k
    for (i, j), comps in L.brackets.items():
        for k, c in comps.items():
            ads.setdefault(i, {})[j * n + k] = c
            ads.setdefault(j, {})[i * n + k] = -c
    center = _SparseReducer(field)
    for row in ads.values():
        center.add(row)
    nilpotency_class = len(lcs) - 1 if lcs[-1] == 0 else None
    comm = len(L.derived)
    two_step = None
    if nilpotency_class is not None and nilpotency_class <= 2:
        two_step = (n - comm, comm)
    return Fingerprint(
        dim=n,
        lower_central=lcs,
        derived=ds,
        center_dim=n - len(center.pivots),
        commutator_dim=comm,
        nilpotency_class=nilpotency_class,
        solvable=ds[-1] == 0,
        two_step=two_step,
    )
