"""Pfaffian forms of two-step nilpotent algebras and quartic invariants.

For a two-step algebra with commutator complement V = (V_1, ..., V_p) and
commutator basis W = (W_1, ..., W_q), the matrix J(z) has entries
J(z)_{ab} = sum_k z_k * (W_k-coefficient of [V_a, V_b]); its Pfaffian is a
degree p/2 form in z_1, ..., z_q.  For type (8, 2) that form is a binary
quartic and S, T, c = S^3/T^2 are its classical invariants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import (
    NotSkewError,
    NotTwoStepError,
    OddSizeError,
    SingularMatrixError,
    TVanishesError,
    WrongShapeError,
    ZeroScalarError,
)
from .fields import FieldElement, FieldTower
from .liealg import LieAlgebra, commutator_rows


class MultiPoly:
    """Sparse multivariate polynomial over a tower level.

    Terms map exponent tuples to nonzero field elements; the variable count
    is fixed per polynomial.
    """

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: FieldTower, nvars: int, terms=None):
        self.field = field
        self.nvars = nvars
        clean = {}
        for exps, c in (terms or {}).items():
            if len(exps) != nvars:
                raise WrongShapeError("exponent tuple of wrong length")
            if not c.is_zero():
                clean[tuple(exps)] = c
        self.terms = clean

    @staticmethod
    def zero(field: FieldTower, nvars: int) -> "MultiPoly":
        return MultiPoly(field, nvars, {})

    @staticmethod
    def constant(field: FieldTower, nvars: int, c) -> "MultiPoly":
        return MultiPoly(field, nvars, {(0,) * nvars: c})

    @staticmethod
    def variable(field: FieldTower, nvars: int, i: int) -> "MultiPoly":
        exps = [0] * nvars
        exps[i] = 1
        return MultiPoly(field, nvars, {tuple(exps): field.one()})

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, exps) -> FieldElement:
        return self.terms.get(tuple(exps), self.field.zero())

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self.field == other.field and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        terms = dict(self.terms)
        for e, c in other.terms.items():
            prev = terms.get(e)
            terms[e] = c if prev is None else prev + c
        return MultiPoly(self.field, self.nvars, terms)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.field, self.nvars,
                         {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                prev = terms.get(e)
                terms[e] = prod if prev is None else prev + prod
        return MultiPoly(self.field, self.nvars, terms)

    def scale(self, c) -> "MultiPoly":
        return MultiPoly(self.field, self.nvars,
                         {e: c * v for e, v in self.terms.items()})

    def eval(self, point) -> FieldElement:
        total = self.field.zero()
        for exps, c in self.terms.items():
            term = c
            for x, e in zip(point, exps):
                for _ in range(e):
                    term = term * x
            total = total + term
        return total

    def compose_linear(self, rows) -> "MultiPoly":
        """Substitute variable i by the linear form sum_j rows[i][j] * w_j."""
        if len(rows) != self.nvars:
            raise WrongShapeError("need one linear form per variable")
        m = len(rows[0]) if rows else 0
        forms = []
        for row in rows:
            if len(row) != m:
                raise WrongShapeError("ragged substitution matrix")
            f = MultiPoly.zero(self.field, m)
            for j, c in enumerate(row):
                if not c.is_zero():
                    f = f + MultiPoly.variable(self.field, m, j).scale(c)
            forms.append(f)
        out = MultiPoly.zero(self.field, m)
        for exps, c in self.terms.items():
            term = MultiPoly.constant(self.field, m, c)
            for i, e in enumerate(exps):
                for _ in range(e):
                    term = term * forms[i]
            out = out + term
        return out

    def __repr__(self):
        if not self.terms:
            return "MultiPoly(0)"
        bits = []
        for exps in sorted(self.terms, reverse=True):
            mono = "*".join("z%d^%d" % (i + 1, e)
                            for i, e in enumerate(exps) if e)
            bits.append("(%r)%s" % (self.terms[exps],
                                    "*" + mono if mono else ""))
        return "MultiPoly(%s)" % " + ".join(bits)


def pfaffian(matrix, one=None):
    """Pfaffian of a skew-symmetric matrix by first-row expansion.

    Entries may be field elements or MultiPoly values; they only need ring
    operations and is_zero.  Raises OddSizeError for odd size and
    NotSkewError when the matrix is not skew-symmetric.  The empty matrix
    has Pfaffian one, which must be supplied explicitly.
    """
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise WrongShapeError("pfaffian needs a square matrix")
    if n % 2 == 1:
        raise OddSizeError("pfaffian of an odd-size matrix")
    for i in range(n):
        if not matrix[i][i].is_zero():
            raise NotSkewError("nonzero diagonal entry at %d" % (i + 1))
        for j in range(i + 1, n):
            if not (matrix[i][j] + matrix[j][i]).is_zero():
                raise NotSkewError("entries (%d,%d) and (%d,%d) do not "
                                   "cancel" % (i + 1, j + 1, j + 1, i + 1))
    if n == 0:
        if one is None:
            raise WrongShapeError("empty pfaffian needs an explicit one")
        return one
    return _pf_expand(matrix)


def _pf_expand(matrix):
    n = len(matrix)
    if n == 2:
        return matrix[0][1]
    total = None
    for j in range(1, n):
        a = matrix[0][j]
        if a.is_zero():
            continue
        keep = [r for r in range(1, n) if r != j]
        minor = [[matrix[r][c] for c in keep] for r in keep]
        term = a * _pf_expand(minor)
        if j % 2 == 0:
            term = -term
        total = term if total is None else total + term
    if total is None:
        # whole first row is zero
        probe = matrix[1][1] if n > 1 else matrix[0][0]
        total = probe - probe  # a zero of the right kind
    return total


@dataclass(frozen=True)
class TwoStepData:
    """Commutator complement bookkeeping for a two-step algebra."""

    algebra: LieAlgebra
    v_indices: tuple[int, ...]
    w_rows: tuple
    w_pivots: tuple[int, ...]
    type: tuple[int, int]


def two_step_type(L: LieAlgebra) -> TwoStepData:
    """Type (p, q) with the standard-vector complement of the commutator.

    Requires 0 < [L, L] and [[L, L], L] = 0; the complement keeps the
    ambient basis order.
    """
    w, pivots = commutator_rows(L)
    q = len(w)
    if q == 0:
        raise NotTwoStepError("commutator is zero")
    zero = L.field.zero()
    for row in w:
        for j in range(L.dim):
            basis = [zero] * L.dim
            basis[j] = L.field.one()
            if any(not c.is_zero() for c in L.bracket_coords(row, basis)):
                raise NotTwoStepError("commutator is not central")
    v_idx = tuple(i for i in range(L.dim) if i not in set(pivots))
    return TwoStepData(L, v_idx, tuple(tuple(r) for r in w),
                       tuple(pivots), (len(v_idx), q))


@dataclass(frozen=True)
class PfaffianForm:
    """The Pfaffian of J(z) together with its shape data."""

    data: TwoStepData
    form: MultiPoly

    @property
    def type(self) -> tuple[int, int]:
        return self.data.type


def jay_matrix(data: TwoStepData) -> list:
    """J(z): skew matrix of linear forms in the commutator coordinates."""
    L = data.algebra
    field = L.field
    q = data.type[1]
    p = data.type[0]
    rows_w = [list(r) for r in data.w_rows]
    mat = [[MultiPoly.zero(field, q) for _ in range(p)] for _ in range(p)]
    for a in range(p):
        for b in range(a + 1, p):
            coords = L.bracket_basis(data.v_indices[a], data.v_indices[b])
            if not coords:
                continue
            vec = [field.zero()] * L.dim
            for k, c in coords.items():
                vec[k] = c
            expr = linalg.express_in_rows(rows_w, list(data.w_pivots), vec,
                                          field)
            if expr is None:
                raise NotTwoStepError("bracket image escapes the commutator")
            entry = MultiPoly(field, q,
                              {tuple(1 if t == k else 0 for t in range(q)): c
                               for k, c in enumerate(expr)})
            mat[a][b] = entry
            mat[b][a] = -entry
    return mat


def pfaffian_form(L: LieAlgebra) -> PfaffianForm:
    """Pfaffian of J(z); OddSizeError when the complement has odd dimension."""
    data = two_step_type(L)
    p, q = data.type
    if p % 2 == 1:
        raise OddSizeError("complement dimension %d is odd" % p)
    mat = jay_matrix(data)
    form = pfaffian(mat, one=MultiPoly.constant(L.field, q, L.field.one()))
    return PfaffianForm(data, form)


def _quartic_coeffs(form: MultiPoly):
    if form.nvars != 2:
        raise WrongShapeError("invariants need a binary form")
    if form.degree() > 4:
        raise WrongShapeError("invariants need a quartic form")
    for exps in form.terms:
        if sum(exps) != 4:
            raise WrongShapeError("form is not homogeneous of degree 4")
    return [form.coeff((4 - k, k)) for k in range(5)]


def invariant_S(form: MultiPoly) -> FieldElement:
    """S = ae - 4bd + 3c^2 for a z1^4 + b z1^3 z2 + ... + e z2^4."""
    a, b, c, d, e = _quartic_coeffs(form)
    four = form.field.from_rational(4)
    three = form.field.from_rational(3)
    return a * e - four * (b * d) + three * (c * c)


def invariant_T(form: MultiPoly) -> FieldElement:
    """T = ace - ad^2 + 2bcd - b^2 e - c^3."""
    a, b, c, d, e = _quartic_coeffs(form)
    two = form.field.from_rational(2)
    return (a * c * e - a * d * d + two * (b * c * d)
            - b * b * e - c * c * c)


def classical_S(form: MultiPoly) -> FieldElement:
    """The weight-4 quartic invariant in its substitution-invariant form.

    Reading the quartic as a z1^4 + 4b z1^3 z2 + 6c z1^2 z2^2 + 4d z1 z2^3
    + e z2^4 and applying the S formula to (a, b, c, d, e) gives
    AE - BD/4 + C^2/12 on the raw coefficients; this satisfies
    classical_S(f o A) = det(A)^4 * classical_S(f) for every linear
    substitution A, so it is invariant under SL2.  invariant_S applies the
    same formula directly to raw coefficients, which matches the family
    evaluations (S(f_lambda) = 3 lambda^2 + 1) but transforms differently.
    """
    A, B, C, D, E = _quartic_coeffs(form)
    field = form.field
    quarter = field.from_rational(Fraction(1, 4))
    twelfth = field.from_rational(Fraction(1, 12))
    return A * E - quarter * (B * D) + twelfth * (C * C)


def classical_T(form: MultiPoly) -> FieldElement:
    """The weight-6 quartic invariant; see classical_S for the convention."""
    A, B, C, D, E = _quartic_coeffs(form)
    field = form.field

    def frac(n, d):
        return field.from_rational(Fraction(n, d))

    return (frac(1, 6) * (A * C * E) + frac(1, 48) * (B * C * D)
            - frac(1, 16) * (A * D * D) - frac(1, 16) * (B * B * E)
            - frac(1, 216) * (C * C * C))


def invariant_c(form: MultiPoly) -> FieldElement:
    """c = S^3 / T^2; TVanishesError when T = 0."""
    S = invariant_S(form)
    T = invariant_T(form)
    if T.is_zero():
        raise TVanishesError("invariant T vanishes; c is undefined")
    return (S * S * S) / (T * T)


def invariant_c_of(L: LieAlgebra) -> FieldElement:
    """The quartic invariant of a type (8, 2) two-step algebra."""
    pf = pfaffian_form(L)
    if pf.type != (8, 2):
        raise WrongShapeError("quartic invariant needs type (8, 2), got %r"
                              % (pf.type,))
    return invariant_c(pf.form)


def refute_isomorphism_by_c(A: LieAlgebra, B: LieAlgebra) -> bool:
    """True when both are type (8, 2) with T nonzero and distinct c."""
    try:
        ca = invariant_c_of(A)
        cb = invariant_c_of(B)
    except (NotTwoStepError, OddSizeError, WrongShapeError, TVanishesError):
        return False
    return ca != cb


def projective_equivalence_check(f: MultiPoly, g: MultiPoly, matrix,
                                 scalar) -> bool:
    """Check scalar * f(matrix @ (z1, z2, ...)) == g exactly."""
    field = f.field
    if hasattr(scalar, "is_zero"):
        s = scalar
    else:
        s = field.from_rational(scalar)
    if s.is_zero():
        raise ZeroScalarError("equivalence scalar must be nonzero")
    rows = [[c if hasattr(c, "is_zero") else field.from_rational(c)
             for c in row] for row in matrix]
    if linalg.rank([list(r) for r in rows], field) < len(rows):
        raise SingularMatrixError("substitution matrix is singular")
    return f.compose_linear(rows).scale(s) == g
