"""Pfaffian forms of two-step nilpotent algebras and quartic invariants.

For a two-step algebra with commutator complement V = (V_1, ..., V_p) and
commutator basis W = (W_1, ..., W_q), the matrix J(z) has entries
J(z)_{ab} = sum_k z_k * (W_k-coefficient of [V_a, V_b]); its Pfaffian is a
degree p/2 form in z_1, ..., z_q.  For type (8, 2) that form is a binary
quartic; S, T and c = S^3/T^2 read its raw coefficients, and the classical
forms of S and T, which a substitution only scales, refute isomorphisms.

The form is found by evaluation and interpolation, in time polynomial in
p for fixed q.  J is evaluated at z = (1, a) for the points a of the
principal lattice {a in N^(q-1) : |a| <= p/2}, the Pfaffian of each value
is taken by sparse skew elimination over the field in O(p^3), and the
coefficients are recovered by Newton interpolation on the lattice:
forward differences, then a change from binomial to power basis, one axis
at a time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

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
from .liealg import LieAlgebra, _ad_images, _coerce, _touching, commutator_rows


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
    """Pfaffian of a skew-symmetric matrix of field elements.

    Skew elimination on a sparse copy {i: {j: a_ij}}: r is the first
    remaining index and s the first remaining index in r's support, at
    position m of the remaining list; then Pf(A) = (-1)^(m+1) a_rs Pf(A')
    with A' the matrix on the remaining indices and
    a_ij += (a_si a_rj - a_ri a_sj) / a_rs, updated only for i, j in
    supp(a_r) | supp(a_s).  A row with no partner gives zero.  Raises
    OddSizeError for odd size and NotSkewError when the matrix is not
    skew-symmetric.  The empty matrix has Pfaffian one, which must be
    supplied explicitly.
    """
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise WrongShapeError("pfaffian needs a square matrix")
    if n % 2 == 1:
        raise OddSizeError("pfaffian of an odd-size matrix")
    rows = {i: {} for i in range(n)}
    for i in range(n):
        if not matrix[i][i].is_zero():
            raise NotSkewError("nonzero diagonal entry at %d" % (i + 1))
        for j in range(i + 1, n):
            a, b = matrix[i][j], matrix[j][i]
            if a.is_zero() and b.is_zero():
                continue
            if not (a + b).is_zero():
                raise NotSkewError("entries (%d,%d) and (%d,%d) do not "
                                   "cancel" % (i + 1, j + 1, j + 1, i + 1))
            rows[i][j] = a
            rows[j][i] = b
    if n == 0:
        if one is None:
            raise WrongShapeError("empty pfaffian needs an explicit one")
        return one
    return _eliminate(rows, matrix[0][0])


def _eliminate(rows: dict, zero: FieldElement) -> FieldElement:
    """Pfaffian of a nonempty skew matrix held as {i: {j: a_ij}}, both
    halves, by the elimination described in pfaffian(); consumes rows."""
    remaining = sorted(rows)
    product = None
    negate = False
    while remaining:
        r = remaining[0]
        row_r = rows.pop(r)
        if not row_r:
            return zero
        s = min(row_r)
        m = remaining.index(s)
        row_s = rows.pop(s)
        a_rs = row_r[s]
        product = a_rs if product is None else product * a_rs
        if m % 2 == 0:
            negate = not negate
        del remaining[m]
        del remaining[0]
        if not remaining:
            break
        inv = a_rs.inverse()
        u = {i: c * inv for i, c in row_s.items() if i != r}
        v = {i: c * inv for i, c in row_r.items() if i != s}
        touched = sorted(u.keys() | v.keys())
        for i in touched:
            rows[i].pop(r, None)
            rows[i].pop(s, None)
        for x, i in enumerate(touched):
            u_i, v_i = u.get(i), v.get(i)
            row_i = rows[i]
            for j in touched[x + 1:]:
                delta = None
                if u_i is not None and j in row_r:
                    delta = u_i * row_r[j]
                if v_i is not None and j in row_s:
                    t = v_i * row_s[j]
                    delta = -t if delta is None else delta - t
                if delta is None:
                    continue
                prev = row_i.get(j)
                new = delta if prev is None else prev + delta
                if new.is_zero():
                    row_i.pop(j, None)
                    rows[j].pop(i, None)
                else:
                    row_i[j] = new
                    rows[j][i] = -new
    return -product if negate else product


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

    Requires 0 < [L, L] and [[L, L], L] = 0, checked on the echelon rows
    of [L, L] through the stored brackets that touch them; the complement
    keeps the ambient basis order.
    """
    if not L.derived:
        raise NotTwoStepError("commutator is zero")
    touching = _touching(L.brackets)
    for w in L.derived.values():
        for image in _ad_images(touching, w).values():
            if any(not c.is_zero() for c in image.values()):
                raise NotTwoStepError("commutator is not central")
    w, pivots = commutator_rows(L)
    v_idx = tuple(i for i in range(L.dim) if i not in L.derived)
    return TwoStepData(L, v_idx, tuple(tuple(r) for r in w),
                       tuple(pivots), (len(v_idx), len(w)))


@dataclass(frozen=True)
class PfaffianForm:
    """The Pfaffian of J(z) together with its shape data."""

    data: TwoStepData
    form: MultiPoly

    @property
    def type(self) -> tuple[int, int]:
        return self.data.type


def _jay_coefficients(data: TwoStepData) -> list:
    """J(z) = sum_k z_k J_k as q sparse upper triangles {(a, b): c}.

    Every bracket lies in [L, L] and the commutator rows are reduced, so
    the coefficient of [V_a, V_b] on W_k is its entry at pivot k.
    """
    L = data.algebra
    v = data.v_indices
    coeffs = [{} for _ in data.w_pivots]
    for a in range(len(v)):
        for b in range(a + 1, len(v)):
            entry = L.bracket_basis(v[a], v[b])
            for k, pivot in enumerate(data.w_pivots):
                c = entry.get(pivot)
                if c is not None:
                    coeffs[k][(a, b)] = c
    return coeffs


def jay_matrix(data: TwoStepData) -> list:
    """J(z): skew matrix of linear forms in the commutator coordinates."""
    field = data.algebra.field
    p, q = data.type
    terms: dict = {}
    for k, part in enumerate(_jay_coefficients(data)):
        exps = tuple(1 if t == k else 0 for t in range(q))
        for key, c in part.items():
            terms.setdefault(key, {})[exps] = c
    mat = [[MultiPoly.zero(field, q) for _ in range(p)] for _ in range(p)]
    for (a, b), entry_terms in terms.items():
        entry = MultiPoly(field, q, entry_terms)
        mat[a][b] = entry
        mat[b][a] = -entry
    return mat


@functools.lru_cache(maxsize=None)
def _lattice(d: int, n: int) -> tuple:
    """The principal lattice {a in N^n : |a| <= d}, built as compositions."""
    if n == 0:
        return ((),)
    return tuple((k,) + rest for k in range(d + 1)
                 for rest in _lattice(d - k, n - 1))


@functools.lru_cache(maxsize=None)
def _binomial_powers(d: int) -> tuple:
    """Row m holds the coefficients of x^0..x^m in binom(x, m), m <= d."""
    rows = [(Fraction(1),)]
    for m in range(d):
        # binom(x, m + 1) = binom(x, m) * (x - m) / (m + 1)
        nxt = [Fraction(0)] * (m + 2)
        for e, c in enumerate(rows[-1]):
            nxt[e + 1] += c / (m + 1)
            nxt[e] -= c * m / (m + 1)
        rows.append(tuple(nxt))
    return tuple(rows)


def _along(values: dict, axis: int, d: int, step) -> dict:
    """Apply step to every lattice line along axis that holds a nonzero
    value; values and the result list only nonzero entries, a line is
    passed as a list with None for zero."""
    out = {}
    for start in {a[:axis] + (0,) + a[axis + 1:] for a in values}:
        head, tail = start[:axis], start[axis + 1:]
        line = [head + (k,) + tail for k in range(d - sum(start) + 1)]
        for a, c in zip(line, step([values.get(a) for a in line])):
            if c is not None and not c.is_zero():
                out[a] = c
    return out


def _differences(vals: list) -> list:
    """Forward differences: position k ends up holding Delta^k v(0)."""
    for level in range(1, len(vals)):
        for k in range(len(vals) - 1, level - 1, -1):
            prev = vals[k - 1]
            if prev is not None:
                vals[k] = -prev if vals[k] is None else vals[k] - prev
    return vals


def _interpolate(values: dict, d: int, n: int, field: FieldTower) -> dict:
    """Coefficients {m: c of a^m} of the polynomial of total degree <= d in
    n variables with the given values on the principal lattice; both
    dicts list only nonzero entries.

    Forward differences along each axis in turn leave Delta^m f(0) at m,
    the coefficients of Newton's series f(a) = sum_m Delta^m f(0)
    prod_i binom(a_i, m_i); a difference along a line uses only the nodes
    on it, so every step stays inside the lattice.  Rewriting each
    binom(a_i, m_i) in powers of a_i, again axis by axis, gives the
    monomial coefficients.  Each pass costs O(d) field operations per
    lattice point on a line with a nonzero value.
    """
    table = _binomial_powers(d)
    weights = [[field.from_rational(c) for c in row] for row in table]

    def to_powers(vals):
        out = []
        for e in range(len(vals)):
            acc = None
            for m in range(e, len(vals)):
                if vals[m] is not None and table[m][e]:
                    t = vals[m] * weights[m][e]
                    acc = t if acc is None else acc + t
            out.append(acc)
        return out

    for axis in range(n):
        values = _along(values, axis, d, _differences)
    for axis in range(n):
        values = _along(values, axis, d, to_powers)
    return values


def _form_of(data: TwoStepData) -> MultiPoly:
    """Pf J(z) from its values at (1, a) over the principal lattice."""
    p, q = data.type
    if p % 2 == 1:
        raise OddSizeError("complement dimension %d is odd" % p)
    field = data.algebra.field
    zero = field.zero()
    d = p // 2
    parts = _jay_coefficients(data)
    values = {}
    for a in _lattice(d, q - 1):
        entries: dict = {}
        for t, part in zip((1,) + a, parts):
            if t == 0:
                continue
            scale = field.from_rational(t)
            for key, c in part.items():
                term = c if t == 1 else c * scale
                prev = entries.get(key)
                entries[key] = term if prev is None else prev + term
        # J(1, a) is skew by construction: eliminate without re-checking
        rows = {i: {} for i in range(p)}
        for (i, j), c in entries.items():
            if not c.is_zero():
                rows[i][j] = c
                rows[j][i] = -c
        if all(rows.values()):
            value = _eliminate(rows, zero)
            if not value.is_zero():
                values[a] = value
    coeffs = _interpolate(values, d, q - 1, field)
    return MultiPoly(field, q, {(d - sum(m),) + m: c
                                for m, c in coeffs.items()})


def pfaffian_form(L: LieAlgebra) -> PfaffianForm:
    """Pfaffian of J(z); OddSizeError when the complement has odd dimension.

    Pf J(z) is homogeneous of degree d = p/2, so it is fixed by its values
    at z = (1, a) for the C(d+q-1, q-1) points a of the principal lattice;
    each value is a field Pfaffian and the coefficients come from Newton
    interpolation on the lattice.
    """
    data = two_step_type(L)
    return PfaffianForm(data, _form_of(data))


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

    This is invariant_S of the quartic read as a z1^4 + 4b z1^3 z2 +
    6c z1^2 z2^2 + 4d z1 z2^3 + e z2^4, that is AE - BD/4 + C^2/12 on the
    raw coefficients; it satisfies classical_S(f o A) = det(A)^4 *
    classical_S(f) for every linear substitution A, so it is invariant
    under SL2.  invariant_S applies the same formula directly to raw
    coefficients, which matches the family evaluations (S(f_lambda) =
    3 lambda^2 + 1) but transforms differently.
    """
    return invariant_S(_binomially_scaled(form))


def classical_T(form: MultiPoly) -> FieldElement:
    """The weight-6 quartic invariant; see classical_S for the convention."""
    return invariant_T(_binomially_scaled(form))


def _binomially_scaled(form: MultiPoly) -> MultiPoly:
    """The quartic whose raw coefficients are (A, B/4, C/6, D/4, E) for
    form's raw coefficients (A, B, C, D, E)."""
    field = form.field
    coeffs = _quartic_coeffs(form)
    return MultiPoly(field, 2, {
        (4 - k, k): coeffs[k] * field.from_rational(Fraction(1, comb(4, k)))
        for k in range(5)})


def invariant_c(form: MultiPoly) -> FieldElement:
    """c = S^3 / T^2; TVanishesError when T = 0."""
    S = invariant_S(form)
    T = invariant_T(form)
    if T.is_zero():
        raise TVanishesError("invariant T vanishes; c is undefined")
    return (S * S * S) / (T * T)


def quartic_form_of(L: LieAlgebra) -> MultiPoly:
    """The binary quartic Pf J(z) of a type (8, 2) two-step algebra.

    The type is checked before the form is built.
    """
    data = two_step_type(L)
    if data.type != (8, 2):
        raise WrongShapeError("quartic invariant needs type (8, 2), got %r"
                              % (data.type,))
    return _form_of(data)


def invariant_c_of(L: LieAlgebra) -> FieldElement:
    """The quartic invariant of a type (8, 2) two-step algebra."""
    return invariant_c(quartic_form_of(L))


def refute_isomorphism_by_c(A: LieAlgebra, B: LieAlgebra) -> bool:
    """True when both are type (8, 2) and their quartics differ in what a
    map f -> u f o M keeps: a zero classical T, then a zero classical S,
    then S^3/T^2 (S scales by u^2 det(M)^4 and T by u^3 det(M)^6)."""
    try:
        forms = quartic_form_of(A), quartic_form_of(B)
    except (NotTwoStepError, OddSizeError, WrongShapeError):
        return False
    (sa, ta), (sb, tb) = ((classical_S(f), classical_T(f)) for f in forms)
    if ta.is_zero() or tb.is_zero():
        return ta.is_zero() != tb.is_zero() or sa.is_zero() != sb.is_zero()
    return sa * sa * sa * tb * tb != sb * sb * sb * ta * ta


def projective_equivalence_check(f: MultiPoly, g: MultiPoly, matrix,
                                 scalar) -> bool:
    """Check scalar * f(matrix @ (z1, z2, ...)) == g exactly."""
    field = f.field
    s = _coerce(field, scalar)
    if s.is_zero():
        raise ZeroScalarError("equivalence scalar must be nonzero")
    rows = [[_coerce(field, c) for c in row] for row in matrix]
    if linalg.rank([list(r) for r in rows], field) < len(rows):
        raise SingularMatrixError("substitution matrix is singular")
    return f.compose_linear(rows).scale(s) == g
