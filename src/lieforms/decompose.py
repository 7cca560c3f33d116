"""Decomposition into indecomposable ideals, certificates, and form counting.

Direct summands of a Lie algebra correspond to idempotents of its centroid,
the associative algebra of linear maps M with M[x,y] = [Mx,y] = [x,My] for
all x and y.  The pipeline here computes the centroid as the commutant of
ad(L), on the table L keeps in a basis adapted to [L, L] (a complement of
coordinate vectors, then the reduced echelon basis of [L, L]) where the
structure constants are sparse whatever basis L came in, and maps the
result back.  The commutant is solved one ad(e_j) at a time: the solution
space left by the blocks so far is kept as a canonical basis (1 on its own
free column, 0 on the others), each new block is solved in that basis's
coordinates, and only the basis vectors its reduced rows name are
rewritten.  The answer is that canonical basis in L's own coordinates, so
it does not depend on the basis the system was solved in.  The centroid is
solved once per decomposition: a summand I = e L of a piece takes the
corner e C e of the piece's centroid C, restricted to I and put in the same
canonical basis.  A decomposition runs on the adapted table too, centroid,
splits, pieces and the final verification alike, and maps each summand's
basis back to L's coordinates once at the end.  Each piece then takes one
route through the radical quotient: the trace Gram of the centroid basis
gives the Jacobson radical R as its nullspace and the small quotient by R
through its pivot columns; a candidate whose minimal polynomial modulo R
splits into coprime factors gives an idempotent modulo R, lifted to an
exact one, and the piece splits along its image and kernel.  That minimal
polynomial is the first relation among the candidate's powers modulo R,
read in the canonical basis, where each coordinate is one flat entry
(linalg.krylov_relation, the one rule behind every minimal polynomial
here).  The route works on the centroid matrices as sparse matrices, with
linalg's sparse kit: the Gram, the candidates and their powers, and the
lift.  Roots, splits and irreducibility of the minimal polynomials come
from one factorization, fields.factor, on every tower level.  A piece
without a split is certified when the centroid is proven local (scalars,
a quotient of dimension one, or a quotient that is a field, shown by a
minimal polynomial of full degree proved irreducible, with R proven
nilpotent).  R is proven square-zero when each of its elements kills
[L, L] and maps L into [L, L], checked against the echelon basis of
[L, L]: then RR maps L into [L, L] and on to 0.  Such an R lies in
Hom(L/[L, L], Z(L) ∩ [L, L]), the square-zero ideal of every centroid
(D. Melville, Comm. Algebra 1992); the radicals of the nilpotent catalog
algebras all pass.  When the check fails, for instance when L is
perfect, R is proven nilpotent by the chain of its images.  Everything
an answer depends on is re-verified exactly; searches that fail produce
"heuristic" labels or unknown verdicts, never unverified claims.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass
from math import comb
from typing import Optional

from . import linalg
from .linalg import (
    _SparseReducer,
    _columns,
    _combine,
    _dense_matrix,
    _flat,
    _sp_mul,
    _sp_sum,
    _sub_scaled,
    _unflatten,
)
from .errors import (
    DegenerateError,
    NotTwoStepError,
    OddSizeError,
    TVanishesError,
    TowerMismatchError,
    UncertifiedDecompositionError,
    WrongShapeError,
)
from .fields import (
    FieldTower,
    GaloisGroup,
    _addmul,
    factor,
    galois_group,
    roots_in_field,  # noqa: F401  (public from decompose too)
)
from .polynomials import Polynomial, poly_ext_gcd
from .liealg import (
    LieAlgebra,
    _ad_images,
    _restricted,
    _spans_ideal,
    _touching,
    fingerprint,
    direct_sum,
    verify_sigma_isomorphism,
)
from .descent import class_of, conjugate_orbit
from .pfaffian import invariant_c_of, refute_isomorphism_by_c

DEFAULT_SEED = 20260823

CERTIFIED = "CertifiedIndecomposable"
HEURISTIC = "HeuristicIndecomposable"
UNKNOWN = "Unknown"


# ----------------------------------------------------------------- centroid


def centroid_basis(L: LieAlgebra) -> list:
    """Basis matrices of the centroid of L, in canonical form.

    The centroid does not depend on the basis: written in the basis given
    by the columns of Q, L has centroid Q^-1 C(L) Q.  So the system is
    solved on L.adapted, L in the basis adapted to D = [L, L] that
    L.adapted_basis names, where every bracket has at most dim D
    constants, however dense it is in L's basis.  Each solution M' is
    mapped back as Q M' Q^-1 and the span is put in canonical form (see
    _canonical): the reduced echelon nullspace basis of the whole system
    in L's basis, which _block_centroid gives when run on L itself.  When
    D is a coordinate subspace, L is already adapted and is solved as it
    stands.
    """
    return [_dense_matrix(M, L.dim, L.field) for M in _sparse_centroid(L)]


def _sparse_centroid(L: LieAlgebra) -> list:
    """centroid_basis as sparse matrices."""
    if L.dim == 0:
        raise DegenerateError("centroid of a zero-dimensional algebra")
    if L.adapted is None:
        basis = _block_centroid(L)
    else:
        basis = _adapted_centroid(L)
    return [_unflatten(vec, L.dim) for vec in basis]


def _canonical(field, n, flats) -> list:
    """The canonical basis of the span of n-by-n matrices given as sparse
    flat vectors (entry M[r][c] at r*n + c): the reduced echelon basis with
    the flat columns read in reverse, vector t being 1 on its own free
    column f_t (its last nonzero flat entry), 0 on every other free
    column, sorted by f_t.  It depends only on the span."""
    last = n * n - 1
    red, _ = linalg.echelon(({last - k: v for k, v in flat.items()}
                             for flat in flats), field)
    return [{last - k: v for k, v in row.items()} for row in reversed(red)]


def _conjugated(field, m, left, mats, right) -> list:
    """The canonical basis (see _canonical) of the span of the m-by-m
    products left M right over the sparse matrices M in mats."""
    return _canonical(field, m, [_flat(_sp_mul(_sp_mul(left, M), right), m)
                                 for M in mats])


def _adapted_centroid(L: LieAlgebra) -> list:
    """The canonical centroid basis of L, as sparse flat vectors, solved on
    L.adapted and mapped back as Q M' Q^-1 through the columns of Q."""
    n, field = L.dim, L.field
    one = field.one()
    derived = L.derived
    Q = _columns(dict(enumerate(L.adapted_basis())))
    # the rows of Q^-1: entry (t, c) is the adapted coordinate t of e_c
    free = {c: t for t, c in enumerate(c for c in range(n)
                                       if c not in derived)}
    inv = {t: {c: one} for c, t in free.items()}
    for t, c in enumerate(sorted(derived), len(free)):
        inv[t] = {c: one}
        for f, v in derived[c].items():
            if f != c:
                inv[free[f]][c] = -v
    mats = [_unflatten(vec, n) for vec in _block_centroid(L.adapted)]
    return _conjugated(field, n, Q, mats, inv)


def _block_centroid(L: LieAlgebra) -> list:
    """The reduced echelon nullspace basis, as sparse flat vectors ordered
    by free column, of the conditions M[e_i, e_j] = [M e_i, e_j] over all
    ordered basis pairs, including i = j (which forces [M e_i, e_i] = 0).

    They are linear in the entries M[r][c] at flat index r*n + c; for one j
    they say that M commutes with R_j, right multiplication by e_j.  The
    solution space is shrunk one j at a time, starting from the n^2 matrix
    units.  Each block is solved in the coordinates y_t of the current
    basis M_t: its equations are the flat entries of the sum of
    y_t (M_t R_j - R_j M_t), accumulated from the nonzeros of each M_t and
    of R_j, so the cost follows the supports and no row that vanishes on
    the whole basis is formed.  That is the same system as the flat rows
    of block j written in the basis, so its reduced rows are the same.

    The basis is kept canonical throughout: vector t is 1 on its own free
    column f_t, 0 on every other free column, and sorted by f_t.  The
    reduced rows of a block pivot on their smallest t, so vector u only
    takes multiples of pivot vectors t < u, which vanish on f_u and on
    every free column kept; dropping the pivot vectors leaves the
    canonical basis of the smaller space.
    """
    n, field = L.dim, L.field
    one = field.one()
    basis = [{f: one} for f in range(n * n)]
    for j in range(n):
        # R_j by columns, cols[s] = [e_s, e_j], and by rows
        cols = [L.bracket_basis(s, j) for s in range(n)]
        rows = _columns(dict(enumerate(cols)))
        # the equation at flat position p: t -> (M_t R_j - R_j M_t)[p]
        system: dict = {}
        for t, vec in enumerate(basis):
            for pos, v in vec.items():
                r, k = divmod(pos, n)
                for s, c in rows.get(k, {}).items():
                    _addmul(system.setdefault(r * n + s, {}), t, v, c)
                for p, c in cols[r].items():
                    _addmul(system.setdefault(p * n + k, {}), t, c, v, True)
        red = _SparseReducer(field)
        for row in system.values():
            red.add(row)
        if not red.pivots:
            continue
        red.reduce_fully()
        for t, prow in red.pivots.items():
            for u, a in prow.items():
                if u != t:
                    _sub_scaled(basis[u], a, basis[t])
        basis = [vec for t, vec in enumerate(basis) if t not in red.pivots]
    return basis


# ----------------------------------------------------------------- radical


def _trace_gram(field, mats) -> list:
    """The trace form tr(A_a A_b) on sparse matrices, as sparse rows
    {b: value}.  Each product term A_a[r][c] A_b[c][r] is found through an
    index from position (c, r) to the matrices with an entry there."""
    index: dict = {}
    for b, B in enumerate(mats):
        for r, row in B.items():
            for c, y in row.items():
                index.setdefault((r, c), []).append((b, y))
    gram = [{} for _ in mats]
    for a, A in enumerate(mats):
        acc = gram[a]
        for r, row in A.items():
            for c, x in row.items():
                for b, y in index.get((c, r), ()):
                    if b >= a:
                        _addmul(acc, b, x, y)
        for b, v in list(acc.items()):
            if v.is_zero():
                del acc[b]
            elif b > a:
                gram[b][a] = v
    return gram


def _gram_radical(field, gram):
    """The pivot columns of the trace Gram, which name a basis of the
    quotient by the radical, and its reduced echelon nullspace basis as
    sparse coefficient vectors: the radical."""
    red = _SparseReducer(field)
    for row in gram:
        red.add(row)
    null = red.nullspace(len(gram))
    return sorted(red.pivots), null


def radical(L: LieAlgebra) -> list:
    """Basis of the Jacobson radical of the centroid of L, as matrices in
    L's basis: the centroid elements M with tr(M M') = 0 for every M' of
    the centroid basis (exact in characteristic zero, where the centroid
    is a unital algebra acting faithfully on L)."""
    field, mats = L.field, _sparse_centroid(L)
    _, null = _gram_radical(field, _trace_gram(field, mats))
    return _radical_matrices(field, L.dim, mats, null)


def _radical_matrices(field, n, mats, null) -> list:
    """The dense radical elements: for each v of null, the sum of v_t
    mats[t] over the sparse basis mats."""
    return [_dense_matrix(_sp_sum((c, mats[t]) for t, c in v.items()), n,
                          field) for v in null]


def _square_zero(mats, null, derived) -> bool:
    """True when every radical element M, the sum of v_t mats[t] for a
    vector v of null, kills D = [L, L] and maps L into D.

    Then M'M = 0 for any two of them, since M maps L into D and M' kills
    D: the radical squares to zero, so it is nilpotent.  Both conditions
    are linear in M, so each basis matrix gets one sparse defect vector,
    its images of D's echelon rows followed by its columns reduced modulo
    D, and each v must combine the defects to zero.  derived maps each
    pivot column of D to its reduced echelon row, as LieAlgebra.derived
    holds it.
    """
    defects: dict = {}

    def defect(t):
        if t not in defects:
            cols = _columns(mats[t])
            out = {}
            for p, drow in derived.items():
                image: dict = {}
                for c, y in drow.items():
                    if c in cols:
                        _sub_scaled(image, -y, cols[c])
                for r, x in image.items():
                    out[(0, p, r)] = x
            for c, col in cols.items():
                rest = dict(col)
                for p, x in col.items():
                    if p in derived:
                        _sub_scaled(rest, x, derived[p])
                for r, x in rest.items():
                    out[(1, c, r)] = x
            defects[t] = out
        return defects[t]

    for v in null:
        acc: dict = {}
        for t, c in v.items():
            _sub_scaled(acc, -c, defect(t))
        if acc:
            return False
    return True


def _nilpotent_span(field, mats) -> bool:
    """True iff the matrices generate a nilpotent algebra.

    The images W_0 = F^n, W_{k+1} = sum of M W_k over the matrices M only
    shrink; they reach 0 exactly when every long enough product vanishes,
    and once the rank stops falling they never do.
    """
    if not mats:
        return True
    rows = linalg.identity_matrix(field, len(mats[0]))
    while rows:
        image, _ = linalg.rref([linalg.mat_vec(M, w, field)
                                for M in mats for w in rows], field)
        if len(image) == len(rows):
            return False
        rows = image
    return True


# ----------------------------------------------------------- minimal polys


def _powers(x: dict, n: int, field):
    """The sparse powers I, x, x^2, ... of a sparse n-by-n matrix."""
    power = {d: {d: field.one()} for d in range(n)}
    while True:
        yield power
        power = _sp_mul(power, x)


def minpoly_of_matrix(M, field) -> Polynomial:
    """Monic minimal polynomial of a square matrix: the first relation
    among the flat vectors of its powers I, M, M^2, ...
    (linalg.krylov_relation)."""
    n = len(M)
    A = {r: row for r, row in enumerate(map(linalg.sparse, M)) if row}
    return linalg.krylov_relation(
        (_flat(P, n) for P in _powers(A, n, field)), field, n * n)


def _coprime_split(p: Polynomial):
    """(split, factors): factors is factor(p), and split is p = S * T into
    coprime monic factors of positive degree at p's first factor (a linear
    one where p has a root), or None when p has one factor or factor
    stops at the cap."""
    p = p.monic()
    factors = factor(p)
    if factors is None or len(factors) < 2:
        return None, factors
    S = factors[0][0] ** factors[0][1]
    return (S, p // S), factors


# ------------------------------------------------------- idempotent search

QUOTIENT_TRIALS = 50


def _quotient_candidates(q: int):
    """Quotient coordinates to try: the basis, then seeded combinations
    with coefficients in {-2..2}."""
    for t in range(q):
        yield [int(i == t) for i in range(q)]
    rng = random.Random(DEFAULT_SEED)
    for _ in range(QUOTIENT_TRIALS):
        y = [rng.randrange(-2, 3) for _ in range(q)]
        if any(y):
            yield y


def _lifted_idempotent(split, x: dict, n: int, field) -> Optional[dict]:
    """The idempotent of F[x] named by a coprime split S*T of x's minimal
    polynomial modulo the radical; x is a sparse n-by-n matrix.

    With u S + v T = 1, e = (v T)(x) is idempotent modulo the radical R;
    each step e <- 3e^2 - 2e^3 moves e^2 - e from R^k into R^2k, and R^n = 0
    for n-by-n matrices.  Returns the exact idempotent, sparse, or None
    when it is not reached after ceil(log2 n) + 1 steps.
    """
    S, T = split
    _g, _u, v = poly_ext_gcd(S, T)
    e = _sp_sum(zip((v * T).coeffs, _powers(x, n, field)))
    three, minus_two = field.from_rational(3), field.from_rational(-2)
    for _ in range((n - 1).bit_length() + 2):
        e2 = _sp_mul(e, e)
        if e2 == e:
            return e
        e = _sp_sum(((three, e2), (minus_two, _sp_mul(e2, e))))
    return None


def _certify_local(field, n, mats, null, owner, detail):
    """Certificate for a centroid of the Lie algebra owner whose quotient
    by the trace radical is a field: local once the radical is proven
    nilpotent.

    The radical is spanned by the combinations of the sparse basis mats
    given by null.  It is proven square-zero when it kills [owner, owner]
    and maps owner into it, and otherwise by the chain of its images.
    """
    if _square_zero(mats, null, owner.derived) or _nilpotent_span(
            field, _radical_matrices(field, n, mats, null)):
        return CERTIFIED, detail
    return HEURISTIC, ("no idempotent found; radical nilpotency could not "
                       "be verified")


def _split_or_certify(field, n, mats, owner):
    """A nontrivial idempotent of the unital algebra A of n-by-n matrices
    spanned by the sparse mats, found through the radical quotient, or a
    certificate that the search ended without one.

    mats must be canonical (see _canonical), as _block_centroid, _canonical
    through _adapted_centroid, and _corner_centroid all give it: matrix t
    is 1 at its free flat position f_t, its last nonzero flat entry, and 0
    at the others', so coordinate t of an element of A is its flat entry
    at f_t.  The trace Gram has the radical R as its nullspace, and the
    matrices at its q pivot columns span A/R.  The minimal polynomial of a
    candidate x modulo R, which is that of left multiplication by x on the
    unital A/R, is the first relation among the coordinates of I, x, x^2,
    ... modulo R's (linalg.krylov_relation).  A coprime split of it is
    lifted to an exact idempotent; an irreducible one of degree q proves
    A/R a field.  owner is the Lie algebra whose centroid A is (see
    _certify_local).

    Returns (e, None, None) with e sparse, or (None, certificate, detail).
    """
    if len(mats) == 1:
        return None, CERTIFIED, "centroid consists of scalars"
    piv, null = _gram_radical(field, _trace_gram(field, mats))
    q = len(piv)
    if q == 1:
        return (None,) + _certify_local(
            field, n, mats, null, owner,
            "centroid is local: nilpotent radical of codimension one")
    quo = [mats[k] for k in piv]
    free = [max(_flat(M, n)) for M in mats]

    def coords(P):
        flat = _flat(P, n)
        return {t: flat[f] for t, f in enumerate(free) if f in flat}

    for y in _quotient_candidates(q):
        x = _sp_sum(zip(map(field.from_rational, y), quo))
        p = linalg.krylov_relation(map(coords, _powers(x, n, field)), field,
                                   len(mats), null)
        if p.degree < 2:
            continue
        split, factors = _coprime_split(p)
        if split is not None:
            e = _lifted_idempotent(split, x, n, field)
            if e is not None:
                return e, None, None
        elif p.degree == q and factors == [(p, 1)]:
            return (None,) + _certify_local(
                field, n, mats, null, owner,
                "centroid modulo its radical is a field")
    return None, HEURISTIC, ("no idempotent found, but the centroid was not "
                             "proven local")


# ----------------------------------------------------------- decomposition


@dataclass(frozen=True)
class Summand:
    """One indecomposable piece: the induced algebra, its basis rows in the
    owner's coordinates, and the indecomposability certificate.

    The algebra's constants are those of the rows: [r_a, r_b] in the owner
    is the sum of c_ab^k r_k, with c read from algebra.  The rows need not
    be in echelon form.
    """

    algebra: LieAlgebra
    rows: tuple
    certificate: str
    detail: str


@dataclass(frozen=True)
class Decomposition:
    owner: LieAlgebra
    summands: tuple
    verified: bool

    @property
    def ideal_bases(self):
        return tuple(s.rows for s in self.summands)

    @property
    def certificates(self):
        return tuple(s.certificate for s in self.summands)

    @property
    def all_certified(self) -> bool:
        return all(s.certificate == CERTIFIED for s in self.summands)

    def __len__(self) -> int:
        return len(self.summands)


def verify_decomposition(L: LieAlgebra, ideal_bases) -> bool:
    """True iff every span is a nonzero ideal, the spans are independent,
    and the dimensions add up to dim L (pairwise brackets then vanish since
    [I, J] lies in the zero intersection)."""
    total_rows = []
    for rows in ideal_bases:
        red, pivots = linalg.echelon([linalg.sparse(r) for r in rows],
                                     L.field)
        if not red or not _spans_ideal(L, red, pivots):
            return False
        total_rows.extend(red)
    if len(total_rows) != L.dim:
        return False
    red = _SparseReducer(L.field)
    return sum(red.add(w) for w in total_rows) == L.dim


def decompose_indecomposable(L: LieAlgebra) -> Decomposition:
    """Split L into indecomposable ideals along centroid idempotents.

    Each piece takes one route: centroid, trace Gram, radical and quotient,
    then a split of the quotient lifted to an exact idempotent, or a
    certificate.  Pieces without a split are labeled
    CertifiedIndecomposable when the centroid is proven local (scalars
    only, a quotient of dimension one, or a quotient that is a field, with
    the radical proven nilpotent) and HeuristicIndecomposable otherwise.
    The centroid is solved once, for L; each piece of a split takes its
    parent's corner (_corner_centroid).

    The route runs on L.adapted when L has one, where the constants are
    sparse however dense L's are, and each summand's rows are mapped back
    to L's coordinates once, through the columns of L.adapted_basis().  A
    single summand is L itself with identity rows; otherwise each summand's
    algebra is the route's piece, whose constants are those of the
    reported rows: [r_a, r_b] = sum of c_ab^k r_k in L.  verified is
    verify_decomposition of the route's rows on the route's table, sparse
    where L's constants are dense.  That is sound: the columns of
    L.adapted_basis() give an isomorphism from L.adapted onto L, which
    takes ideals to ideals and independent spans to independent spans,
    and it sends the span of each summand's route rows onto the span of
    its reported rows.
    """
    route = L if L.adapted is None else L.adapted
    found = _split_queue(route)
    field = L.field
    if len(found) == 1:
        summands = (Summand(L, _freeze_rows(linalg.identity_matrix(
            field, L.dim)), found[0].certificate, found[0].detail),)
    elif route is L:
        summands = tuple(found)
    else:
        vecs = L.adapted_basis()
        summands = tuple(Summand(s.algebra, _freeze_rows(
            [linalg.dense(_combine(linalg.sparse(r), vecs), L.dim, field)
             for r in s.rows]), s.certificate, s.detail)
            for s in found)
    return Decomposition(L, summands,
                         verify_decomposition(route, [s.rows for s in found]))


def _split_queue(A: LieAlgebra) -> list:
    """The summands of A, with rows in A's coordinates.

    The centroid is solved once, for A.  Each pending piece is split along
    an idempotent of its centroid or certified, and the two summands of a
    split take their parent's corner (_corner_centroid).  Each piece
    carries its basis as sparse rows in A's coordinates.
    """
    field, n = A.field, A.dim
    one = field.one()
    pending = deque()
    pending.append((A, [{d: one} for d in range(n)],
                    _sparse_centroid(A)))
    finished = []
    while pending:
        piece, rows, mats = pending.popleft()
        m = piece.dim
        e, cert, detail = _split_or_certify(field, m, mats, piece)
        if e is None:
            finished.append(Summand(piece, _freeze_rows(
                [linalg.dense(w, n, field) for w in rows]), cert, detail))
            continue
        complement = _sp_sum(((one, {d: {d: one} for d in range(m)}),
                              (-one, e)))
        halves = _split_rows(piece, e, complement)
        for (part, pivots), proj in zip(halves, (e, complement)):
            pending.append((_restricted(piece, part, pivots),
                            [_combine(w, rows) for w in part],
                            _corner_centroid(field, mats, proj, part)))
    return finished


def _corner_centroid(field, mats, proj, part) -> list:
    """The centroid of a summand I of a piece L, from the centroid of L.

    L = I + J with [I, J] = 0, and proj, the projection onto I along J,
    lies in C(L).  Each proj M proj maps I into I and commutes with ad I,
    and any map in C(I), extended by 0 on J, lies in C(L); so the
    restrictions to I of proj M proj over the sparse basis mats of C(L)
    span C(I).  part is I's reduced echelon basis (rows w_t in L's
    coordinates, as _restricted takes them), so a vector of I has as
    coordinates its entries at their pivots, and entry (s, t) of a corner
    is row pivot_s of proj, times M, times w_t.  The span is put in the
    canonical form of centroid_basis, which is unique: the result is the
    sparse form of centroid_basis of the piece, matrix for matrix.
    """
    m = len(part)
    head = {}
    for s, w in enumerate(part):
        row = proj.get(min(w))
        if row is not None:
            head[s] = row
    cols = _columns(dict(enumerate(part)))  # column c -> {t: w_t[c]}
    return [_unflatten(vec, m)
            for vec in _conjugated(field, m, head, mats, cols)]


def _freeze_rows(rows):
    return tuple(tuple(r) for r in rows)


def _split_rows(piece: LieAlgebra, e: dict, complement: dict):
    """The image and the kernel of a verified sparse idempotent e, each as
    its reduced echelon sparse rows and their pivots.  The kernel of e is
    the image of complement, 1 - e, and an image is the span of the
    columns."""
    halves = [linalg.echelon(_columns(proj).values(), piece.field)
              for proj in (e, complement)]
    (img, _), (ker, _) = halves
    if len(img) + len(ker) != piece.dim or not img or not ker:
        raise DegenerateError("idempotent image/kernel do not split the "
                              "space")
    if not all(_spans_ideal(piece, *half) for half in halves):
        raise DegenerateError("idempotent split produced a non-ideal")
    return halves


# ------------------------------------------------------ isomorphism oracle


@dataclass(frozen=True)
class Verdict:
    """Layered isomorphism answer: confirmed (with a verified certificate
    matrix), refuted (with the distinguishing reason), or unknown."""

    status: str
    reason: str
    certificate: Optional[tuple] = None


def _confirmed(reason, matrix):
    return Verdict("confirmed", reason, tuple(tuple(r) for r in matrix))


def _refuted(reason):
    return Verdict("refuted", reason)


_UNKNOWN = Verdict("unknown", "no layer decided")


def _almost_abelian_action(L: LieAlgebra) -> tuple:
    """(action, own): action is (f, X) when D = [L, L] is abelian of
    codimension one, else None; f is the one column that is not a pivot of
    D's echelon rows d_t, and column t of X is [e_f, d_t] at the pivots, so
    X is ad e_f on D in the rows.  own is the dimension of {Z : X Z = Z X},
    None without an action.

    Like the fingerprint, the pair is computed on the first call and kept
    on L.
    """
    if L._action is None:
        L._action = _almost_abelian_data(L)
    return L._action


def _almost_abelian_data(L: LieAlgebra) -> tuple:
    """_almost_abelian_action of L, computed."""
    if fingerprint(L).derived[1:] != (L.dim - 1, 0):
        return None, None
    (f,) = (c for c in range(L.dim) if c not in L.derived)
    touching, pivots = _touching(L.brackets), sorted(L.derived)
    cols = [_ad_images(touching, L.derived[c]).get(f, {}) for c in pivots]
    X = [[col.get(c, L.field.zero()) for col in cols] for c in pivots]
    return (f, X), len(_intertwiners(L.field, X, X))


def _scales(field, X, Y):
    """The s that X ~ s Y allows, and whether the list is complete (not
    where factor stops at the cap), from tr X^k = s^k tr Y^k at the first
    k where a trace is nonzero.  X is invertible, as [L, L] = X [L, L], so
    tr X^k is nonzero for some k."""
    PX, PY = X, Y
    for k in itertools.count(1):
        tx, ty = (sum((row[t] for t, row in enumerate(M)), field.zero())
                  for M in (PX, PY))
        if tx.is_zero() != ty.is_zero():
            return [], True
        if not tx.is_zero() and k == 1:
            return [tx / ty], True
        if not tx.is_zero():
            factors = factor(Polynomial.gen(field) ** k
                             - Polynomial(field, [tx / ty]))
            return ([-f.coeffs[0] for f, _m in factors or ()
                     if f.degree == 1], factors is not None)
        PX, PY = linalg.mat_mul(PX, X, field), linalg.mat_mul(PY, Y, field)


def _intertwiners(field, P, Q) -> list:
    """A basis of {Z : P Z = Z Q}, with Z[r][c] at flat index r*m + c."""
    m, zero = len(P), field.zero()
    red = _SparseReducer(field)
    for i, j in itertools.product(range(m), repeat=2):
        row: dict = {}
        for k in range(m):
            row[k * m + j] = row.get(k * m + j, zero) + P[i][k]
            row[i * m + k] = row.get(i * m + k, zero) - Q[k][j]
        red.add(row)
    return red.nullspace(m * m)


def _similarity_verdict(A, B) -> Verdict:
    """The verdict on A and B, almost abelian both, with actions (f, X)
    and (f', X').

    An isomorphism maps [A, A] onto [B, B] and e_f to s e_f' plus a vector
    acting trivially there, so A and B are isomorphic exactly when
    X ~ s X' for some s; P ~ Q exactly when {Z : P Z = Z Q} has the
    dimension of (P, P) and of (Q, Q) (Byrnes and Gauger, Linear
    Multilinear Algebra 5, 1977).  An invertible Z with Z X = s X' Z maps
    e_f -> s e_f' and d_t -> sum of Z_rt d'_r; as d_t = e_c + d_t[f] e_f,
    column c of its matrix is that image less d_t[f] s e_f'.
    """
    field, n, zero = A.field, A.dim, A.field.zero()
    ((fa, X), own), ((fb, Y), own_b) = (_almost_abelian_action(A),
                                        _almost_abelian_action(B))
    scales, complete = (_scales(field, X, Y) if own == own_b
                        else ([], True))
    rows_b = [B.derived[c] for c in sorted(B.derived)]
    for s in scales:
        Z = _intertwiners(field, [[s * y for y in row] for row in Y], X)
        if len(Z) != own:
            continue
        for y in _quotient_candidates(own):
            zmat = _unflatten(_combine(dict(enumerate(
                map(field.from_rational, y))), Z), n - 1)
            if len(linalg.echelon(zmat.values(), field)[0]) == n - 1:
                break
        else:
            return _UNKNOWN
        cert = [[zero] * n for _ in range(n)]
        cert[fb][fa] = s
        for c, zcol in zip(sorted(A.derived), _columns(zmat).values()):
            col = _combine(zcol, rows_b)
            _sub_scaled(col, s, {fb: A.derived[c].get(fa, zero)})
            for r, v in col.items():
                cert[r][c] = v
        if verify_sigma_isomorphism(A, B, None, cert):
            return _confirmed("ad on [L, L] similar up to scale", cert)
        return _UNKNOWN
    return (_refuted("ad on [L, L] not similar up to scale") if complete
            else _UNKNOWN)


def isomorphism_verdict(A: LieAlgebra, B: LieAlgebra) -> Verdict:
    """Layered exact isomorphism oracle: dimension and fingerprint refute,
    identical structure constants confirm, the almost-abelian similarity
    of _similarity_verdict decides when [L, L] is abelian of codimension
    one, and the classical quartic invariants of type (8, 2) two-step
    algebras refute.  Every confirmation carries a matrix re-verified as a
    bijective bracket morphism; everything else is unknown.
    """
    if A.field != B.field:
        raise TowerMismatchError("cannot compare algebras over different "
                                 "field towers")
    if A.dim != B.dim:
        return _refuted("dimensions differ")
    if fingerprint(A) != fingerprint(B):
        return _refuted("fingerprints differ")
    if A.brackets == B.brackets:
        return _confirmed("identical structure constants",
                          linalg.identity_matrix(A.field, A.dim))
    if _almost_abelian_action(A)[0] is not None:
        return _similarity_verdict(A, B)
    if refute_isomorphism_by_c(A, B):
        return _refuted("quartic invariants differ")
    return _UNKNOWN


# ------------------------------------------------------------- KS matching


@dataclass(frozen=True)
class MatchReport:
    status: str
    pairing: Optional[tuple]
    reason: str


def _summand_algebras(D):
    if isinstance(D, Decomposition):
        return [s.algebra for s in D.summands]
    return list(D)


def _perfect_matching(n: int, adj) -> Optional[list]:
    match_right = [-1] * n

    def augment(u, seen):
        for v in adj[u]:
            if v in seen:
                continue
            seen.add(v)
            if match_right[v] == -1 or augment(match_right[v], seen):
                match_right[v] = u
                return True
        return False

    for u in range(n):
        if not augment(u, set()):
            return None
    pairing = [None] * n
    for v, u in enumerate(match_right):
        pairing[u] = (u, v)
    return pairing


def krull_schmidt_match(D1, D2) -> MatchReport:
    """Match two summand lists pairwise by the isomorphism oracle.

    A perfect matching along confirmed pairs gives "matched"; when even the
    non-refuted pairs admit no perfect matching the lists cannot present
    the same algebra, giving "refuted"; anything else is "unknown".
    """
    left = _summand_algebras(D1)
    right = _summand_algebras(D2)
    if len(left) != len(right):
        return MatchReport("refuted", None, "summand counts differ")
    n = len(left)
    confirmed = [[] for _ in range(n)]
    possible = [[] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            v = isomorphism_verdict(left[i], right[j])
            if v.status == "confirmed":
                confirmed[i].append(j)
                possible[i].append(j)
            elif v.status == "unknown":
                possible[i].append(j)
    pairing = _perfect_matching(n, confirmed)
    if pairing is not None:
        return MatchReport("matched", tuple(pairing),
                           "perfect matching along confirmed pairs")
    if _perfect_matching(n, possible) is None:
        return MatchReport("refuted", None,
                           "refuted pairs rule out any full matching")
    return MatchReport("unknown", None,
                       "matching blocked only by undecided pairs")


# ----------------------------------------------------------- form counting


@dataclass(frozen=True)
class OrbitFamilyCount:
    """One Galois orbit of isomorphism classes of summands."""

    class_representatives: tuple
    orbit_representatives: tuple
    multiplicity: int
    contribution: int


@dataclass(frozen=True)
class FormCount:
    algebra: LieAlgebra
    fixed: FieldTower
    group: GaloisGroup
    decomposition: Decomposition
    families: tuple
    count: int
    witnesses: tuple
    witness_blocks: tuple


def count_forms(L: LieAlgebra, F: FieldTower) -> FormCount:
    """Count the algebras over E = L.field sharing the underlying
    F-algebra of L, together with witnesses.

    Decomposes L with full certification and places each certified
    summand, in one pass, by class_of against the orbit representatives
    found so far: it joins that family, a Galois orbit of isomorphism
    classes, or opens one whose representatives are the classes of its
    conjugates.  Orbits are equal or disjoint, so families never merge; an
    unknown verdict with no confirmation raises OracleUndecidedError.  The
    count multiplies C(k+m-1, m-1) per family (k summands over m conjugate
    classes); one witness per counted class is an explicit direct sum.
    """
    E = L.field
    G = galois_group(E, F)
    dec = decompose_indecomposable(L)
    bad = sum(1 for s in dec.summands if s.certificate != CERTIFIED)
    if bad:
        raise UncertifiedDecompositionError(
            "%d summand(s) lack indecomposability certificates" % bad)

    # per family: orbit representatives, {class: its first summand}, size
    found: list = []
    for s in dec.summands:
        slots = [(fam, c) for fam in found for c in range(len(fam[0]))]
        hit = class_of(s.algebra, [fam[0][c] for fam, c in slots],
                       isomorphism_verdict)
        if hit is None:
            orbit = conjugate_orbit(s.algebra, G, isomorphism_verdict)
            found.append([tuple(orbit.conjugates[t]
                                for t in orbit.representatives), {}, 0])
            # the identity comes first in G, so s is in class 0
            fam, c = found[-1], 0
        else:
            fam, c = slots[hit]
        fam[1].setdefault(c, s.algebra)
        fam[2] += 1

    families = []
    family_distributions = []
    total = 1
    for orbit_reps, firsts, k in found:
        m = len(orbit_reps)
        contribution = comb(k + m - 1, m - 1)
        total *= contribution
        families.append(OrbitFamilyCount(
            class_representatives=tuple(firsts.values()),
            orbit_representatives=orbit_reps,
            multiplicity=k,
            contribution=contribution))
        family_distributions.append(
            [tuple(orbit_reps[t] for t in combo)
             for combo in itertools.combinations_with_replacement(
                 range(m), k)])

    witnesses = []
    witness_blocks = []
    for choice in itertools.product(*family_distributions):
        blocks = tuple(b for group in choice for b in group)
        witnesses.append(direct_sum(*blocks))
        witness_blocks.append(blocks)
    if len(witnesses) != total:
        raise DegenerateError("witness enumeration disagrees with the "
                              "multiset count")

    return FormCount(
        algebra=L, fixed=F, group=G, decomposition=dec,
        families=tuple(families), count=total,
        witnesses=tuple(witnesses), witness_blocks=tuple(witness_blocks))


def witness_invariants(blocks) -> list:
    """Quartic invariant c per block where defined, None elsewhere; used to
    distinguish witnesses pairwise."""
    out = []
    for b in blocks:
        try:
            out.append(invariant_c_of(b))
        except (NotTwoStepError, OddSizeError, TVanishesError,
                WrongShapeError):
            out.append(None)
    return out
