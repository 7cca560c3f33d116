"""Tests for centroid computation, idempotent splitting, certificates,
isomorphism verdicts, Krull-Schmidt matching, and form counting."""

import importlib.util
import itertools
import os
import random
from collections import Counter
from fractions import Fraction

import pytest

from lieforms import decompose as decompose_module
from lieforms import linalg
from lieforms.errors import (
    OracleUndecidedError,
    TowerMismatchError,
    UncertifiedDecompositionError,
)
from lieforms.fields import (
    factor,
    field_extend,
    gaussian_rationals,
    lift_to,
    quadratic_field,
    rationals,
)
from lieforms.linalg import _dense_matrix
from lieforms.polynomials import Polynomial, poly_ext_gcd
from lieforms.liealg import (
    LieAlgebra,
    _SparseReducer,
    change_basis,
    commutator_rows,
    direct_sum,
    fingerprint,
    is_ideal,
    restrict_to_span,
    verify_morphism,
    verify_sigma_isomorphism,
)
from lieforms.descent import conjugate, restrict_scalars
from lieforms.manifest import load_manifest
from lieforms.catalog import (
    abelian,
    g1_alpha,
    g1_iso_criterion,
    g_lambda,
    heisenberg,
    nintot_family,
    r3_iso_criterion,
    r3_lambda,
    r3_lambda_plus_abelian,
)
from lieforms.decompose import (
    CERTIFIED,
    HEURISTIC,
    _block_centroid,
    _certify_local,
    _lifted_idempotent,
    _nilpotent_span,
    _sparse_centroid,
    _split_or_certify,
    _split_queue,
    _square_zero,
    centroid_basis,
    count_forms,
    decompose_indecomposable,
    isomorphism_verdict,
    krull_schmidt_match,
    minpoly_of_matrix,
    radical,
    roots_in_field,
    verify_decomposition,
    witness_invariants,
)


def mat(field, entries):
    return [[field.from_rational(Fraction(c)) for c in row]
            for row in entries]


def mat_equal(A, B):
    return all(a == b for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def in_centroid(L, M):
    """Oracle: check M[x,y] = [Mx,y] = [x,My] over every basis pair,
    including the diagonal ones."""
    field = L.field
    n = L.dim
    cols = [[M[r][j] for r in range(n)] for j in range(n)]
    basis = linalg.identity_matrix(field, n)
    for i in range(n):
        for j in range(n):
            br = L.bracket_coords(basis[i], basis[j])
            lhs = linalg.mat_vec(M, br, field)
            left = L.bracket_coords(cols[i], basis[j])
            right = L.bracket_coords(basis[i], cols[j])
            if lhs != left or lhs != right:
                return False
    return True


def gaussian_lambda():
    Qi = gaussian_rationals()
    return Qi, Qi.one() + Qi.generator()


def in_span(mats, M):
    """Whether M lies in the span of the matrices mats."""
    flats = [[x for row in A for x in row] for A in mats]
    field = M[0][0].field
    rank = len(linalg.rref(flats, field)[0])
    return len(linalg.rref(flats + [[x for row in M for x in row]],
                           field)[0]) == rank


class TestCentroid:
    def test_heisenberg_centroid_scalar_plus_center_maps(self):
        Q = rationals()
        h = heisenberg(Q)
        C = centroid_basis(h)
        assert len(C) == 3
        for M in C:
            assert in_centroid(h, M)
        # the span contains the identity and the two maps into the center
        assert in_span(C, linalg.identity_matrix(Q, 3))
        assert in_span(C, mat(Q, [[0, 0, 0], [0, 0, 0], [1, 0, 0]]))
        assert in_span(C, mat(Q, [[0, 0, 0], [0, 0, 0], [0, 1, 0]]))
        # a map X -> Y fails the diagonal identity [MX, X] = 0
        assert not in_span(C, mat(Q, [[0, 0, 0], [1, 0, 0], [0, 0, 0]]))
        assert not in_centroid(h, mat(Q, [[0, 0, 0], [1, 0, 0], [0, 0, 0]]))

    def test_solvable_centroid_is_scalars(self):
        Q = rationals()
        C = centroid_basis(r3_lambda(Q, Q.from_rational(2)))
        assert len(C) == 1
        M = C[0]
        pivot = M[0][0]
        assert not pivot.is_zero()
        ident = linalg.identity_matrix(Q, 3)
        scaled = [[pivot * c for c in row] for row in ident]
        assert mat_equal(list(map(list, M)), scaled)

    def test_abelian_centroid_is_full_matrix_algebra(self):
        Q = rationals()
        assert len(centroid_basis(abelian(Q, 2))) == 4
        C = centroid_basis(abelian(Q, 3))
        assert len(C) == 9
        assert in_span(C, mat(Q, [[0, 1, 0], [0, 0, 0], [0, 0, 0]]))

    def test_direct_sum_centroid_contains_block_projections(self):
        Q = rationals()
        C = centroid_basis(direct_sum(heisenberg(Q), heisenberg(Q)))
        assert len(C) == 10
        p1 = mat(Q, [[1 if r == c and r < 3 else 0 for c in range(6)]
                     for r in range(6)])
        p2 = mat(Q, [[1 if r == c and r >= 3 else 0 for c in range(6)]
                     for r in range(6)])
        assert in_span(C, p1)
        assert in_span(C, p2)

    def test_g_lambda_centroid_dimension_and_validity(self):
        Qi, lam = gaussian_lambda()
        g = g_lambda(Qi, lam)
        basis = centroid_basis(g)
        assert len(basis) == 17
        for M in basis:
            assert in_centroid(g, M)


def unitriangular(n, seed):
    """Unitriangular P with a seeded superdiagonal from {-2, -1, 1, 2}; P.L
    then has dense structure constants."""
    rng = random.Random(seed)
    return [[1 if c == r else (rng.choice((-2, -1, 1, 2)) if c == r + 1
                               else 0)
             for c in range(n)] for r in range(n)]


def reversal(n):
    return [[1 if r + c == n - 1 else 0 for c in range(n)] for r in range(n)]


def sqrt2_over_gaussian():
    Qi = gaussian_rationals()
    return field_extend(
        Qi, Polynomial(Qi, [Qi.from_rational(-2), Qi.zero(), Qi.one()]),
        "s", [[Qi.zero(), Qi.one()], [Qi.zero(), -Qi.one()]])


def dense_centroid_reference(L):
    """The centroid from the whole system at once: one dense row for every
    (i, j, p), the p-th coordinate of M[e_i, e_j] - [M e_i, e_j] in the
    entries M[r][c] at r*n + c, solved by linalg.nullspace."""
    n, field = L.dim, L.field
    rows = []
    for i in range(n):
        for j in range(n):
            lhs = L.bracket_basis(i, j)
            for p in range(n):
                row = [field.zero()] * (n * n)
                for k, c in lhs.items():
                    row[p * n + k] = row[p * n + k] + c
                for s in range(n):
                    c = L.bracket_basis(s, j).get(p)
                    if c is not None:
                        row[s * n + i] = row[s * n + i] - c
                rows.append(row)
    return [[v[r * n:(r + 1) * n] for r in range(n)]
            for v in linalg.nullspace(rows, field)]


def ad_matrix(L, j):
    """ad(e_j) as a matrix: column s holds [e_j, e_s]."""
    z = L.field.zero()
    return [[L.bracket_basis(j, s).get(r, z) for s in range(L.dim)]
            for r in range(L.dim)]


def centroid_cases(field, lam, alpha):
    return [
        ("h3", heisenberg(field)),
        ("ab2", abelian(field, 2)),
        ("h3+h3", direct_sum(heisenberg(field), heisenberg(field))),
        ("r3+g1+ab1", direct_sum(r3_lambda(field, lam),
                                 g1_alpha(field, alpha), abelian(field, 1))),
    ]


def centroid_algebras():
    """Catalog algebras, seeded re-basings P.L and a reversed basis over Q,
    Q(i) and Q(i)(sqrt2)/Q(i).  The reversed r3+g1+ab1 ends on the
    generator X1 of r3, so its last block cuts the solution space."""
    Q, (Qi, lam_i), T = rationals(), gaussian_lambda(), sqrt2_over_gaussian()
    out = []
    for fname, field, lam, rebased in (
            ("Q", Q, Q.from_rational(3), ("h3", "h3+h3", "r3+g1+ab1")),
            ("Q(i)", Qi, lam_i, ("h3+h3", "r3+g1+ab1")),
            ("Q(i)(sqrt2)", T, lift_to(lam_i, T), ("h3", "h3+h3"))):
        alpha = field.from_rational(2)
        for name, L in centroid_cases(field, lam, alpha):
            out.append(("%s/%s" % (fname, name), L))
            if name in rebased:
                for seed in (1, 2):
                    out.append(("%s/%s*P%d" % (fname, name, seed),
                                change_basis(L, unitriangular(L.dim, seed))))
            if name == "r3+g1+ab1":
                out.append(("%s/%s*reversed" % (fname, name),
                            change_basis(L, reversal(L.dim))))
    out.append(("Q/g_lambda", g_lambda(Q, Q.from_rational(3))))
    out.append(("Q/g_lambda*P1", change_basis(g_lambda(Q, Q.from_rational(3)),
                                             unitriangular(10, 1))))
    return out


CENTROID_ALGEBRAS = centroid_algebras()


class TestCentroidBlocks:
    """centroid_basis shrinks the solution space one ad(e_j) at a time; its
    result must be the reduced echelon nullspace basis of the whole
    system, in free-column order."""

    @pytest.mark.parametrize("name, L", CENTROID_ALGEBRAS,
                             ids=[name for name, _ in CENTROID_ALGEBRAS])
    def test_equals_dense_reference(self, name, L):
        got = centroid_basis(L)
        want = dense_centroid_reference(L)
        assert len(got) == len(want)
        for M, R in zip(got, want):
            assert mat_equal(M, R)

    @pytest.mark.parametrize("name, L", CENTROID_ALGEBRAS,
                             ids=[name for name, _ in CENTROID_ALGEBRAS])
    def test_commutes_with_every_ad(self, name, L):
        field = L.field
        ads = [ad_matrix(L, j) for j in range(L.dim)]
        for M in centroid_basis(L):
            for ad in ads:
                assert mat_equal(linalg.mat_mul(M, ad, field),
                                 linalg.mat_mul(ad, M, field))

    @pytest.mark.parametrize("name, L", CENTROID_ALGEBRAS,
                             ids=[name for name, _ in CENTROID_ALGEBRAS])
    def test_equals_block_solver(self, name, L):
        got = centroid_basis(L)
        want = block_solver_matrices(L)
        assert len(got) == len(want)
        for M, R in zip(got, want):
            assert mat_equal(M, R)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_dimension_is_basis_free(self, seed):
        Qi, lam = gaussian_lambda()
        for _, L in centroid_cases(Qi, lam, Qi.from_rational(2)):
            PL = change_basis(L, unitriangular(L.dim, seed))
            assert len(centroid_basis(PL)) == len(centroid_basis(L))


def block_solver_matrices(L):
    """The block solver run on L as it stands, in its own basis."""
    n, field = L.dim, L.field
    out = []
    for vec in _block_centroid(L):
        flat = [field.zero()] * (n * n)
        for k, v in vec.items():
            flat[k] = v
        out.append([flat[r * n:(r + 1) * n] for r in range(n)])
    return out


def invertible(field, n, seed, fill):
    """A seeded invertible matrix that is not unitriangular: a unit lower
    triangular factor times an upper triangular one with a nonzero
    diagonal, with fill off-diagonal entries between them.  Entries are
    small integers, plus a multiple of the generator over an extension."""
    rng = random.Random(seed)
    gen = None if field.is_rationals else field.generator()

    def entry():
        v = field.from_rational(rng.choice((-2, -1, 1, 2, 3)))
        if gen is not None and rng.random() < 0.5:
            v = v + field.from_rational(rng.choice((-1, 1, 2))) * gen
        return v

    zero = field.zero()
    lower = linalg.identity_matrix(field, n)
    upper = [[entry() if r == c else zero for c in range(n)]
             for r in range(n)]
    for _ in range(fill):
        r, c = rng.sample(range(n), 2)
        (lower if r > c else upper)[r][c] = entry()
    return linalg.mat_mul(lower, upper, field)


def canonical_span(mats, field):
    """The canonical basis of the span of mats: the reduced echelon form of
    the flattened matrices with the columns read in reverse, each vector 1
    on its last nonzero flat entry and 0 there in the others, sorted by
    that entry."""
    n = len(mats[0])
    flats = [[x for row in M for x in row][::-1] for M in mats]
    rows, _ = linalg.rref(flats, field)
    return [[v[::-1][r * n:(r + 1) * n] for r in range(n)]
            for v in reversed(rows)]


def sl2(field):
    """[h, e] = 2e, [h, f] = -2f, [e, f] = h: perfect, so [L, L] = L."""
    return LieAlgebra(field, 3, {(0, 1): {1: field.from_rational(2)},
                                 (0, 2): {2: field.from_rational(-2)},
                                 (1, 2): {0: field.one()}})


def adapted_cases():
    Q, (Qi, lam_i) = rationals(), gaussian_lambda()
    out = []
    for fname, field, lam in (("Q", Q, Q.from_rational(3)),
                              ("Q(i)", Qi, lam_i)):
        for name, L in (
                ("h3+h3", direct_sum(heisenberg(field), heisenberg(field))),
                ("r3+g1+ab1", direct_sum(
                    r3_lambda(field, lam),
                    g1_alpha(field, field.from_rational(2)),
                    abelian(field, 1))),
                ("g_lambda", g_lambda(field, lam)),
                ("sl2", sl2(field)),
                ("ab3", abelian(field, 3))):
            for seed in (1, 2):
                out.append(("%s/%s*P%d" % (fname, name, seed), L, seed))
    out.append(("Q(i)/nintot(2,1)*P1", nintot_family(Qi, lam_i, 2, 1), 1))
    return out


def centroid_rows(L, j):
    """The rows of M[e_i, e_j] = [M e_i, e_j] for one j and every i, as
    sparse {flat index r*n + c: coeff} dicts; together they say that M
    commutes with ad(e_j)."""
    n, zero = L.dim, L.field.zero()
    into = {}  # p -> [(s, coefficient of e_p in [e_s, e_j])]
    for s in range(n):
        for p, c in L.bracket_basis(s, j).items():
            into.setdefault(p, []).append((s, c))
    for i in range(n):
        lhs = L.bracket_basis(i, j)
        p_range = range(n) if lhs else sorted(into)
        for p in p_range:
            row = {}
            for k, c in lhs.items():
                col = p * n + k
                row[col] = row.get(col, zero) + c
            for s, c in into.get(p, ()):
                col = s * n + i
                row[col] = row.get(col, zero) - c
            yield row


def row_projection_centroid(L):
    """An independent block solve of the centroid: block 0 from its flat
    rows, centroid_rows(L, 0), over all n^2 unknowns, and each block
    j >= 1 from every row of centroid_rows(L, j), projected onto the
    current basis through an index from flat column to the basis vectors
    that touch it."""
    n, field = L.dim, L.field
    red = _SparseReducer(field)
    for row in centroid_rows(L, 0):
        red.add(row)
    basis = red.nullspace(n * n)
    for j in range(1, n):
        index = {}
        for t, vec in enumerate(basis):
            for k, v in vec.items():
                index.setdefault(k, []).append((t, v))
        red = _SparseReducer(field)
        for row in centroid_rows(L, j):
            proj = {}
            for k, c in row.items():
                for t, v in index.get(k, ()):
                    proj[t] = proj[t] + c * v if t in proj else c * v
            red.add(proj)
        red.reduce_fully()
        for t, prow in red.pivots.items():
            for u, a in prow.items():
                if u != t:
                    linalg._sub_scaled(basis[u], a, basis[t])
        basis = [vec for t, vec in enumerate(basis) if t not in red.pivots]
    return basis


def projection_cases():
    """The centroid algebras, and the catalog families g_lambda, r3 + ab1
    and sl2 over Q and Q(i) with their seeded dense re-basings by
    invertible matrices that are not unitriangular."""
    Q, (Qi, lam_i) = rationals(), gaussian_lambda()
    out = list(CENTROID_ALGEBRAS)
    for fname, field, lam in (("Q", Q, Q.from_rational(3)),
                              ("Q(i)", Qi, lam_i)):
        for name, L in (("g_lambda", g_lambda(field, lam)),
                        ("r3ab1", r3_lambda_plus_abelian(field, lam)),
                        ("sl2", sl2(field))):
            if name == "r3ab1":
                out.append(("%s/%s" % (fname, name), L))
            out.append(("%s/%s*dense" % (fname, name),
                        change_basis(L, invertible(field, L.dim, 5,
                                                   2 * L.dim))))
    return out


PROJECTION_CASES = projection_cases()


def test_projection_cases_include_non_coordinate_derived_algebras():
    assert sum(L.adapted is not None for _, L in PROJECTION_CASES) >= 4


@pytest.mark.parametrize("name, L", PROJECTION_CASES,
                         ids=[name for name, _ in PROJECTION_CASES])
def test_block_centroid_equals_the_row_projection(name, L):
    """Building every block, block 0 included, from the surviving basis,
    starting at the matrix units, solves the same system as the flat rows
    of block 0 and the projected rows of the others, so the canonical
    basis is the same vector for vector, on L's own constants and on its
    adapted table."""
    for A in (L,) if L.adapted is None else (L, L.adapted):
        assert _block_centroid(A) == row_projection_centroid(A)


ADAPTED_CASES = adapted_cases()


class TestAdaptedCentroid:
    """centroid_basis solves in a basis adapted to [L, L].  On P.L, for P
    invertible and not unitriangular, it must give the block solver's
    output on P.L itself and the canonical form of P^-1 C(L) P."""

    @pytest.mark.parametrize("name, L, seed", ADAPTED_CASES,
                             ids=[name for name, _, _ in ADAPTED_CASES])
    def test_rebased_centroid(self, name, L, seed):
        n, field = L.dim, L.field
        P = invertible(field, n, seed, n)
        PL = change_basis(L, P)
        rows, _ = commutator_rows(PL)
        coordinate = all(sum(not x.is_zero() for x in row) == 1
                         for row in rows)
        # [L, L] = L for sl2 and 0 for ab3; elsewhere the adapted solve runs
        assert coordinate == (name.split("/")[1].split("*")[0]
                              in ("sl2", "ab3"))
        got = centroid_basis(PL)
        want = block_solver_matrices(PL)
        assert len(got) == len(want)
        for M, R in zip(got, want):
            assert mat_equal(M, R)
        Pinv = linalg.inverse(P, field)
        conj = [linalg.mat_mul(linalg.mat_mul(Pinv, M, field), P, field)
                for M in centroid_basis(L)]
        want = canonical_span(conj, field)
        assert len(got) == len(want)
        for M, R in zip(got, want):
            assert mat_equal(M, R)


class TestRadical:
    def test_heisenberg_centroid_radical_is_square_zero(self):
        Q = rationals()
        rad = radical(heisenberg(Q))
        assert len(rad) == 2
        zero = [[Q.zero()] * 3 for _ in range(3)]
        for M in rad:
            assert mat_equal(linalg.mat_mul(M, M, Q), zero)

    def test_semisimple_algebras_have_no_radical(self):
        Q = rationals()
        assert radical(abelian(Q, 2)) == []
        assert radical(r3_lambda(Q, Q.from_rational(2))) == []

    def test_dual_numbers_radical(self):
        # the centroid of sl2 (x) Q[t]/(t^2) is the dual numbers Q[t]/(t^2),
        # whose radical is spanned by t: e_i -> e_{i+3}
        Q = rationals()
        rad = radical(sl2_dual_numbers(Q))
        assert len(rad) == 1
        M = rad[0]
        pivot = M[3][0]
        assert not pivot.is_zero()
        assert all(M[r][c] == (pivot if r == c + 3 else Q.zero())
                   for r in range(6) for c in range(6))

    @pytest.mark.parametrize("make", [
        lambda: direct_sum(heisenberg(rationals()), heisenberg(rationals())),
        lambda: g_lambda(*gaussian_lambda()),
    ], ids=["h3+h3", "g_lambda"])
    def test_matches_gram_of_full_products(self, make):
        # the reference Gram takes the trace of each full product A_a A_b
        L = make()
        field, n, mats = L.field, L.dim, centroid_basis(L)
        gram = []
        for a in mats:
            gram.append([])
            for b in mats:
                P = linalg.mat_mul(a, b, field)
                t = field.zero()
                for d in range(n):
                    t = t + P[d][d]
                gram[-1].append(t)
        want = []
        for v in linalg.nullspace(gram, field):
            M = [[field.zero()] * n for _ in range(n)]
            for c, B in zip(v, mats):
                M = [[x + c * y for x, y in zip(rm, rb)]
                     for rm, rb in zip(M, B)]
            want.append(M)
        got = radical(L)
        assert len(got) == len(want)
        for M, R in zip(got, want):
            assert mat_equal(M, R)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_dimension_is_basis_free(self, seed):
        Q, (Qi, lam) = rationals(), gaussian_lambda()
        cases = [(field, L) for field, lam_f in ((Q, Q.from_rational(3)),
                                                 (Qi, lam))
                 for L in (heisenberg(field),
                           direct_sum(heisenberg(field), heisenberg(field)),
                           g_lambda(field, lam_f))]
        cases.append((Q, restrict_scalars(heisenberg(Qi), Q).algebra))
        for field, L in cases:
            PL = change_basis(L, invertible(field, L.dim, seed, L.dim))
            assert len(radical(PL)) == len(radical(L))


def product_chain_nilpotent(mats, field):
    """Reference check: spans of the products of k matrices, flattened to
    n^2-long rows, until the span vanishes or its rank stops falling."""
    if not mats:
        return True
    n = len(mats[0])
    prev_rank = None
    current = [list(map(list, M)) for M in mats]
    for _ in range(n * n + 1):
        red, _ = linalg.rref([[c for row in M for c in row]
                              for M in current], field)
        if not red:
            return True
        if prev_rank is not None and len(red) >= prev_rank:
            return False
        prev_rank = len(red)
        basis = [[row[r * n:(r + 1) * n] for r in range(n)] for row in red]
        current = [linalg.mat_mul(a, b, field) for a in mats for b in basis]
    return False


def nilpotency_cases():
    Q, (Qi, lam) = rationals(), gaussian_lambda()
    out = []
    for fname, field, lam_f in (("Q", Q, Q.from_rational(3)),
                                ("Q(i)", Qi, lam)):
        for name, L in (
                ("h3", heisenberg(field)),
                ("h3+h3", direct_sum(heisenberg(field), heisenberg(field))),
                ("h3+h3*P1", change_basis(
                    direct_sum(heisenberg(field), heisenberg(field)),
                    unitriangular(6, 1))),
                ("r3+g1+ab1", direct_sum(r3_lambda(field, lam_f),
                                         g1_alpha(field,
                                                  field.from_rational(2)),
                                         abelian(field, 1))),
                ("g_lambda", g_lambda(field, lam_f))):
            out.append(("%s/%s" % (fname, name), field, radical(L)))
    out.append(("Q/restricted h3", Q,
                radical(restrict_scalars(heisenberg(Qi), Q).algebra)))
    return out


NILPOTENCY_CASES = nilpotency_cases()


class TestNilpotentSpan:
    """_nilpotent_span follows the images W_{k+1} = sum of M W_k; it must
    agree with the chain of product spans."""

    @pytest.mark.parametrize("name, field, rad", NILPOTENCY_CASES,
                             ids=[c[0] for c in NILPOTENCY_CASES])
    def test_radicals_agree_with_product_chain(self, name, field, rad):
        assert _nilpotent_span(field, rad) is True
        assert product_chain_nilpotent(rad, field) is True

    @pytest.mark.parametrize("entries, nilpotent", [
        ([[[1, 0, 0], [0, 0, 0], [0, 0, 0]]], False),
        ([[[0, 1, 0], [0, 0, 0], [0, 0, 0]],
          [[1, 0, 0], [0, 0, 0], [0, 0, 0]]], False),
        ([[[0, 1, 0], [0, 0, 0], [0, 0, 0]],
          [[0, 0, 0], [1, 0, 0], [0, 0, 0]]], False),
        ([[[0, 1, 0], [0, 0, 1], [0, 0, 0]],
          [[0, 0, 1], [0, 0, 0], [0, 0, 0]]], True),
        ([], True),
    ], ids=["E11", "E11+E12", "E12,E21", "shift", "empty"])
    def test_controls_agree_with_product_chain(self, entries, nilpotent):
        Q = rationals()
        mats = [mat(Q, M) for M in entries]
        assert _nilpotent_span(Q, mats) is nilpotent
        assert product_chain_nilpotent(mats, Q) is nilpotent

    def test_span_not_closed_under_products(self):
        # span{N} is not closed (N^2 lies outside it), so the product spans
        # do not shrink: rank span{N^2} = rank span{N} stops that chain,
        # while the images Q^3 > N Q^3 > N^2 Q^3 > 0 still prove N nilpotent
        Q = rationals()
        N = mat(Q, [[0, 1, 2], [0, 0, 3], [0, 0, 0]])
        assert _nilpotent_span(Q, [N]) is True
        assert product_chain_nilpotent([N], Q) is False


def sl2_dual_numbers(field):
    """sl2 (x) Q[t]/(t^2) on h, e, f, th, te, tf: [x, ty] = [tx, y] =
    t[x, y] and t^2 = 0.  It is perfect, so [L, L] = L, and its centroid
    is Q[t]/(t^2), whose radical t does not kill [L, L]."""
    brackets = {}
    for (i, j), comps in sl2(field).brackets.items():
        brackets[(i, j)] = comps
        brackets[(i, j + 3)] = {k + 3: c for k, c in comps.items()}
        brackets[(j, i + 3)] = {k + 3: -c for k, c in comps.items()}
    return LieAlgebra(field, 6, brackets)


def certify_local_calls(monkeypatch, L):
    """Decompose L, recording the arguments of every _certify_local call
    with the piece replaced by its [L, L]: (field, n, sparse centroid
    basis, radical vectors, echelon basis of [L, L], detail)."""
    calls = []
    original = decompose_module._certify_local

    def recording(field, n, mats, null, owner, detail):
        calls.append((field, n, mats, null, owner.derived, detail))
        return original(field, n, mats, null, owner, detail)

    monkeypatch.setattr(decompose_module, "_certify_local", recording)
    return decompose_indecomposable(L), calls


def radical_matrices(field, n, mats, null):
    """Dense radical elements, summed entry by entry from the sparse basis
    at each nullspace vector."""
    out = []
    for v in null:
        M = [[field.zero()] * n for _ in range(n)]
        for t, c in v.items():
            for r, row in mats[t].items():
                for k, x in row.items():
                    M[r][k] = M[r][k] + c * x
        out.append(M)
    return out


def radical_proof_cases():
    """Every catalog family and sums of them over Q and Q(i), in the
    catalog basis, reversed, and under a seeded invertible basis change
    that is not unitriangular.  The flag says whether some piece has a
    nilpotent, non-scalar centroid and so reaches _certify_local."""
    Q, (Qi, lam_i) = rationals(), gaussian_lambda()
    out = []
    for fname, field, lam in (("Q", Q, Q.from_rational(3)),
                              ("Q(i)", Qi, lam_i)):
        two = field.from_rational(2)
        algebras = [
            ("h3", heisenberg(field), True),
            ("g_lambda", g_lambda(field, lam), True),
            ("r3+g1+ab1", direct_sum(r3_lambda(field, lam),
                                     g1_alpha(field, two),
                                     abelian(field, 1)), False),
            ("r3+ab1+h3", direct_sum(r3_lambda_plus_abelian(field, lam),
                                     heisenberg(field)), True),
            ("h3+h3", direct_sum(heisenberg(field), heisenberg(field)),
             True),
            ("g1+ab2+h3", direct_sum(g1_alpha(field, two), abelian(field, 2),
                                     heisenberg(field)), True),
        ]
        if fname == "Q(i)":
            algebras.append(("g_lambda+h3", direct_sum(g_lambda(field, lam),
                                                       heisenberg(field)),
                             True))
            algebras.append(("nintot(2,1)", nintot_family(field, lam, 2, 1),
                             True))
        else:
            algebras.append(("restricted h3", restrict_scalars(
                heisenberg(Qi), Q).algebra, True))
        for seed, (name, L, reaches) in enumerate(algebras):
            out.append(("%s/%s" % (fname, name), L, reaches))
            if L.dim > 13:
                continue
            out.append(("%s/%s*reversed" % (fname, name),
                        change_basis(L, reversal(L.dim)), reaches))
            out.append(("%s/%s*P%d" % (fname, name, seed),
                        change_basis(L, invertible(field, L.dim, seed,
                                                   L.dim)), reaches))
    return out


RADICAL_PROOF_CASES = radical_proof_cases()


class TestSquareZeroRadical:
    """_certify_local proves the radical R nilpotent by checking that it
    kills [L, L] and maps L into [L, L], so that R^2 = 0; the image chain
    of _nilpotent_span is the fallback."""

    @pytest.mark.parametrize("name, L, reaches", RADICAL_PROOF_CASES,
                             ids=[c[0] for c in RADICAL_PROOF_CASES])
    def test_agrees_with_the_image_chain(self, monkeypatch, name, L,
                                         reaches):
        d, calls = certify_local_calls(monkeypatch, L)
        assert d.verified and d.all_certified
        assert bool(calls) == reaches
        for field, n, mats, null, derived, _detail in calls:
            rad = radical_matrices(field, n, mats, null)
            assert _square_zero(mats, null, derived) is True
            assert _nilpotent_span(field, rad) is True
            zero = [[field.zero()] * n for _ in range(n)]
            for A in rad:
                for B in rad:
                    assert mat_equal(linalg.mat_mul(A, B, field), zero)

    @pytest.mark.parametrize("field", [rationals(), gaussian_rationals()],
                             ids=["Q", "Q(i)"])
    @pytest.mark.parametrize("seed", [None, 1, 2])
    def test_perfect_algebra_falls_back_to_the_image_chain(
            self, monkeypatch, field, seed):
        L = sl2_dual_numbers(field)
        if seed is not None:
            L = change_basis(L, invertible(field, 6, seed, 6))
        d, calls = certify_local_calls(monkeypatch, L)
        assert len(d) == 1 and d.certificates == (CERTIFIED,)
        assert d.summands[0].detail == \
            "centroid is local: nilpotent radical of codimension one"
        assert len(calls) == 1
        field, n, mats, null, derived, _detail = calls[0]
        assert len(mats) == 2 and len(null) == 1
        assert len(derived) == 6  # [L, L] = L
        assert _square_zero(mats, null, derived) is False
        assert _nilpotent_span(field, radical_matrices(field, n, mats,
                                                       null)) is True

    @pytest.mark.parametrize("entries, square_zero", [
        ({(2, 0): 1, (2, 1): 3}, True),   # L -> Z, kills Z
        ({(1, 0): 1}, False),             # kills Z, but X -> Y leaves [L, L]
        ({(2, 2): 1}, False),             # Z -> Z stays in [L, L], kills no Z
        ({(2, 0): 1, (2, 2): -2}, False),
        ({}, True),
    ], ids=["both", "kills-only", "into-only", "into-only-mixed", "zero"])
    def test_each_half_is_checked(self, entries, square_zero):
        Q = rationals()
        L = heisenberg(Q)  # [X, Y] = Z, so [L, L] = span(Z)
        M = {}
        for (r, c), x in entries.items():
            M.setdefault(r, {})[c] = Q.from_rational(x)
        derived = L.derived
        assert _square_zero([M], [{0: Q.one()}], derived) is square_zero

    def test_certify_local_needs_one_of_the_proofs(self):
        # X -> Z is square-zero; Z -> Z is idempotent, so neither the
        # square-zero check nor the image chain proves it nilpotent.  On
        # sl2, where [L, L] = L, the same matrix (h -> f) does not kill
        # [L, L], so only the image chain proves it
        Q = rationals()
        o = Q.one()
        detail = "centroid is local: nilpotent radical of codimension one"
        for mats, owner, cert in (
                ([{2: {0: o}}], heisenberg(Q), CERTIFIED),
                ([{2: {0: o}}], sl2(Q), CERTIFIED),
                ([{2: {2: o}}], heisenberg(Q), HEURISTIC),
                ([{2: {2: o}}], sl2(Q), HEURISTIC)):
            got, _ = _certify_local(Q, 3, mats, [{0: o}], owner, detail)
            assert got == cert

    def test_the_check_is_linear_in_the_basis(self):
        # each basis matrix maps X -> Y, outside [L, L]; their difference
        # maps X -> Z and passes
        Q = rationals()
        o = Q.one()
        mats = [{1: {0: o}, 2: {0: o}}, {1: {0: o}}]
        derived = heisenberg(Q).derived
        assert _square_zero(mats, [{0: o, 1: -o}], derived) is True
        assert _square_zero(mats, [{0: o}], derived) is False
        assert _square_zero(mats, [{0: o, 1: -o}, {1: o}], derived) is False
        assert _square_zero(mats, [], derived) is True


class TestMinpolyAndRoots:
    def test_minpoly_examples(self):
        Q = rationals()
        diag = mat(Q, [[1, 0], [0, 2]])
        p = minpoly_of_matrix(diag, Q)
        assert [c.rational_value() for c in p.coeffs] == \
            [Fraction(2), Fraction(-3), Fraction(1)]
        scalar = mat(Q, [[1, 0], [0, 1]])
        assert minpoly_of_matrix(scalar, Q).degree == 1
        shift = mat(Q, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        p3 = minpoly_of_matrix(shift, Q)
        assert p3.degree == 3
        assert all(c.is_zero() for c in p3.coeffs[:3])

    def test_minpoly_degree_cap(self):
        Q = rationals()
        companion = mat(Q, [[0, 0, 0, -1], [1, 0, 0, 0],
                            [0, 1, 0, 0], [0, 0, 1, 0]])
        assert minpoly_of_matrix(companion, Q).degree == 4

    def test_minpoly_is_a_proper_divisor_of_the_characteristic(self):
        # diag(2, 2, J_2(3)) has characteristic polynomial
        # (t - 2)^2 (t - 3)^2 and minimal polynomial (t - 2)(t - 3)^2
        Q = rationals()
        M = mat(Q, [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 1], [0, 0, 0, 3]])
        assert minpoly_of_matrix(M, Q) == Polynomial.from_rationals(
            Q, [-18, 21, -8, 1])

    def test_roots_in_rationals_and_extensions(self):
        Q = rationals()
        Qi = gaussian_rationals()
        K2 = quadratic_field(2)

        t2p1_q = Polynomial(Q, [Q.one(), Q.zero(), Q.one()])
        assert roots_in_field(t2p1_q) == []

        t2p1_qi = Polynomial(Qi, [Qi.one(), Qi.zero(), Qi.one()])
        found = roots_in_field(t2p1_qi)
        assert sorted(map(str, found)) == sorted(
            map(str, [Qi.generator(), -Qi.generator()]))

        t2m2 = Polynomial(K2, [K2.from_rational(-2), K2.zero(), K2.one()])
        roots = roots_in_field(t2m2)
        assert len(roots) == 2
        assert all((r * r - K2.from_rational(2)).is_zero() for r in roots)

        mixed = Polynomial(Q, [Q.from_rational(-3), Q.one()]) * t2p1_q
        assert [r.rational_value() for r in roots_in_field(mixed)] == \
            [Fraction(3)]

    def test_roots_with_irrational_coefficients(self):
        Qi = gaussian_rationals()
        i = Qi.generator()
        # (t - i)(t - 2) has a non-rational coefficient but both roots lie
        # in the field; the norm-polynomial descent must recover them
        p = Polynomial(Qi, [-i, Qi.one()]) * \
            Polynomial(Qi, [Qi.from_rational(-2), Qi.one()])
        found = roots_in_field(p)
        assert len(found) == 2
        assert all(p.eval(r).is_zero() for r in found)

    def test_factor_needs_no_automorphisms(self):
        """Q(i) given with the identity as its only automorphism factors
        as the full Q(i) does: the norm down to Q needs only the minimal
        polynomial of i.  The quadratic (t - i)(t - 2) is split by its
        discriminant, and the cubic (t - i)(t^2 - 2) by the norm.
        (t - i)(t^6 - 2), whose norm has degree 14, over the factorization
        cap, is not factored on either."""
        Q = rationals()
        for images in ([[0, 1]], [[0, 1], [0, -1]]):
            E = field_extend(Q, Polynomial(Q, [Q.one(), Q.zero(), Q.one()]),
                             "i", images)
            lin = Polynomial(E, [-E.generator(), E.one()])
            two = Polynomial(E, [E.from_rational(-2), E.one()])
            assert factor(lin * two) == [(two, 1), (lin, 1)]
            quadratic = Polynomial.from_rationals(E, [-2, 0, 1])
            assert factor(lin * quadratic) == [(lin, 1), (quadratic, 1)]
            assert factor(lin * Polynomial.from_rationals(
                E, [-2, 0, 0, 0, 0, 0, 1])) is None

    def test_roots_come_rational_first_then_quadratic(self):
        """The rational roots, ascending, then those of the quadratic
        factors; a split takes the first root."""
        Qi = gaussian_rationals()
        i = Qi.generator()
        p = Polynomial.from_rationals(Qi, [3, -4, 4, -4, 1])
        assert roots_in_field(p) == [Qi.from_rational(1),
                                     Qi.from_rational(3), i, -i]
        (S, T), _ = decompose_module._coprime_split(p)
        assert S == Polynomial.from_rationals(Qi, [-1, 1])
        assert S * T == p

    @pytest.mark.parametrize("coeffs", [[6, 0, 5, 0, 1], [-2, 2, -1, 1]],
                             ids=["(t2+2)(t2+3)", "(t-1)(t2+2)"])
    def test_coprime_split_factors_once(self, monkeypatch, coeffs):
        from lieforms import fields, polynomials

        calls = Counter()
        original = polynomials.factor_over_Q
        for module in (polynomials, fields, decompose_module):
            if hasattr(module, "factor_over_Q"):
                monkeypatch.setattr(
                    module, "factor_over_Q",
                    lambda p: calls.update(["factor_over_Q"]) or original(p))
        p = Polynomial.from_rationals(gaussian_rationals(), coeffs)
        (S, T), _ = decompose_module._coprime_split(p)
        assert S.degree >= 1 and T.degree >= 1 and S * T == p
        assert calls == Counter(factor_over_Q=1)

    def test_residue_field_is_factored_once(self, monkeypatch):
        """heisenberg over Q(cbrt 2), restricted to Q: its centroid is the
        cubic field, and the one factorization of t^3 - 2 over Q that
        finds no split also certifies the quotient a field."""
        from lieforms import fields, polynomials

        Q = rationals()
        E = field_extend(Q, Polynomial.from_rationals(Q, [-2, 0, 0, 1]),
                         "c", [[0, 1, 0]])
        L = restrict_scalars(heisenberg(E), Q).algebra
        calls = Counter()
        fn = polynomials.factor_over_Q
        for module in (polynomials, fields):
            monkeypatch.setattr(module, "factor_over_Q",
                                lambda p: calls.update(["factor"]) or fn(p))
        d = decompose_indecomposable(L)
        assert calls == Counter(factor=1)
        assert [(s.certificate, s.detail) for s in d.summands] == [
            (CERTIFIED, "centroid modulo its radical is a field")]

    def test_cubic_residue_field_over_a_quadratic_level_is_factored_once(
            self, monkeypatch):
        """heisenberg over Q(i)(cbrt 2), given with the identity as its
        only automorphism, restricted to Q(i): the one factorization that
        finds no split of the rational cubic also proves it irreducible, so
        t^3 - 2 is factored over Q once."""
        from lieforms import fields, polynomials

        Qi = gaussian_rationals()
        E = field_extend(Qi, Polynomial.from_rationals(Qi, [-2, 0, 0, 1]),
                         "c", [[0, 1, 0]])
        L = restrict_scalars(heisenberg(E), Qi).algebra
        calls = Counter()
        fn = polynomials.factor_over_Q
        for module in (polynomials, fields):
            monkeypatch.setattr(module, "factor_over_Q",
                                lambda p: calls.update(["factor"]) or fn(p))
        d = decompose_indecomposable(L)
        assert calls == Counter(factor=1)
        assert [(s.certificate, s.detail) for s in d.summands] == [
            (CERTIFIED, "centroid modulo its radical is a field")]


def sparse_trace(field, A, B):
    """tr(A B) for sparse matrices."""
    t = field.zero()
    for r, row in A.items():
        for c, x in row.items():
            y = B.get(c, {}).get(r)
            if y is not None:
                t = t + x * y
    return t


def left_multiplications(field, n, mats):
    """The q-by-q matrices of left multiplication by each quotient basis
    element on A/R, built without a Krylov step: the basis matrices at the
    pivot columns of the trace Gram span A/R, and z has quotient
    coordinates G_q^-1 (tr(z c_j))_j, with G_q the Gram on those columns
    inverted densely."""
    gram = [[sparse_trace(field, A, B) for B in mats] for A in mats]
    _, piv = linalg.rref(gram, field)
    quo = [mats[k] for k in piv]
    ginv = linalg.inverse([[gram[a][b] for b in piv] for a in piv], field)
    return [[list(row) for row in zip(*(linalg.mat_vec(ginv, [
        sparse_trace(field, linalg._sp_mul(a, c), s)
        for s in quo], field) for c in quo))] for a in quo]


def matrix_at(p, M, field):
    """p(M) for a dense square matrix, by Horner's rule."""
    ident = linalg.identity_matrix(field, len(M))
    acc = [[field.zero()] * len(M) for _ in M]
    for c in reversed(p.coeffs):
        acc = [[a + c * e for a, e in zip(ra, re)] for ra, re in
               zip(linalg.mat_mul(acc, M, field), ident)]
    return acc


def check_left_multiplication_minpolys(field, n, mats, polys):
    """polys, in order, are the minimal polynomials of the left
    multiplications of the route's candidates on A/R, skipping the
    candidates whose left multiplication is scalar."""
    if not polys:
        return
    left = left_multiplications(field, n, mats)
    q = len(left)
    zero = [[field.zero()] * q for _ in range(q)]
    pending = iter(polys)
    for y in decompose_module._quotient_candidates(q):
        mult = zero
        for c, Lt in zip(map(field.from_rational, y), left):
            mult = [[a + c * b for a, b in zip(ra, rb)]
                    for ra, rb in zip(mult, Lt)]
        if all(mult[r][c] == (mult[0][0] if r == c else field.zero())
               for r in range(q) for c in range(q)):
            continue
        p = next(pending, None)
        if p is None:
            break
        assert p.coeffs[-1] == field.one()
        assert matrix_at(p, mult, field) == zero
        factors = factor(p)
        assert factors is not None
        for g, _m in factors:
            assert matrix_at(p // g, mult, field) != zero
    assert next(pending, None) is None


def quotient_polynomial_cases():
    """Sums over Q and Q(i), nintot(1 + i, 2, 1), two restrictions from
    Q(i) to Q and one from Q(i)(sqrt 2), whose quotient is a quartic
    field, in the catalog basis and under dense invertible re-basings with
    seeds 1 to 3 (2n drawn entries for those of dimension above 10)."""
    Q, (Qi, lam_i) = rationals(), gaussian_lambda()
    algebras = []
    for fname, field, lam in (("Q", Q, Q.from_rational(3)),
                              ("Q(i)", Qi, lam_i)):
        algebras.append(("%s/h3+h3" % fname, direct_sum(
            heisenberg(field), heisenberg(field))))
        algebras.append(("%s/r3+g1+ab1" % fname, direct_sum(
            r3_lambda(field, lam), g1_alpha(field, field.from_rational(2)),
            abelian(field, 1))))
    algebras += [
        ("Q(i)/nintot(2,1)", nintot_family(Qi, lam_i, 2, 1)),
        ("Q/Res g_lambda", restrict_scalars(g_lambda(Qi, lam_i), Q).algebra),
        ("Q/Res r3", restrict_scalars(r3_lambda(Qi, lam_i), Q).algebra),
        ("Q/Res_Q(i)(s) h3", restrict_scalars(
            heisenberg(sqrt2_over_gaussian()), Q).algebra),
    ]
    out = []
    for name, L in algebras:
        n = L.dim
        out.append((name, L))
        for seed in (1, 2, 3):
            P = invertible(L.field, n, seed, n * n if n <= 10 else 2 * n)
            out.append(("%s*dense%d" % (name, seed), change_basis(L, P)))
    return out


QUOTIENT_POLYNOMIAL_CASES = quotient_polynomial_cases()


@pytest.mark.parametrize("name, L", QUOTIENT_POLYNOMIAL_CASES,
                         ids=[name for name, _ in QUOTIENT_POLYNOMIAL_CASES])
def test_quotient_polynomial_is_the_left_multiplication_minpoly(
        monkeypatch, name, L):
    """Every polynomial the route factors is the minimal polynomial of its
    candidate's left multiplication on A/R, shown by evaluation alone: p
    is monic, p(mult) = 0, and p / g (mult) is not 0 for each irreducible
    factor g of p.  The route skips a candidate whose polynomial has
    degree 1, which is one whose mult is scalar."""
    calls = []
    split = decompose_module._split_or_certify
    coprime = decompose_module._coprime_split

    def recording_split(field, n, mats, owner):
        calls.append((field, n, mats, []))
        return split(field, n, mats, owner)

    def recording_coprime(p):
        calls[-1][3].append(p)
        return coprime(p)

    monkeypatch.setattr(decompose_module, "_split_or_certify",
                        recording_split)
    monkeypatch.setattr(decompose_module, "_coprime_split", recording_coprime)
    d = decompose_indecomposable(L)
    monkeypatch.undo()
    assert d.verified and d.all_certified
    assert any(polys for *_, polys in calls)
    for field, n, mats, polys in calls:
        check_left_multiplication_minpolys(field, n, mats, polys)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_quotient_polynomial_reads_through_the_radical(monkeypatch, seed):
    """A = span(E11 + E33, E22, E31) conjugated by a seeded dense S: the
    canonical basis element at the Gram's first pivot carries a radical
    part, so its minimal polynomial in A has degree 3 while its
    polynomial modulo R has degree 2.  The route must factor the latter
    and split A."""
    Q = rationals()
    S = invertible(Q, 3, seed, 9)
    Sinv = linalg.inverse(S, Q)
    flats = []
    for X in ([[1, 0, 0], [0, 0, 0], [0, 0, 1]],
              [[0, 0, 0], [0, 1, 0], [0, 0, 0]],
              [[0, 0, 0], [0, 0, 0], [1, 0, 0]]):
        Y = linalg.mat_mul(linalg.mat_mul(S, mat(Q, X), Q), Sinv, Q)
        flats.append(linalg.sparse([y for row in Y for y in row]))
    mats = [linalg._unflatten(v, 3)
            for v in decompose_module._canonical(Q, 3, flats)]
    polys = []
    coprime = decompose_module._coprime_split
    monkeypatch.setattr(decompose_module, "_coprime_split",
                        lambda p: polys.append(p) or coprime(p))
    e, _cert, _detail = _split_or_certify(Q, 3, mats, None)
    monkeypatch.undo()
    check_left_multiplication_minpolys(Q, 3, mats, polys)
    first = mats[linalg.rref([[sparse_trace(Q, A, B) for B in mats]
                              for A in mats], Q)[1][0]]
    assert [p.degree for p in polys] == [2]
    assert minpoly_of_matrix(_dense_matrix(first, 3, Q), Q).degree == 3
    e = _dense_matrix(e, 3, Q)
    assert mat_equal(linalg.mat_mul(e, e, Q), e)
    assert in_span([_dense_matrix(M, 3, Q) for M in mats], e)


def idempotent_of(L):
    """The idempotent the route's first split of L takes, dense, or None
    when L is certified or labeled without a split."""
    n, field = L.dim, L.field
    e = _split_or_certify(field, n, _sparse_centroid(L), L)[0]
    return None if e is None else _dense_matrix(e, n, field)


class TestFindIdempotent:
    def test_block_projection_found_and_verified(self):
        Q = rationals()
        L = direct_sum(heisenberg(Q), heisenberg(Q))
        e = idempotent_of(L)
        assert e is not None
        assert mat_equal(linalg.mat_mul(e, e, Q), e)
        assert linalg.rank([list(r) for r in e], Q) == 3
        assert in_span(centroid_basis(L), e)
        assert idempotent_of(L) == e  # seeded, deterministic

    def test_local_centroid_yields_none(self):
        Q = rationals()
        assert idempotent_of(heisenberg(Q)) is None
        # the quotient by the radical is Q(i), a field
        restricted = restrict_scalars(heisenberg(gaussian_rationals()), Q)
        assert idempotent_of(restricted.algebra) is None

    def test_full_matrix_algebra_splits(self):
        Q = rationals()
        e = idempotent_of(abelian(Q, 2))
        assert e is not None
        assert mat_equal(linalg.mat_mul(e, e, Q), e)
        # M_3(Q) has no radical and a non-commutative quotient; the first
        # quotient basis element E_11 has minimal polynomial t(t - 1), and
        # the split at its first root 0 gives the projector I - E_11
        e3 = idempotent_of(abelian(Q, 3))
        assert mat_equal(linalg.mat_mul(e3, e3, Q), e3)
        assert mat_equal(e3, mat(Q, [[0, 0, 0], [0, 1, 0], [0, 0, 1]]))


class TestLiftIdempotent:
    """x = p_1 + n, with p_1 the first block projection of h3+h3 and n the
    radical element sending X_1 to Z_1, has minimal polynomial t(t - 1)
    modulo the radical but t(t - 1)^2 as a matrix: the Bezout projector
    e0 = (v T)(x) is idempotent only modulo the radical."""

    @pytest.mark.parametrize("field", [rationals(), gaussian_rationals()],
                             ids=["Q", "Q(i)"])
    def test_lift_reaches_exact_idempotent(self, field):
        L = direct_sum(heisenberg(field), heisenberg(field))
        x = [[field.from_rational(int(r == c and r < 3)) for c in range(6)]
             for r in range(6)]
        x[2][0] = field.one()
        assert in_centroid(L, x)
        t = Polynomial(field, [field.zero(), field.one()])
        S, T = t, t - Polynomial.one(field)
        _g, _u, v = poly_ext_gcd(S, T)
        assert v * T == Polynomial.one(field) - t  # so e0 = I - x
        e0 = [[a - b for a, b in zip(ri, rx)]
              for ri, rx in zip(linalg.identity_matrix(field, 6), x)]
        assert not mat_equal(linalg.mat_mul(e0, e0, field), e0)
        sparse_x = {r: linalg.sparse(row) for r, row in enumerate(x)
                    if any(not c.is_zero() for c in row)}
        e = _dense_matrix(_lifted_idempotent((S, T), sparse_x, 6, field), 6,
                          field)
        assert mat_equal(linalg.mat_mul(e, e, field), e)
        assert in_centroid(L, e)
        # the lift is the second block projection
        p2 = [[field.from_rational(int(r == c and r >= 3))
               for c in range(6)] for r in range(6)]
        assert mat_equal(e, p2)


class TestDecompose:
    def test_double_heisenberg_splits_into_two_copies(self):
        for field in (rationals(), gaussian_rationals()):
            h = heisenberg(field)
            d = decompose_indecomposable(direct_sum(h, h))
            assert len(d) == 2
            assert d.verified
            assert d.certificates == (CERTIFIED, CERTIFIED)
            for s in d.summands:
                assert s.algebra.dim == 3
                assert fingerprint(s.algebra) == fingerprint(h)

    def test_indecomposables_certify(self):
        Q = rationals()
        Qi, lam = gaussian_lambda()
        d_h = decompose_indecomposable(heisenberg(Q))
        assert len(d_h) == 1
        assert d_h.certificates == (CERTIFIED,)
        assert "local" in d_h.summands[0].detail

        d_r = decompose_indecomposable(r3_lambda(Q, Q.from_rational(2)))
        assert d_r.certificates == (CERTIFIED,)
        assert "scalars" in d_r.summands[0].detail

        d_g = decompose_indecomposable(g_lambda(Qi, lam))
        assert len(d_g) == 1
        assert d_g.certificates == (CERTIFIED,)

    def test_abelian_splits_into_lines(self):
        Q = rationals()
        d = decompose_indecomposable(abelian(Q, 5))
        assert len(d) == 5
        assert all(s.algebra.dim == 1 for s in d.summands)
        assert d.verified

    def test_summand_rows_reproduce_the_summands(self):
        Qi, lam = gaussian_lambda()
        L = direct_sum(g_lambda(Qi, lam), heisenberg(Qi))
        d = decompose_indecomposable(L)
        assert sorted(s.algebra.dim for s in d.summands) == [3, 10]
        for s in d.summands:
            rows = [list(r) for r in s.rows]
            assert is_ideal(L, rows)
            again = restrict_to_span(L, rows)
            assert again.brackets == s.algebra.brackets

    def test_three_block_sum(self):
        Qi, lam = gaussian_lambda()
        lam_bar = Qi.one() - Qi.generator()
        L = direct_sum(g_lambda(Qi, lam), g_lambda(Qi, lam_bar),
                       heisenberg(Qi))
        d = decompose_indecomposable(L)
        assert len(d) == 3
        assert d.verified
        assert set(d.certificates) == {CERTIFIED}
        assert sorted(s.algebra.dim for s in d.summands) == [3, 10, 10]

    def test_conjugation_preserves_summand_count(self):
        Qi, lam = gaussian_lambda()
        L = direct_sum(g_lambda(Qi, lam), heisenberg(Qi))
        sigma = Qi.automorphisms()[1]
        assert len(decompose_indecomposable(conjugate(L, sigma))) == \
            len(decompose_indecomposable(L))

    def test_restriction_certifies_via_field_quotient(self):
        Q = rationals()
        Qi = gaussian_rationals()
        L = restrict_scalars(heisenberg(Qi), Q).algebra
        d = decompose_indecomposable(L)
        assert len(d) == 1
        assert d.certificates == (CERTIFIED,)
        assert "field" in d.summands[0].detail

    def test_deep_tower_is_certified(self):
        # over Q(sqrt2, i) the centroid of the restricted algebra is a
        # quadratic field, r^2 - sqrt2, proved irreducible by its norm
        # down to Q(sqrt2)
        K2 = quadratic_field(2)
        E = field_extend(
            K2, Polynomial(K2, [K2.one(), K2.zero(), K2.one()]), "i",
            [(0, 1), (0, -1)])
        s2 = lift_to(K2.generator(), E)
        T = field_extend(
            E, Polynomial(E, [-s2, E.zero(), E.one()]), "r",
            [(0, 1), (0, -1)])
        L = restrict_scalars(r3_lambda(T, T.generator()), E).algebra
        d = decompose_indecomposable(L)
        assert len(d) == 1
        assert [(s.certificate, s.detail) for s in d.summands] == [
            (CERTIFIED, "centroid modulo its radical is a field")]
        assert d.verified

    def test_mixed_sum_with_abelian_part(self):
        Q = rationals()
        d = decompose_indecomposable(direct_sum(heisenberg(Q),
                                                abelian(Q, 2)))
        assert sorted(s.algebra.dim for s in d.summands) == [1, 1, 3]


def rebasing_cases():
    Q, (Qi, lam) = rationals(), gaussian_lambda()
    out = []
    for fname, field, lam_f in (("Q", Q, Q.from_rational(3)),
                                ("Q(i)", Qi, lam)):
        out.append(("%s/h3+h3" % fname, (1, 2), direct_sum(
            heisenberg(field), heisenberg(field))))
        out.append(("%s/r3+g1+ab1" % fname, (1, 2), direct_sum(
            r3_lambda(field, lam_f), g1_alpha(field, field.from_rational(2)),
            abelian(field, 1))))
    out.append(("Q(i)/g_lambda+h3", (1,), direct_sum(g_lambda(Qi, lam),
                                                     heisenberg(Qi))))
    out.append(("Q/restricted h3", (1, 2),
                restrict_scalars(heisenberg(Qi), Q).algebra))
    return [(name, seed, L) for name, seeds, L in out for seed in seeds]


REBASING_CASES = rebasing_cases()


class TestRebasedDecompose:
    """A change of basis P.L must not change the summand dimensions or the
    certificate labels."""

    @pytest.mark.parametrize("name, seed, L", REBASING_CASES,
                             ids=["%s*P%d" % (n, s)
                                  for n, s, _ in REBASING_CASES])
    def test_summands_and_labels_are_basis_free(self, name, seed, L):
        d = decompose_indecomposable(L)
        dp = decompose_indecomposable(change_basis(L,
                                                   unitriangular(L.dim, seed)))
        assert d.verified and dp.verified
        assert d.all_certified
        assert sorted(s.algebra.dim for s in dp.summands) == \
            sorted(s.algebra.dim for s in d.summands)
        assert sorted(dp.certificates) == sorted(d.certificates)


class TestVerifyDecomposition:
    def test_alternative_ideals_of_double_heisenberg(self):
        Q = rationals()
        hh = direct_sum(heisenberg(Q), heisenberg(Q))
        z, o = Q.zero(), Q.one()
        twisted = [
            [[o, z, z, z, z, z], [z, o, z, z, z, o], [z, z, o, z, z, z]],
            [[z, z, z, o, z, z], [z, z, z, z, o, z], [z, z, z, z, z, o]],
        ]
        standard = [
            [[o, z, z, z, z, z], [z, o, z, z, z, z], [z, z, o, z, z, z]],
            [[z, z, z, o, z, z], [z, z, z, z, o, z], [z, z, z, z, z, o]],
        ]
        assert verify_decomposition(hh, twisted)
        assert verify_decomposition(hh, standard)

    def test_rejections(self):
        Q = rationals()
        h = heisenberg(Q)
        z, o = Q.zero(), Q.one()
        # a non-ideal span
        assert not verify_decomposition(
            h, [[[o, z, z]], [[z, o, z], [z, z, o]]])
        # dimensions do not fill the algebra
        assert not verify_decomposition(h, [[[o, z, z], [z, z, o]]])
        # overlapping spans
        hh = direct_sum(h, h)
        block = [[o, z, z, z, z, z], [z, o, z, z, z, z], [z, z, o, z, z, z]]
        assert not verify_decomposition(hh, [block, block])
        # the trivial decomposition is a decomposition
        assert verify_decomposition(h, [linalg.identity_matrix(Q, 3)])


class TestIsomorphismVerdict:
    def test_equal_constants_confirm_with_identity(self):
        Qi, lam = gaussian_lambda()
        v = isomorphism_verdict(g_lambda(Qi, lam), g_lambda(Qi, lam))
        assert v.status == "confirmed"
        assert v.certificate is not None

    def test_dimension_and_fingerprint_refutations(self):
        Q = rationals()
        assert isomorphism_verdict(heisenberg(Q), abelian(Q, 2)).status == \
            "refuted"
        v = isomorphism_verdict(heisenberg(Q), abelian(Q, 3))
        assert v.status == "refuted"
        assert "fingerprint" in v.reason

    def test_solvable_family_certificates(self):
        Q = rationals()
        Qi = gaussian_rationals()
        A = r3_lambda(Q, Q.from_rational(2))
        B = r3_lambda(Q, Q.from_rational(Fraction(1, 2)))
        v = isomorphism_verdict(A, B)
        assert v.status == "confirmed"
        assert verify_morphism(A, B, v.certificate)

        i = Qi.generator()
        v2 = isomorphism_verdict(r3_lambda(Qi, i), r3_lambda(Qi, -i))
        assert v2.status == "confirmed"

        v3 = isomorphism_verdict(A, r3_lambda(Q, Q.from_rational(3)))
        assert v3.status == "refuted"

        # a non-normalized presentation of the lambda = 2 algebra
        scaled = LieAlgebra(Q, 3, {(0, 1): {1: Q.from_rational(3)},
                                   (0, 2): {2: Q.from_rational(6)}})
        v4 = isomorphism_verdict(scaled, A)
        assert v4.status == "confirmed"
        assert verify_morphism(scaled, A, v4.certificate)

    def test_diagonal_dim4_family(self):
        Q = rationals()
        A = g1_alpha(Q, Q.from_rational(4))
        # same algebra with the distinguished eigenvalue moved and scaled
        twisted = LieAlgebra(Q, 4, {(0, 1): {1: Q.from_rational(8)},
                                    (0, 2): {2: Q.from_rational(2)},
                                    (0, 3): {3: Q.from_rational(2)}})
        v = isomorphism_verdict(A, twisted)
        assert v.status == "confirmed"
        assert verify_morphism(A, twisted, v.certificate)
        v2 = isomorphism_verdict(A, g1_alpha(Q, Q.from_rational(5)))
        assert v2.status == "refuted"

    def test_quartic_invariant_layer(self):
        Qi = gaussian_rationals()
        i = Qi.generator()
        one = Qi.one()
        v = isomorphism_verdict(g_lambda(Qi, one + i), g_lambda(Qi, one - i))
        assert v.status == "refuted"
        assert "quartic" in v.reason
        # both c-invariants equal 2: the refutation layer stays silent
        v2 = isomorphism_verdict(g_lambda(Qi, i), g_lambda(Qi, -i))
        assert v2.status == "unknown"

    @pytest.mark.parametrize("lam", [3, Fraction(1, 2)])
    def test_quartic_layer_is_basis_free(self, lam):
        """g_lambda over Q against a dense unitriangular re-basing of
        itself: the raw S^3/T^2 differs between the two bases, the
        classical one does not, so nothing may refute."""
        Q = rationals()
        L = g_lambda(Q, Q.from_rational(lam))
        P = unitriangular(L.dim, 1)
        for r in range(L.dim - 2):
            P[r][r + 2] = 1
        assert isomorphism_verdict(L, change_basis(L, P)).status != \
            "refuted"

    def test_field_mismatch_raises(self):
        Q = rationals()
        Qi = gaussian_rationals()
        with pytest.raises(TowerMismatchError):
            isomorphism_verdict(heisenberg(Q), heisenberg(Qi))


def almost_abelian_reference(L):
    """Reference: True when the rows of [L, L] have codimension one and
    bracket to zero pairwise."""
    rows, _ = commutator_rows(L)
    return len(rows) == L.dim - 1 and all(
        all(c.is_zero() for c in L.bracket_coords(u, v))
        for u in rows for v in rows)


def diagonal_shape_cases():
    """(name, L): diagonal families of dimension 3 and 4, algebras that
    are not, and tables that miss the shape by one bracket."""
    Q, Qi = rationals(), gaussian_rationals()
    lam = Qi.one() + Qi.generator()
    one, two = Q.one(), Q.from_rational(2)
    return [
        ("r3", r3_lambda(Q, two)),
        ("r3+ab1", r3_lambda_plus_abelian(Q, two)),
        ("r3(i)", r3_lambda(Qi, lam)),
        ("g1", g1_alpha(Q, Fraction(3, 2))),
        ("g1(i)", g1_alpha(Qi, lam)),
        ("h3", heisenberg(Q)),
        ("abelian3", abelian(Q, 3)),
        ("abelian4", abelian(Q, 4)),
        ("g_lambda", g_lambda(Qi, lam)),
        ("r3+ab1 sum", direct_sum(r3_lambda(Q, two), abelian(Q, 1))),
        ("h3+ab1", direct_sum(heisenberg(Q), abelian(Q, 1))),
        ("r3+r3", direct_sum(r3_lambda(Q, two), r3_lambda(Q, one))),
        ("off-diagonal", LieAlgebra(Q, 3, {(0, 1): {1: one, 2: one},
                                           (0, 2): {2: two}})),
        ("off-target", LieAlgebra(Q, 3, {(0, 1): {2: one},
                                         (0, 2): {2: two}})),
        ("extra bracket", LieAlgebra(Q, 4, {(0, 1): {1: one},
                                            (0, 2): {2: two},
                                            (0, 3): {3: Q.from_rational(3)},
                                            (1, 2): {3: one}})),
        ("missing (0,2)", LieAlgebra(Q, 3, {(0, 1): {1: one}})),
        ("missing (0,3)", LieAlgebra(Q, 4, {(0, 1): {1: one},
                                            (0, 2): {2: two}})),
        ("not from X1", LieAlgebra(Q, 3, {(1, 2): {2: one}})),
    ]


DIAGONAL_SHAPE_CASES = diagonal_shape_cases()


@pytest.mark.parametrize("name, L", DIAGONAL_SHAPE_CASES,
                         ids=[name for name, _ in DIAGONAL_SHAPE_CASES])
@pytest.mark.parametrize("rebase", [False, True],
                         ids=["catalog", "rebased"])
def test_almost_abelian_action_matches_the_derived_algebra(name, L, rebase):
    """The action is found exactly when [L, L] is abelian of codimension
    one, and it is ad e_f on [L, L] in the coordinates of its echelon
    rows: [e_f, d_t] = sum of X[r][t] d_r."""
    if rebase:
        L = change_basis(L, invertible(L.field, L.dim, 3, 2 * L.dim))
    action, own = decompose_module._almost_abelian_action(L)
    assert (action is not None) == almost_abelian_reference(L)
    assert (own is not None) == (action is not None)
    if action is None:
        return
    f, X = action
    rows, pivots = commutator_rows(L)
    assert f not in pivots
    e_f = [L.field.from_rational(int(c == f)) for c in range(L.dim)]
    for t, d in enumerate(rows):
        expected = [sum((X[r][t] * w[c] for r, w in enumerate(rows)),
                        L.field.zero()) for c in range(L.dim)]
        assert L.bracket_coords(e_f, d) == expected


def test_diagonal_shape_cases_cover_both_verdicts():
    found = {almost_abelian_reference(L) for _name, L in DIAGONAL_SHAPE_CASES}
    assert found == {True, False}


def similarity_fields():
    Q, Qi = rationals(), gaussian_rationals()
    T = sqrt2_over_gaussian()
    i, s = lift_to(Qi.generator(), T), T.generator()
    return [("Q", Q, []), ("Q(i)", Qi, [Qi.generator(), -Qi.generator(),
                                        Qi.one() + Qi.generator()]),
            ("Q(i)(sqrt2)", T, [i, s, s / T.from_rational(2), s + i])]


@pytest.mark.parametrize("fname, field, extra", similarity_fields(),
                         ids=[f for f, _, _ in similarity_fields()])
def test_similarity_layer_agrees_with_the_family_criteria(fname, field,
                                                          extra):
    """r3_lambda and g1_alpha under seeded invertible basis changes: the
    verdict is the family criterion's on every level, Q(i)(sqrt2) and
    trace-zero actions included, and every confirmation re-verifies."""
    params = [field.from_rational(c) for c in (2, Fraction(1, 2), 3, -1,
                                               -2)] + extra
    rng = random.Random(17)
    for family, criterion, shift in ((r3_lambda, r3_iso_criterion, 1),
                                     (g1_alpha, g1_iso_criterion, 2)):
        for a, b in itertools.product(params, repeat=2):
            A = change_basis(family(field, a), invertible(
                field, shift + 2, rng.randrange(99), 6))
            B = change_basis(family(field, b), invertible(
                field, shift + 2, rng.randrange(99), 6))
            v = isomorphism_verdict(A, B)
            want = "confirmed" if criterion(a, b) else "refuted"
            assert v.status == want, (family.__name__, a, b, v.reason)
            if v.status == "confirmed":
                assert verify_morphism(A, B, v.certificate)
                assert linalg.rank([list(r) for r in v.certificate],
                                   field) == A.dim


def test_trace_zero_action_beyond_one_quadratic_extension_is_not_refuted():
    """r3_-1 against itself with its brackets scaled by sqrt2, which lies
    outside Q(i): tr ad x vanishes, and the scale is a root of t^2 - 1/2,
    which factor finds over Q(i)(sqrt2), so the verdict is confirmed with
    a certificate that re-verifies."""
    T = sqrt2_over_gaussian()
    c = T.generator()
    A = r3_lambda(T, -T.one())
    scaled = LieAlgebra(T, 3, {(0, 1): {1: c}, (0, 2): {2: -c}})
    for B in (scaled, change_basis(scaled, invertible(T, 3, 5, 6))):
        v = isomorphism_verdict(A, B)
        assert v.status == "confirmed"
        assert verify_morphism(A, B, v.certificate)


class TestKrullSchmidtMatch:
    def test_standard_matches_twisted_decomposition(self):
        Q = rationals()
        hh = direct_sum(heisenberg(Q), heisenberg(Q))
        z, o = Q.zero(), Q.one()
        alt = [
            restrict_to_span(hh, [[o, z, z, z, z, z], [z, o, z, z, z, o],
                                  [z, z, o, z, z, z]]),
            restrict_to_span(hh, [[z, z, z, o, z, z], [z, z, z, z, o, z],
                                  [z, z, z, z, z, o]]),
        ]
        report = krull_schmidt_match(decompose_indecomposable(hh), alt)
        assert report.status == "matched"
        assert report.pairing is not None
        assert sorted(p[0] for p in report.pairing) == [0, 1]

    def test_count_mismatch_refutes(self):
        Q = rationals()
        h = heisenberg(Q)
        report = krull_schmidt_match(
            decompose_indecomposable(direct_sum(h, h)), [h])
        assert report.status == "refuted"

    def test_conjugate_blocks_refute(self):
        Qi, lam = gaussian_lambda()
        lam_bar = Qi.one() - Qi.generator()
        mixed = decompose_indecomposable(
            direct_sum(g_lambda(Qi, lam), g_lambda(Qi, lam_bar)))
        doubled = decompose_indecomposable(
            direct_sum(g_lambda(Qi, lam), g_lambda(Qi, lam)))
        report = krull_schmidt_match(mixed, doubled)
        assert report.status == "refuted"

    def test_cancellation_property(self):
        # A + C matches B + C exactly when A matches B
        Q = rationals()
        A = r3_lambda(Q, Q.from_rational(2))
        B = r3_lambda(Q, Q.from_rational(Fraction(1, 2)))
        C = heisenberg(Q)
        report = krull_schmidt_match(
            decompose_indecomposable(direct_sum(A, C)),
            decompose_indecomposable(direct_sum(B, C)))
        assert report.status == "matched"
        assert isomorphism_verdict(A, B).status == "confirmed"

    def test_abelian_matches(self):
        Q = rationals()
        report = krull_schmidt_match(
            decompose_indecomposable(abelian(Q, 2)),
            [abelian(Q, 1), abelian(Q, 1)])
        assert report.status == "matched"


class TestCountForms:
    def test_single_twisted_block_has_two_forms(self):
        Q = rationals()
        Qi, lam = gaussian_lambda()
        fc = count_forms(g_lambda(Qi, lam), Q)
        assert fc.count == 2
        assert len(fc.families) == 1
        fam = fc.families[0]
        assert fam.multiplicity == 1
        assert len(fam.orbit_representatives) == 2
        expected = {str(sorted(g_lambda(Qi, lam).brackets.items())),
                    str(sorted(g_lambda(Qi, Qi.one() -
                                        Qi.generator()).brackets.items()))}
        got = {str(sorted(w.brackets.items())) for w in fc.witnesses}
        assert got == expected

    def test_doubled_block_has_three_forms(self):
        Q = rationals()
        Qi, lam = gaussian_lambda()
        L = direct_sum(g_lambda(Qi, lam), g_lambda(Qi, lam))
        fc = count_forms(L, Q)
        assert fc.count == 3
        assert len(fc.witnesses) == 3
        multisets = set()
        for blocks in fc.witness_blocks:
            assert len(blocks) == 2
            vals = witness_invariants(blocks)
            assert all(v is not None for v in vals)
            multisets.add(tuple(sorted(map(str, vals))))
        assert len(multisets) == 3

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_band_rebased_doubled_block_has_three_forms(self, seed):
        """nintot(1+i, 2, 2) under a unitriangular P with seeded entries
        from {-2, -1, 1, 2} on its two superdiagonals: the count is k + 1
        = 3 as in the catalog basis, or the oracle says it cannot
        decide."""
        Qi, lam = gaussian_lambda()
        L = nintot_family(Qi, lam, 2, 2)
        rng = random.Random(seed)
        P = [[1 if c == r else (rng.choice((-2, -1, 1, 2))
                                if 0 < c - r <= 2 else 0)
              for c in range(L.dim)] for r in range(L.dim)]
        try:
            assert count_forms(change_basis(L, P), rationals()).count == 3
        except OracleUndecidedError:
            pass

    @pytest.mark.parametrize("plain_first", [True, False])
    def test_two_families_in_one_pass(self, plain_first):
        """g_{1+i} + h3 + g_{1-i} over Q, either g first: g_{1+i} and
        g_{1-i} are one Galois orbit of two classes, h3 is its own, so the
        count is C(2+1, 1) * 1 = 3."""
        Qi, lam = gaussian_lambda()
        g, gc = g_lambda(Qi, lam), g_lambda(Qi, Qi.one() - Qi.generator())
        ends = (g, gc) if plain_first else (gc, g)
        fc = count_forms(direct_sum(ends[0], heisenberg(Qi), ends[1]),
                         rationals())
        assert fc.count == 3
        assert [(f.multiplicity, len(f.orbit_representatives))
                for f in fc.families] == [(2, 2), (1, 1)]
        assert [[b.dim for b in blocks] for blocks in fc.witness_blocks] \
            == [[10, 10, 3]] * 3
        assert [len(f.class_representatives) for f in fc.families] == [2, 1]

    def test_heisenberg_is_rigid(self):
        Q = rationals()
        Qi = gaussian_rationals()
        fc = count_forms(heisenberg(Qi), Q)
        assert fc.count == 1
        assert len(fc.group) == 2
        assert fc.witnesses[0].brackets == heisenberg(Qi).brackets

    def test_uncertified_decomposition_is_refused(self, monkeypatch):
        # with factor stopped at the cap everywhere in decompose, no
        # residue field is proved, so the summand is heuristic
        monkeypatch.setattr(decompose_module, "factor", lambda p: None)
        K2 = quadratic_field(2)
        E = field_extend(
            K2, Polynomial(K2, [K2.one(), K2.zero(), K2.one()]), "i",
            [(0, 1), (0, -1)])
        s2 = lift_to(K2.generator(), E)
        T = field_extend(
            E, Polynomial(E, [-s2, E.zero(), E.one()]), "r",
            [(0, 1), (0, -1)])
        L = restrict_scalars(r3_lambda(T, T.generator()), E).algebra
        with pytest.raises(UncertifiedDecompositionError):
            count_forms(L, K2)


# ------------------------------------------------- corner centroids


def corner_cases():
    """Sums with 2 and 3 summands and indecomposables, over Q and Q(i), in
    the catalog basis, reversed, and under seeded invertible basis changes
    that are not unitriangular (sparser ones for the 20-dim nintot)."""
    Q, (Qi, lam_i) = rationals(), gaussian_lambda()
    out = []
    for fname, field, lam in (("Q", Q, Q.from_rational(3)),
                              ("Q(i)", Qi, lam_i)):
        two = field.from_rational(2)
        algebras = [
            ("h3+h3", direct_sum(heisenberg(field), heisenberg(field))),
            ("r3+g1+ab1", direct_sum(r3_lambda(field, lam),
                                     g1_alpha(field, two),
                                     abelian(field, 1))),
            ("r3+r3inv", direct_sum(r3_lambda(field, lam),
                                    r3_lambda(field, lam.inverse()))),
            ("g_lambda", g_lambda(field, lam)),
        ]
        if field is Qi:
            algebras.append(("nintot(2,1)", nintot_family(field, lam, 2, 1)))
        for seed, (name, L) in enumerate(algebras):
            n = L.dim
            fill = n if n <= 10 else 4
            out.append(("%s/%s" % (fname, name), L))
            out.append(("%s/%s*reversed" % (fname, name),
                        change_basis(L, reversal(n))))
            out.append(("%s/%s*P%d" % (fname, name, seed),
                        change_basis(L, invertible(field, n, seed, fill))))
    return out


CORNER_CASES = corner_cases()


class TestCornerCentroid:
    """Each piece of a split takes the corner e C(L) e of its parent's
    centroid, in canonical form; it must be centroid_basis of the piece,
    the same matrices in the same order, and the centroid is solved once
    per decomposition."""

    @pytest.mark.parametrize("name, L", CORNER_CASES,
                             ids=[name for name, _ in CORNER_CASES])
    def test_every_piece_gets_its_own_centroid(self, monkeypatch, name, L):
        pieces = []
        solves = []
        split = decompose_module._split_or_certify
        solve = decompose_module._sparse_centroid

        def recording_split(field, n, mats, owner):
            pieces.append((n, mats, owner))
            return split(field, n, mats, owner)

        def counting_solve(piece):
            solves.append(piece)
            return solve(piece)

        monkeypatch.setattr(decompose_module, "_split_or_certify",
                            recording_split)
        monkeypatch.setattr(decompose_module, "_sparse_centroid",
                            counting_solve)
        d = decompose_indecomposable(L)
        monkeypatch.undo()
        assert d.verified and d.all_certified
        assert solves == [L.adapted if L.adapted is not None else L]
        assert len(pieces) == 2 * len(d) - 1
        for n, mats, owner in pieces:
            want = centroid_basis(owner)
            assert len(mats) == len(want)
            for M, R in zip(mats, want):
                assert mat_equal(_dense_matrix(M, n, owner.field), R)

    def test_cases_split_into_three(self):
        assert any(len(decompose_indecomposable(L)) == 3
                   for name, L in CORNER_CASES if "*P" in name)


def load_workloads():
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def dense_rebasing_cases():
    """Dense re-basings that are not triangular, over Q and Q(i): every
    entry of the factors of P is drawn, except for the 20-dim nintot, whose
    factors get 2n drawn entries (465 constants against 18)."""
    Q, (Qi, lam_i) = rationals(), gaussian_lambda()
    out = []
    for fname, field, lam in (("Q", Q, Q.from_rational(3)),
                              ("Q(i)", Qi, lam_i)):
        algebras = [
            ("h3+h3", direct_sum(heisenberg(field), heisenberg(field))),
            ("r3+g1+ab1", direct_sum(r3_lambda(field, lam),
                                     g1_alpha(field, field.from_rational(2)),
                                     abelian(field, 1))),
            ("g_lambda", g_lambda(field, lam)),
        ]
        if field is Qi:
            algebras.append(("nintot(2,1)", nintot_family(field, lam, 2, 1)))
        for seed, (name, L) in enumerate(algebras):
            n = L.dim
            fill = n * n if n <= 10 else 2 * n
            out.append(("%s/%s*dense%d" % (fname, name, seed),
                        change_basis(L, invertible(field, n, seed, fill))))
    return out


DENSE_REBASING_CASES = dense_rebasing_cases()


def ideal_key(rows, field):
    red, _ = linalg.rref([list(r) for r in rows], field)
    return tuple(tuple(red_row) for red_row in red)


def center_span(L):
    """Rows spanning the centre: the x with [x, e_j] = 0 for every j."""
    n = L.dim
    return linalg.nullspace([[L.structure_constant(i, j, k)
                              for i in range(n)]
                             for j in range(n) for k in range(n)], L.field)


class TestAdaptedRoute:
    """decompose_indecomposable splits L on L.adapted and maps the summands
    back; it must agree with the split queue run on L itself, and report
    each summand's constants in the rows it reports.

    The indecomposable ideals need not be unique: a central automorphism
    x -> x + phi(x), with phi mapping L into its centre Z and [L, L] to 0,
    takes one decomposition to another, and moves an ideal I but not
    I + Z.  So the summands are compared by I + Z, with dims and labels;
    on the benchmark's re-basings the ideals are also equal as they stand.
    """

    def summands(self, found, field, extra):
        return Counter((ideal_key(list(s.rows) + extra, field),
                        s.algebra.dim, s.certificate, s.detail)
                       for s in found)

    def check(self, PL, exact=False):
        d = decompose_indecomposable(PL)
        own = decompose_module._split_queue(PL)
        field = PL.field
        assert len(d) == len(own)
        center = center_span(PL)
        assert self.summands(d.summands, field, center) == \
            self.summands(own, field, center)
        if exact:
            assert self.summands(d.summands, field, []) == \
                self.summands(own, field, [])
        assert d.verified == verify_decomposition(PL, [s.rows for s in own])
        assert d.verified
        zero = field.zero()
        for s in d.summands:
            m = s.algebra.dim
            assert len(s.rows) == m
            for a in range(m):
                for b in range(a + 1, m):
                    want = [zero] * PL.dim
                    for k, c in s.algebra.bracket_basis(a, b).items():
                        want = [x + c * y for x, y in zip(want, s.rows[k])]
                    assert PL.bracket_coords(s.rows[a], s.rows[b]) == want

    @pytest.mark.parametrize("seed", [1, 7, 11])
    def test_rebased_manifests(self, seed, tmp_path):
        load_workloads().build("rebased", seed, str(tmp_path))
        names = sorted(f for f in os.listdir(tmp_path)
                       if f.startswith("rebased_"))
        assert len(names) == 7
        for name in names:
            PL = load_manifest(os.path.join(tmp_path, name)).algebra("PL")
            assert PL.adapted is not None
            self.check(PL, exact=True)

    @pytest.mark.parametrize("name, PL", DENSE_REBASING_CASES,
                             ids=[name for name, _ in DENSE_REBASING_CASES])
    def test_dense_rebasings(self, name, PL):
        assert PL.adapted is not None
        self.check(PL)

    def test_three_summands_are_mapped_back(self):
        assert [len(decompose_indecomposable(PL))
                for name, PL in DENSE_REBASING_CASES
                if "r3+g1+ab1" in name] == [3, 3]


def metamorphic_cases():
    """Catalog algebras and sums of them over Q and Q(i), each paired
    with its re-basings by dense invertible matrices, seeds 1 to 3."""
    Q, (Qi, lam_i) = rationals(), gaussian_lambda()
    out = []
    for fname, field, lam in (("Q", Q, Q.from_rational(3)),
                              ("Q(i)", Qi, lam_i)):
        two = field.from_rational(2)
        for name, L in (
                ("h3", heisenberg(field)),
                ("h3+ab1", direct_sum(heisenberg(field), abelian(field, 1))),
                ("r3", r3_lambda(field, lam)),
                ("r3+ab1", r3_lambda_plus_abelian(field, lam)),
                ("g1", g1_alpha(field, two)),
                ("h3+h3", direct_sum(heisenberg(field), heisenberg(field))),
                ("g_lambda", g_lambda(field, lam)),
                ("r3+g1+ab1", direct_sum(r3_lambda(field, lam),
                                         g1_alpha(field, two),
                                         abelian(field, 1)))):
            for seed in (1, 2, 3):
                P = invertible(field, L.dim, seed, L.dim * L.dim)
                out.append(("%s/%s*dense%d" % (fname, name, seed), L,
                            change_basis(L, P)))
    return out


METAMORPHIC_CASES = metamorphic_cases()


class TestOracleUnderDenseRebasing:
    """Every answer of the oracle and of matching must hold for every
    basis presentation: L against P.L, with P dense and invertible, is
    never refuted, and what is confirmed re-verifies."""

    @staticmethod
    def shape(d):
        return Counter((s.algebra.dim, s.certificate) for s in d.summands)

    @staticmethod
    def bent(found):
        """The summands' rows with the first row of one summand I moved by
        a row v of another summand J that is not central in J, or None
        when there is no such v.  The moved span meets J in 0 and does not
        hold [J, v], so it is not an ideal."""
        for j, s in enumerate(found if len(found) > 1 else ()):
            a = next((a for key in s.algebra.brackets for a in key), None)
            if a is not None:
                rows = [list(t.rows) for t in found]
                i = 1 if j == 0 else 0
                rows[i][0] = tuple(x + y for x, y in
                                   zip(rows[i][0], s.rows[a]))
                return rows
        return None

    @pytest.mark.parametrize("name, L, PL", METAMORPHIC_CASES,
                             ids=[name for name, _, _ in METAMORPHIC_CASES])
    def test_verdicts_are_basis_free(self, name, L, PL):
        assert fingerprint(L) == fingerprint(PL)
        v = isomorphism_verdict(L, PL)
        assert v.status != "refuted"
        if v.status == "confirmed":
            assert verify_sigma_isomorphism(L, PL, None, v.certificate)
        # the similarity layer decides almost-abelian algebras in any basis
        if name.split("/")[1].startswith(("r3*", "g1*")):
            assert v.status == "confirmed"
        d, Pd = decompose_indecomposable(L), decompose_indecomposable(PL)
        assert krull_schmidt_match(d, Pd).status != "refuted"
        assert self.shape(d) == self.shape(Pd)
        # verified is checked on the adapted table: the rows mapped back
        # must span ideals of PL's own constants too, and the adapted
        # check must refuse a row outside every ideal
        assert Pd.verified and verify_decomposition(PL, Pd.ideal_bases)
        route = PL if PL.adapted is None else PL.adapted
        found = _split_queue(route)
        assert verify_decomposition(route, [s.rows for s in found])
        bent = self.bent(found)
        assert bent is not None or len(found) == 1
        if bent is not None:
            assert not verify_decomposition(route, bent)

    @pytest.mark.parametrize("k, seeds", [(1, (1, 2, 3)), (2, (1,))])
    def test_count_forms_on_rebased_nintot(self, k, seeds):
        """nintot(1+i, k, k) has k + 1 forms over Q; a re-basing may
        leave the count undecided, never wrong."""
        Qi, lam = gaussian_lambda()
        L = nintot_family(Qi, lam, k, k)
        n = L.dim
        for seed in seeds:
            P = invertible(Qi, n, seed, n * n if n <= 10 else 2 * n)
            try:
                count = count_forms(change_basis(L, P), rationals()).count
            except OracleUndecidedError:
                assert k > 1
                continue
            assert count == k + 1


# ------------------------------------------------- sparse nullspace


def pivot_scan_nullspace(red, ncols):
    """The nullspace as _SparseReducer built it before the column index:
    each free column scans every pivot row."""
    red.reduce_fully()
    one = red.field.one()
    out = []
    for free in range(ncols):
        if free in red.pivots:
            continue
        vec = {free: one}
        for c, row in red.pivots.items():
            coef = row.get(free)
            if coef is not None and not coef.is_zero():
                vec[c] = -coef
        out.append(vec)
    return out


def nullspace_systems():
    """Block 0 of the centroid system of each catalog family over Q and
    Q(i), in the catalog basis and re-based, and seeded sparse systems."""
    Q, (Qi, lam_i) = rationals(), gaussian_lambda()
    out = []
    for fname, field, lam in (("Q", Q, Q.from_rational(3)),
                              ("Q(i)", Qi, lam_i)):
        two = field.from_rational(2)
        for name, L in (("h3", heisenberg(field)),
                        ("ab3", abelian(field, 3)),
                        ("g_lambda", g_lambda(field, lam)),
                        ("r3", r3_lambda(field, lam)),
                        ("r3ab1", r3_lambda_plus_abelian(field, lam)),
                        ("g1", g1_alpha(field, two)),
                        ("sl2", sl2(field))):
            n = L.dim
            out.append(("%s/%s/block0" % (fname, name),
                        list(centroid_rows(L, 0)), n * n))
            PL = change_basis(L, invertible(field, n, 1, n))
            out.append(("%s/%s*P1/block0" % (fname, name),
                        list(centroid_rows(PL, 0)), n * n))
        rng = random.Random(fname)
        for t in range(6):
            ncols = rng.randint(1, 30)
            rows = []
            for _ in range(rng.randint(0, ncols + 3)):
                row = {}
                for _ in range(rng.randint(1, 4)):
                    c = rng.randrange(ncols)
                    row[c] = field.from_rational(rng.randint(-3, 3))
                rows.append(row)
            out.append(("%s/random%d" % (fname, t), rows, ncols))
    return out


NULLSPACE_SYSTEMS = nullspace_systems()


@pytest.mark.parametrize("name, rows, ncols", NULLSPACE_SYSTEMS,
                         ids=[c[0] for c in NULLSPACE_SYSTEMS])
def test_nullspace_matches_the_pivot_scan(name, rows, ncols):
    field = next((v.field for row in rows for v in row.values()),
                 rationals())
    fast, slow = _SparseReducer(field), _SparseReducer(field)
    for row in rows:
        fast.add(row)
        slow.add(row)
    got = fast.nullspace(ncols)
    want = pivot_scan_nullspace(slow, ncols)
    assert [list(v.items()) for v in got] == \
        [list(v.items()) for v in want]
