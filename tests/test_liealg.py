import random
from fractions import Fraction

import pytest

from lieforms.errors import (
    DegenerateError,
    JacobiError,
    OwnerMismatchError,
    SingularMatrixError,
    TowerMismatchError,
)
from lieforms import linalg
from lieforms import liealg as liealg_module
from lieforms.catalog import (
    abelian,
    g1_alpha,
    g_lambda,
    heisenberg,
    nintot_family,
    r3_lambda,
    r3_lambda_plus_abelian,
)
from lieforms.decompose import isomorphism_verdict
from lieforms.descent import conjugate, conjugation_map, verify_sumconjugate
from lieforms.fields import (
    cyclotomic_field,
    field_extend,
    galois_group,
    gaussian_rationals,
    quadratic_field,
    rationals,
)
from lieforms.liealg import (
    LieAlgebra,
    LinearMap,
    _echelon,
    change_basis,
    commutator_rows,
    direct_sum,
    fingerprint,
    is_ideal,
    restrict_to_span,
    verify_morphism,
    verify_sigma_isomorphism,
)
from lieforms.polynomials import Polynomial

Q = rationals()
QI = gaussian_rationals()


def heis(field=Q):
    return LieAlgebra(field, 3, {(0, 1): {2: 1}}, labels=("X", "Y", "Z"))


def sl2(field=Q):
    # [h,e]=2e, [h,f]=-2f, [e,f]=h with basis order (e0=h, e1=e, e2=f)
    return LieAlgebra(field, 3, {
        (0, 1): {1: 2},
        (0, 2): {2: -2},
        (1, 2): {0: 1},
    })


def test_bracket_antisymmetry_and_sparsity():
    L = heis()
    assert L.bracket_basis(0, 1) == {2: Q.one()}
    assert L.bracket_basis(1, 0) == {2: Q.from_rational(-1)}
    assert L.bracket_basis(0, 2) == {}
    assert L.bracket_basis(1, 1) == {}


def test_bracket_of_vectors():
    L = heis()
    u = L.vector([1, 2, 5])
    v = L.vector([3, 4, -1])
    w = L.bracket(u, v)
    # [X+2Y, 3X+4Y] = (1*4-2*3) Z = -2 Z
    assert w.coords == L.vector([0, 0, -2]).coords


def test_jacobi_rejection_reports_triple():
    with pytest.raises(JacobiError) as exc:
        LieAlgebra(Q, 3, {
            (0, 1): {0: 1},   # [X1,X2]=X1
            (1, 2): {1: 1},   # [X2,X3]=X2
            (0, 2): {2: -1},  # [X3,X1]=X3
        })
    assert exc.value.triple == (1, 2, 3)
    assert exc.value.residual == {k: Q.one() for k in range(3)}


def test_jacobi_residual_signs_reversed_pairs():
    # [X2,[X3,X1]] reads (X1,X3) reversed, [X3,[X1,X2]] reads (X2,X3)
    # reversed: the residual is -15 X2 - 7 X1 + 6 X4
    with pytest.raises(JacobiError) as exc:
        LieAlgebra(Q, 4, {
            (0, 1): {1: 2},
            (1, 2): {3: -3},
            (0, 2): {3: 7},
            (0, 3): {1: 5},
            (1, 3): {0: 1},
        })
    assert exc.value.triple == (1, 2, 3)
    assert exc.value.residual == {1: Q.from_rational(-15),
                                  0: Q.from_rational(-7),
                                  3: Q.from_rational(6)}


def test_sl2_satisfies_jacobi():
    L = sl2()
    fp = fingerprint(L)
    assert fp.nilpotency_class is None
    assert not fp.solvable
    assert fp.commutator_dim == 3
    assert fp.center_dim == 0


def test_heisenberg_fingerprint():
    fp = fingerprint(heis())
    assert fp.dim == 3
    assert fp.lower_central == (3, 1, 0)
    assert fp.derived == (3, 1, 0)
    assert fp.center_dim == 1
    assert fp.commutator_dim == 1
    assert fp.nilpotency_class == 2
    assert fp.solvable
    assert fp.two_step == (2, 1)


def test_abelian_fingerprint():
    L = LieAlgebra(Q, 4, {})
    fp = fingerprint(L)
    assert fp.lower_central == (4, 0)
    assert fp.nilpotency_class == 1
    assert fp.center_dim == 4
    assert fp.two_step == (4, 0)


def test_solvable_not_nilpotent():
    # [X1,X2]=X2
    L = LieAlgebra(Q, 2, {(0, 1): {1: 1}})
    fp = fingerprint(L)
    assert fp.solvable
    assert fp.nilpotency_class is None
    assert fp.lower_central == (2, 1, 1)
    assert fp.derived == (2, 1, 0)


def test_direct_sum_blocks():
    L = direct_sum(heis(), heis())
    assert L.dim == 6
    assert L.bracket_basis(0, 1) == {2: Q.one()}
    assert L.bracket_basis(3, 4) == {5: Q.one()}
    assert L.bracket_basis(0, 4) == {}
    fp = fingerprint(L)
    assert fp.two_step == (4, 2)
    assert fp.center_dim == 2


def test_center_and_commutator_rows():
    L = heis()
    comm, _ = commutator_rows(L)
    assert len(comm) == 1 and comm[0][2] == Q.one()
    cen, _ = dense_center_reference(L)
    assert len(cen) == 1 and cen[0][2] == Q.one()


def test_change_basis_roundtrip():
    L = sl2()
    rng = random.Random(5)
    for _ in range(10):
        while True:
            P = [[Fraction(rng.randint(-3, 3)) for _ in range(3)]
                 for _ in range(3)]
            try:
                M = change_basis(L, P)
                break
            except SingularMatrixError:
                continue
        # change_basis(L, P) is isomorphic to L via P
        assert verify_morphism(M, L, P)


def test_change_basis_singular_rejected():
    with pytest.raises(SingularMatrixError):
        change_basis(heis(), [[1, 0, 0], [1, 0, 0], [0, 0, 1]])


def test_verify_morphism_identity_and_scaling():
    L = heis()
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert verify_morphism(L, L, ident)
    # X->X, Y->2Y, Z->2Z is an automorphism of h3
    assert verify_morphism(L, L, [[1, 0, 0], [0, 2, 0], [0, 0, 2]])
    # X->X, Y->2Y, Z->Z is not
    assert not verify_morphism(L, L, [[1, 0, 0], [0, 2, 0], [0, 0, 1]])
    # the zero map is a morphism; a matrix of the wrong shape is none
    assert verify_morphism(L, L, [[0] * 3 for _ in range(3)])
    assert not verify_morphism(L, L, [[1, 0, 0], [0, 1, 0]])
    assert not verify_sigma_isomorphism(L, L, None, [[1, 0, 0]])


def test_verify_sigma_isomorphism_on_conjugate():
    # L over Q(i) with [X1,X2] = i X3; sigma-conjugate has -i; identity
    # matrix is a sigma-isomorphism onto it.
    i = QI.generator()
    L = LieAlgebra(QI, 3, {(0, 1): {2: i}})
    Lbar = LieAlgebra(QI, 3, {(0, 1): {2: -i}})
    sigma = QI.automorphisms()[1]
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert verify_sigma_isomorphism(L, Lbar, sigma, ident)
    assert not verify_sigma_isomorphism(L, L, sigma, ident)
    G = g_lambda(QI, 1 + i)
    ident = [[1 if r == c else 0 for c in range(G.dim)]
             for r in range(G.dim)]
    assert verify_sigma_isomorphism(G, conjugate(G, sigma), sigma, ident)
    assert not verify_sigma_isomorphism(G, G, sigma, ident)
    # the zero map preserves brackets, linear or sigma-semilinear, and is
    # refused as an isomorphism because it is not bijective
    zero = [[0] * 3 for _ in range(3)]
    assert not verify_sigma_isomorphism(heis(), heis(), None, zero)
    m = LinearMap.make(L, Lbar, zero, sigma)
    assert m.sigma is sigma and m.verify() and not m.is_bijective()
    assert not verify_sigma_isomorphism(L, Lbar, sigma, zero)


def test_ideal_checks():
    L = heis()
    z = [[Q.zero(), Q.zero(), Q.one()]]
    assert is_ideal(L, z)
    x = [[Q.one(), Q.zero(), Q.zero()]]
    assert not is_ideal(L, x)
    assert is_ideal(L, [[Q.one(), Q.zero(), Q.zero()],
                        [Q.zero(), Q.zero(), Q.one()]])


def test_restrict_to_span():
    L = direct_sum(heis(), heis())
    rows = [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]]
    rows = [[Q.from_rational(c) for c in r] for r in rows]
    sub = restrict_to_span(L, rows)
    assert sub.dim == 3
    assert sub.bracket_basis(0, 1) == {2: Q.one()}
    bad = [[Q.one(), Q.zero(), Q.zero(), Q.zero(), Q.zero(), Q.zero()],
           [Q.zero(), Q.one(), Q.zero(), Q.zero(), Q.zero(), Q.zero()]]
    with pytest.raises(DegenerateError):
        restrict_to_span(L, bad)


def dense_center_reference(L):
    """The center from all n^2 equations sum_i x_i c_ij^k = 0, one
    structure constant at a time."""
    eqs = []
    for j in range(L.dim):
        for k in range(L.dim):
            row = [L.structure_constant(i, j, k) for i in range(L.dim)]
            if any(not c.is_zero() for c in row):
                eqs.append(row)
    if not eqs:
        return linalg.rref(linalg.identity_matrix(L.field, L.dim), L.field)
    return linalg.rref(linalg.nullspace(eqs, L.field), L.field)


def dense_express(rows, pivots, v):
    """Reference: the coordinates of v in dense row-reduced rows, or None
    outside their span, by subtracting each row times v's entry at its
    pivot from a dense residual."""
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


def dense_is_ideal(L, rows):
    """Reference: [e_i, w] in dense coordinates for every basis vector e_i
    and echelon row w, each tested by dense_express."""
    red, pivots = linalg.rref([list(r) for r in rows], L.field)
    basis = linalg.identity_matrix(L.field, L.dim)
    for e in basis:
        for w in red:
            v = L.bracket_coords(e, w)
            if dense_express(red, pivots, v) is None:
                return False
    return True


def dense_restrict_to_span(L, rows, labels=None):
    """Reference: dense brackets of the echelon rows, expressed in them."""
    red, pivots = linalg.rref([list(r) for r in rows], L.field)
    brackets = {}
    for a in range(len(red)):
        for b in range(a + 1, len(red)):
            w = L.bracket_coords(red[a], red[b])
            coords = dense_express(red, pivots, w)
            if coords is None:
                raise DegenerateError("span is not closed under the bracket")
            entry = {k: c for k, c in enumerate(coords) if not c.is_zero()}
            if entry:
                brackets[(a, b)] = entry
    return LieAlgebra(L.field, len(red), brackets, labels)


def seeded_invertible(field, n, seed):
    """A seeded dense invertible matrix with small integer entries, plus a
    multiple of the generator over an extension."""
    rng = random.Random(seed)
    while True:
        P = [[field.from_rational(rng.randint(-2, 2)) for _ in range(n)]
             for _ in range(n)]
        if not field.is_rationals:
            P[0][n - 1] = P[0][n - 1] + field.generator()
        if linalg.rank(P, field) == n:
            return P


def span_cases():
    """(name, L, rows): ideals, subalgebras that are not ideals, spans not
    closed under the bracket, dependent and empty row lists, over Q and
    Q(i), in the catalog basis and re-based by a dense P."""
    out = []
    for fname, field in (("Q", Q), ("Q(i)", QI)):
        lam = field.from_rational(3) if field is Q else 1 + QI.generator()
        blocks = {
            "h3": (heis(field), []),
            "sl2": (sl2(field), []),
            "g_lambda": (g_lambda(field, lam), []),
            "h3+h3": (direct_sum(heis(field), heis(field)),
                      [range(3), range(3, 6)]),
            "r3ab+g1": (direct_sum(r3_lambda_plus_abelian(field, lam),
                                   g1_alpha(field, 2)),
                        [range(3), range(3, 4), range(4, 8)]),
        }
        for seed, (name, (L, summands)) in enumerate(blocks.items()):
            n = L.dim
            P = seeded_invertible(field, n, seed)
            Pinv = linalg.inverse(P, field)
            for basis, M, to_coords in (
                    ("", L, lambda v: v),
                    ("*P", change_basis(L, P),
                     lambda v: linalg.mat_vec(Pinv, v, field))):
                ident = linalg.identity_matrix(field, n)
                rng = random.Random("%s%s%s" % (fname, name, basis))
                spans = {
                    "center": dense_center_reference(M)[0],
                    "derived": commutator_rows(M)[0],
                    "whole": ident,
                    "empty": [],
                    "line": [to_coords(ident[0])],
                    "plane": [to_coords(ident[0]), to_coords(ident[1])],
                    "dependent": [to_coords(ident[1]), to_coords(ident[1]),
                                  to_coords(ident[n - 1])],
                }
                for t, block in enumerate(summands):
                    spans["summand%d" % t] = [to_coords(ident[k])
                                              for k in block]
                for t in range(3):
                    spans["random%d" % t] = [
                        [field.from_rational(rng.randint(-1, 1))
                         for _ in range(n)]
                        for _ in range(rng.randint(1, n - 1))]
                for sname, rows in spans.items():
                    out.append(("%s/%s%s/%s" % (fname, name, basis, sname),
                                M, rows))
    return out


SPAN_CASES = span_cases()


@pytest.mark.parametrize("name, L, rows", SPAN_CASES,
                         ids=[c[0] for c in SPAN_CASES])
def test_sparse_span_checks_match_the_dense_references(name, L, rows):
    assert is_ideal(L, rows) == dense_is_ideal(L, rows)
    labels = tuple("W%d" % t for t in range(linalg.rank(rows, L.field)))
    try:
        want = dense_restrict_to_span(L, rows, labels)
    except DegenerateError as exc:
        with pytest.raises(DegenerateError) as info:
            restrict_to_span(L, rows, labels)
        assert str(info.value) == str(exc)
        return
    got = restrict_to_span(L, rows, labels)
    assert got.dim == want.dim and got.labels == want.labels
    assert [(key, list(entry.items())) for key, entry in got.brackets.items()
            ] == [(key, list(entry.items()))
                  for key, entry in want.brackets.items()]


def test_span_cases_cover_each_kind():
    kinds = {"ideal": 0, "subalgebra only": 0, "not closed": 0}
    for _, L, rows in SPAN_CASES:
        try:
            dense_restrict_to_span(L, rows)
        except DegenerateError:
            kinds["not closed"] += 1
            continue
        kinds["ideal" if dense_is_ideal(L, rows) else "subalgebra only"] += 1
    assert min(kinds.values()) >= 10, kinds


def test_vector_owner_checks():
    L1, L2 = heis(), sl2()
    v = L1.vector([1, 0, 0])
    w = L2.vector([1, 0, 0])
    with pytest.raises(OwnerMismatchError):
        L1.bracket(v, w)


def test_linear_map_apply():
    L = heis()
    m = LinearMap.make(L, L, [[0, 1, 0], [1, 0, 0], [0, 0, -1]])
    v = m.apply(L.vector([1, 2, 3]))
    assert v.coords == L.vector([2, 1, -3]).coords
    assert m.is_bijective()
    assert m.verify()  # X<->Y, Z->-Z preserves [X,Y]=Z
    with pytest.raises(TowerMismatchError):
        LinearMap.make(L, heis(QI), [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(OwnerMismatchError):
        LinearMap.make(L, L, [[1, 0, 0], [0, 1, 0]])


def test_ad_matrix():
    L = sl2()
    h = [Q.one(), Q.zero(), Q.zero()]
    ad = L.ad_matrix(h)
    # ad_h = diag(0, 2, -2) in basis (h, e, f)
    assert ad[1][1] == Q.from_rational(2)
    assert ad[2][2] == Q.from_rational(-2)
    assert ad[0][0].is_zero()


# ------------------------------------------------ support-driven kernels

def tower():
    """Q(i)(sqrt2) as a quadratic extension of Q(i)."""
    return field_extend(QI, Polynomial.from_rationals(QI, [-2, 0, 1]), "s",
                        [(0, 1), (0, -1)])


def random_element(field, rng, nonzero=False):
    while True:
        if field.is_rationals:
            x = field.from_rational(rng.randint(-3, 3))
        else:
            x = field.element([random_element(field.base, rng)
                               for _ in range(field.degree)])
        if not (nonzero and x.is_zero()):
            return x


def random_vector(field, n, rng, pattern):
    zero = field.zero()
    if pattern == "zero":
        return [zero] * n
    if pattern == "single":
        v = [zero] * n
        v[rng.randrange(n)] = random_element(field, rng, nonzero=True)
        return v
    if pattern == "mixed":
        return [random_element(field, rng, nonzero=True)
                if rng.random() < 0.4 else zero for _ in range(n)]
    return [random_element(field, rng, nonzero=True) for _ in range(n)]


def dense_bracket(L, u, v):
    """sum over i < j of (u_i v_j - u_j v_i) [e_i, e_j], with no skipping."""
    out = [L.field.zero()] * L.dim
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            coeff = u[i] * v[j] - u[j] * v[i]
            for k, c in L.bracket_basis(i, j).items():
                out[k] = out[k] + coeff * c
    return out


@pytest.mark.parametrize("field_name", ["Q", "Q(i)", "Q(i)(sqrt2)"])
def test_bracket_coords_matches_dense_reference(field_name):
    field = {"Q": lambda: Q, "Q(i)": lambda: QI, "Q(i)(sqrt2)": tower}[
        field_name]()
    rng = random.Random(11)
    lam = random_element(field, rng, nonzero=True)
    L = direct_sum(sl2(field), g_lambda(field, lam))
    patterns = ("zero", "single", "mixed", "dense")
    for pu in patterns:
        for pv in patterns:
            for _ in range(3):
                u = random_vector(field, L.dim, rng, pu)
                v = random_vector(field, L.dim, rng, pv)
                assert L.bracket_coords(u, v) == dense_bracket(L, u, v)
                assert L.bracket_coords(u, u) == [field.zero()] * L.dim


def test_altered_sumconjugate_map_is_not_a_morphism():
    L = g_lambda(QI, QI.one() + QI.generator())
    rep = verify_sumconjugate(L, Q)
    assert rep.is_isomorphism
    src, tgt = rep.map.source, rep.map.target
    rows = [list(r) for r in rep.map.matrix]
    changed = 0
    for r, row in enumerate(rows):
        for c, x in enumerate(row):
            if x.is_zero():
                continue
            rows[r][c] = x + x
            assert not verify_morphism(src, tgt, rows), (r, c)
            rows[r][c] = x
            changed += 1
    assert changed == 40
    assert verify_morphism(src, tgt, rows)


def all_pairs_holds(source, target, sigma, mat):
    """The morphism check as it was before it expanded over the stored
    brackets: every pair i < j, with the right side gathered over the
    support pairs of columns i and j in the target's table."""
    cols = [linalg.sparse([row[i] for row in mat]) for i in range(source.dim)]
    for i in range(source.dim):
        for j in range(i + 1, source.dim):
            acc = {}
            liealg_module._add_bracket(target.brackets, acc, cols[i], cols[j])
            for k, c in source.bracket_basis(i, j).items():
                sc = c if sigma is None else sigma(c)
                for r, x in cols[k].items():
                    t = sc * x
                    prev = acc.get(r)
                    acc[r] = -t if prev is None else prev - t
            if any(not c.is_zero() for c in acc.values()):
                return False
    return True


def block_matrix(field, rows, cols, blocks):
    """A rows x cols matrix with identity blocks at (row, col, size)."""
    zero, one = field.zero(), field.one()
    mat = [[zero] * cols for _ in range(rows)]
    for r0, c0, size in blocks:
        for t in range(size):
            mat[r0 + t][c0 + t] = one
    return mat


def morphism_cases():
    """(name, source, target, sigma, matrix) for maps that are morphisms:
    sum-conjugate maps, sigma-conjugations, oracle certificates, seeded
    changes of basis, and maps with zero rows or zero columns."""
    rng = random.Random(41)
    out = []
    for fname, E, F in (("Q(i)", QI, Q), ("Q(sqrt2)", quadratic_field(2), Q),
                        ("Q(zeta8)", cyclotomic_field(8), Q),
                        ("Q(i)(sqrt2)", tower(), QI)):
        lam = E.one() + E.generator()
        algebras = [("h3", heis(E)), ("r3", r3_lambda(E, lam)),
                    ("g_lambda", g_lambda(E, lam))]
        if E.minpoly.degree == 2:
            algebras.append(("nintot", nintot_family(E, lam, 2, 1)))
        for label, L in algebras:
            m = verify_sumconjugate(L, F).map
            out.append(("%s/%s/sumconjugate" % (fname, label), m.source,
                        m.target, None, [list(r) for r in m.matrix]))
            for sigma in galois_group(E, F).elements[1:]:
                c = conjugation_map(L, sigma)
                out.append(("%s/%s/conjugation" % (fname, label), c.source,
                            c.target, sigma, [list(r) for r in c.matrix]))
    for fname, field in (("Q", Q), ("Q(i)", QI)):
        lam = field.from_rational(3) if field is Q else 2 + QI.generator()
        one = field.one()
        g1_permuted = LieAlgebra(field, 4, {(0, 1): {1: lam}, (0, 2): {2: one},
                                            (0, 3): {3: one}})
        for label, A, B in (
                ("r3", r3_lambda(field, lam), r3_lambda(field, 1 / lam)),
                ("g1", g1_alpha(field, lam), g1_permuted)):
            verdict = isomorphism_verdict(A, B)
            assert verdict.status == "confirmed"
            out.append(("%s/%s/certificate" % (fname, label), A, B, None,
                        [list(r) for r in verdict.certificate]))
        for label, L in (("h3+h3", direct_sum(heis(field), heis(field))),
                         ("sl2", sl2(field)),
                         ("g_lambda", g_lambda(field, lam)),
                         ("r3+ab1", r3_lambda_plus_abelian(field, lam))):
            P = seeded_invertible(field, L.dim, rng.randrange(1000))
            out.append(("%s/%s/change_of_basis" % (fname, label),
                        change_basis(L, P), L, None, P))
        A, B = g_lambda(field, lam), heis(field)
        S = direct_sum(A, B)
        out.append(("%s/zero_map" % fname, A, A, None,
                    block_matrix(field, A.dim, A.dim, [])))
        out.append(("%s/projection" % fname, S, A, None,
                    block_matrix(field, A.dim, S.dim, [(0, 0, A.dim)])))
        out.append(("%s/inclusion" % fname, B, S, None,
                    block_matrix(field, S.dim, B.dim, [(A.dim, 0, B.dim)])))
    return out


MORPHISM_CASES = morphism_cases()


@pytest.mark.parametrize("name, source, target, sigma, mat", MORPHISM_CASES,
                         ids=[case[0] for case in MORPHISM_CASES])
def test_morphism_check_matches_the_all_pairs_reference(name, source, target,
                                                        sigma, mat):
    check = liealg_module._semilinear_holds
    assert check(source, target, sigma, mat)
    assert all_pairs_holds(source, target, sigma, mat)
    field = target.field
    rng = random.Random(name)
    # perturb one entry at a time, in a seeded order, until four perturbed
    # maps are no morphisms; both checks must agree on every one
    positions = [(r, c) for r in range(len(mat)) for c in range(len(mat[0]))]
    rng.shuffle(positions)
    refuted = 0
    for r, c in positions:
        bad = [list(row) for row in mat]
        bad[r][c] = bad[r][c] + random_element(field, rng, nonzero=True)
        expected = all_pairs_holds(source, target, sigma, bad)
        assert check(source, target, sigma, bad) == expected, (r, c)
        refuted += not expected
        if refuted == 4:
            break
    zero = field.zero()
    r, c = rng.randrange(len(mat)), rng.randrange(len(mat[0]))
    zero_row = [[zero] * len(row) if k == r else row
                for k, row in enumerate(mat)]
    zero_column = [[zero if t == c else x for t, x in enumerate(row)]
                   for row in mat]
    for cut in (zero_row, zero_column):
        assert (check(source, target, sigma, cut)
                == all_pairs_holds(source, target, sigma, cut))
    assert refuted == 4, name


def test_morphism_cases_cover_each_kind():
    kinds = [case[0].rsplit("/", 1)[1] for case in MORPHISM_CASES]
    assert kinds.count("sumconjugate") == 15
    assert kinds.count("conjugation") == 21
    for kind in ("certificate", "change_of_basis", "zero_map", "projection",
                 "inclusion"):
        assert kind in kinds


@pytest.mark.parametrize("field_name", ["Q", "Q(i)", "Q(i)(sqrt2)"])
def test_rank_matches_rref(field_name):
    field = {"Q": lambda: Q, "Q(i)": lambda: QI, "Q(i)(sqrt2)": tower}[
        field_name]()
    rng = random.Random(53)
    zero = field.zero()

    def matrix(rows, cols, density):
        return [[random_element(field, rng, nonzero=True)
                 if rng.random() < density else zero for _ in range(cols)]
                for _ in range(rows)]

    singular = matrix(7, 7, 1.0)
    c = random_element(field, rng, nonzero=True)
    singular[4] = [2 * a - c * b for a, b in zip(singular[0], singular[2])]
    cases = {"dense": matrix(8, 8, 1.0), "sparse": matrix(24, 24, 0.1),
             "singular": singular, "zero": matrix(5, 6, 0.0),
             "wide": matrix(4, 11, 0.5), "tall": matrix(11, 4, 0.5),
             "empty": []}
    ranks = {}
    for name, rows in cases.items():
        ranks[name] = linalg.rank(rows, field)
        assert ranks[name] == len(linalg.rref(rows, field)[0]), name
    assert ranks["singular"] < 7 and ranks["zero"] == ranks["empty"] == 0


def unitriangular(field, n, rng):
    one, zero = field.one(), field.zero()
    return [[one if r == c else
             random_element(field, rng) if r < c else zero
             for c in range(n)] for r in range(n)]


@pytest.mark.parametrize("name", ["h3+h3", "g_lambda"])
def test_verify_morphism_on_rebased_dense_constants(name):
    lam = QI.one() + QI.generator()
    L = {"h3+h3": lambda: direct_sum(heis(QI), heis(QI)),
         "g_lambda": lambda: g_lambda(QI, lam)}[name]()
    rng = random.Random(23)
    P = unitriangular(QI, L.dim, rng)
    M = change_basis(L, P)
    assert verify_morphism(M, L, P)
    # P[0][0] = 2 doubles the image of e_0 = X1: the brackets [X1, .] double
    # on the right-hand side while the left-hand side only moves along X1.
    for r, c in [(0, 0)] + [(rng.randrange(L.dim - 1), L.dim - 1)
                            for _ in range(3)]:
        bad = [list(row) for row in P]
        bad[r][c] = bad[r][c] + QI.one()
        assert not verify_morphism(M, L, bad), (r, c)


@pytest.mark.parametrize("field_name", ["Q", "Q(i)", "Q(i)(sqrt2)"])
def test_center_dim_matches_dense_reference(field_name):
    field = {"Q": lambda: Q, "Q(i)": lambda: QI, "Q(i)(sqrt2)": tower}[
        field_name]()
    rng = random.Random(31)
    lam = random_element(field, rng, nonzero=True)
    catalog = [heis(field), sl2(field), abelian(field, 3),
               LieAlgebra(field, 0, {}), g_lambda(field, lam),
               r3_lambda_plus_abelian(field, lam), g1_alpha(field, lam),
               direct_sum(heis(field), heis(field)),
               direct_sum(sl2(field), abelian(field, 2))]
    rebased = [change_basis(L, unitriangular(field, L.dim, rng))
               for L in catalog if 0 < L.dim <= 6]
    dims = []
    for L in catalog + rebased:
        dim = len(dense_center_reference(L)[0])
        assert fingerprint(L).center_dim == dim
        dims.append(dim)
    assert dims[:len(catalog)] == [1, 0, 3, 0, 2, 1, 0, 2, 2]


# ------------------------------------------------ Jacobi check

def jacobi_terms(brackets, i, j, k):
    """The contributions to [e_i, [e_j, e_k]] read from the stored (min, max)
    entries, as (reversed, {t: value}); reversed says that the inner pair
    (j, k) or the outer pair (i, m) was read against its stored order."""
    inner = brackets.get((j, k) if j < k else (k, j), {})
    for m, c in inner.items():
        if m == i:
            continue
        outer = brackets.get((i, m) if i < m else (m, i))
        if outer is None:
            continue
        if (j < k) != (i < m):
            c = -c
        yield j > k or i > m, {t: c * d for t, d in outer.items()}


def triple_sums(brackets, triple):
    """The Jacobi sum of a sorted triple, split into the part read only in
    stored order and the part carried by reversed pairs."""
    a, b, c = triple
    straight: dict = {}
    rev: dict = {}
    for i, j, k in ((a, b, c), (b, c, a), (c, a, b)):
        for reversed_read, term in jacobi_terms(brackets, i, j, k):
            acc = rev if reversed_read else straight
            for t, v in term.items():
                acc[t] = acc[t] + v if t in acc else v
    return ({t: v for t, v in straight.items() if not v.is_zero()},
            {t: v for t, v in rev.items() if not v.is_zero()})


def brute_force_jacobi(brackets):
    """The first failing support triple in lexicographic order and its
    residual, from every triple of indices in the table; None if none."""
    idx = sorted({x for key in brackets for x in key})
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            for c in range(b + 1, len(idx)):
                triple = (idx[a], idx[b], idx[c])
                straight, rev = triple_sums(brackets, triple)
                total = dict(straight)
                for t, v in rev.items():
                    total[t] = total[t] + v if t in total else v
                total = {t: v for t, v in total.items() if not v.is_zero()}
                if total:
                    return triple, total
    return None


def jacobi_tables():
    """Valid tables over Q and Q(i): catalog, in reversed basis order (so
    most stored pairs are read reversed) and re-based by a dense P that is
    not unitriangular."""
    out = []
    for fname, field, lam in (("Q", Q, Q.from_rational(3)),
                              ("Q(i)", QI, QI.one() + QI.generator())):
        rng = random.Random(5)
        for name, L in (("h3+h3", direct_sum(heis(field), heis(field))),
                        ("sl2+h3", direct_sum(sl2(field), heis(field))),
                        ("g_lambda", g_lambda(field, lam)),
                        ("r3+g1", direct_sum(
                            r3_lambda_plus_abelian(field, lam),
                            g1_alpha(field, field.from_rational(2))))):
            n = L.dim
            out.append(("%s/%s" % (fname, name), L))
            rev = [[1 if r + c == n - 1 else 0 for c in range(n)]
                   for r in range(n)]
            out.append(("%s/%s*reversed" % (fname, name),
                        change_basis(L, rev)))
            if fname == "Q" or n < 10:
                P = unitriangular(field, n, rng)
                P[n - 1][0] = field.one()
                out.append(("%s/%s*P" % (fname, name), change_basis(L, P)))
    # dense constants whose [L, L] is not a coordinate subspace, so that
    # the constructor checks the adapted table first: P has one seeded
    # superdiagonal band and a corner entry, and P^-1 is dense
    L = nintot_family(QI, QI.one() + QI.generator(), 2, 1)
    n = L.dim
    rng = random.Random(6)
    P = [[1 if c == r else rng.choice((-2, -1, 1, 2)) if c == r + 1 else 0
          for c in range(n)] for r in range(n)]
    P[n - 1][0] = 1
    out.append(("Q(i)/nintot(2,1)*P", change_basis(L, P)))
    return out


JACOBI_TABLES = jacobi_tables()


@pytest.mark.parametrize("name, L", JACOBI_TABLES,
                         ids=[name for name, _ in JACOBI_TABLES])
def test_jacobi_check_matches_brute_force_on_planted_errors(name, L):
    """One planted error per table: the constructor must raise on the same
    triple with the same residual as the triple loop, or on neither.  On
    the sparse tables some first failing triples are carried only by
    reversed pairs."""
    field, n = L.field, L.dim
    rng = random.Random(name)
    only_reversed = 0
    for _ in range(12):
        brackets = {key: dict(entry) for key, entry in L.brackets.items()}
        a, b = sorted(rng.sample(range(n), 2))
        m = rng.randrange(n)
        entry = brackets.setdefault((a, b), {})
        entry[m] = entry.get(m, field.zero()) + random_element(
            field, rng, nonzero=True)
        if entry[m].is_zero():
            del entry[m]
        if not entry:
            del brackets[(a, b)]
        want = brute_force_jacobi(brackets)
        try:
            LieAlgebra(field, n, brackets)
            got = None
        except JacobiError as exc:
            got = (tuple(t - 1 for t in exc.triple), exc.residual)
        assert got == want
        if want is not None:
            straight, rev = triple_sums(brackets, want[0])
            only_reversed += not straight and bool(rev)
    if not name.endswith("*P"):
        assert only_reversed, "no planted error carried only by reversed pairs"


def test_planted_tables_include_an_adapted_check():
    assert any(L.adapted is not None for _, L in JACOBI_TABLES)


# ------------------------------------------------ adapted presentation

def presentation_cases():
    """Catalog algebras and sums of them over Q and Q(i), in the catalog
    basis, reversed, and re-based by a seeded dense invertible P."""
    out = []
    for fname, field in (("Q", Q), ("Q(i)", QI)):
        lam = field.from_rational(3) if field is Q else 1 + QI.generator()
        two = field.from_rational(2)
        algebras = [
            ("h3", heis(field)),
            ("sl2", sl2(field)),
            ("ab3", abelian(field, 3)),
            ("g_lambda", g_lambda(field, lam)),
            ("r3", r3_lambda(field, lam)),
            ("r3ab", r3_lambda_plus_abelian(field, lam)),
            ("g1", g1_alpha(field, two)),
            ("h3+h3", direct_sum(heis(field), heis(field))),
            ("sl2+h3", direct_sum(sl2(field), heis(field))),
            ("r3+g1+ab1", direct_sum(r3_lambda(field, lam),
                                     g1_alpha(field, two),
                                     abelian(field, 1))),
        ]
        if field is QI:
            algebras.append(("g_lambda+h3", direct_sum(g_lambda(field, lam),
                                                       heis(field))))
            algebras.append(("nintot(2,1)", nintot_family(field, lam, 2, 1)))
        for seed, (name, L) in enumerate(algebras):
            n = L.dim
            out.append(("%s/%s" % (fname, name), L, "catalog"))
            if n > 10:
                continue
            rev = [[1 if r + c == n - 1 else 0 for c in range(n)]
                   for r in range(n)]
            out.append(("%s/%s*reversed" % (fname, name),
                        change_basis(L, rev), "reversed"))
            out.append(("%s/%s*P" % (fname, name),
                        change_basis(L, seeded_invertible(field, n, seed)),
                        "dense"))
    return out


PRESENTATION_CASES = presentation_cases()


def dense_commutator(L):
    """The rref of every stored bracket as a dense vector."""
    vecs = []
    for _key, comps in sorted(L.brackets.items()):
        v = [L.field.zero()] * L.dim
        for k, c in comps.items():
            v[k] = c
        vecs.append(v)
    return linalg.rref(vecs, L.field)


@pytest.mark.parametrize("name, L, kind", PRESENTATION_CASES,
                         ids=[c[0] for c in PRESENTATION_CASES])
def test_adapted_table_is_the_algebra_in_the_basis_it_names(name, L, kind):
    """derived is the rref of [L, L]; the stored table, when there is one,
    is change_basis(L, Q) for the Q whose columns adapted_basis gives, and
    its own [L, L] is the span of the last dim D coordinate vectors."""
    field, n = L.field, L.dim
    rows, pivots = dense_commutator(L)
    assert sorted(L.derived) == pivots
    assert [L.derived[c] for c in pivots] == [linalg.sparse(r) for r in rows]
    assert commutator_rows(L) == (rows, pivots)
    if kind == "catalog":
        assert all(len(row) == 1 for row in L.derived.values())
        assert L.adapted is None
        return
    if L.adapted is None:
        assert all(len(row) == 1 for row in L.derived.values())
        return
    basis = L.adapted_basis()
    P = [[vec.get(r, field.zero()) for vec in basis] for r in range(n)]
    assert L.adapted.brackets == change_basis(L, P).brackets
    d = len(L.derived)
    assert L.adapted.derived == {k: {k: field.one()}
                                 for k in range(n - d, n)}
    assert L.adapted.adapted is None
    assert all(k >= n - d for entry in L.adapted.brackets.values()
               for k in entry)


def test_dense_presentations_store_a_table():
    kinds = {}
    for _name, L, kind in PRESENTATION_CASES:
        if L.adapted is not None:
            kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds.get("dense", 0) >= 15
    assert "catalog" not in kinds


# ------------------------------------------------ fingerprint

def dense_fingerprint(L):
    """The fingerprint from dense spans, as it was computed before it moved
    onto sparse rows: every series term is the rref of the brackets of
    every pair of rows from the terms before; the center comes from
    dense_center_reference and [L, L] from dense_commutator."""
    field = L.field
    full = linalg.identity_matrix(field, L.dim)

    def span(rows_a, rows_b):
        vecs = []
        for u in rows_a:
            for v in rows_b:
                w = L.bracket_coords(u, v)
                if any(not c.is_zero() for c in w):
                    vecs.append(w)
        return linalg.rref(vecs, field)[0]

    def series(step):
        dims = [L.dim]
        current = full
        while True:
            nxt = step(current)
            d = len(nxt)
            if d == dims[-1]:
                dims.append(d)
                break
            dims.append(d)
            current = nxt
            if d == 0:
                break
        return tuple(dims)

    lcs = series(lambda rows: span(full, rows))
    ds = series(lambda rows: span(rows, rows))
    comm = len(dense_commutator(L)[0])
    nilpotency_class = len(lcs) - 1 if lcs[-1] == 0 else None
    two_step = None
    if nilpotency_class is not None and nilpotency_class <= 2:
        two_step = (L.dim - comm, comm)
    return liealg_module.Fingerprint(
        dim=L.dim, lower_central=lcs, derived=ds,
        center_dim=len(dense_center_reference(L)[0]), commutator_dim=comm,
        nilpotency_class=nilpotency_class, solvable=ds[-1] == 0,
        two_step=two_step)


FINGERPRINT_CASES = PRESENTATION_CASES + [
    ("Q/ab0", LieAlgebra(Q, 0, {}), "catalog"),
    ("Q(i)/ab1", abelian(QI, 1), "catalog"),
    ("Q(i)/h3 restricted", heisenberg(QI), "catalog"),
]


@pytest.mark.parametrize("name, L, kind", FINGERPRINT_CASES,
                         ids=[c[0] for c in FINGERPRINT_CASES])
def test_fingerprint_matches_the_dense_reference(name, L, kind):
    assert fingerprint(L) == dense_fingerprint(L)


def test_fingerprint_is_computed_once(monkeypatch):
    L = change_basis(g_lambda(QI, 1 + QI.generator()),
                     seeded_invertible(QI, 10, 3))
    assert L.adapted is not None
    first = fingerprint(L)

    def fail(_):
        raise AssertionError("fingerprint recomputed")

    monkeypatch.setattr(liealg_module, "_invariants", fail)
    assert fingerprint(L) is first


def test_copies_do_not_carry_a_stale_fingerprint():
    L = direct_sum(heis(QI), abelian(QI, 1))
    fp = fingerprint(L)
    named = L.with_meta(name="h3+ab1")
    assert named._fingerprint is None
    assert fingerprint(named) == fp
    M = change_basis(L, seeded_invertible(QI, 4, 1))
    assert M._fingerprint is None
    assert fingerprint(M) == dense_fingerprint(M) == fp
    other = direct_sum(sl2(QI), abelian(QI, 1))
    assert fingerprint(other) == dense_fingerprint(other) != fp


# ------------------------------------------------ reduced rows

def test_echelon_takes_reduced_rows_as_they_are():
    """On every span case, _echelon gives rref's rows and pivots, and gives
    rref's rows back unchanged."""
    for _name, L, rows in SPAN_CASES:
        red, pivots = linalg.rref([list(r) for r in rows], L.field)
        assert _echelon(L, rows) == ([linalg.sparse(r) for r in red], pivots)
        assert _echelon(L, red) == ([linalg.sparse(r) for r in red], pivots)


@pytest.mark.parametrize("rows", [
    [[2, 0, 1]],                  # pivot entry not 1
    [[0, 1, 0], [1, 0, 0]],       # pivots out of order
    [[1, 1, 0], [0, 1, 0]],       # entry above a later pivot
    [[1, 0, 0], [0, 0, 0]],       # a zero row
    [[1, 0, 0], [1, 0, 0]],       # a repeated pivot
    [[0, 0, 0]],
], ids=["scaled", "order", "above", "zero-row", "repeat", "zero"])
def test_echelon_reduces_rows_that_are_not_reduced(rows):
    L = heis()
    rows = [[Q.from_rational(c) for c in r] for r in rows]
    red, pivots = linalg.rref(rows, Q)
    assert _echelon(L, rows) == ([linalg.sparse(r) for r in red], pivots)
