"""Tests for Pfaffians, two-step types and binary quartic invariants."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from lieforms import linalg
from lieforms.errors import (
    NotSkewError,
    NotTwoStepError,
    OddSizeError,
    SingularMatrixError,
    TVanishesError,
    WrongShapeError,
    ZeroScalarError,
)
from lieforms.catalog import (
    abelian,
    g_lambda,
    nintot_family,
    r3_lambda,
)
from lieforms.fields import field_extend, gaussian_rationals, rationals
from lieforms.liealg import (
    LieAlgebra,
    change_basis,
    commutator_rows,
    direct_sum,
)
from lieforms.pfaffian import (
    MultiPoly,
    TwoStepData,
    _lattice,
    classical_S,
    classical_T,
    invariant_S,
    invariant_T,
    invariant_c,
    invariant_c_of,
    jay_matrix,
    pfaffian,
    pfaffian_form,
    projective_equivalence_check,
    quartic_form_of,
    refute_isomorphism_by_c,
    two_step_type,
)
from lieforms.polynomials import Polynomial

Q = rationals()
QI = gaussian_rationals()


def sqrt2_over_gaussian():
    return field_extend(QI, Polynomial.from_rationals(QI, [-2, 0, 1]), "s",
                        [(0, 1), (0, -1)])


def pf_expand(matrix):
    """Reference Pfaffian: expansion along the first row, (p-1)!! terms.

    Entries only need ring operations and is_zero, so this runs on field
    elements and on MultiPoly entries alike.
    """
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
        term = a * pf_expand(minor)
        if j % 2 == 0:
            term = -term
        total = term if total is None else total + term
    if total is None:
        # whole first row is zero
        probe = matrix[1][1] if n > 1 else matrix[0][0]
        total = probe - probe  # a zero of the right kind
    return total


def _random_sl2(field, rng):
    """Random product of shears and torus elements; determinant one."""
    m = [[field.one(), field.zero()], [field.zero(), field.one()]]
    for _ in range(rng.randint(1, 4)):
        kind = rng.randrange(3)
        if kind == 0:
            t = field.from_rational(rng.randint(-3, 3))
            g = [[field.one(), t], [field.zero(), field.one()]]
        elif kind == 1:
            t = field.from_rational(rng.randint(-3, 3))
            g = [[field.one(), field.zero()], [t, field.one()]]
        else:
            u = field.from_rational(rng.choice([2, -2, 3]))
            g = [[u, field.zero()], [field.zero(), u.inverse()]]
        m = [[m[0][0] * g[0][0] + m[0][1] * g[1][0],
              m[0][0] * g[0][1] + m[0][1] * g[1][1]],
             [m[1][0] * g[0][0] + m[1][1] * g[1][0],
              m[1][0] * g[0][1] + m[1][1] * g[1][1]]]
    return m


def heis(field):
    return LieAlgebra(field, 3, {(0, 1): {2: field.one()}})


def quartic_algebra(field, lam):
    """Type (8, 2) two-step algebra whose Pfaffian is z1^4+lam z1^2z2^2+z2^4."""
    one = field.one()
    lam = lam if hasattr(lam, "is_zero") else field.from_rational(lam)
    br = {
        (0, 4): {8: one}, (1, 5): {8: one},
        (2, 6): {8: one}, (3, 7): {8: one},
        (1, 4): {9: one}, (2, 5): {9: one},
        (3, 6): {9: one}, (0, 7): {9: -one},
        (1, 6): {9: -lam},
    }
    labels = tuple("X%d" % k for k in range(1, 9)) + ("Z1", "Z2")
    return LieAlgebra(field, 10, br, labels,
                      {"family": "quartic", "params": {"lambda": lam}})


def binary_quartic(field, a, b, c, d, e):
    conv = [x if hasattr(x, "is_zero") else field.from_rational(x)
            for x in (a, b, c, d, e)]
    return MultiPoly(field, 2, {(4 - k, k): conv[k] for k in range(5)})


def f_lambda(field, lam):
    lam = lam if hasattr(lam, "is_zero") else field.from_rational(lam)
    return binary_quartic(field, field.one(), field.zero(), lam,
                          field.zero(), field.one())


def random_skew(field, n, rng, entry):
    m = [[field.zero() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = entry(rng)
            m[i][j] = x
            m[j][i] = -x
    return m


class TestPfaffian:
    def test_two_by_two(self):
        m = random_skew(Q, 2, random.Random(1),
                        lambda r: Q.from_rational(r.randint(-5, 5)))
        assert pfaffian(m) == m[0][1]

    def test_four_by_four_closed_form(self):
        rng = random.Random(2)
        for _ in range(30):
            m = random_skew(Q, 4, rng,
                            lambda r: Q.from_rational(r.randint(-6, 6)))
            a, b, c = m[0][1], m[0][2], m[0][3]
            d, e, f = m[1][2], m[1][3], m[2][3]
            assert pfaffian(m) == a * f - b * e + c * d

    def test_square_is_determinant(self):
        rng = random.Random(20260823)
        cases = 0
        for field, entry in (
            (Q, lambda r: Q.from_rational(Fraction(r.randint(-4, 4),
                                                   r.randint(1, 3)))),
            (gaussian_rationals(),
             lambda r: gaussian_rationals().element(
                 [r.randint(-3, 3), r.randint(-3, 3)])),
        ):
            for n in (2, 4, 6):
                for _ in range(20):
                    m = random_skew(field, n, rng, entry)
                    pf = pfaffian(m)
                    assert pf * pf == linalg.det(m, field)
                    cases += 1
        assert cases == 120

    def test_odd_size_rejected(self):
        m = random_skew(Q, 3, random.Random(3),
                        lambda r: Q.from_rational(r.randint(-2, 2)))
        with pytest.raises(OddSizeError):
            pfaffian(m)

    def test_not_skew_rejected(self):
        one = Q.one()
        with pytest.raises(NotSkewError):
            pfaffian([[one, one], [-one, Q.zero()]])
        with pytest.raises(NotSkewError):
            pfaffian([[Q.zero(), one], [one, Q.zero()]])

    def test_empty_needs_explicit_one(self):
        with pytest.raises(WrongShapeError):
            pfaffian([])
        assert pfaffian([], one=Q.one()) == Q.one()


def random_entry(field, rng, nonzero=False):
    """A seeded element with small rational coordinates at every level."""
    while True:
        if field.is_rationals:
            x = field.from_rational(Fraction(rng.randint(-4, 4),
                                             rng.randint(1, 3)))
        else:
            x = field.element([random_entry(field.base, rng)
                               for _ in range(field.degree)])
        if not (nonzero and x.is_zero()):
            return x


def random_sparse_skew(field, n, rng, density):
    return random_skew(field, n, rng,
                       lambda r: (random_entry(field, r, nonzero=True)
                                  if r.random() < density else field.zero()))


def skew_from(field, n, upper):
    """Skew matrix with the given {(i, j): value} above the diagonal."""
    m = [[field.zero() for _ in range(n)] for _ in range(n)]
    for (i, j), x in upper.items():
        m[i][j] = field.from_rational(x)
        m[j][i] = field.from_rational(-x)
    return m


class TestSkewElimination:
    @pytest.mark.parametrize("field_name", ["Q", "Q(i)", "Q(i)(sqrt2)"])
    def test_square_is_determinant_up_to_twelve(self, field_name):
        field = {"Q": lambda: Q, "Q(i)": lambda: QI,
                 "Q(i)(sqrt2)": sqrt2_over_gaussian}[field_name]()
        rng = random.Random(20261018)
        reps = 2 if field_name == "Q(i)(sqrt2)" else 4
        zeros = 0
        for n in (2, 4, 6, 8, 10, 12):
            for density in (1.0, 0.5, 0.25):
                for _ in range(reps):
                    m = random_sparse_skew(field, n, rng, density)
                    pf = pfaffian(m)
                    assert pf * pf == linalg.det(m, field)
                    zeros += pf.is_zero()
        assert zeros > 0

    def test_matches_expansion_up_to_eight(self):
        rng = random.Random(5)
        zeros = pivoted = 0
        for field in (Q, QI):
            for n in (2, 4, 6, 8):
                for density in (1.0, 0.6, 0.35, 0.2):
                    for _ in range(6):
                        m = random_sparse_skew(field, n, rng, density)
                        pf = pfaffian(m)
                        assert pf == pf_expand(m)
                        zeros += pf.is_zero()
                        # the first step pairs index 0 beyond index 1
                        pivoted += (m[0][1].is_zero()
                                    and any(not x.is_zero() for x in m[0]))
        assert zeros >= 10 and pivoted >= 10

    def test_pivot_beyond_the_next_index(self):
        # a_01 = 0, so r = 0 pairs with s = 2 at position 2: sign -1
        m = skew_from(Q, 4, {(0, 2): 3, (1, 3): 5})
        assert pfaffian(m) == Q.from_rational(-15) == pf_expand(m)
        m = skew_from(Q, 6, {(0, 3): 2, (1, 2): 7, (4, 5): 1, (1, 5): 4})
        assert pfaffian(m) == pf_expand(m) == Q.from_rational(14)

    def test_row_without_partner_gives_zero(self):
        # index 0 has no partner at the first step
        m = skew_from(Q, 6, {(1, 2): 1, (3, 4): 2, (2, 5): 3})
        assert pfaffian(m).is_zero()
        # the update a_23 += a_12 a_03 - a_02 a_13 cancels, so index 2 has
        # no partner at the second step
        m = skew_from(Q, 4, {(0, 1): 1, (0, 2): 1, (0, 3): 1,
                             (1, 2): 1, (1, 3): 1})
        assert pfaffian(m).is_zero() and pf_expand(m).is_zero()
        m = skew_from(QI, 6, {(0, 1): 2, (0, 2): 1, (0, 3): 1, (1, 2): 2,
                              (1, 3): 2, (4, 5): 1, (2, 4): 1})
        assert pfaffian(m).is_zero() and pf_expand(m).is_zero()


def dense_two_step(field, p, q, rng):
    """Two-step algebra X_1..X_p, Z_1..Z_q whose brackets [X_a, X_b] are
    nonzero vectors from {-2..2}^q, redrawn until they span all q."""
    vectors = [v for v in itertools.product(range(-2, 3), repeat=q) if any(v)]
    while True:
        br = {(a, b): {p + k: c for k, c in enumerate(rng.choice(vectors))
                       if c}
              for a in range(p) for b in range(a + 1, p)}
        L = LieAlgebra(field, p + q, br)
        if two_step_type(L).type == (p, q):
            return L


def expanded_form(L):
    """Pf J(z) by expansion over MultiPoly entries (p <= 8)."""
    return pf_expand(jay_matrix(two_step_type(L)))


def free_two_step(field, n):
    """Free two-step algebra on n generators: type (n, n(n-1)/2), with
    [X_a, X_b] = Z_ab."""
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    br = {pair: {n + k: field.one()} for k, pair in enumerate(pairs)}
    return LieAlgebra(field, n + len(pairs), br)


def power_sum(field, copies):
    L = heis(field)
    for _ in range(copies - 1):
        L = direct_sum(L, heis(field))
    return L


class TestFormByInterpolation:
    @pytest.mark.parametrize("p, q", [(2, 1), (4, 1), (6, 1), (8, 1),
                                      (4, 2), (6, 2), (8, 2), (4, 3),
                                      (6, 3), (8, 3), (4, 4), (6, 4),
                                      (8, 4)])
    def test_dense_matches_expansion(self, p, q):
        rng = random.Random(1000 * p + q)
        fields = (Q, QI) if p <= 6 else (Q,)
        for field in fields:
            L = dense_two_step(field, p, q, rng)
            pf = pfaffian_form(L)
            assert pf.type == (p, q)
            assert pf.form == expanded_form(L)
            assert not pf.form.is_zero()

    def test_sparse_catalog_matches_expansion(self):
        algebras = [heis(Q), power_sum(Q, 2), power_sum(QI, 3),
                    power_sum(Q, 4), quartic_algebra(Q, 3),
                    g_lambda(Q, Q.from_rational(Fraction(-5, 2))),
                    g_lambda(QI, QI.one() + QI.generator())]
        types = []
        for L in algebras:
            pf = pfaffian_form(L)
            types.append(pf.type)
            assert pf.form == expanded_form(L)
        assert types == [(2, 1), (4, 2), (6, 3), (8, 4), (8, 2), (8, 2),
                         (8, 2)]
        # h3^4 has Pfaffian z1 z2 z3 z4
        assert pfaffian_form(power_sum(Q, 4)).form == \
            MultiPoly(Q, 4, {(1, 1, 1, 1): Q.one()})

    def test_degenerate_jay_has_zero_form(self):
        one = Q.one()
        # X4 brackets with nothing: J has a zero row, Pf J(z) = 0
        L = LieAlgebra(Q, 6, {(0, 1): {4: one}, (0, 2): {5: one},
                              (1, 2): {4: one}})
        assert pfaffian_form(L).type == (4, 2)
        assert pfaffian_form(L).form.is_zero()
        assert expanded_form(L).is_zero()
        # h3 + ab2: type (4, 1), J(z) = z1 E_12
        L = direct_sum(heis(Q), LieAlgebra(Q, 2, {}))
        assert pfaffian_form(L).type == (4, 1)
        assert pfaffian_form(L).form.is_zero()

    def test_singular_first_coefficient_matrix(self):
        # J_1 of h3 + h3 pairs only X1, X2, so the lattice point a = 0
        # has Pfaffian 0 while the form z1 z2 does not vanish
        for field in (Q, QI):
            L = power_sum(field, 2)
            data = two_step_type(L)
            at_origin = [[entry.eval([field.one(), field.zero()])
                          for entry in row] for row in jay_matrix(data)]
            assert pfaffian(at_origin).is_zero()
            assert pfaffian_form(L).form == \
                MultiPoly(field, 2, {(1, 1): field.one()}) == expanded_form(L)
        rng = random.Random(77)
        L = dense_two_step(Q, 6, 2, rng)
        br = {key: {k: c for k, c in comps.items() if k != 6}
              for key, comps in L.brackets.items()}
        br[(0, 1)] = {6: Q.one()}  # J_1 = E_12: singular for p = 6
        L = LieAlgebra(Q, 8, br)
        assert two_step_type(L).type == (6, 2)
        assert pfaffian_form(L).form == expanded_form(L)

    def test_dense_sixteen_by_two_under_a_second(self):
        rng = random.Random(16)
        L = dense_two_step(Q, 16, 2, rng)
        start = time.perf_counter()
        pf = pfaffian_form(L)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, elapsed
        assert pf.form.degree() == 8
        jay = jay_matrix(two_step_type(L))
        for z in ((Fraction(-3, 2), 5), (7, Fraction(2, 3))):
            point = [Q.from_rational(x) for x in z]
            value = [[entry.eval(point) for entry in row] for row in jay]
            f = pf.form.eval(point)
            assert f * f == linalg.det(value, Q)

    def test_principal_lattice(self):
        for d, n in ((0, 3), (3, 0), (4, 1), (3, 14), (4, 27)):
            points = _lattice(d, n)
            assert len(points) == len(set(points)) == math.comb(d + n, n)
            assert all(len(a) == n and sum(a) <= d for a in points)

    @pytest.mark.parametrize("n, field, bound", [
        (4, Q, 1.0), (6, Q, 2.0), (6, QI, 2.0), (8, Q, 10.0),
    ], ids=["free4", "free6", "free6-Q(i)", "free8"])
    def test_free_algebras_with_many_commutator_directions(self, n, field,
                                                            bound):
        # q = n(n-1)/2 grows faster than p = n: the lattice has
        # C(n/2 + q - 1, q - 1) points, up to 31465 for n = 8
        L = free_two_step(field, n)
        start = time.perf_counter()
        pf = pfaffian_form(L)
        elapsed = time.perf_counter() - start
        assert pf.type == (n, n * (n - 1) // 2)
        assert elapsed < bound, elapsed
        # one term per perfect matching of the n generators
        assert len(pf.form.terms) == math.prod(range(n - 1, 0, -2))
        assert pf.form == expanded_form(L)

    def test_quartic_form_checks_type_first(self):
        L = quartic_algebra(QI, QI.generator())
        assert quartic_form_of(L) == pfaffian_form(L).form
        with pytest.raises(WrongShapeError, match=r"got \(6, 3\)"):
            quartic_form_of(power_sum(Q, 3))
        # an odd complement is reported by its type, not by its parity
        one = Q.one()
        odd = LieAlgebra(Q, 6, {(0, 1): {5: one}, (2, 3): {5: one},
                                (2, 4): {5: one}})
        with pytest.raises(WrongShapeError, match=r"got \(5, 1\)"):
            invariant_c_of(odd)


def dense_two_step_type(L):
    """Reference: two_step_type with centrality checked by dense brackets
    of each commutator row with every basis vector."""
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


def two_step_cases():
    """(name, L): two-step algebras and algebras that are not, in their
    catalog basis and re-based by a seeded invertible matrix."""
    lam = QI.one() + QI.generator()
    one = Q.one()
    two = Q.from_rational(2)
    sl2 = LieAlgebra(Q, 3, {(0, 1): {1: two}, (0, 2): {2: -two},
                            (1, 2): {0: one}})
    base = [
        ("heis", heis(Q)),
        ("quartic3", quartic_algebra(Q, 3)),
        ("g_lambda", g_lambda(QI, lam)),
        ("nintot", nintot_family(QI, lam, 2, 1)),
        ("heis+ab1", direct_sum(heis(Q), abelian(Q, 1))),
        ("abelian", abelian(Q, 3)),
        ("sl2", sl2),
        ("r3", r3_lambda(Q, two)),
        ("heis+r3", direct_sum(heis(Q), r3_lambda(Q, two))),
    ]
    out = []
    for seed, (name, L) in enumerate(base):
        out.append((name, L))
        rng = random.Random(seed)
        while True:
            P = [[rng.randint(-2, 2) for _ in range(L.dim)]
                 for _ in range(L.dim)]
            if linalg.rank([[L.field.from_rational(c) for c in row]
                            for row in P], L.field) == L.dim:
                break
        out.append((name + "*P", change_basis(L, P)))
    return out


TWO_STEP_CASES = two_step_cases()


class TestTwoStepType:
    @pytest.mark.parametrize("name, L", TWO_STEP_CASES,
                             ids=[name for name, _ in TWO_STEP_CASES])
    def test_matches_the_dense_reference(self, name, L):
        try:
            want = dense_two_step_type(L)
        except NotTwoStepError as exc:
            with pytest.raises(NotTwoStepError) as got:
                two_step_type(L)
            assert str(got.value) == str(exc)
            return
        assert two_step_type(L) == want

    def test_cases_cover_every_outcome(self):
        outcomes = set()
        for _name, L in TWO_STEP_CASES:
            try:
                dense_two_step_type(L)
                outcomes.add("two-step")
            except NotTwoStepError as exc:
                outcomes.add(str(exc))
        assert outcomes == {"two-step", "commutator is zero",
                            "commutator is not central"}

    def test_heisenberg_type(self):
        data = two_step_type(heis(Q))
        assert data.type == (2, 1)
        assert data.v_indices == (0, 1)

    def test_quartic_family_type(self):
        data = two_step_type(quartic_algebra(Q, 3))
        assert data.type == (8, 2)
        assert data.v_indices == tuple(range(8))

    def test_abelian_rejected(self):
        with pytest.raises(NotTwoStepError):
            two_step_type(LieAlgebra(Q, 3, {}))

    def test_sl2_rejected(self):
        one = Q.one()
        two = Q.from_rational(2)
        sl2 = LieAlgebra(Q, 3, {(0, 1): {1: two},
                                (0, 2): {2: -two},
                                (1, 2): {0: one}},
                         ("h", "e", "f"))
        with pytest.raises(NotTwoStepError):
            two_step_type(sl2)

    def test_jay_matrix_entries(self):
        data = two_step_type(heis(Q))
        m = jay_matrix(data)
        z1 = MultiPoly.variable(Q, 1, 0)
        assert m[0][1] == z1
        assert m[1][0] == -z1


class TestPfaffianForm:
    def test_quartic_family_reproduces_form(self):
        for lam in (0, 1, 3, Fraction(-7, 2)):
            pf = pfaffian_form(quartic_algebra(Q, lam))
            assert pf.type == (8, 2)
            assert pf.form == f_lambda(Q, lam)

    def test_quartic_family_gaussian(self):
        K = gaussian_rationals()
        i = K.generator()
        pf = pfaffian_form(quartic_algebra(K, i))
        assert pf.form == f_lambda(K, i)

    def test_double_heisenberg_is_z1z2(self):
        L = direct_sum(heis(Q), heis(Q))
        pf = pfaffian_form(L)
        assert pf.type == (4, 2)
        assert pf.form == MultiPoly(Q, 2, {(1, 1): Q.one()})

    def test_single_heisenberg_is_z1(self):
        pf = pfaffian_form(heis(Q))
        assert pf.type == (2, 1)
        assert pf.form == MultiPoly.variable(Q, 1, 0)

    def test_odd_complement_rejected(self):
        # five generators pairing into one center: complement dim 5 is odd
        one = Q.one()
        L = LieAlgebra(Q, 6, {(0, 1): {5: one}, (2, 3): {5: one},
                              (2, 4): {5: one}})
        with pytest.raises(OddSizeError):
            pfaffian_form(L)


class TestInvariants:
    def test_S_and_T_of_f_lambda(self):
        for lam in (Fraction(2), Fraction(-1), Fraction(5, 3)):
            f = f_lambda(Q, lam)
            assert invariant_S(f) == Q.from_rational(3 * lam * lam + 1)
            assert invariant_T(f) == Q.from_rational(lam - lam ** 3)

    def test_c_at_i_is_two(self):
        K = gaussian_rationals()
        f = f_lambda(K, K.generator())
        assert invariant_c(f) == K.from_rational(2)

    def test_c_at_one_plus_i(self):
        K = gaussian_rationals()
        i = K.generator()
        f = f_lambda(K, K.one() + i)
        expected = (K.from_rational(Fraction(332, 100))
                    - i * K.from_rational(Fraction(2226, 100)))
        assert invariant_S(f) == K.one() + 6 * i
        assert invariant_T(f) == K.from_rational(3) - i
        assert invariant_c(f) == expected

    def test_T_vanishes(self):
        for lam in (0, 1, -1):
            with pytest.raises(TVanishesError):
                invariant_c(f_lambda(Q, lam))

    def test_shape_guards(self):
        cubic = MultiPoly(Q, 2, {(3, 0): Q.one(), (0, 3): Q.one()})
        with pytest.raises(WrongShapeError):
            invariant_S(cubic)
        threevar = MultiPoly(Q, 3, {(4, 0, 0): Q.one()})
        with pytest.raises(WrongShapeError):
            invariant_S(threevar)
        mixed = MultiPoly(Q, 2, {(4, 0): Q.one(), (1, 1): Q.one()})
        with pytest.raises(WrongShapeError):
            invariant_T(mixed)

    def test_c_of_algebra(self):
        K = gaussian_rationals()
        L = quartic_algebra(K, K.generator())
        assert invariant_c_of(L) == K.from_rational(2)

    def test_c_of_wrong_type(self):
        with pytest.raises(WrongShapeError):
            invariant_c_of(direct_sum(heis(Q), heis(Q)))

    def test_scaling_weights(self):
        rng = random.Random(78)
        for _ in range(100):
            coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(5)]
            f = binary_quartic(Q, *coeffs)
            k = Q.from_rational(rng.choice([2, -3, Fraction(5, 7)]))
            g = f.scale(k)
            assert invariant_S(g) == k * k * invariant_S(f)
            assert invariant_T(g) == k * k * k * invariant_T(f)

    def test_raw_invariance_under_monomial_substitutions(self):
        # the raw-coefficient formulas are preserved by the torus and the
        # coordinate swap (and hence by everything they generate)
        rng = random.Random(79)
        for _ in range(100):
            coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(5)]
            f = binary_quartic(Q, *coeffs)
            u = Q.from_rational(rng.choice([2, -2, 3, Fraction(1, 2)]))
            torus = [[u, Q.zero()], [Q.zero(), u.inverse()]]
            swap = [[Q.zero(), Q.one()], [Q.one(), Q.zero()]]
            for rows in (torus, swap):
                g = f.compose_linear(rows)
                assert invariant_S(g) == invariant_S(f)
                assert invariant_T(g) == invariant_T(f)

    def test_classical_invariants_under_sl2(self):
        rng = random.Random(20260823)
        for _ in range(100):
            coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(5)]
            f = binary_quartic(Q, *coeffs)
            mat = _random_sl2(Q, rng)
            g = f.compose_linear(mat)
            assert classical_S(g) == classical_S(f)
            assert classical_T(g) == classical_T(f)

    def test_classical_weights_under_gl2(self):
        rng = random.Random(82)
        checked = 0
        while checked < 100:
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(5)]
            f = binary_quartic(Q, *coeffs)
            rows = [[Q.from_rational(rng.randint(-3, 3)) for _ in range(2)]
                    for _ in range(2)]
            det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
            if det.is_zero():
                continue
            g = f.compose_linear(rows)
            assert classical_S(g) == det ** 4 * classical_S(f)
            assert classical_T(g) == det ** 6 * classical_T(f)
            checked += 1

    def test_raw_formula_reads_weighted_coefficients(self):
        # expanding a quartic with binomially weighted coefficients and
        # taking the classical invariants recovers the raw formulas
        rng = random.Random(83)
        for _ in range(100):
            a, b, c, d, e = [Fraction(rng.randint(-5, 5)) for _ in range(5)]
            weighted = binary_quartic(Q, a, 4 * b, 6 * c, 4 * d, e)
            plain = binary_quartic(Q, a, b, c, d, e)
            assert classical_S(weighted) == invariant_S(plain)
            assert classical_T(weighted) == invariant_T(plain)


class TestRefutation:
    def test_distinct_c_refutes(self):
        K = gaussian_rationals()
        i = K.generator()
        A = quartic_algebra(K, i)
        B = quartic_algebra(K, K.one() + i)
        assert refute_isomorphism_by_c(A, B)

    def test_equal_c_does_not_refute(self):
        K = gaussian_rationals()
        A = quartic_algebra(K, K.generator())
        assert not refute_isomorphism_by_c(A, A)

    def test_non_two_step_does_not_refute(self):
        assert not refute_isomorphism_by_c(heis(Q), heis(Q))


class TestProjectiveEquivalence:
    def test_swap_symmetry(self):
        f = f_lambda(Q, 5)
        swap = [[0, 1], [1, 0]]
        assert projective_equivalence_check(f, f, swap, 1)

    def test_i_versus_minus_i(self):
        K = gaussian_rationals()
        i = K.generator()
        f = f_lambda(K, i)
        g = f_lambda(K, -i)
        mat = [[K.one(), K.zero()], [K.zero(), i]]
        assert projective_equivalence_check(f, g, mat, 1)

    def test_scalar_guard(self):
        f = f_lambda(Q, 2)
        with pytest.raises(ZeroScalarError):
            projective_equivalence_check(f, f, [[1, 0], [0, 1]], 0)

    def test_singular_guard(self):
        f = f_lambda(Q, 2)
        with pytest.raises(SingularMatrixError):
            projective_equivalence_check(f, f, [[1, 1], [1, 1]], 1)

    def test_mismatch_returns_false(self):
        f = f_lambda(Q, 2)
        g = f_lambda(Q, 3)
        assert not projective_equivalence_check(f, g, [[1, 0], [0, 1]], 1)


class TestMultiPoly:
    def test_arithmetic_against_eval(self):
        rng = random.Random(80)
        for _ in range(100):
            f = MultiPoly(Q, 2, {(rng.randint(0, 3), rng.randint(0, 3)):
                                 Q.from_rational(rng.randint(-4, 4))
                                 for _ in range(4)})
            g = MultiPoly(Q, 2, {(rng.randint(0, 3), rng.randint(0, 3)):
                                 Q.from_rational(rng.randint(-4, 4))
                                 for _ in range(4)})
            pt = [Q.from_rational(rng.randint(-3, 3)) for _ in range(2)]
            assert (f + g).eval(pt) == f.eval(pt) + g.eval(pt)
            assert (f * g).eval(pt) == f.eval(pt) * g.eval(pt)
            assert (f - g).eval(pt) == f.eval(pt) - g.eval(pt)

    def test_compose_linear_against_eval(self):
        rng = random.Random(81)
        for _ in range(60):
            f = MultiPoly(Q, 2, {(rng.randint(0, 2), rng.randint(0, 2)):
                                 Q.from_rational(rng.randint(-3, 3))
                                 for _ in range(3)})
            rows = [[Q.from_rational(rng.randint(-2, 2)) for _ in range(3)]
                    for _ in range(2)]
            g = f.compose_linear(rows)
            assert g.nvars == 3
            pt = [Q.from_rational(rng.randint(-2, 2)) for _ in range(3)]
            sub = [sum((rows[i][j] * pt[j] for j in range(3)), Q.zero())
                   for i in range(2)]
            assert g.eval(pt) == f.eval(sub)

    def test_degree_and_coeff(self):
        f = f_lambda(Q, 7)
        assert f.degree() == 4
        assert f.coeff((2, 2)) == Q.from_rational(7)
        assert f.coeff((1, 1)).is_zero()
        assert MultiPoly.zero(Q, 2).degree() == -1