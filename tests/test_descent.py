"""Tests for conjugation, scalar restriction/extension and descent checks."""

import random

import pytest

from lieforms.catalog import g_lambda, nintot_family
from lieforms.descent import (
    canonical_embedding,
    conjugate,
    conjugate_orbit,
    conjugation_map,
    defined_over_witness_check,
    extend_scalars,
    restrict_scalars,
    underlying_iso_from_sigma,
    verify_sumconjugate,
)
from lieforms.errors import NotSubLevelError, OracleUndecidedError
from lieforms.fields import (
    coords_over,
    cyclotomic_field,
    field_extend,
    from_coords_over,
    galois_group,
    gaussian_rationals,
    quadratic_field,
    rationals,
)
from lieforms.liealg import LieAlgebra, LinearMap
from lieforms.polynomials import Polynomial


def heis(field, scale=None):
    """[X1, X2] = c X3 with c defaulting to 1."""
    c = field.one() if scale is None else scale
    return LieAlgebra(field, 3, {(0, 1): {2: c}})


def solvable_r3(field, mu):
    """[X1, X2] = X2, [X1, X3] = mu X3."""
    return LieAlgebra(field, 3, {(0, 1): {1: field.one()},
                                 (0, 2): {2: mu}})


def abelian(field, n):
    return LieAlgebra(field, n, {})


def nontrivial_sigma(field):
    return field.automorphisms()[1]


class TestConjugate:
    def test_flips_gaussian_constant(self):
        K = gaussian_rationals()
        i = K.generator()
        L = heis(K, i)
        sigma = nontrivial_sigma(K)
        Lc = conjugate(L, sigma)
        assert Lc.structure_constant(0, 1, 2) == -i
        assert conjugate(Lc, sigma) == L

    def test_identity_is_noop(self):
        K = quadratic_field(2)
        L = solvable_r3(K, K.generator())
        assert conjugate(L, K.identity_automorphism()) == L

    def test_meta_params_follow_sigma(self):
        K = gaussian_rationals()
        i = K.generator()
        L = solvable_r3(K, i).with_meta(family="r3", params={"mu": i})
        sigma = nontrivial_sigma(K)
        assert conjugate(L, sigma).meta["params"]["mu"] == -i

    def test_functoriality_over_klein_four(self):
        K = cyclotomic_field(12)
        z = K.generator()
        rng = random.Random(41)
        auts = K.automorphisms()
        for _ in range(25):
            mu = sum((z ** e for e in range(4)
                      if rng.random() < 0.5), K.zero())
            if mu.is_zero():
                mu = K.one()
            L = solvable_r3(K, mu)
            for sigma in auts:
                for tau in auts:
                    both = conjugate(conjugate(L, sigma), tau)
                    assert both == conjugate(L, tau.compose(sigma))

    def test_conjugation_map_is_semilinear_iso(self):
        K = gaussian_rationals()
        L = heis(K, K.generator())
        phi = conjugation_map(L, nontrivial_sigma(K))
        assert phi.verify()
        # its matrix is the identity, so it sends v to the vector whose
        # coordinates are sigma of v's
        for K in (gaussian_rationals(), cyclotomic_field(8)):
            z = K.generator()
            L = g_lambda(K, K.one() + z)
            coords = [z ** (t % 4) + K.from_rational(t) for t in range(L.dim)]
            for sigma in K.automorphisms():
                phi = conjugation_map(L, sigma)
                assert phi.sigma is sigma and phi.verify()
                image = phi.apply(L.vector(coords))
                assert image.algebra == conjugate(L, sigma)
                assert list(image.coords) == [sigma(c) for c in coords]


class TestRestrictScalars:
    def test_h3_gaussian_brackets(self):
        K = gaussian_rationals()
        R = restrict_scalars(heis(K), rationals())
        A = R.algebra
        assert A.dim == 6
        assert A.field.is_rationals
        assert A.labels == ("X1_0", "X1_1", "X2_0", "X2_1", "X3_0", "X3_1")
        one = A.field.one()
        # basis order: X1, iX1, X2, iX2, X3, iX3
        assert A.bracket_basis(0, 2) == {4: one}
        assert A.bracket_basis(0, 3) == {5: one}
        assert A.bracket_basis(1, 2) == {5: one}
        assert A.bracket_basis(1, 3) == {4: -one}

    def test_twisted_h3_gaussian_brackets(self):
        K = gaussian_rationals()
        A = restrict_scalars(heis(K, K.generator()), rationals()).algebra
        one = A.field.one()
        # [e_s X1, e_t X2] = e_s e_t i X3
        assert A.bracket_basis(0, 2) == {5: one}
        assert A.bracket_basis(0, 3) == {4: -one}
        assert A.bracket_basis(1, 2) == {4: -one}
        assert A.bracket_basis(1, 3) == {5: -one}

    def test_restriction_index_helper(self):
        K = quadratic_field(2)
        R = restrict_scalars(heis(K), rationals())
        assert R.index(2, 1) == 5
        assert len(R.scalars) == 2

    def test_dimension_formula_on_tower(self):
        Q = rationals()
        K = quadratic_field(2)
        top = field_extend(K, Polynomial.from_rationals(K, [1, 0, 1]), "i",
                           [(0, 1), (0, -1)])
        L = heis(top)
        assert restrict_scalars(L, K).algebra.dim == 6
        assert restrict_scalars(L, Q).algebra.dim == 12
        assert restrict_scalars(L, top).algebra.dim == 3
        with pytest.raises(NotSubLevelError):
            restrict_scalars(heis(K), gaussian_rationals())

    def test_abelian_restricts_to_abelian(self):
        K = quadratic_field(3)
        A = restrict_scalars(abelian(K, 4), rationals()).algebra
        assert A.dim == 8
        assert A.brackets == {}

    def test_restunder_bracket_matches_source(self):
        """Transport through the coordinate bijection preserves brackets."""
        rng = random.Random(91)
        Q = rationals()
        K = gaussian_rationals()
        L = solvable_r3(K, K.generator() + K.one())
        R = restrict_scalars(L, Q)
        A = R.algebra
        d = len(R.scalars)

        def to_source(coords):
            out = []
            for i in range(L.dim):
                chunk = coords[i * d:(i + 1) * d]
                out.append(from_coords_over(K, Q, list(chunk)))
            return out

        for _ in range(100):
            u = [Q.from_rational(rng.randint(-3, 3)) for _ in range(A.dim)]
            v = [Q.from_rational(rng.randint(-3, 3)) for _ in range(A.dim)]
            w = A.bracket_coords(u, v)
            lhs = to_source(w)
            rhs = L.bracket_coords(to_source(u), to_source(v))
            assert lhs == rhs

    def test_jacobi_survives_restriction_randomized(self):
        # construction goes through LieAlgebra validation, so reaching
        # here at all certifies Jacobi; vary the parameter to exercise it
        rng = random.Random(17)
        K = quadratic_field(5)
        r = K.generator()
        for _ in range(20):
            mu = (K.from_rational(rng.randint(-4, 4))
                  + r * K.from_rational(rng.randint(-4, 4)))
            A = restrict_scalars(solvable_r3(K, mu), rationals()).algebra
            assert A.dim == 6


class TestExtendScalars:
    def test_lifts_field_and_constants(self):
        Q = rationals()
        K = gaussian_rationals()
        L = heis(Q)
        E = extend_scalars(L, K)
        assert E.field == K
        assert E.structure_constant(0, 1, 2) == K.one()
        assert E.labels == L.labels

    def test_extend_then_restrict_dims(self):
        Q = rationals()
        K = quadratic_field(2)
        L = solvable_r3(Q, Q.from_rational(3))
        up = extend_scalars(L, K)
        back = restrict_scalars(up, Q).algebra
        assert back.dim == 6

    def test_extend_rejects_unrelated(self):
        K = quadratic_field(2)
        L = heis(K)
        with pytest.raises(NotSubLevelError):
            extend_scalars(L, gaussian_rationals())


class TestUnderlyingIso:
    def test_twisted_heisenberg(self):
        K = gaussian_rationals()
        L = heis(K, K.generator())
        m = underlying_iso_from_sigma(L, nontrivial_sigma(K))
        assert m.verify()
        assert m.is_bijective()

    def test_solvable_over_gaussians(self):
        K = gaussian_rationals()
        L = solvable_r3(K, K.generator())
        m = underlying_iso_from_sigma(L, nontrivial_sigma(K))
        assert m.verify()
        assert m.is_bijective()

    def test_all_sigmas_klein_four(self):
        K = cyclotomic_field(12)
        L = solvable_r3(K, K.generator())
        for sigma in K.automorphisms():
            m = underlying_iso_from_sigma(L, sigma)
            assert m.verify() and m.is_bijective()

    def test_block_structure(self):
        K = gaussian_rationals()
        L = heis(K)
        m = underlying_iso_from_sigma(L, nontrivial_sigma(K))
        # sigma(1) = 1, sigma(i) = -i: blocks diag(1, -1)
        Q = rationals()
        for i in range(3):
            assert m.matrix[2 * i][2 * i] == Q.one()
            assert m.matrix[2 * i + 1][2 * i + 1] == -Q.one()
            assert m.matrix[2 * i][2 * i + 1].is_zero()
        # entry by entry, on a field of degree 4 and on a relative step:
        # row (b*n + i)*d + u, column i*d + s holds coordinate u over F of
        # sigma_b(e_s), and every other entry is 0
        top = field_extend(K, Polynomial.from_rationals(K, [-2, 0, 1]), "s",
                           [(0, 1), (0, -1)])
        for E, F in ((K, Q), (cyclotomic_field(8), Q), (top, K)):
            L = heis(E, E.generator())
            n, scalars = L.dim, restrict_scalars(L, F).scalars
            d = len(scalars)
            G = galois_group(E, F).elements

            def expect(sigmas):
                out = {}
                for b, sigma in enumerate(sigmas):
                    for s, e in enumerate(scalars):
                        flat = coords_over(sigma(e), F)
                        for i in range(n):
                            for u in range(d):
                                out[((b * n + i) * d + u, i * d + s)] = \
                                    flat[u]
                return out

            maps = [(underlying_iso_from_sigma(L, sigma, F), (sigma,))
                    for sigma in G]
            maps.append((canonical_embedding(L, F).map, G))
            for m, sigmas in maps:
                want = expect(sigmas)
                assert len(m.matrix) == n * len(sigmas) * d
                for r, row in enumerate(m.matrix):
                    assert len(row) == n * d
                    for c, x in enumerate(row):
                        assert x == want.get((r, c), F.zero()), (E, r, c)


class TestSumConjugate:
    CASES = ()

    def test_h3_gaussian(self):
        K = gaussian_rationals()
        rep = verify_sumconjugate(heis(K), rationals())
        assert rep.is_isomorphism
        assert rep.sum_algebra.dim == 6
        assert len(rep.conjugates) == 2

    def test_h3_sqrt2(self):
        rep = verify_sumconjugate(heis(quadratic_field(2)), rationals())
        assert rep.is_isomorphism

    def test_twisted_solvable_gaussian(self):
        K = gaussian_rationals()
        rep = verify_sumconjugate(solvable_r3(K, K.generator()), rationals())
        assert rep.is_isomorphism

    def test_abelian_sqrt2(self):
        rep = verify_sumconjugate(abelian(quadratic_field(2), 3), rationals())
        assert rep.is_isomorphism
        assert rep.sum_algebra.brackets == {}

    def test_klein_four_top(self):
        K = cyclotomic_field(12)
        rep = verify_sumconjugate(solvable_r3(K, K.generator()), rationals())
        assert rep.is_isomorphism
        assert rep.sum_algebra.dim == 12

    def test_relative_step_of_tower(self):
        K = quadratic_field(2)
        top = field_extend(K, Polynomial.from_rationals(K, [1, 0, 1]), "i",
                           [(0, 1), (0, -1)])
        rep = verify_sumconjugate(heis(top, top.generator()), K)
        assert rep.is_isomorphism
        assert rep.sum_algebra.field == top

    def test_g_lambda_over_zeta8(self):
        K = cyclotomic_field(8)
        lam = K.one() + K.generator()
        rep = verify_sumconjugate(g_lambda(K, lam), rationals())
        assert rep.is_isomorphism
        assert len(rep.group) == 4
        assert rep.sum_algebra.dim == 40

    def test_nintot_over_tower_step(self):
        K = gaussian_rationals()
        top = field_extend(K, Polynomial.from_rationals(K, [-2, 0, 1]), "s",
                           [(0, 1), (0, -1)])
        lam = top.generator() + K.generator()
        rep = verify_sumconjugate(nintot_family(top, lam, 2, 1), K)
        assert rep.is_isomorphism
        assert len(rep.group) == 2
        assert rep.sum_algebra.dim == 40
        assert rep.sum_algebra.field == top

    def test_builds_and_coerces_its_map_once(self, monkeypatch):
        made = []
        make = LinearMap.make

        def counting(*args, **kwargs):
            made.append(args[:2])
            return make(*args, **kwargs)

        monkeypatch.setattr(LinearMap, "make", staticmethod(counting))
        K = cyclotomic_field(8)
        rep = verify_sumconjugate(g_lambda(K, K.one() + K.generator()),
                                  rationals())
        assert rep.is_isomorphism
        assert len(made) == 1

    def test_map_sends_basis_through_sigma(self):
        K = gaussian_rationals()
        rep = verify_sumconjugate(heis(K), rationals())
        i = K.generator()
        # column for (X1, scalar e_1 = i): block 0 gets i, block 1 gets -i
        col = rep.map.column(1)
        assert col[0] == i
        assert col[3] == -i


class TestCanonicalEmbedding:
    def test_twisted_h3(self):
        K = gaussian_rationals()
        rep = canonical_embedding(heis(K, K.generator()), rationals())
        assert rep.injective
        assert rep.f_dim == 6
        assert rep.e_span_dim == 6
        assert rep.e_independent
        assert rep.is_f_form

    def test_embedding_is_morphism(self):
        K = quadratic_field(2)
        rep = canonical_embedding(solvable_r3(K, K.generator()), rationals())
        assert rep.map.verify()
        assert rep.is_f_form

    def test_klein_four(self):
        K = cyclotomic_field(12)
        rep = canonical_embedding(heis(K, K.generator()), rationals())
        assert rep.is_f_form
        assert rep.f_dim == 12
        assert rep.sum_algebra.dim == 12


class TestDefinedOverWitness:
    def test_scaling_witness_for_twisted_h3(self):
        K = gaussian_rationals()
        i = K.generator()
        L = heis(K, i)
        P = [[1, 0, 0], [0, 1, 0], [0, 0, i]]
        assert defined_over_witness_check(L, rationals(), P)

    def test_identity_fails_for_twisted_solvable(self):
        K = gaussian_rationals()
        L = solvable_r3(K, K.generator())
        ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert not defined_over_witness_check(L, rationals(), ident)

    def test_rational_constants_pass_trivially(self):
        K = quadratic_field(2)
        L = extend_scalars(heis(rationals()), K)
        ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert defined_over_witness_check(L, rationals(), ident)


def equality_oracle(a, b):
    class V:
        status = "confirmed" if a.brackets == b.brackets else "refuted"
    return V()


def unknown_oracle(a, b):
    class V:
        status = "unknown"
    return V()


class TestConjugateOrbit:
    def test_split_orbit(self):
        K = gaussian_rationals()
        G = galois_group(K, rationals())
        orbit = conjugate_orbit(solvable_r3(K, K.generator()), G,
                                equality_oracle)
        assert orbit.class_count == 2
        assert orbit.class_of == (0, 1)

    def test_single_class(self):
        K = gaussian_rationals()
        G = galois_group(K, rationals())
        orbit = conjugate_orbit(heis(K), G, equality_oracle)
        assert orbit.class_count == 1
        assert orbit.class_of == (0, 0)
        assert orbit.representatives == (0,)

    def test_undecided_oracle_raises(self):
        K = gaussian_rationals()
        G = galois_group(K, rationals())
        with pytest.raises(OracleUndecidedError):
            conjugate_orbit(solvable_r3(K, K.generator()), G, unknown_oracle)

    def test_one_confirmation_places_past_an_unknown(self):
        """Over Q(zeta8), |G| = 4: conjugate 1 is refuted against class 0
        and opens class 1; conjugate 2 is unknown against class 0 but
        confirmed against class 1, which places it, as the classes are
        pairwise non-isomorphic; conjugate 3 is confirmed against class 0."""
        K = cyclotomic_field(8)
        G = galois_group(K, rationals())
        L = solvable_r3(K, K.generator())
        tables = [conjugate(L, s).brackets for s in G.elements]
        assert len({str(sorted(t.items())) for t in tables}) == 4
        statuses = {(1, 0): "refuted", (2, 0): "unknown", (2, 1): "confirmed",
                    (3, 0): "confirmed"}

        def oracle(a, b):
            class V:
                status = statuses[(tables.index(a.brackets),
                                   tables.index(b.brackets))]
            return V()

        orbit = conjugate_orbit(L, G, oracle)
        assert orbit.class_of == (0, 1, 1, 0)
        assert orbit.representatives == (0, 1)
