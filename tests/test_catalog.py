"""Tests for the built-in algebra families and their certificates."""

import random
from fractions import Fraction

import pytest

from lieforms.catalog import (
    OverFWitness,
    abelian,
    g1_alpha,
    g1_iso_criterion,
    g_lambda,
    heisenberg,
    nintot_family,
    overFprop_witness,
    r3_iso_certificate,
    r3_iso_criterion,
    r3_lambda,
    r3_lambda_plus_abelian,
)
from lieforms.decompose import isomorphism_verdict
from lieforms.descent import conjugate, defined_over_witness_check
from lieforms.errors import (
    ConstraintViolatedError,
    IndexRangeError,
    TowerMismatchError,
    ZeroAlphaError,
    ZeroLambdaError,
)
from lieforms.fields import (
    cyclotomic_field,
    gaussian_rationals,
    galois_group,
    quadratic_field,
    rationals,
)
from lieforms.liealg import (
    LinearMap,
    commutator_rows,
    direct_sum,
    fingerprint,
    verify_morphism,
)
from lieforms.pfaffian import MultiPoly, pfaffian_form, two_step_type


Q = rationals()


def nontrivial_sigma(K):
    return K.automorphisms()[1]


def quartic_poly(field, lam):
    return MultiPoly(field, 2, {(4, 0): field.one(),
                                (2, 2): lam,
                                (0, 4): field.one()})


class TestHeisenbergAndAbelian:
    def test_heisenberg_table(self):
        h = heisenberg(Q)
        assert h.dim == 3
        assert h.labels == ("X", "Y", "Z")
        assert h.bracket_basis(0, 1) == {2: Q.one()}
        assert h.bracket_basis(0, 2) == {}
        assert two_step_type(h).type == (2, 1)

    def test_heisenberg_constants_rational_over_extension(self):
        K = gaussian_rationals()
        h = heisenberg(K)
        sigma = nontrivial_sigma(K)
        assert conjugate(h, sigma) == h

    def test_double_heisenberg_blocks(self):
        h = heisenberg(Q)
        hh = direct_sum(h, h)
        assert hh.dim == 6
        assert hh.bracket_basis(0, 1) == {2: Q.one()}
        assert hh.bracket_basis(3, 4) == {5: Q.one()}
        assert hh.labels == ("Xa", "Ya", "Za", "Xb", "Yb", "Zb")

    def test_abelian(self):
        a = abelian(Q, 3)
        assert a.dim == 3 and a.brackets == {}
        assert fingerprint(a).nilpotency_class == 1

    def test_abelian_rejects_dimension_zero(self):
        with pytest.raises(IndexRangeError):
            abelian(Q, 0)


class TestGLambda:
    def test_bracket_table_frozen(self):
        K = gaussian_rationals()
        lam = K.one() + K.generator()
        g = g_lambda(K, lam)
        one = K.one()
        assert g.dim == 10
        assert g.labels[:2] == ("X1", "X2") and g.labels[8:] == ("Z1", "Z2")
        expected = {
            (0, 4): {8: one}, (1, 5): {8: one}, (2, 6): {8: one},
            (3, 7): {8: one},
            (1, 4): {9: one}, (2, 5): {9: one}, (3, 6): {9: one},
            (0, 7): {9: -one}, (1, 6): {9: -lam},
        }
        assert g.brackets == expected

    def test_fingerprint_class_and_type(self):
        g = g_lambda(Q, 7)
        fp = fingerprint(g)
        assert fp.nilpotency_class == 2
        assert fp.two_step == (8, 2)
        assert two_step_type(g).type == (8, 2)

    def test_pfaffian_form_matches_quartic(self):
        K = gaussian_rationals()
        for lam in (K.zero(), K.one(), K.one() + K.generator()):
            g = g_lambda(K, lam)
            assert pfaffian_form(g).form == quartic_poly(K, lam)

    def test_conjugate_flips_parameter(self):
        K = gaussian_rationals()
        lam = K.one() + K.generator()
        sigma = nontrivial_sigma(K)
        assert conjugate(g_lambda(K, lam), sigma) == g_lambda(K, sigma(lam))

    def test_random_parameters_land_on_valid_algebras(self):
        rng = random.Random(20260823)
        for _ in range(25):
            lam = Fraction(rng.randrange(-30, 30), rng.randrange(1, 9))
            g = g_lambda(Q, lam)
            assert g.dim == 10


class TestR3Family:
    def test_bracket_table(self):
        r = r3_lambda(Q, Fraction(5, 2))
        assert r.dim == 3
        assert r.bracket_basis(0, 1) == {1: Q.one()}
        assert r.bracket_basis(0, 2) == {2: Q.from_rational(Fraction(5, 2))}
        assert r.bracket_basis(1, 2) == {}

    def test_zero_parameter_rejected(self):
        with pytest.raises(ZeroLambdaError):
            r3_lambda(Q, 0)
        with pytest.raises(ZeroLambdaError):
            r3_lambda_plus_abelian(Q, 0)

    def test_r3_1_derived_dimension(self):
        rows, _ = commutator_rows(r3_lambda(Q, 1))
        assert len(rows) == 2

    def test_plus_abelian_adds_central_direction(self):
        r = r3_lambda_plus_abelian(Q, 3)
        assert r.dim == 4
        assert fingerprint(r).center_dim == 1
        assert all(3 not in (i, j) for (i, j) in r.brackets)

    def test_conjugate_over_gaussians(self):
        K = gaussian_rationals()
        i = K.generator()
        sigma = nontrivial_sigma(K)
        assert conjugate(r3_lambda(K, i), sigma) == r3_lambda(K, -i)

    def test_iso_criterion(self):
        two = Q.from_rational(2)
        half = Q.from_rational(Fraction(1, 2))
        three = Q.from_rational(3)
        assert r3_iso_criterion(two, half)
        assert r3_iso_criterion(two, two)
        assert not r3_iso_criterion(two, three)
        K = gaussian_rationals()
        i = K.generator()
        assert r3_iso_criterion(i, -i)
        with pytest.raises(ZeroLambdaError):
            r3_iso_criterion(Q.zero(), two)
        with pytest.raises(TowerMismatchError):
            r3_iso_criterion(two, i)

    def test_iso_certificate_reciprocal(self):
        two = Q.from_rational(2)
        half = Q.from_rational(Fraction(1, 2))
        mat = r3_iso_certificate(two, half)
        src, tgt = r3_lambda(Q, two), r3_lambda(Q, half)
        assert verify_morphism(src, tgt, mat)
        assert LinearMap.make(src, tgt, mat).is_bijective()

    def test_iso_certificate_gaussian(self):
        K = gaussian_rationals()
        i = K.generator()
        mat = r3_iso_certificate(i, -i)
        src, tgt = r3_lambda(K, i), r3_lambda(K, -i)
        assert verify_morphism(src, tgt, mat)
        assert LinearMap.make(src, tgt, mat).is_bijective()

    def test_iso_certificate_equal_parameters(self):
        two = Q.from_rational(2)
        mat = r3_iso_certificate(two, two)
        assert verify_morphism(r3_lambda(Q, two), r3_lambda(Q, two), mat)

    def test_iso_certificate_none_when_refuted(self):
        assert r3_iso_certificate(Q.from_rational(2),
                                  Q.from_rational(3)) is None


class TestG1Family:
    def test_bracket_table(self):
        K = gaussian_rationals()
        alpha = K.one() + K.generator()
        g = g1_alpha(K, alpha)
        one = K.one()
        assert g.dim == 4
        assert g.bracket_basis(0, 1) == {1: one}
        assert g.bracket_basis(0, 2) == {2: one}
        assert g.bracket_basis(0, 3) == {3: alpha}

    def test_zero_parameter_rejected(self):
        with pytest.raises(ZeroAlphaError):
            g1_alpha(Q, 0)

    def test_conjugate_and_spectrum_refutation(self):
        K = gaussian_rationals()
        alpha = K.one() + K.generator()
        sigma = nontrivial_sigma(K)
        conj = conjugate(g1_alpha(K, alpha), sigma)
        assert conj == g1_alpha(K, sigma(alpha))
        assert isomorphism_verdict(
            conj, g1_alpha(K, alpha)).status == "refuted"

    def test_iso_criterion(self):
        K = gaussian_rationals()
        alpha = K.one() + K.generator()
        assert g1_iso_criterion(alpha, alpha)
        assert not g1_iso_criterion(alpha, nontrivial_sigma(K)(alpha))
        with pytest.raises(ZeroAlphaError):
            g1_iso_criterion(K.zero(), alpha)


class TestOverFWitness:
    def test_gaussian_case(self):
        K = gaussian_rationals()
        i = K.generator()
        report = overFprop_witness(Q, Q.zero(), i)
        assert isinstance(report, OverFWitness)
        assert report.verified
        assert report.sigma_lam == -i
        one = K.one()
        assert report.x_algebra.bracket_basis(0, 1) == {1: one}
        assert report.x_algebra.bracket_basis(0, 2) == {2: -i}
        assert report.x_algebra.bracket_basis(1, 2) == {}
        two = K.from_rational(2)
        assert report.y_algebra.bracket_basis(0, 1) == {2: one}
        assert report.y_algebra.bracket_basis(0, 2) == {1: -two, 2: two}
        assert defined_over_witness_check(report.x_algebra, Q, report.matrix)

    def test_sixth_root_case(self):
        K = cyclotomic_field(6)
        z = K.generator()
        a = Q.from_rational(-1)
        report = overFprop_witness(Q, a, z)
        assert report.verified
        assert report.sigma_lam == K.one() - z
        assert (z * report.sigma_lam) == K.one()
        assert defined_over_witness_check(report.x_algebra, Q, report.matrix)

    def test_a_equal_two_rejected(self):
        K = gaussian_rationals()
        with pytest.raises(ConstraintViolatedError):
            overFprop_witness(Q, Q.from_rational(2), -K.one())

    def test_relation_violated(self):
        K = gaussian_rationals()
        with pytest.raises(ConstraintViolatedError):
            overFprop_witness(Q, Q.zero(), K.one() + K.generator())

    def test_lambda_in_base_rejected(self):
        K = gaussian_rationals()
        with pytest.raises(ConstraintViolatedError):
            overFprop_witness(Q, Q.from_rational(-2), K.one())

    def test_quadratic_surd_case(self):
        K = quadratic_field(2)
        s = K.generator()
        lam = K.one() + s        # (1+s)^2 - 2(1+s)*s ... use a = -2s? not in Q
        # lambda = 1 + sqrt2 satisfies lambda^2 - 2 lambda - 1 = 0, which is
        # not of the required shape; pick lambda = 3 + 2 sqrt2 instead:
        # (3+2s)(3-2s) = 1 and sum = 6, so lambda^2 - 6 lambda + 1 = 0.
        lam = K.from_rational(3) + K.from_rational(2) * s
        report = overFprop_witness(Q, Q.from_rational(-6), lam)
        assert report.verified
        assert report.sigma_lam * lam == K.one()


class TestNintot:
    def test_two_plain_copies(self):
        K = gaussian_rationals()
        lam = K.one() + K.generator()
        g = g_lambda(K, lam)
        assert nintot_family(K, lam, 2, 2) == direct_sum(g, g)

    def test_conjugate_alone(self):
        K = gaussian_rationals()
        lam = K.one() + K.generator()
        sigma = nontrivial_sigma(K)
        assert nintot_family(K, lam, 1, 0) == g_lambda(K, sigma(lam))

    def test_mixed_sum_blocks(self):
        K = gaussian_rationals()
        lam = K.one() + K.generator()
        sigma = nontrivial_sigma(K)
        mixed = nintot_family(K, lam, 3, 1)
        assert mixed == direct_sum(g_lambda(K, lam),
                                   g_lambda(K, sigma(lam)),
                                   g_lambda(K, sigma(lam)))

    def test_index_range_errors(self):
        K = gaussian_rationals()
        lam = K.one() + K.generator()
        with pytest.raises(IndexRangeError):
            nintot_family(K, lam, 0, 0)
        with pytest.raises(IndexRangeError):
            nintot_family(K, lam, 2, 3)
        with pytest.raises(IndexRangeError):
            nintot_family(K, lam, 2, -1)

    def test_needs_quadratic_top_level(self):
        with pytest.raises(ConstraintViolatedError):
            nintot_family(Q, Q.one(), 1, 1)
        K = cyclotomic_field(5)
        with pytest.raises(ConstraintViolatedError):
            nintot_family(K, K.generator(), 1, 1)

    def test_conjugation_equivariance(self):
        K = gaussian_rationals()
        lam = K.one() + K.generator()
        sigma = nontrivial_sigma(K)
        left = conjugate(nintot_family(K, lam, 2, 1), sigma)
        right = nintot_family(K, sigma(lam), 2, 1)
        assert left == right


class TestFamilyEquivariance:
    """Conjugating a catalog algebra = constructor at the conjugated
    parameter, as an equality of structure constants and meta params."""

    def test_all_parametric_families(self):
        K = gaussian_rationals()
        rng = random.Random(7)
        sigma = nontrivial_sigma(K)
        i = K.generator()
        for _ in range(20):
            re = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
            im = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
            lam = K.from_rational(re) + K.from_rational(im) * i
            if lam.is_zero():
                lam = i
            for ctor in (g_lambda, r3_lambda, r3_lambda_plus_abelian,
                         g1_alpha):
                left = conjugate(ctor(K, lam), sigma)
                right = ctor(K, sigma(lam))
                assert left == right
                assert left.meta["params"] == right.meta["params"]
                assert left.labels == right.labels

    def test_heisenberg_fixed(self):
        K = quadratic_field(5)
        sigma = nontrivial_sigma(K)
        assert conjugate(heisenberg(K), sigma) == heisenberg(K)
