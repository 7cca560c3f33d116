import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from lieforms.errors import (
    DegenerateError,
    ManifestError,
    NonRootError,
    NotClosedError,
    NotGaloisError,
    NotSubLevelError,
    TowerMismatchError,
)
from lieforms.fields import (
    Automorphism,
    _addmul,
    factor,
    FieldElement,
    FieldTower,
    coords_over,
    cyclotomic_field,
    eval_poly_at,
    field_extend,
    fixed_by_group,
    format_element,
    from_coords_over,
    galois_group,
    gaussian_rationals,
    is_level_of,
    lift_to,
    minpoly_of,
    parse_element,
    power_basis_over,
    quadratic_field,
    rationals,
    relative_degree,
    roots_in_field,
    sqrt_or_none,
)
from lieforms.polynomials import (
    LITERAL_EXPONENT_CAP,
    LITERAL_NESTING_CAP,
    QUADRATIC_RADICAND_CAP,
    Polynomial,
    poly_ext_gcd,
)

Q = rationals()
QI = gaussian_rationals()
QR2 = quadratic_field(2)


def test_rational_arithmetic():
    a = Q.from_rational(Fraction(3, 2))
    b = Q.from_rational(Fraction(-1, 3))
    assert (a + b).rational_value() == Fraction(7, 6)
    assert (a * b).rational_value() == Fraction(-1, 2)
    assert (a / b).rational_value() == Fraction(-9, 2)


def test_gaussian_cube():
    x = parse_element("1+1i", QI)
    assert x ** 3 == parse_element("-2+2i", QI)


def test_gaussian_inverse():
    x = parse_element("1+1i", QI)
    assert (x * x.inverse()) == QI.one()
    assert x.inverse() == parse_element("1/2-1/2i", QI)


def test_sqrt2_inverse():
    x = parse_element("1+1r2", QR2)
    assert x.inverse() == parse_element("-1+1r2", QR2)


def test_minpoly_of_one_plus_i():
    x = parse_element("1+1i", QI)
    m = minpoly_of(x, Q)
    assert [c.rational_value() for c in m.coeffs] == [2, -2, 1]
    assert eval_poly_at(m, x).is_zero()


def test_minpoly_of_rational_element_is_linear():
    x = QI.from_rational(Fraction(5, 7))
    m = minpoly_of(x, Q)
    assert m.degree == 1
    assert [c.rational_value() for c in m.coeffs] == [Fraction(-5, 7), 1]


def test_minpoly_of_matches_the_minpoly_of_multiplication():
    """minpoly_of(x, F) equals the minimal polynomial of the F-linear map
    y -> x y on E, in the basis power_basis_over(E, F)."""
    from lieforms.decompose import minpoly_of_matrix

    tower = field_extend(QI, Polynomial.from_rationals(QI, [-2, 0, 1]), "s",
                         [(0, 1), (0, -1)])
    rng = random.Random(20260823)
    for E, F in ((QI, Q), (QR2, Q), (cyclotomic_field(8), Q), (tower, QI)):
        basis = power_basis_over(E, F)
        samples = [E.zero(), E.one() * 3, E.generator(), E.generator() + 1]
        samples += [from_coords_over(E, Q, [
            Q.from_rational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
            for _ in range(E.n)]) for _ in range(6)]
        for x in samples:
            M = [list(col) for col in zip(*(coords_over(x * b, F)
                                            for b in basis))]
            assert minpoly_of(x, F) == minpoly_of_matrix(M, F), (E, x)


def test_conjugation_is_an_automorphism():
    sigma = QI.automorphisms()[1]
    rng = random.Random(7)
    for _ in range(100):
        a = QI.element([Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                        Fraction(rng.randint(-9, 9), rng.randint(1, 5))])
        b = QI.element([rng.randint(-9, 9), rng.randint(-9, 9)])
        assert sigma(a + b) == sigma(a) + sigma(b)
        assert sigma(a * b) == sigma(a) * sigma(b)
        assert sigma(sigma(a)) == a


def test_galois_group_of_quadratic():
    G = galois_group(QI, Q)
    assert len(G) == 2
    assert G.elements[0].is_identity()
    assert G.table == ((0, 1), (1, 0))
    i = QI.generator()
    assert G.elements[1](i) == -i


def test_trivial_galois_group():
    G = galois_group(QI, QI)
    assert len(G) == 1 and G.elements[0].is_identity()
    G0 = galois_group(Q, Q)
    assert len(G0) == 1


def test_cyclotomic_six():
    Z6 = cyclotomic_field(6)
    assert Z6.degree == 2
    G = galois_group(Z6, Q)
    assert len(G) == 2
    z = Z6.generator()
    # zeta_6^5 = conjugate: minimal polynomial t^2 - t + 1, z^5 = z^-1.
    assert G.elements[1](z) == z ** 5


def test_cyclotomic_twelve_group_order():
    Z12 = cyclotomic_field(12)
    assert Z12.degree == 4
    G = galois_group(Z12, Q)
    assert len(G) == 4
    # Klein four group: every element squares to the identity.
    for idx in range(4):
        assert G.table[idx][idx] == 0


def test_non_galois_cubic_detected():
    # Q(cbrt(2)) with only the identity automorphism.
    m = Polynomial.from_rationals(Q, [-2, 0, 0, 1])
    K = field_extend(Q, m, "c2", [(0, 1)])
    assert not K.is_galois()
    with pytest.raises(NotGaloisError):
        galois_group(K, Q)


def test_cubic_has_no_other_root_small_search():
    # Independent oracle: no small-coordinate element of Q(cbrt2) other than
    # the generator is a root of t^3 - 2.
    m = Polynomial.from_rationals(Q, [-2, 0, 0, 1])
    K = field_extend(Q, m, "c2", [(0, 1)])
    hits = []
    for a in range(-3, 4):
        for b in range(-3, 4):
            for c in range(-3, 4):
                x = K.element([a, b, c])
                if eval_poly_at(m, x).is_zero():
                    hits.append((a, b, c))
    assert hits == [(0, 1, 0)]


def test_fake_automorphism_image_rejected():
    m = Polynomial.from_rationals(Q, [1, 0, 1])
    with pytest.raises(NonRootError):
        field_extend(Q, m, "i", [(0, 1), (1, 1)])


def test_unclosed_automorphism_list_rejected():
    Z12 = cyclotomic_field(12)
    z = Z12.generator()
    m = Z12.minpoly
    # {id, z->z^5, z->z^7} misses z->z^11 = z^5 o z^7.
    with pytest.raises(NotClosedError):
        field_extend(Q, m, "w", [z.coords, (z ** 5).coords, (z ** 7).coords])


def test_reducible_minpoly_rejected():
    m = Polynomial.from_rationals(Q, [-1, 0, 1])
    with pytest.raises(DegenerateError):
        field_extend(Q, m, "x", [(0, 1)])


def test_cubic_over_a_galois_quadratic_level_is_proved_by_its_roots():
    i, one, two = QI.generator(), QI.one(), QI.from_rational(2)
    # t^3 + t - 2 has the root 1; t^3 - i t^2 + 2t - 2i = (t - i)(t^2 + 2)
    # has the root i, which only its norm over Q shows
    for coeffs in ([-two, one, QI.zero(), one], [-two * i, two, -i, one]):
        with pytest.raises(DegenerateError, match="root in the base"):
            field_extend(QI, Polynomial(QI, coeffs), "t", [(0, 1, 0)])
    K = field_extend(QI, Polynomial.from_rationals(QI, [-2, 0, 0, 1]), "t",
                     [(0, 1, 0)])
    assert K.degree == 3


def proved_reducible(p):
    """True when factor(p) has more than one factor, or a repeated one;
    its factors must multiply back to p."""
    factors = factor(p)
    product = Polynomial.one(p.ring)
    for f, m in factors:
        assert f.is_monic() and f.degree >= 1
        product = product * f ** m
    assert product == p.monic()
    return len(factors) > 1 or factors[0][1] > 1


def test_a_rational_minpoly_that_factors_over_q_is_refused_at_every_level():
    # (t^2 - 2)(t^2 - 3) and (t^2 - 2)^2 factor over Q, so over Q(i) too;
    # t^4 + 1 is irreducible over Q but splits as (t^2 - i)(t^2 + i) over
    # Q(i), which its norm down to Q shows
    for coeffs in ([6, 0, -5, 0, 1], [4, 0, -4, 0, 1], [1, 0, 0, 0, 1]):
        p = Polynomial.from_rationals(QI, coeffs)
        assert proved_reducible(p)
        with pytest.raises(DegenerateError, match="factors over the base"):
            field_extend(QI, p, "t", [(0, 1, 0, 0)])


# Q(zeta3), with minimal polynomial t^2 + t + 1, has c1 != 0
QUADRATIC_LEVELS = [("Q(i)", QI), ("Q(sqrt2)", QR2),
                    ("Q(sqrt-3)", quadratic_field(-3)),
                    ("Q(zeta3)", cyclotomic_field(3))]


@pytest.mark.parametrize("name, E", QUADRATIC_LEVELS,
                         ids=[name for name, _ in QUADRATIC_LEVELS])
def test_products_of_quadratics_over_a_quadratic_level_are_refused(name, E):
    """f sigma(f), with rational coefficients, f g and f^2 for seeded monic
    quadratics f and g over E: factor finds each reducible."""
    rng = random.Random(name)
    sigma = galois_group(E, Q).elements[1]

    def element():
        return E.element([rng.randint(-4, 4), rng.choice((-3, -1, 1, 2))])

    for _ in range(4):
        f, g = (Polynomial(E, [element(), element(), E.one()])
                for _ in range(2))
        conj = Polynomial(E, [sigma(c) for c in f.coeffs])
        for p in (f * conj, f * g, f * f):
            assert proved_reducible(p)
            with pytest.raises(DegenerateError, match="factors over the base"):
                field_extend(E, p, "t", [(0, 1, 0, 0)])


@pytest.mark.parametrize("name, coeffs", [
    ("Q(i)", [-2, 0, 0, 0, 1]),       # t^4 - 2
    ("Q(i)", [1, 1, 1, 1, 1]),        # Phi_5
    ("Q(sqrt2)", [-3, 0, 0, 0, 1]),   # t^4 - 3
    ("Q(sqrt2)", [1, 1, 1, 1, 1]),
    ("Q(sqrt-3)", [1, 0, 0, 0, 1]),   # Phi_8
    ("Q(sqrt-3)", [-2, 0, 0, 0, 1]),
    ("Q(zeta3)", [1, 0, 0, 0, 1]),
    ("Q(zeta3)", [-2, 0, 0, 0, 1]),
], ids=["Q(i)/t4-2", "Q(i)/phi5", "Q(sqrt2)/t4-3", "Q(sqrt2)/phi5",
        "Q(sqrt-3)/phi8", "Q(sqrt-3)/t4-2", "Q(zeta3)/phi8",
        "Q(zeta3)/t4-2"])
def test_irreducible_quartics_over_a_quadratic_level_load(name, coeffs):
    E = dict(QUADRATIC_LEVELS)[name]
    p = Polynomial.from_rationals(E, coeffs)
    assert factor(p) == [(p, 1)]
    assert field_extend(E, p, "t", [(0, 1, 0, 0)]).degree == 4


# Q(i)(s) with s^2 = 2: the three-level tower Q, Q(i), Q(i)(sqrt2)
QIS = field_extend(QI, Polynomial.from_rationals(QI, [-2, 0, 1]), "s",
                   [(0, 1), (0, -1)])
FACTOR_LEVELS = [("Q(i)", QI, 6), ("Q(sqrt2)", QR2, 6),
                 ("Q(i)(sqrt2)", QIS, 3), ("Q(zeta8)", cyclotomic_field(8), 3)]


@pytest.mark.parametrize("name, E, top", FACTOR_LEVELS,
                         ids=[name for name, _, _ in FACTOR_LEVELS])
def test_seeded_products_factor_back_and_never_load(name, E, top):
    """f * g for seeded monic f and g over E, of total degree at most top,
    so that every norm down to Q stays within the factorization cap:
    the factors of f * g are those of f and of g together, each proved
    irreducible, and f * g is refused as a minimal polynomial."""
    rng = random.Random(name)

    def poly(degree):
        return Polynomial(E, [from_coords_over(E, Q, [
            Q.from_rational(rng.randint(-3, 3)) for _ in range(E.n)])
            for _ in range(degree)] + [E.one()])

    for _ in range(3):
        df = rng.randint(1, top - 1)
        f, g = poly(df), poly(rng.randint(1, top - df))
        counts = {}
        for part in (f, g):
            for h, m in factor(part):
                counts[h] = counts.get(h, 0) + m
        factors = factor(f * g)
        assert proved_reducible(f * g)
        assert dict(factors) == counts
        for h, _m in factors:
            assert factor(h) == [(h, 1)]
        with pytest.raises(DegenerateError):
            field_extend(E, f * g, "t",
                         [[0, 1] + [0] * ((f * g).degree - 2)])


@pytest.mark.parametrize("p", [3, 7, 11])
def test_eisenstein_polynomials_load_over_q_and_q_i(p):
    """t^n + p(...) with a constant term p u, p not dividing u, is
    irreducible by Eisenstein's criterion at p, over Q and, as p = 3
    (mod 4) stays prime in Z[i], over Q(i) too, with coefficients in
    Z[i]; up to degree 6 its norm to Q is within the cap."""
    rng = random.Random(p)
    for E, top in ((Q, 12), (QI, 6)):
        for n in range(2, top + 1):
            def gaussian():
                return E.element([rng.randint(-2, 2)
                                  for _ in range(E.degree)])
            unit = gaussian()
            while all(v % p == 0 for v in unit.num):
                unit = gaussian()
            coeffs = [unit * p] + [gaussian() * p for _ in range(n - 1)]
            minpoly = Polynomial(E, coeffs + [E.one()])
            assert factor(minpoly) == [(minpoly, 1)]
            T = field_extend(E, minpoly, "t", [[0, 1] + [0] * (n - 2)])
            assert T.degree == n


def test_roots_and_square_roots_on_the_three_level_tower():
    s, i = QIS.generator(), lift_to(QI.generator(), QIS)
    two = QIS.from_rational(2)
    roots = roots_in_field(Polynomial(QIS, [-two, QIS.zero(), QIS.one()]))
    assert roots in ([s, -s], [-s, s])
    r = sqrt_or_none(two)
    assert r in (s, -s)
    # i = ((1 + i) s / 2)^2, and sqrt2 has no square root here
    r = sqrt_or_none(i)
    assert r is not None and r * r == i
    assert sqrt_or_none(s) is None
    Z8 = cyclotomic_field(8)
    zeta = Z8.generator()
    r = sqrt_or_none(zeta ** 2)
    assert r in (zeta, -zeta)
    assert sqrt_or_none(zeta) is None


def test_fields_that_once_gave_false_certificates_are_refused():
    """t^8 + 1 = (t^4 - i)(t^4 + i) over Q(i), whose norm to Q has degree
    16, over the cap, and t^2 - 2, with the root s over Q(i)(s)."""
    octic = Polynomial.from_rationals(QI, [1] + [0] * 7 + [1])
    assert factor(octic) is None
    with pytest.raises(DegenerateError, match="factorization cap 12"):
        field_extend(QI, octic, "t", [[0, 1] + [0] * 6])
    quadratic = Polynomial.from_rationals(QIS, [-2, 0, 1])
    with pytest.raises(DegenerateError, match="has a root in the base"):
        field_extend(QIS, quadratic, "t", [(0, 1)])


def test_quadratic_radicand_cap():
    # 10^10 - 2 = 2 * 4999999999 is squarefree
    K = quadratic_field(-(QUADRATIC_RADICAND_CAP - 2))
    assert K.minpoly.coeff(0) == QUADRATIC_RADICAND_CAP - 2
    for d in (QUADRATIC_RADICAND_CAP + 1, 2 ** 61 - 1, -(10 ** 5000)):
        with pytest.raises(DegenerateError, match="<= %d"
                           % QUADRATIC_RADICAND_CAP):
            quadratic_field(d)


def test_quadratic_irreducibility_by_discriminant():
    p = 2 ** 61 - 1
    K = field_extend(Q, Polynomial.from_rationals(Q, [-p, 0, 1]), "b",
                     [(0, 1), (0, -1)])
    assert K.generator() ** 2 == K.from_rational(p)
    # (t - p)(t + 3/2) and (t - 1/p)^2 split over Q
    for coeffs in ([Fraction(-3 * p, 2), Fraction(3, 2) - p, 1],
                   [Fraction(1, p * p), Fraction(-2, p), 1]):
        with pytest.raises(DegenerateError, match="reducible over Q"):
            field_extend(Q, Polynomial.from_rationals(Q, coeffs), "b",
                         [(0, 1)])
    K = field_extend(Q, Polynomial.from_rationals(Q, [Fraction(1, 2), 1, 1]),
                     "w", [(0, 1), (-1, -1)])
    assert K.degree == 2


def test_two_level_tower():
    m = Polynomial.from_rationals(QR2, [1, 0, 1])
    E = field_extend(QR2, m, "i", [(0, 1), (0, -1)])
    assert E.absolute_degree() == 4
    assert relative_degree(E, Q) == 4
    assert relative_degree(E, QR2) == 2
    assert is_level_of(Q, E) and is_level_of(QR2, E)
    x = parse_element("1r2+1i", E)
    r2 = lift_to(QR2.generator(), E)
    i = E.generator()
    assert x == r2 + i
    assert x * x == Q.from_rational(1) + 2 * r2 * i
    # top-level automorphism fixes the lower level
    sigma = E.automorphisms()[1]
    assert sigma(r2) == r2
    assert sigma(x) == r2 - i


def test_coords_roundtrip_two_levels():
    m = Polynomial.from_rationals(QR2, [1, 0, 1])
    E = field_extend(QR2, m, "i", [(0, 1), (0, -1)])
    rng = random.Random(11)
    basis = power_basis_over(E, Q)
    assert len(basis) == 4
    for _ in range(50):
        coords = [Q.from_rational(rng.randint(-5, 5)) for _ in range(4)]
        x = from_coords_over(E, Q, coords)
        back = coords_over(x, Q)
        assert back == coords
        rebuilt = E.zero()
        for c, e in zip(coords, basis):
            rebuilt = rebuilt + lift_to(c, E) * e
        assert rebuilt == x


def test_equal_towers_that_are_other_objects_act_as_one_level():
    """Levels compare by identity first; a level that is another object
    with the same structure is still that level."""
    A, B = gaussian_rationals(), gaussian_rationals()
    assert A is not B and A == B
    T = field_extend(A, Polynomial.from_rationals(A, [-2, 0, 1]), "r",
                     [(0, 1), (0, -1)])
    assert is_level_of(B, T) and relative_degree(T, B) == 2
    assert not is_level_of(QR2, T)
    i_a, i_b, r = A.generator(), B.generator(), T.generator()
    assert lift_to(i_b, T) == lift_to(i_a, T)
    assert (i_b + r).field is T and i_b + r == lift_to(i_a, T) + r
    assert (r * i_b) * (r * i_b) == T.from_rational(-2)
    assert (i_a * i_b).field is A and i_a * i_b == A.from_rational(-1)
    assert A.automorphisms()[1](i_b) == -i_a
    assert T.automorphisms()[1](i_b) is i_b
    assert coords_over(r + i_b, B) == [i_a, A.one()]
    with pytest.raises(NotSubLevelError):
        relative_degree(T, QR2)
    with pytest.raises(TowerMismatchError):
        lift_to(QR2.generator(), T)


def test_tower_mismatch_errors():
    a = QI.generator()
    b = QR2.generator()
    with pytest.raises(TowerMismatchError):
        a + b
    with pytest.raises(NotSubLevelError):
        relative_degree(QI, QR2)
    sigma = QI.automorphisms()[1]
    with pytest.raises(TowerMismatchError):
        sigma(b)


def test_fixed_by_group():
    G = galois_group(QI, Q)
    assert fixed_by_group(QI.from_rational(Fraction(7, 3)), G)
    assert not fixed_by_group(QI.generator(), G)


def test_sqrt_in_rationals_and_quadratics():
    assert sqrt_or_none(Q.from_rational(Fraction(9, 4))).rational_value() \
        == Fraction(3, 2)
    assert sqrt_or_none(Q.from_rational(2)) is None
    two = QR2.from_rational(2)
    r = sqrt_or_none(two)
    assert r is not None and r * r == two
    # 2i = (1+i)^2 in Q(i)
    x = parse_element("2i", QI)
    s = sqrt_or_none(x)
    assert s is not None and s * s == x
    assert sqrt_or_none(QI.generator() + 5) is None or \
        (sqrt_or_none(QI.generator() + 5) ** 2 == QI.generator() + 5)


def test_sqrt_recovers_squares_over_quadratic_levels():
    """Over quadratic levels, with an integral minimal polynomial or not,
    every square has a root, one of the two it could be, and a non-square
    has none."""
    rng = random.Random(31)
    fields = [QI, QR2, cyclotomic_field(3)]
    for c0, c1 in ((Fraction(3, 4), Fraction(1, 2)), (Fraction(-5, 4), 0)):
        poly = Polynomial.from_rationals(Q, [c0, c1, 1])
        fields.append(field_extend(Q, poly, "t", [(0, 1), (-c1, -1)]))
    for field in fields:
        for _ in range(40):
            y = field.element([Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                               for _ in range(rng.choice((1, 2)))])
            x = y * y
            r = sqrt_or_none(x)
            assert r is not None and r * r == x and r in (y, -y)
        assert sqrt_or_none(field.zero()) == field.zero()
    assert sqrt_or_none(QR2.generator()) is None
    assert sqrt_or_none(QI.from_rational(3)) is None
    assert sqrt_or_none(QR2.from_rational(Fraction(9, 2))) == parse_element(
        "3/2r2", QR2)


def test_parse_format_roundtrip():
    rng = random.Random(23)
    for field in (Q, QI, QR2, cyclotomic_field(8)):
        for _ in range(60):
            k = field.degree if not field.is_rationals else 1
            coords = [Fraction(rng.randint(-12, 12), rng.randint(1, 6))
                      for _ in range(k)]
            x = field.element(coords) if not field.is_rationals \
                else field.from_rational(coords[0])
            assert parse_element(format_element(x), field) == x


def test_parse_errors():
    with pytest.raises(ManifestError):
        parse_element("1+", QI)
    with pytest.raises(ManifestError):
        parse_element("1+1q", QI)
    with pytest.raises(ManifestError):
        parse_element("", QI)


def test_parse_expressions():
    assert parse_element("(1+1i)^2", QI) == parse_element("2i", QI)
    assert parse_element("3*1i-2", QI) == QI.element([-2, 3])
    assert parse_element("-1/2", Q).rational_value() == Fraction(-1, 2)
    assert parse_element("2i^2", QI) == QI.from_rational(-2)


def test_automorphism_identity_on_rationals():
    ident = Q.identity_automorphism()
    x = Q.from_rational(Fraction(5, 3))
    assert ident(x) == x
    assert ident.compose(ident) == ident


def test_zero_and_one_are_built_once_per_tower():
    m = Polynomial(QI, [QI.from_rational(-2), QI.zero(), QI.one()])
    T = field_extend(QI, m, "s", [(0, 1), (0, -1)])
    for F in (Q, QI, T):
        assert F.zero() is F.zero()
        assert F.one() is F.one()
        for const, value, text in ((F.zero(), 0, "0"), (F.one(), 1, "1")):
            fresh = F.from_rational(value)
            assert const == fresh and const == value
            assert hash(const) == hash(fresh)
            assert format_element(const) == format_element(fresh) == text
        assert F.zero().is_zero() and not F.one().is_zero()
        # arithmetic builds new elements and leaves the shared ones alone
        two = F.one() + F.one()
        assert two == F.from_rational(2) and F.one() == 1


def gcd_inverse(x):
    """x^-1 from the extended Euclidean algorithm against the minpoly."""
    field = x.field
    g, u, _ = poly_ext_gcd(Polynomial(field.base, list(x.coords)),
                           field.minpoly)
    assert g.degree == 0
    coords = list(u.coeffs) + [field.base.zero()] * field.degree
    return field.element(coords[:field.degree])


def random_element(field, rng):
    if field.is_rationals:
        return field.from_rational(Fraction(rng.randint(-9, 9),
                                            rng.randint(1, 5)))
    return field.element([random_element(field.base, rng)
                          for _ in range(field.degree)])


@pytest.mark.parametrize("name", ["Q(i)", "Q(sqrt2)", "Q(zeta8)",
                                  "Q(i)(sqrt2)"])
def test_inverse_by_solve_matches_gcd_inverse(name):
    field = {"Q(i)": lambda: QI, "Q(sqrt2)": lambda: QR2,
             "Q(zeta8)": lambda: cyclotomic_field(8),
             "Q(i)(sqrt2)": lambda: field_extend(
                 QI, Polynomial.from_rationals(QI, [-2, 0, 1]), "s",
                 [(0, 1), (0, -1)])}[name]()
    rng = random.Random(41)
    checked = 0
    while checked < 25:
        x = random_element(field, rng)
        if x.is_zero():
            continue
        inv = x.inverse()
        assert inv == gcd_inverse(x)
        assert x * inv == field.one()
        checked += 1
    # sparse elements: a single power of the generator, and 1 + t^k
    t = field.generator()
    for k in range(field.degree):
        assert (t ** k).inverse() * t ** k == field.one()
        y = field.one() + t ** k
        if not y.is_zero():
            assert y.inverse() == gcd_inverse(y)


def test_inverse_of_zero_divisor_is_degenerate():
    # t^2 - 1 is reducible, so 1 + t divides zero and has no inverse
    T = FieldTower(Q, Polynomial.from_rationals(Q, [-1, 0, 1]), "u")
    x = T.element([Q.one(), Q.one()])
    with pytest.raises(DegenerateError):
        x.inverse()
    with pytest.raises(ZeroDivisionError):
        QI.zero().inverse()


def nested_mul(a, b):
    """a * b by the recursive product over the level below: multiply the
    coordinate polynomials, reduce by the minimal polynomial, and multiply
    coefficients the same way one level down."""
    field = a.field
    if field.is_rationals:
        return field.from_rational(a.coords[0] * b.coords[0])
    d = field.degree
    prod = [field.base.zero()] * (2 * d - 1)
    for i, x in enumerate(a.coords):
        for j, y in enumerate(b.coords):
            prod[i + j] = prod[i + j] + nested_mul(x, y)
    m = field.minpoly.coeffs  # monic, length d+1
    for top in range(2 * d - 2, d - 1, -1):
        c = prod[top]
        for j in range(d):
            prod[top - d + j] = prod[top - d + j] - nested_mul(c, m[j])
    return field.element(prod[:d])


def three_level_tower():
    """Q(i)(s)(w) with s^2 = 2 and w^2 = s, of degree 8 over Q."""
    T = field_extend(QI, Polynomial.from_rationals(QI, [-2, 0, 1]), "s",
                     [(0, 1), (0, -1)])
    m = Polynomial(T, [-T.generator(), T.zero(), T.one()])
    return field_extend(T, m, "w", [(0, 1), (0, -1)])


FLAT_TOWERS = {
    "Q(i)": lambda: QI,
    "Q(sqrt2)": lambda: QR2,
    "Q(zeta8)": lambda: cyclotomic_field(8),
    "Q(i)(sqrt2)": lambda: field_extend(
        QI, Polynomial.from_rationals(QI, [-2, 0, 1]), "s",
        [(0, 1), (0, -1)]),
    "Q(i)(sqrt2)(w)": three_level_tower,
    # minimal polynomials with non-integer coefficients: the product
    # tables then carry a denominator
    "Q(sqrt1/2)": lambda: field_extend(
        Q, Polynomial.from_rationals(Q, [Fraction(-1, 2), 0, 1]), "h",
        [(0, 1), (0, -1)]),
    "Q(i)(sqrt3/2)": lambda: field_extend(
        QI, Polynomial.from_rationals(QI, [Fraction(-3, 2), 0, 1]), "t",
        [(0, 1), (0, -1)]),
}


@pytest.mark.parametrize("name", sorted(FLAT_TOWERS))
def test_flat_product_and_inverse_match_nested_product(name):
    field = FLAT_TOWERS[name]()
    rng = random.Random(43)
    samples = [random_element(field, rng) for _ in range(12)]
    # sparse elements too: powers of the generator and lifted base elements
    t = field.generator()
    samples += [t ** k for k in range(2 * field.degree)]
    samples += [lift_to(random_element(field.base, rng), field)
                for _ in range(3)]
    for x in samples:
        assert isinstance(x, FieldElement) and len(x.vec) == field.n
        assert all(type(c) is Fraction for c in x.vec)
        for y in samples[:8]:
            assert x * y == nested_mul(x, y)
        if not x.is_zero():
            inv = x.inverse()
            assert nested_mul(x, inv) == field.one()
            assert inv == gcd_inverse(x)


@pytest.mark.parametrize("name", sorted(FLAT_TOWERS))
def test_relative_view_and_level_maps(name):
    E = FLAT_TOWERS[name]()
    rng = random.Random(44)
    levels = E.levels()
    for _ in range(5):
        x = random_element(E, rng)
        assert E.element(x.coords) == x
        for lo, F in enumerate(levels):
            for K in levels[lo:]:
                y = random_element(K, rng)
                lifted = lift_to(y, E)
                assert lifted.vec[:K.n] == y.vec
                padding = [F.zero()] * (relative_degree(E, F)
                                        - relative_degree(K, F))
                assert coords_over(lifted, F) == coords_over(y, F) + padding


@pytest.mark.parametrize("name", sorted(FLAT_TOWERS))
def test_automorphism_matrices_match_horner(name):
    E = FLAT_TOWERS[name]()
    rng = random.Random(45)
    samples = [random_element(E, rng) for _ in range(6)]
    samples += [E._unit(k) for k in range(E.n)]
    sigmas = E.automorphisms()
    for x in samples:
        for sigma in sigmas:
            assert sigma(x) == apply_image(x.coords, sigma.image)
            for tau in sigmas:
                k = E.aut_table[sigma.index][tau.index]
                assert sigma(tau(x)) == sigmas[k](x)


@pytest.mark.parametrize("name", sorted(FLAT_TOWERS))
def test_tower_hash_covers_the_automorphisms(name):
    E = FLAT_TOWERS[name]()
    key = E.structure_key()
    assert key[3] == tuple((im.num, im.den) for im in E.aut_images)
    assert hash(E) == hash(key)
    # the same minimal polynomial with only the identity is another tower
    F = field_extend(E.base, E.minpoly, E.gen_name, [(0, 1)])
    assert F != E and hash(F) == hash(F.structure_key())


def apply_image(coords, image):
    """sum of coords[k] * image**k by Horner's rule (coords one level down):
    the reference value of an automorphism sending the generator to image."""
    E = image.field
    acc = E.zero()
    for c in reversed(coords):
        acc = acc * image + lift_to(c, E)
    return acc


def assert_canonical(x, ref=None):
    """x is in lowest terms; with ref, x has its num, den and hash."""
    assert all(type(v) is int for v in x.num) and type(x.den) is int
    assert len(x.num) == x.field.n
    assert x.den > 0 and gcd(x.den, *x.num) == 1
    if x.is_zero():
        assert x.den == 1
    if ref is not None:
        assert (x.num, x.den, hash(x)) == (ref.num, ref.den, hash(ref))


@pytest.mark.parametrize("name", sorted(FLAT_TOWERS))
def test_every_path_gives_the_canonical_form(name):
    E = FLAT_TOWERS[name]()
    rng = random.Random(46)
    zero = E.zero()
    assert zero.num == (0,) * E.n and zero.den == 1
    scale = E.from_rational(Fraction(6, 35))
    for _ in range(8):
        a = random_element(E, rng) * scale
        b = random_element(E, rng)
        if b.is_zero():
            b = E.one()
        assert_canonical(a)
        assert_canonical(a + b - b, a)
        assert_canonical((a * b) / b, a)
        assert_canonical(b - a + a - b, zero)
        assert_canonical(a * zero, zero)
        assert_canonical(parse_element(format_element(a), E), a)
        assert_canonical(b * b.inverse(), E.one())
        for K in E.levels():
            y = random_element(K, rng) * K.from_rational(Fraction(10, 21))
            lifted = lift_to(y, E)
            assert_canonical(lifted)
            parts = coords_over(lifted, K)
            assert_canonical(parts[0], y)
            for part in parts[1:]:
                assert_canonical(part, K.zero())
            for part in coords_over(a, K):
                assert_canonical(part)
            assert_canonical(from_coords_over(E, K, coords_over(a, K)), a)
        for c in a.coords:
            if isinstance(c, FieldElement):
                assert_canonical(c)


def test_literal_exponent_cap():
    assert parse_element("2^%d" % LITERAL_EXPONENT_CAP, Q) == \
        Q.from_rational(2 ** LITERAL_EXPONENT_CAP)
    assert parse_element("(2^16)^16", Q) == Q.from_rational(2 ** 256)
    assert parse_element("i^0003", QI) == -QI.generator()
    # leading zeros do not count towards the cap or the digit limit
    assert parse_element("2^" + "0" * 5000, Q) == Q.one()
    assert parse_element("2^" + "0" * 5000 + "3", Q) == Q.from_rational(8)
    z = cyclotomic_field(8).generator()
    assert format_element(z ** 3) == "1z8^3"
    assert parse_element("1z8^3", z.field) == z ** 3
    for text in ("2^%d" % (LITERAL_EXPONENT_CAP + 1), "(2^16)^17",
                 "((1i^2)^16)^9", "3^" + "9" * 5000):
        with pytest.raises(ManifestError, match="cap"):
            parse_element(text, QI)


def test_literal_nesting_cap():
    deepest = "(" * LITERAL_NESTING_CAP + "1+1i" + ")" * LITERAL_NESTING_CAP
    assert parse_element(deepest, QI) == parse_element("1+1i", QI)
    for depth in (LITERAL_NESTING_CAP + 1, 340, 3000):
        with pytest.raises(ManifestError, match="cap %d"
                           % LITERAL_NESTING_CAP):
            parse_element("(" * depth + "1" + ")" * depth, QI)
    # nesting counts open parentheses, not groups in sequence
    many = "+".join(["(1)"] * (2 * LITERAL_NESTING_CAP))
    assert parse_element(many, Q) == Q.from_rational(2 * LITERAL_NESTING_CAP)


def test_literal_numbers_that_cannot_be_read():
    for text in ("1" * 5000, "1/0", "1/" + "7" * 5000):
        with pytest.raises(ManifestError):
            parse_element(text, Q)


# ------------------------------------------------ closed-form operator paths

def ref_of(x):
    """x as nested Fraction lists: a Fraction on Q, else one entry per
    power of the generator, each a value of the level below.  Read from
    the stored numerators, not through any arithmetic."""
    def split(vec, field):
        if field.is_rationals:
            return vec[0]
        D = field.base.n
        return [split(vec[k:k + D], field.base)
                for k in range(0, field.n, D)]
    return split([Fraction(v, x.den) for v in x.num], x.field)


def ref_lift(r, K, E):
    """The reference value r of level K as a value of the higher level E."""
    if E == K:
        return r
    inner = ref_lift(r, K, E.base)
    return [inner] + [ref_lift(Fraction(0), rationals(), E.base)] * (
        E.degree - 1)


def ref_add(a, b, sign=1):
    if isinstance(a, Fraction):
        return a + sign * b
    return [ref_add(x, y, sign) for x, y in zip(a, b)]


def ref_mul(a, b, field):
    """a * b as Fraction polynomials reduced modulo the minimal
    polynomial, level by level."""
    if field.is_rationals:
        return a * b
    d, base = field.degree, field.base
    prod = [ref_lift(Fraction(0), rationals(), base)] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = ref_add(prod[i + j], ref_mul(x, y, base))
    m = [ref_of(c) for c in field.minpoly.coeffs]
    for top in range(2 * d - 2, d - 1, -1):
        c = prod[top]
        for j in range(d):
            prod[top - d + j] = ref_add(prod[top - d + j],
                                        ref_mul(c, m[j], base), -1)
    return prod[:d]


def integral_or_not(field, rng, dens):
    """A random element whose rational leaves have denominators in dens."""
    num = tuple(rng.randint(-9, 9) for _ in range(field.n))
    parts = [Fraction(v, rng.choice(dens)) for v in num]
    den = lcm(*(p.denominator for p in parts))
    return FieldElement(field, tuple(int(p * den) for p in parts), den)


OPERATOR_FIELDS = {
    "Q": lambda: Q,
    "Q(i)": lambda: QI,
    "Q(sqrt2)": lambda: QR2,
    "Q(zeta3)": lambda: cyclotomic_field(3),
    "Q(zeta8)": lambda: cyclotomic_field(8),
    "Q(i)(sqrt2)": FLAT_TOWERS["Q(i)(sqrt2)"],
    "Q(sqrt1/2)": FLAT_TOWERS["Q(sqrt1/2)"],
}


@pytest.mark.parametrize("name", sorted(OPERATOR_FIELDS))
def test_operator_paths_match_polynomial_reference(name):
    """Every operator, on the closed-form integer paths (Q, integral
    quadratics over Q) and the product-table walk alike, agrees with
    Fraction polynomials reduced modulo the minimal polynomial, and
    returns a reduced pair."""
    E = OPERATOR_FIELDS[name]()
    quad = {"Q(i)": (-1, 0), "Q(sqrt2)": (2, 0), "Q(zeta3)": (-1, -1)}
    assert E._quad == quad.get(name)
    rng = random.Random(47)
    one = ref_lift(Fraction(1), Q, E)
    samples = [integral_or_not(E, rng, dens) for dens in ((1,), (1, 2, 3, 4))
               for _ in range(6)] + [E.zero(), E.one()]
    for a in samples:
        assert_canonical(a)
        ra = ref_of(a)
        assert_canonical(-a)
        assert ref_of(-a) == ref_add(ref_lift(Fraction(0), Q, E), ra, -1)
        if not a.is_zero():
            inv = a.inverse()
            assert_canonical(inv)
            assert ref_mul(ra, ref_of(inv), E) == one
        # same level, every lower level, and int and Fraction operands
        others = [(b, ref_of(b)) for b in samples[::3]]
        for K in E.levels()[:-1]:
            y = integral_or_not(K, rng, (1, 3))
            others.append((y, ref_lift(ref_of(y), K, E)))
        others += [(k, ref_lift(Fraction(k), Q, E))
                   for k in (0, 3, -2, Fraction(5, 6), Fraction(-4))]
        for b, rb in others:
            for x, y, rx, ry in ((a, b, ra, rb), (b, a, rb, ra)):
                results = ((x * y, ref_mul(rx, ry, E)),
                           (x + y, ref_add(rx, ry)),
                           (x - y, ref_add(rx, ry, -1)))
                for got, want in results:
                    assert isinstance(got, FieldElement) and got.field is E
                    assert_canonical(got)
                    assert ref_of(got) == want
                if y != 0:
                    q = x / y
                    assert_canonical(q)
                    assert ref_mul(ref_of(q), ry, E) == rx


@pytest.mark.parametrize("name", sorted(OPERATOR_FIELDS))
def test_addmul_matches_the_operators(name):
    """_addmul(acc, key, x, y, sub) leaves acc[key] + x*y, or acc[key] -
    x*y, an absent key reading as zero, with the pair and the level the
    operators give: in ints on Q and the integral quadratics, by the
    operators on the table walk and when the levels differ."""
    E = OPERATOR_FIELDS[name]()
    rng = random.Random(48)
    samples = [integral_or_not(E, rng, dens) for dens in ((1,), (1, 2, 3, 4))
               for _ in range(4)] + [E.zero(), E.one()]
    lower = [integral_or_not(K, rng, (1, 3)) for K in E.levels()[:-1]]
    for x in samples:
        for y in samples[::3] + lower:
            for prev in [None, rng.choice(samples)] + lower:
                for sub in (False, True):
                    for a, b in ((x, y), (y, x)):
                        t = a * b
                        want = (-t if sub else t) if prev is None else (
                            prev - t if sub else prev + t)
                        acc = {"other": E.one()}
                        if prev is not None:
                            acc["key"] = prev
                        got = _addmul(acc, "key", a, b, sub)
                        assert acc == {"other": E.one(), "key": got}
                        assert got.field is want.field
                        assert_canonical(got, want)


def format_by_coords(x):
    """format_element as written through coords and Fractions, the
    reference for the writer that reads the ints."""
    field = x.field
    if field.is_rationals:
        return str(x.coords[0])
    pieces = []
    for k, c in enumerate(x.coords):
        if c.is_zero():
            continue
        if k == 0:
            gen_part = ""
        elif k == 1:
            gen_part = field.gen_name
        else:
            gen_part = "%s^%d" % (field.gen_name, k)
        if c.is_rational():
            val = c.rational_value()
            sign = "-" if val < 0 else "+"
            body = str(abs(val)) + gen_part
        else:
            sign = "+"
            body = "(%s)%s" % (format_by_coords(c), gen_part)
        pieces.append((sign, body))
    if not pieces:
        return "0"
    first_sign, first_body = pieces[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        out += sign + body
    return out


@pytest.mark.parametrize("name", sorted({**OPERATOR_FIELDS, **FLAT_TOWERS}))
def test_format_element_matches_the_fraction_writer(name):
    """Seeded elements with zero coordinates and mixed denominators,
    Q(sqrt1/2) among the levels, whose minimal polynomial is not
    integral."""
    E = {**OPERATOR_FIELDS, **FLAT_TOWERS}[name]()
    rng = random.Random(49)
    for _ in range(300):
        parts = [Fraction(rng.randint(-9, 9) * rng.choice((0, 1, 1)),
                          rng.choice((1, 1, 2, 3, 4, 6, 12)))
                 for _ in range(E.n)]
        den = lcm(*(p.denominator for p in parts))
        x = FieldElement(E, tuple(int(p * den) for p in parts), den)
        assert format_element(x) == format_by_coords(x)
    for x in (E.zero(), E.one(), -E.one(), E.generator() if E.n > 1
              else E.from_rational(Fraction(-7, 3))):
        assert format_element(x) == format_by_coords(x)
