from fractions import Fraction

import pytest

from lieforms import fields, polynomials
from lieforms.errors import DegenerateError, DegreeTooLargeError
from lieforms.fields import cyclotomic_field, rationals
from lieforms.polynomials import (
    Polynomial,
    _is_cyclotomic,
    cyclotomic_coeffs,
    factor_over_Q,
    is_irreducible_over_Q,
    poly_ext_gcd,
    poly_gcd,
    rational_roots,
    squarefree_part,
)

Q = rationals()


def poly(*coeffs):
    return Polynomial.from_rationals(Q, coeffs)


def test_divmod_roundtrip():
    a = poly(1, 2, 0, 3, 5)
    b = poly(-1, 1, 2)
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


def test_gcd_of_products():
    a = poly(-1, 1)  # t - 1
    b = poly(1, 1)   # t + 1
    c = poly(2, 0, 1)
    assert poly_gcd(a * b, a * c) == a


def test_ext_gcd_bezout():
    a = poly(1, 0, 1)
    b = poly(-2, 0, 1)
    g, u, v = poly_ext_gcd(a, b)
    assert g == Polynomial.one(Q)
    assert u * a + v * b == g


def test_squarefree_part():
    a = poly(-1, 1)
    sq = a * a * poly(1, 1)
    assert squarefree_part(sq) == a * poly(1, 1)


def test_rational_roots_with_multiplicity_and_fractions():
    # (2t - 1)^2 (t + 3) t
    p = poly(Fraction(-1, 2), 1) ** 2 * poly(3, 1) * poly(0, 1)
    assert rational_roots(p) == [Fraction(-3), Fraction(0), Fraction(1, 2)]


def test_factor_t4_minus_1():
    unit, factors = factor_over_Q(poly(-1, 0, 0, 0, 1))
    assert unit == 1
    assert [(f.coeffs, m) for f, m in factors] == [
        ((Q.from_rational(-1), Q.one()), 1),
        ((Q.one(), Q.one()), 1),
        ((Q.one(), Q.zero(), Q.one()), 1),
    ]


def test_factor_with_multiplicity_and_unit():
    # 6 (t-1)^2 (t^2+t+1)
    p = poly(-1, 1) ** 2 * poly(1, 1, 1)
    p = p.scale(Q.from_rational(6))
    unit, factors = factor_over_Q(p)
    assert unit == 6
    got = {(tuple(c.rational_value() for c in f.coeffs), m)
           for f, m in factors}
    assert got == {((Fraction(-1), Fraction(1)), 2),
                   ((Fraction(1), Fraction(1), Fraction(1)), 1)}


def test_factor_irreducible_quartic():
    # t^4 + 1 factors mod every prime but is irreducible over Q.
    unit, factors = factor_over_Q(poly(1, 0, 0, 0, 1))
    assert unit == 1
    assert len(factors) == 1 and factors[0][1] == 1
    assert factors[0][0].degree == 4


def test_factor_degree_six_split():
    # (t^2+1)(t^2-2)(t^2-3)
    p = poly(1, 0, 1) * poly(-2, 0, 1) * poly(-3, 0, 1)
    _, factors = factor_over_Q(p)
    assert sorted(f.degree for f, _ in factors) == [2, 2, 2]
    prod = Polynomial.one(Q)
    for f, m in factors:
        prod = prod * f ** m
    assert prod == p


def test_factor_degree_cap():
    coeffs = [0] * 13 + [1]
    with pytest.raises(DegreeTooLargeError):
        factor_over_Q(poly(*coeffs))


def test_irreducibility_checks():
    assert is_irreducible_over_Q(poly(2, 2, 1))      # t^2+2t+2
    assert is_irreducible_over_Q(poly(-2, 0, 0, 1))  # t^3-2
    assert not is_irreducible_over_Q(poly(-1, 0, 1))


def test_cyclotomic_polynomials():
    assert cyclotomic_coeffs(1) == [-1, 1]
    assert cyclotomic_coeffs(2) == [1, 1]
    assert cyclotomic_coeffs(4) == [1, 0, 1]
    assert cyclotomic_coeffs(6) == [1, -1, 1]
    assert cyclotomic_coeffs(12) == [1, 0, -1, 0, 1]


def divide_exactly(num, den):
    """num / den for Fraction lists (low to high), with no remainder."""
    rem = list(num)
    q = [Fraction(0)] * (len(num) - len(den) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k] = c = rem[k + len(den) - 1] / den[-1]
        for t, d in enumerate(den):
            rem[k + t] -= c * d
    assert not any(rem)
    return q


def fraction_cyclotomic(n, known):
    """Phi_n as t^n - 1 divided by Phi_d for every proper divisor d, in
    Fraction arithmetic; known maps each d < n to Phi_d."""
    out = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            out = divide_exactly(out, known[d])
    return out


def test_cyclotomic_coeffs_match_the_fraction_reference():
    known = {}
    for n in range(1, 106):
        known[n] = fraction_cyclotomic(n, known)
        assert all(c.denominator == 1 for c in known[n])
        assert cyclotomic_coeffs(n) == [int(c) for c in known[n]], n
    # Phi_105 is the first with a coefficient outside {-1, 0, 1}
    assert all(set(cyclotomic_coeffs(n)) <= {-1, 0, 1} for n in range(1, 105))
    assert min(cyclotomic_coeffs(105)) == -2


def test_cyclotomic_recognition():
    for n in range(2, 40):
        phi = cyclotomic_coeffs(n)
        if len(phi) - 1 <= 12:
            assert _is_cyclotomic(poly(*phi)), n
    # Phi_3 Phi_6, t^4 + 2 and t^4 + 4 t^2 + 1 are palindromic or close to
    # it, but no Phi_n
    for cs in ([1, 0, 1, 0, 1], [2, 0, 0, 0, 1], [1, 0, 4, 0, 1]):
        assert not _is_cyclotomic(poly(*cs)), cs


def test_cyclotomic_recognition_rejects_without_comparing(monkeypatch):
    def fail(n):
        raise AssertionError("compared with Phi_%d" % n)

    monkeypatch.setattr(polynomials, "cyclotomic_coeffs", fail)
    for cs in ([Fraction(1, 2), 0, 0, 0, 1],   # not integral
               [-1, 0, 0, 0, 1],               # constant term -1
               [1, 1, 0, 0, 1]):               # not palindromic
        assert not _is_cyclotomic(poly(*cs)), cs


def test_cyclotomic_fields_match_the_factoring_route(monkeypatch):
    proved = {n: cyclotomic_field(n) for n in range(3, 13)}
    calls = []
    monkeypatch.setattr(fields, "_is_cyclotomic",
                        lambda p: calls.append(p) and False)
    for n, field in proved.items():
        factored = cyclotomic_field(n)
        assert factored.aut_images == field.aut_images, n
        assert factored.aut_table == field.aut_table, n
        assert factored.structure_key() == field.structure_key(), n
    # the quadratic ones (n = 3, 4, 6) are proved by their discriminant
    assert len(calls) == 7


def test_random_factor_refactor_roundtrip():
    """Factoring rebuilds the polynomial from irreducibles, and the rational
    routines answer the same whichever ring holds the rational
    coefficients: Q, Q(i) or Q(zeta_8)."""
    import random

    from lieforms.fields import gaussian_rationals

    rings = (Q, gaussian_rationals(), cyclotomic_field(8))
    rng = random.Random(20260823)
    for _ in range(25):
        pieces = []
        for _count in range(rng.randint(1, 3)):
            deg = rng.randint(1, 3)
            cs = [Fraction(rng.randint(-4, 4)) for _ in range(deg)] + [Fraction(1)]
            pieces.append(cs)
        answers = []
        for E in rings:
            p = Polynomial.one(E)
            for cs in pieces:
                p = p * Polynomial.from_rationals(E, cs)
            if p.degree > 9:
                break
            unit, factors = factor_over_Q(p)
            rebuilt = Polynomial.from_rationals(E, [unit])
            for f, m in factors:
                assert f.ring == E
                rebuilt = rebuilt * f ** m
            assert rebuilt == p
            for f, _ in factors:
                assert is_irreducible_over_Q(f)
            answers.append((
                unit,
                [([c.rational_value() for c in f.coeffs], m)
                 for f, m in factors],
                rational_roots(p),
                is_irreducible_over_Q(p)))
        assert answers[1:] == answers[:-1]


def test_rational_roots_of_zero_polynomial_raises():
    with pytest.raises(DegenerateError):
        rational_roots(Polynomial.zero(Q))
    assert rational_roots(poly(5)) == []


def test_rational_routines_reject_irrational_coefficients():
    from lieforms.fields import gaussian_rationals

    QI = gaussian_rationals()
    i, one = QI.generator(), QI.one()
    # i t + i is rational once made monic, so the check must come first
    for cs in ([i, i], [one, i, one], [i]):
        p = Polynomial(QI, cs)
        routines = [factor_over_Q, rational_roots]
        if p.degree >= 1:
            routines.append(is_irreducible_over_Q)
        for routine in routines:
            with pytest.raises(DegenerateError):
                routine(p)


def divisor_roots(cs):
    """Reference rational root test: every +-u/v with u dividing the
    constant and v the leading coefficient of the integer polynomial,
    after zero roots are split off."""
    from math import isqrt, lcm

    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    roots = set()
    if cs[0] == 0:
        roots.add(Fraction(0))
        while cs[0] == 0:
            cs = cs[1:]
    den = lcm(*(c.denominator for c in cs))
    ints = [int(c * den) for c in cs]

    def divisors(n):
        n = abs(n)
        small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
        return small + [n // d for d in small]

    for u in divisors(ints[0]):
        for v in divisors(ints[-1]):
            for r in (Fraction(u, v), Fraction(-u, v)):
                if sum(c * r ** k for k, c in enumerate(cs)) == 0:
                    roots.add(r)
    return sorted(roots)


def test_rational_roots_match_the_divisor_test():
    import random

    rng = random.Random(20261018)
    for trial in range(40):
        p = poly(rng.choice((1, 2, 3, -4)))
        for _ in range(rng.randint(1, 5)):
            if rng.random() < 0.6:
                root = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                p = p * poly(-root, 1) ** rng.randint(1, 2)
            else:
                p = p * poly(rng.randint(1, 5), rng.randint(-2, 2), 1)
        cs = [c.rational_value() for c in p.coeffs]
        assert rational_roots(p) == divisor_roots(cs), (trial, cs)


def test_rational_roots_above_the_factor_cap_and_of_large_constants():
    # degree 21: above FACTOR_DEGREE_CAP, still answered
    p = Polynomial.one(Q)
    for r in range(-3, 4):
        p = p * poly(Fraction(-r, 2), 1) * poly(1, 0, 1)
    assert p.degree == 21
    assert rational_roots(p) == [Fraction(r, 2) for r in range(-3, 4)]
    big = 2 ** 61 - 1
    p = poly(-big, 1) * poly(5, 3) * poly(1, 0, 1)
    assert rational_roots(p) == [Fraction(-5, 3), Fraction(big)]
    assert rational_roots(poly(-big, 0, 0, 1)) == []
