from fractions import Fraction

import pytest

from lieforms.errors import DegenerateError, DegreeTooLargeError
from lieforms.fields import rationals
from lieforms.polynomials import (
    Polynomial,
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


def test_random_factor_refactor_roundtrip():
    import random

    rng = random.Random(20260823)
    for _ in range(25):
        pieces = []
        for _count in range(rng.randint(1, 3)):
            deg = rng.randint(1, 3)
            cs = [Fraction(rng.randint(-4, 4)) for _ in range(deg)] + [Fraction(1)]
            pieces.append(poly(*cs))
        p = Polynomial.one(Q)
        for piece in pieces:
            p = p * piece
        if p.degree > 9 or p.degree < 1:
            continue
        unit, factors = factor_over_Q(p)
        rebuilt = poly(unit)
        for f, m in factors:
            rebuilt = rebuilt * f ** m
        assert rebuilt == p
        for f, _ in factors:
            assert is_irreducible_over_Q(f)


def test_rational_roots_of_zero_polynomial_raises():
    with pytest.raises(DegenerateError):
        rational_roots(Polynomial.zero(Q))
    assert rational_roots(poly(5)) == []


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
