"""Exact univariate polynomial arithmetic.

Two layers live here:

* :class:`Polynomial` is generic over a coefficient field.  The ``ring``
  object only has to provide ``zero()``, ``one()`` and ``from_rational()``
  and its elements the usual arithmetic dunders plus ``is_zero()``; field
  towers satisfy this, so the same class serves minimal polynomials over Q
  and over any extension level.

* Factorization over Q (the squarefree part, then Berlekamp mod p,
  Hensel lifting and subset recombination, then each factor's
  multiplicity) takes and returns Polynomials with rational coefficients,
  in their own ring, and is capped at degree 12.  Only the steps modulo p
  and the integer lifts below them work on plain integer coefficient
  lists.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DegenerateError, DegreeTooLargeError

FACTOR_DEGREE_CAP = 12

# Largest exponent an element literal may use (see fields.parse_element).
# Exponents nested through parentheses multiply, and their product is held
# to the cap, so a literal's value grows at most polynomially in its length.
# An exponent over the cap is a ManifestError, raised before any power is
# computed.
LITERAL_EXPONENT_CAP = 256

# Deepest parenthesis nesting an element literal may use, far below the
# interpreter's recursion limit; format_element nests one level per tower
# level above the first.  A deeper literal is a ManifestError.
LITERAL_NESTING_CAP = 64

# Largest |d| that fields.quadratic_field accepts.  Its squarefree test
# trial-divides up to sqrt|d|, so the cap bounds that work (about 10^5
# divisions); a larger d is a DegenerateError, raised before it runs.
QUADRATIC_RADICAND_CAP = 10 ** 10


class Polynomial:
    """Dense univariate polynomial, coefficients low to high, over a field."""

    __slots__ = ("ring", "coeffs", "_hash")

    def __init__(self, ring, coeffs: Iterable):
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        self.ring = ring
        self.coeffs = tuple(cs)
        self._hash = None

    # -------------------------------------------------- constructors

    @classmethod
    def zero(cls, ring) -> "Polynomial":
        return cls(ring, [])

    @classmethod
    def one(cls, ring) -> "Polynomial":
        return cls(ring, [ring.one()])

    @classmethod
    def gen(cls, ring) -> "Polynomial":
        return cls(ring, [ring.zero(), ring.one()])

    @classmethod
    def from_rationals(cls, ring, values: Sequence) -> "Polynomial":
        return cls(ring, [ring.from_rational(v) for v in values])

    # -------------------------------------------------- basic queries

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lc(self):
        if not self.coeffs:
            raise DegenerateError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.ring.one()

    def coeff(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.ring.zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, self.coeffs))
        return self._hash

    def __repr__(self) -> str:
        return "Polynomial(%s)" % (", ".join(str(c) for c in self.coeffs) or "0")

    # -------------------------------------------------- arithmetic

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return Polynomial(self.ring, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, [-c for c in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(self.ring)
        zero = self.ring.zero()
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return Polynomial(self.ring, out)

    def scale(self, c) -> "Polynomial":
        return Polynomial(self.ring, [c * a for a in self.coeffs])

    def shift(self, k: int) -> "Polynomial":
        """Multiply by t**k."""
        if self.is_zero():
            return self
        return Polynomial(self.ring, [self.ring.zero()] * k + list(self.coeffs))

    def __divmod__(self, other: "Polynomial"):
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        div = other.coeffs
        dd = len(div) - 1
        if len(rem) - 1 < dd:
            return Polynomial.zero(self.ring), self
        one = self.ring.one()
        inv_lc = None if div[-1] == one else one / div[-1]
        quot = [self.ring.zero()] * (len(rem) - dd)
        for top in range(len(rem) - 1, dd - 1, -1):
            c = rem[top]
            if c.is_zero():
                continue
            q = c if inv_lc is None else c * inv_lc
            quot[top - dd] = q
            for j in range(dd + 1):
                rem[top - dd + j] = rem[top - dd + j] - q * div[j]
        return Polynomial(self.ring, quot), Polynomial(self.ring, rem)

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        out = Polynomial.one(self.ring)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def monic(self) -> "Polynomial":
        if self.is_zero() or self.lc == self.ring.one():
            return self
        inv = self.ring.one() / self.lc
        return self.scale(inv)

    def derivative(self) -> "Polynomial":
        out = []
        for k in range(1, len(self.coeffs)):
            c = self.coeffs[k]
            scalar = self.ring.from_rational(Fraction(k))
            out.append(scalar * c)
        return Polynomial(self.ring, out)

    def eval(self, x):
        """Horner evaluation at an element of the coefficient field."""
        acc = self.ring.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def _check(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            raise DegenerateError("polynomials over different coefficient fields")


# ------------------------------------------------------------------ gcd

def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd via the Euclidean algorithm."""
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a.monic()


def poly_ext_gcd(a: Polynomial, b: Polynomial):
    """Return (g, u, v) with u*a + v*b = g, g monic (or zero)."""
    ring = a.ring
    r0, r1 = a, b
    u0, u1 = Polynomial.one(ring), Polynomial.zero(ring)
    v0, v1 = Polynomial.zero(ring), Polynomial.one(ring)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if r0.is_zero():
        return r0, u0, v0
    inv = ring.one() / r0.lc
    return r0.scale(inv), u0.scale(inv), v0.scale(inv)


def squarefree_part(p: Polynomial) -> Polynomial:
    """p divided by gcd(p, p'), made monic; works over any coefficient field."""
    if p.is_zero():
        raise DegenerateError("squarefree part of the zero polynomial")
    g = poly_gcd(p, p.derivative())
    if g.is_zero() or g.degree == 0:
        return p.monic()
    return (p // g).monic()


# ================================================================== Q layer
#
# The public entry points below take Polynomials whose coefficients answer
# is_rational() and rational_value().  Factoring mod p, Hensel lifting and
# recombination work on plain integer coefficient lists (low to high).


def _require_rational(p: Polynomial) -> None:
    """DegenerateError unless every coefficient of p is rational."""
    for c in p.coeffs:
        c.rational_value()


def _trim(cs: list) -> list:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _iadd(a, b):
    out = list(a) if len(a) >= len(b) else list(b)
    small = b if len(a) >= len(b) else a
    for k, c in enumerate(small):
        out[k] += c
    return _trim(out)


def _ineg(a):
    return [-c for c in a]


def _primitive(a: list[int]) -> list[int]:
    """A nonzero integer list divided by its content, with positive lead."""
    g = 0
    for c in a:
        g = gcd(g, c)
    if a[-1] < 0:
        g = -g
    return [c // g for c in a]


def _int_coeffs(p: Polynomial) -> list[int]:
    """The primitive integer multiple of a nonzero rational polynomial, with
    positive lead."""
    cs = [c.rational_value() for c in p.coeffs]
    den = lcm(*(c.denominator for c in cs))
    return _primitive([c.numerator * (den // c.denominator) for c in cs])


def _int_divide(a: list[int], b: list[int]):
    """a // b over Z when b divides a there exactly, else None."""
    rem = list(a)
    dd = len(b) - 1
    quot = [0] * (len(rem) - dd)
    for top in range(len(rem) - 1, dd - 1, -1):
        q, r = divmod(rem[top], b[-1])
        if r:
            return None
        quot[top - dd] = q
        if q:
            for j in range(dd + 1):
                rem[top - dd + j] -= q * b[j]
    return None if any(rem) else quot


# ------------------------------------------------------------ mod-p layer

def _pmod_trim(a, p):
    a = [c % p for c in a]
    return _trim(a)


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def _pdivmod(a, b, p):
    rem = list(a)
    dd = len(b) - 1
    if len(rem) - 1 < dd:
        return [], _trim(rem)
    inv = pow(b[-1], -1, p)
    quot = [0] * (len(rem) - dd)
    for top in range(len(rem) - 1, dd - 1, -1):
        c = rem[top]
        if not c:
            continue
        q = (c * inv) % p
        quot[top - dd] = q
        for j in range(dd + 1):
            rem[top - dd + j] = (rem[top - dd + j] - q * b[j]) % p
    return _trim(quot), _trim(rem)


def _pgcd(a, b, p):
    a, b = _pmod_trim(a, p), _pmod_trim(b, p)
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = [(c * inv) % p for c in a]
    return a


def _ppow_mod(base, e, mod_poly, p):
    out = [1]
    base = _pdivmod(base, mod_poly, p)[1]
    while e:
        if e & 1:
            out = _pdivmod(_pmul(out, base, p), mod_poly, p)[1]
        base = _pdivmod(_pmul(base, base, p), mod_poly, p)[1]
        e >>= 1
    return out


def _berlekamp(f, p):
    """Factor a monic squarefree polynomial mod p into monic irreducibles."""
    n = len(f) - 1
    if n <= 1:
        return [list(f)]
    # Frobenius matrix: row i = coefficients of x^(i*p) mod f.
    rows = []
    for i in range(n):
        r = _ppow_mod([0, 1], i * p, f, p)
        rows.append([(r[j] if j < len(r) else 0) for j in range(n)])
    # Nullspace of (Q - I) over F_p, column-vector convention.
    mat = [[(rows[j][i] - (1 if i == j else 0)) % p for j in range(n)]
           for i in range(n)]
    basis = _nullspace_mod_p(mat, p)
    if len(basis) == 1:
        return [list(f)]
    factors = [list(f)]
    for v in basis:
        vpoly = _trim(list(v))
        if len(vpoly) <= 1:
            continue
        next_factors = []
        for g in factors:
            if len(g) - 1 <= 1:
                next_factors.append(g)
                continue
            pieces = []
            remaining = g
            for c in range(p):
                if len(remaining) - 1 <= 0:
                    break
                shifted = _fadd_mod(vpoly, -c, p)
                h = _pgcd(remaining, shifted, p)
                if 0 < len(h) - 1 < len(remaining) - 1:
                    pieces.append(h)
                    remaining = _pdivmod(remaining, h, p)[0]
            if len(remaining) - 1 > 0:
                pieces.append(remaining)
            next_factors.extend(pieces if pieces else [g])
        factors = next_factors
        if len(factors) == len(basis):
            break
    return factors


def _fadd_mod(a, c, p):
    out = list(a) if a else [0]
    out[0] = (out[0] + c) % p
    return _trim(out)


def _nullspace_mod_p(mat, p):
    """Nullspace basis of a square matrix over F_p (vectors as lists)."""
    n = len(mat)
    m = [row[:] for row in mat]
    pivots = {}
    r = 0
    for col in range(n):
        sel = None
        for row in range(r, n):
            if m[row][col] % p:
                sel = row
                break
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        inv = pow(m[r][col], -1, p)
        m[r] = [(c * inv) % p for c in m[r]]
        for row in range(n):
            if row != r and m[row][col]:
                factor = m[row][col]
                m[row] = [(a - factor * b) % p for a, b in zip(m[row], m[r])]
        pivots[col] = r
        r += 1
    basis = []
    for col in range(n):
        if col in pivots:
            continue
        v = [0] * n
        v[col] = 1
        for pc, pr in pivots.items():
            v[pc] = (-m[pr][col]) % p
        basis.append(v)
    return basis


# ------------------------------------------------------------ Hensel

def _sym(c, m):
    c %= m
    return c - m if c > m // 2 else c


def _imul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _hensel_step(f, g, h, s, t, m):
    """One quadratic Hensel step: from mod m to mod m*m.

    Invariants in: f = g*h (mod m), s*g + t*h = 1 (mod m), g monic,
    lc(f) invertible mod m.  Same out, mod m*m, with g* monic.
    """
    mm = m * m

    def red(a):
        return _trim([c % mm for c in a])

    e = red(_iadd(f, _ineg(_imul(g, h))))
    q, u = _pdivmod(_imul(t, e), g, mm)
    gstar = red(_iadd(g, u))
    hstar = red(_iadd(h, _iadd(_imul(s, e), _imul(h, q))))
    b = red(_iadd(_iadd(_imul(s, gstar), _imul(t, hstar)), [-1]))
    c, dt = _pdivmod(_imul(t, b), gstar, mm)
    tstar = red(_iadd(t, _ineg(dt)))
    sstar = red(_iadd(s, _ineg(_iadd(_imul(s, b), _imul(hstar, c)))))
    return gstar, hstar, sstar, tstar


def _hensel_lift_pair(f, g, h, p, target):
    """Lift f = g*h from mod p to mod p^(2^k) >= target."""
    _, s, t = _ext_gcd_mod_p(g, h, p)
    m = p
    while m < target:
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
        m = m * m
    return g, h, m


def _ext_gcd_mod_p(a, b, p):
    r0, r1 = _pmod_trim(a, p), _pmod_trim(b, p)
    u0, u1 = [1], []
    v0, v1 = [], [1]
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        u0, u1 = u1, _pmod_trim(_iadd(u0, _ineg(_pmul(q, u1, p))), p)
        v0, v1 = v1, _pmod_trim(_iadd(v0, _ineg(_pmul(q, v1, p))), p)
    inv = pow(r0[-1], -1, p)
    return ([(c * inv) % p for c in r0],
            [(c * inv) % p for c in u0],
            [(c * inv) % p for c in v0])


def _hensel_lift_many(f, factors, p, target):
    """Lift monic factors of f (mod p) to monic factors mod >= target."""
    if len(factors) == 1:
        # f is lc(f) * factors[0] mod p; return monic image of f itself.
        m = p
        while m < target:
            m *= m
        inv = pow(f[-1] % m, -1, m)
        return [_trim([(c * inv) % m for c in f])], m
    half = len(factors) // 2
    g = [1]
    for fac in factors[:half]:
        g = _pmul(g, fac, p)
    h = [1]
    for fac in factors[half:]:
        h = _pmul(h, fac, p)
    # g is monic; fold lc(f) into h so f = g*h mod p.
    h = _pmul(h, [f[-1] % p], p)
    glift, hlift, m = _hensel_lift_pair(f, g, h, p, target)
    left, m1 = _hensel_lift_many(_int_scale_monicize(glift, m), factors[:half], p, target)
    right, m2 = _hensel_lift_many(hlift, factors[half:], p, target)
    return left + right, m


def _int_scale_monicize(f, m):
    inv = pow(f[-1] % m, -1, m)
    return _trim([(c * inv) % m for c in f])


def _factor_bound(f: list[int]) -> int:
    """Bound on coefficient size of lc(f)-scaled integer factors of f."""
    from math import isqrt

    norm_sq = sum(c * c for c in f)
    norm = isqrt(norm_sq) + 1
    n = len(f) - 1
    return (2 ** n) * norm * (abs(f[-1]) + 1)


def _zassenhaus(f: list[int]) -> list[list[int]]:
    """Factor a primitive squarefree integer polynomial, lc > 0, deg >= 1.

    Returns primitive integer factors with positive leading coefficients.
    """
    n = len(f) - 1
    if n == 1:
        return [list(f)]
    p, fp = _good_prime(f)
    monic_fp = _pmul(fp, [pow(fp[-1], -1, p)], p)
    modular = _berlekamp(monic_fp, p)
    if len(modular) == 1:
        return [list(f)]
    modular.sort(key=lambda g: (len(g), g))
    bound = 2 * _factor_bound(f)
    lifted, m = _hensel_lift_many(f, modular, p, bound)

    result = []
    remaining = list(f)
    avail = list(range(len(lifted)))
    size = 1
    from itertools import combinations

    while 2 * size <= len(avail):
        found = False
        for combo in combinations(avail, size):
            cand = [remaining[-1] % m]
            for idx in combo:
                cand = _trim([c % m for c in _imul(cand, lifted[idx])])
            cand = _primitive([_sym(c, m) for c in cand])
            # a primitive divisor over Q divides over Z (Gauss's lemma)
            q = _int_divide(remaining, cand)
            if q is not None:
                result.append(cand)
                remaining = q
                avail = [i for i in avail if i not in combo]
                found = True
                break
        if not found:
            size += 1
    if len(remaining) - 1 > 0:
        result.append(remaining)
    return result


def _good_prime(f: list[int]):
    """The first prime p dividing neither lc(f) nor the discriminant of
    the squarefree integer polynomial f, and f modulo p: f keeps its
    degree and stays squarefree modulo p."""
    n = len(f) - 1
    deriv = _trim([k * c for k, c in enumerate(f)][1:])
    p = 2
    while True:
        p = _next_prime(p)
        if f[-1] % p == 0:
            continue
        fp = _pmod_trim(f, p)
        if len(fp) - 1 != n:
            continue
        if len(_pgcd(fp, _pmod_trim(deriv, p), p)) - 1 == 0:
            return p, fp


def _next_prime(p: int) -> int:
    q = p + 1
    while True:
        if all(q % d for d in range(2, int(q ** 0.5) + 1)):
            return q
        q += 1


# ------------------------------------------------------------ public API

def factor_over_Q(p: Polynomial):
    """Factor a rational-coefficient polynomial into monic irreducibles.

    Returns (unit, factors) with unit a Fraction, factors a sorted list of
    (monic Polynomial, multiplicity) pairs, and
    p == unit * prod(f**m).  Degrees above 12 raise DegreeTooLargeError.
    The squarefree part is factored by _zassenhaus, and each factor's
    multiplicity read by _multiplicities.
    """
    _require_rational(p)
    if p.is_zero():
        raise DegenerateError("cannot factor the zero polynomial")
    if p.degree > FACTOR_DEGREE_CAP:
        raise DegreeTooLargeError(
            "degree %d exceeds the factorization cap %d"
            % (p.degree, FACTOR_DEGREE_CAP))
    g, pieces = squarefree_part(p), []
    if g.degree:
        pieces = [Polynomial.from_rationals(p.ring, piece).monic()
                  for piece in _zassenhaus(_int_coeffs(g))]
    factors = _multiplicities(p, pieces)
    factors.sort(key=lambda pair: (pair[0].degree,
                                   [(x.rational_value().numerator,
                                     x.rational_value().denominator)
                                    for x in pair[0].coeffs]))
    return p.lc.rational_value(), factors


def _multiplicities(p: Polynomial, pieces: list) -> list:
    """(f, m) for each monic irreducible factor f of p's squarefree part,
    with m the multiplicity of f in p, read by repeated division.  The
    powers past the first share p's degree over its squarefree part, so a
    squarefree p takes no division."""
    spare = p.degree - sum(f.degree for f in pieces)
    out = []
    for f in pieces:
        m = 1
        if spare >= f.degree:
            q, r = divmod(p // f, f)
            while r.is_zero():
                m, spare = m + 1, spare - f.degree
                q, r = divmod(q, f)
        out.append((f, m))
    return out


def is_irreducible_over_Q(p: Polynomial) -> bool:
    """True when a rational polynomial of degree >= 1 is irreducible."""
    if p.degree < 1:
        return False
    _, factors = factor_over_Q(p)
    return len(factors) == 1 and factors[0][1] == 1 and \
        factors[0][0].degree == p.degree


def _prime_factors(n: int) -> list[int]:
    """The distinct primes of n >= 1, ascending, by trial division."""
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return primes + [n] if n > 1 else primes


def _totient(n: int) -> int:
    for p in _prime_factors(n):
        n = n // p * (p - 1)
    return n


def cyclotomic_coeffs(n: int) -> list[int]:
    """Integer coefficients of the n-th cyclotomic polynomial.

    Phi_n is the product over d | n of (t^d - 1)^mu(n/d); for n > 1 the
    exponents sum to 0, so it is the product of (1 - t^d)^mu(n/d) as a power
    series to degree phi(n).  A factor 1 - t^d subtracts the series shifted
    by d; dividing by it adds the shifted series back, lowest degree first.
    """
    if n < 1:
        raise DegenerateError("cyclotomic index must be >= 1")
    if n == 1:
        return [-1, 1]
    primes, deg = _prime_factors(n), _totient(n)
    series = [1] + [0] * deg
    for mask in range(1 << len(primes)):  # the squarefree n/d
        d, mu = n, 1
        for b, p in enumerate(primes):
            if mask >> b & 1:
                d, mu = d // p, -mu
        if mu == 1:
            for k in range(deg, d - 1, -1):
                series[k] -= series[k - d]
        else:
            for k in range(d, deg + 1):
                series[k] += series[k - d]
    return series


def _is_cyclotomic(p: Polynomial) -> bool:
    """True when a rational polynomial is Phi_n for some n >= 2.

    Such a Phi_n is integral and palindromic with constant term 1, which
    rules most polynomials out at once; the rest are compared with Phi_n
    for each n with phi(n) = deg, all at most 2 deg^2 as phi(n) >= sqrt(n/2).
    """
    cs = [c.rational_value() for c in p.coeffs]
    if any(c.denominator != 1 for c in cs) or cs[0] != 1 or cs != cs[::-1]:
        return False
    deg = p.degree
    return any(cyclotomic_coeffs(n) == cs
               for n in range(deg + 1, 2 * deg ** 2 + 1) if _totient(n) == deg)
