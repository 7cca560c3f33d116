"""Number field towers with exact arithmetic and explicit automorphisms.

A tower is either the rationals or an extension of a lower tower by a monic
minimal polynomial.  An element of a tower E is a tuple ``num`` of [E:Q]
Python ints over one positive int ``den``, its coordinates in the absolute
power-product basis (H. Cohen, GTM 138, sec. 4.2): index t*D + u,
D = [base:Q], stands for theta**t times base basis element u.  The pair is
always reduced, gcd(num..., den) = 1, so zero is (0, ..., 0)/1 and equal
elements have equal ``num`` and ``den``.  Each tower builds the product
table of that basis at most once, as integers over one table denominator,
so arithmetic never recurses through the levels and works on ints;
inverses are fraction-free (E. Bareiss, Math. Comp. 22, 1968).  That table
walk is the general rule.  Two common levels take a closed form on the
same pair instead: on Q every operator works on the single numerator, and
on a quadratic level over Q whose minimal polynomial t^2 + c1*t + c0 has
integer coefficients a product is four integer products, with
theta**2 = -c0 - c1*theta kept on the tower, and an inverse one division
by the norm; such a level builds its table only for a level built above
it.  A result over the denominator 1 skips the gcd.  The sparse loops
of linalg, liealg and decompose accumulate products through one fused
step, _addmul, which on those two levels forms acc + x*y in ints and
builds one element where the operators build two.  ``coords`` is a
read-only view of the power-basis coordinates over the level below.
``Fraction`` appears only where values enter or leave: parsing and
``from_rational``, ``rational_value`` and the ``vec`` view;
``format_element`` writes each coordinate from the ints, and
``sqrt_or_none`` solves its norm equations in integers on Q and
quadratic levels.  Every operation is exact, and automorphisms are
stored explicitly as generator images so group structure (closure,
composition tables) is validated at construction time; each one also
keeps its integer matrix on the absolute basis.

Automorphisms act as the identity on all strictly lower levels.  As a
consequence galois_group(E, F) can only realize the full relative degree
when F is the immediate base of E (or F = E); asking for a deeper fixed
level raises NotGaloisError.

Levels compare by identity first: lift_to, is_level_of, relative_degree,
the operators' pairing of mixed levels and Automorphism calls look for
the level itself, and only the one level of the same absolute degree
that is another object is compared by structure_key.  A tower is built
in integers: the product table and each automorphism's matrix, with an
image checked as a root by the matrix, take no structural comparison.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import add as _add, sub as _sub
from typing import Iterable, Optional, Sequence

from .errors import (
    DegenerateError,
    ManifestError,
    NonRootError,
    NotClosedError,
    NotGaloisError,
    NotSubLevelError,
    TowerMismatchError,
)
from .polynomials import (
    FACTOR_DEGREE_CAP,
    LITERAL_EXPONENT_CAP,
    LITERAL_NESTING_CAP,
    QUADRATIC_RADICAND_CAP,
    Polynomial,
    _is_cyclotomic,
    cyclotomic_coeffs,
    factor_over_Q,
    poly_gcd,
    squarefree_part,
)


class FieldTower:
    """One level of a field tower.  Treat instances as immutable."""

    __slots__ = ("base", "minpoly", "gen_name", "aut_images", "aut_table",
                 "n", "_table", "_tden", "_quad", "_aut_maps", "_hash",
                 "_skey", "_zero", "_one")

    def __init__(self, base: Optional["FieldTower"] = None,
                 minpoly: Optional[Polynomial] = None,
                 gen_name: Optional[str] = None):
        self.base = base
        self.minpoly = minpoly
        self.gen_name = gen_name
        self.aut_images: Optional[tuple] = None
        self.aut_table: Optional[tuple] = None
        # per automorphism index: (columns, denominator), see _aut_map
        self._aut_maps: Optional[tuple] = None
        self._hash = None
        self._skey = None
        self._zero = None
        self._one = None
        # (r0, r1) with theta**2 = r0 + r1*theta, for a quadratic over Q
        # with an integral minimal polynomial; None elsewhere
        self._quad = None
        # the product table of _product_table; on a _quad level, which
        # multiplies and inverts in closed form, built only for a level
        # above it (see _products)
        self._table = self._tden = None
        # n = [E:Q], the length of every element's coordinate tuple
        if base is None:
            self.n = 1
            self._table, self._tden = ((((0, 1),),),), 1
        else:
            self.n = base.n * minpoly.degree
            c0, c1 = minpoly.coeffs[:2]
            if self.n == 2 and c0.den == c1.den == 1:
                self._quad = (-c0.num[0], -c1.num[0])
            else:
                self._table, self._tden = _product_table(base, minpoly)

    # ------------------------------------------------------------ queries

    @property
    def is_rationals(self) -> bool:
        return self.base is None

    @property
    def degree(self) -> int:
        """Relative degree over the level below (1 at the bottom)."""
        return 1 if self.is_rationals else self.minpoly.degree

    def absolute_degree(self) -> int:
        return self.n

    def levels(self) -> tuple["FieldTower", ...]:
        """All levels bottom-up, ending with this tower."""
        chain = []
        level = self
        while level is not None:
            chain.append(level)
            level = level.base
        return tuple(reversed(chain))

    def _products(self) -> tuple:
        """(table, tden) of _product_table, built on first use."""
        if self._table is None:
            self._table, self._tden = _product_table(self.base, self.minpoly)
        return self._table, self._tden

    def is_galois(self) -> bool:
        if self.is_rationals:
            return True
        return len(self.aut_images) == self.degree

    def structure_key(self):
        """Nested plain-data key describing the whole tower.

        Equality and hashing go through this key: the automorphism images
        are elements of the tower itself, so comparing them as elements
        would recurse back into the tower comparison.
        """
        if self._skey is not None:
            return self._skey
        if self.is_rationals:
            self._skey = ("Q",)
            return self._skey
        images = (None if self.aut_images is None else
                  tuple((im.num, im.den) for im in self.aut_images))
        key = ("ext", self.gen_name,
               tuple((c.num, c.den) for c in self.minpoly.coeffs),
               images, self.base.structure_key())
        if images is not None:
            # only cache once construction has filled in the automorphisms
            self._skey = key
        return key

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, FieldTower):
            return NotImplemented
        return (self.n == other.n
                and self.structure_key() == other.structure_key())

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.structure_key())
        return self._hash

    def __repr__(self) -> str:
        if self.is_rationals:
            return "Q"
        return "%r(%s)" % (self.base, self.gen_name)

    # ------------------------------------------------------------ elements

    def _unit(self, k: int) -> "FieldElement":
        num = [0] * self.n
        num[k] = 1
        return FieldElement(self, tuple(num), 1)

    def from_rational(self, value) -> "FieldElement":
        if type(value) is not int:
            value = Fraction(value)
            num, den = value.numerator, value.denominator
        else:
            num, den = value, 1
        return FieldElement(self, (num,) + (0,) * (self.n - 1), den)

    def zero(self) -> "FieldElement":
        # built once per tower; elements are immutable, so it is shared
        if self._zero is None:
            self._zero = self.from_rational(0)
        return self._zero

    def one(self) -> "FieldElement":
        if self._one is None:
            self._one = self.from_rational(1)
        return self._one

    def generator(self) -> "FieldElement":
        if self.is_rationals:
            raise DegenerateError("the rationals have no generator")
        return self._unit(self.base.n)

    def element(self, coords: Sequence) -> "FieldElement":
        """Build an element from power-basis coordinates over the base."""
        if self.is_rationals:
            cs = list(coords)
            if len(cs) != 1:
                raise DegenerateError("rational element takes one coordinate")
            return self.from_rational(cs[0])
        parts = [lift_to(c, self.base) if isinstance(c, FieldElement)
                 else self.base.from_rational(c) for c in coords]
        if len(parts) > self.degree:
            raise DegenerateError("too many coordinates for degree %d"
                                  % self.degree)
        parts += [self.base.zero()] * (self.degree - len(parts))
        return _joined(self, parts)

    # ------------------------------------------------------------ automorphisms

    def automorphisms(self) -> tuple["Automorphism", ...]:
        if self.is_rationals:
            return (Automorphism(self, 0),)
        return tuple(Automorphism(self, i) for i in range(len(self.aut_images)))

    def identity_automorphism(self) -> "Automorphism":
        return Automorphism(self, 0)


def _product_table(base: FieldTower, minpoly: Polynomial) -> tuple:
    """Sparse products of the absolute basis of base(theta), over one
    denominator: returns (table, tden).

    Cell [a][b] lists the (k, c) with b_a * b_b = sum of (c / tden) * b_k,
    every c a nonzero int, where b_{t*D+u} = theta**t * (base basis element
    u).  So b_a * b_b = theta**s * (b_u * b_v) with s = t + t', and b_u * b_v
    comes from the base's own table.  With delta the product of the
    denominators of the minimal polynomial and of that table, delta * theta
    maps integer coordinates to integer coordinates, so every product is
    worked out in ints, each level reduced by its minimal polynomial once.
    """
    d, D = minpoly.degree, base.n
    n, top, last = d * D, (d - 1) * D, 2 * d - 2
    btable, btden = base._products()
    mden = lcm(*(m.den for m in minpoly.coeffs))
    delta = mden * btden
    # carry[u] = delta * theta**d * b_u = -delta * sum of theta**k * m_k b_u
    carry = []
    for u in range(D):
        out = [0] * n
        for k, m in enumerate(minpoly.coeffs[:d]):
            scale = mden // m.den
            for i, x in enumerate(m.num):
                if x:
                    for w, c in btable[i][u]:
                        out[k * D + w] -= x * scale * c
        carry.append(out)
    # high[w][j] = delta**(j+1) * theta**(d+j) * b_w, for d + j <= last
    high = []
    for vec in carry:
        chain = [vec]
        for _ in range(last - d):
            out = [0] * D + [delta * v for v in vec[:top]]
            for u, v in enumerate(vec[top:]):
                if v:
                    out = [o + v * c for o, c in zip(out, carry[u])]
            chain.append(out)
            vec = out
        high.append(chain)
    # b_{t*D+u} * b_{t'*D+v} = theta**(t+t') * b_u * b_v: cells[u*D+v][s],
    # sparse over btden * delta**last.  Below theta**d the product is
    # b_u * b_v moved up s levels; above, it combines high.
    top_scale = delta ** last
    cells = []
    for u in range(D):
        for v in range(D):
            entries = btable[u][v]
            by_s = [[(s * D + w, c * top_scale) for w, c in entries]
                    for s in range(d)]
            for s in range(d, last + 1):
                scale = delta ** (last - s + d - 1)
                out = [0] * n
                for w, c in entries:
                    f = c * scale
                    out = [o + f * x for o, x in zip(out, high[w][s - d])]
                by_s.append([(k, x) for k, x in enumerate(out) if x])
            cells.append(by_s)
    common = btden * delta ** last
    g = common if common == 1 else gcd(
        common, *(x for by_s in cells for cell in by_s for _, x in cell))
    if g != 1:
        cells = [[[(k, x // g) for k, x in cell] for cell in by_s]
                 for by_s in cells]
    sparse = [[tuple(cell) for cell in by_s] for by_s in cells]
    table = tuple([tuple([sparse[u * D + v][t + t2]
                          for t2 in range(d) for v in range(D)])
                   for t in range(d) for u in range(D)])
    return table, common // g


class FieldElement:
    """Element of a tower level, stored flat over one denominator.

    ``num`` holds [E:Q] ints and ``den`` one positive int: the coordinates
    in the absolute power-product basis are num[k] / den.
    ``FieldElement(field, num, den)`` takes that pair already in lowest
    terms, gcd(num..., den) = 1 with zero as (0, ..., 0)/1, and arithmetic
    keeps it so.  ``vec`` is the read-only view as a tuple of Fractions;
    ``coords`` the view over the level below: base elements, or the single
    Fraction at the bottom.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: FieldTower, num: tuple, den: int):
        self.field = field
        self.num = num
        self.den = den

    @property
    def vec(self) -> tuple:
        den = self.den
        return tuple(Fraction(v, den) for v in self.num)

    @property
    def coords(self) -> tuple:
        field = self.field
        if field.is_rationals:
            return self.vec
        base, D = field.base, field.base.n
        num, den = self.num, self.den
        return tuple(_reduced(base, num[k:k + D], den)
                     for k in range(0, field.n, D))

    # ------------------------------------------------------------ queries

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        """True when all coordinates above the bottom level vanish."""
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise DegenerateError("element is not rational: %s" % self)
        return Fraction(self.num[0], self.den)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return (self.num == other.num and self.den == other.den
                and self.field == other.field)

    def __hash__(self):
        return hash((self.field, self.num, self.den))

    def __repr__(self) -> str:
        return format_element(self)

    # ------------------------------------------------------------ arithmetic

    def _pair(self, other) -> tuple["FieldElement", "FieldElement"]:
        if isinstance(other, FieldElement):
            if self.field is other.field:
                return self, other
            if is_level_of(other.field, self.field):
                return self, lift_to(other, self.field)
            if is_level_of(self.field, other.field):
                return lift_to(self, other.field), other
            raise TowerMismatchError("elements of unrelated towers")
        if isinstance(other, (int, Fraction)):
            return self, self.field.from_rational(other)
        raise TypeError("cannot combine FieldElement with %r" % (other,))

    def __add__(self, other):
        if type(other) is FieldElement and other.field is self.field:
            a, b = self, other
        else:
            a, b = self._pair(other)
        return _combine(a.field, a.num, a.den, b.num, b.den, _add)

    __radd__ = __add__

    def __neg__(self):
        num = self.num
        if len(num) == 1:
            return FieldElement(self.field, (-num[0],), self.den)
        return FieldElement(self.field, tuple(-v for v in num), self.den)

    def __sub__(self, other):
        if type(other) is FieldElement and other.field is self.field:
            a, b = self, other
        else:
            a, b = self._pair(other)
        return _combine(a.field, a.num, a.den, b.num, b.den, _sub)

    def __rsub__(self, other):
        a, b = self._pair(other)
        return _combine(a.field, b.num, b.den, a.num, a.den, _sub)

    def __mul__(self, other):
        if type(other) is FieldElement and other.field is self.field:
            a, b = self, other
        else:
            a, b = self._pair(other)
        field = a.field
        if field.n == 1:
            num, den = a.num[0] * b.num[0], a.den * b.den
            if den == 1:
                return FieldElement(field, (num,), 1)
            g = gcd(num, den)
            return FieldElement(field, (num // g,), den // g)
        quad = field._quad
        if quad is not None:
            # (a0 + a1 theta)(b0 + b1 theta) with theta**2 = r0 + r1 theta
            (a0, a1), (b0, b1), (r0, r1) = a.num, b.num, quad
            t = a1 * b1
            return _reduced(field, (a0 * b0 + r0 * t,
                                    a0 * b1 + a1 * b0 + r1 * t),
                            a.den * b.den)
        table = field._table
        out = [0] * field.n
        bnum = b.num
        for i, x in enumerate(a.num):
            if x:
                row = table[i]
                for j, y in enumerate(bnum):
                    if y:
                        p = x * y
                        for k, c in row[j]:
                            out[k] += c * p
        return _reduced(field, out, a.den * b.den * field._tden)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        field, num, den = self.field, self.num, self.den
        n = field.n
        if n == 1:
            a = num[0]
            return (FieldElement(field, (den,), a) if a > 0
                    else FieldElement(field, (-den,), -a))
        quad = field._quad
        if quad is not None:
            # (a0 + a1 theta)(a0 + r1 a1 - a1 theta) = a0^2 + r1 a0 a1 -
            # r0 a1^2, the norm, with theta**2 = r0 + r1 theta
            (a0, a1), (r0, r1) = num, quad
            norm = a0 * a0 + r1 * a0 * a1 - r0 * a1 * a1
            if not norm:
                raise DegenerateError("minimal polynomial of %s is not "
                                      "irreducible" % field.gen_name)
            if norm < 0:
                norm, den = -norm, -den
            return _reduced(field, (den * (a0 + r1 * a1), -den * a1), norm)
        # x * b_c = sum of A[k][c] * b_k / (den * tden) for an integer
        # matrix A, so the inverse is den * tden * z with A z = e_0.
        # Bareiss elimination of [A | e_0] ends on the pivot D = +-det A;
        # D * z is an integer vector (Cramer), so the back substitution
        # that computes it divides exactly.
        table = field._table
        rows = [[0] * n + [1 if r == 0 else 0] for r in range(n)]
        for i, x in enumerate(num):
            if x:
                for c, cell in enumerate(table[i]):
                    for k, t in cell:
                        rows[k][c] += t * x
        prev = 1
        for c in range(n):
            sel = next((r for r in range(c, n) if rows[r][c]), None)
            if sel is None:
                raise DegenerateError("minimal polynomial of %s is not "
                                      "irreducible" % field.gen_name)
            rows[c], rows[sel] = rows[sel], rows[c]
            pivot = rows[c]
            p = pivot[c]
            for row in rows[c + 1:]:
                f = row[c]
                for j in range(c + 1, n + 1):
                    row[j] = (row[j] * p - f * pivot[j]) // prev
            prev = p
        sol = [0] * n
        for i in range(n - 1, -1, -1):
            row = rows[i]
            acc = prev * row[n]
            for j in range(i + 1, n):
                acc -= row[j] * sol[j]
            sol[i] = acc // row[i]
        scale = den * field._tden
        if prev < 0:
            prev, scale = -prev, -scale
        return _reduced(field, [v * scale for v in sol], prev)

    def __truediv__(self, other):
        a, b = self._pair(other)
        return a * b.inverse()

    def __rtruediv__(self, other):
        a, b = self._pair(other)
        return b * a.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out


def _reduced(field: FieldTower, num, den: int) -> FieldElement:
    """The element num / den (den > 0) in lowest terms."""
    if den == 1:
        return FieldElement(field, tuple(num), 1)
    g = gcd(den, *num)
    if g == 1:
        return FieldElement(field, tuple(num), den)
    return FieldElement(field, tuple(v // g for v in num), den // g)


def _combine(field: FieldTower, anum, aden: int, bnum, bden: int,
             op) -> FieldElement:
    """anum/aden op bnum/bden, coordinatewise, for op add or sub."""
    if aden == bden == 1:
        if field.n == 1:
            return FieldElement(field, (op(anum[0], bnum[0]),), 1)
        return FieldElement(field, tuple(map(op, anum, bnum)), 1)
    if field.n == 1:
        num, den = op(anum[0] * bden, bnum[0] * aden), aden * bden
        g = gcd(num, den)
        return FieldElement(field, (num // g,), den // g)
    if aden == bden:
        return _reduced(field, tuple(map(op, anum, bnum)), aden)
    g = gcd(aden, bden)
    s, t = bden // g, aden // g
    return _reduced(field, [op(x * s, y * t) for x, y in zip(anum, bnum)],
                    aden * s)


def _addmul(acc: dict, key, x: FieldElement, y: FieldElement,
            sub: bool = False) -> FieldElement:
    """Set acc[key] to acc[key] + x*y, or to acc[key] - x*y when sub is
    set, an absent key reading as zero, and return it.  On Q and on a
    _quad level, with x, y and acc[key] all of that level, the product and
    the sum are worked out in ints and build one element; anywhere else
    the operators do it."""
    field, prev = x.field, acc.get(key)
    if y.field is field and (prev is None or prev.field is field):
        den = x.den * y.den
        if field.n == 1:
            num = x.num[0] * y.num[0]
            if sub:
                num = -num
            if prev is not None:
                q = prev.den
                if q == den:
                    num += prev.num[0]
                else:
                    num, den = num * q + prev.num[0] * den, den * q
            if den != 1:
                g = gcd(num, den)
                num, den = num // g, den // g
            out = acc[key] = FieldElement(field, (num,), den)
            return out
        if field._quad is not None:
            (a0, a1), (b0, b1), (r0, r1) = x.num, y.num, field._quad
            t = a1 * b1
            n0, n1 = a0 * b0 + r0 * t, a0 * b1 + a1 * b0 + r1 * t
            if sub:
                n0, n1 = -n0, -n1
            if prev is not None:
                # over lcm(den, prev.den)
                (p0, p1), q = prev.num, prev.den
                g = gcd(den, q)
                s, u = q // g, den // g
                n0, n1, den = n0 * s + p0 * u, n1 * s + p1 * u, den * s
            out = acc[key] = _reduced(field, (n0, n1), den)
            return out
    t = x * y
    out = acc[key] = (-t if sub else t) if prev is None else (
        prev - t if sub else prev + t)
    return out


def _over(parts: Sequence[FieldElement], den: int) -> list:
    """The concatenated numerators of parts over den, a common multiple of
    their denominators."""
    return [v * (den // x.den) for x in parts for v in x.num]


def _joined(E: FieldTower, parts: Sequence[FieldElement]) -> FieldElement:
    """The E-element whose coordinates over a lower level are ``parts``.

    Over the lcm of the parts' denominators the result is in lowest terms:
    each prime power of it is a part's whole denominator, whose numerators
    that prime does not all divide.
    """
    den = lcm(*(x.den for x in parts))
    return FieldElement(E, tuple(_over(parts, den)), den)


# ---------------------------------------------------------------- tower maps

def is_level_of(F: FieldTower, E: FieldTower) -> bool:
    """True when F equals one of E's levels.

    Going down, each level has a smaller absolute degree, so only the level
    of F's degree can equal F.  It is compared by identity first, and by
    structure only when it is another object.
    """
    level, n = E, F.n
    while level.n > n:
        level = level.base
    return level is F or (level.n == n and level == F)


def relative_degree(E: FieldTower, F: FieldTower) -> int:
    """[E : F] along the tower; NotSubLevelError when F is not a level."""
    if not is_level_of(F, E):
        raise NotSubLevelError("%r is not a level of %r" % (F, E))
    return E.n // F.n


def lift_to(x: FieldElement, E: FieldTower) -> FieldElement:
    """Embed an element of a lower level into E (zero-padding coordinates)."""
    F = x.field
    if F is E:
        return x
    if not is_level_of(F, E):
        raise TowerMismatchError("%r is not a level of %r" % (F, E))
    if F.n == E.n:
        return x
    return FieldElement(E, x.num + (0,) * (E.n - F.n), x.den)


def coords_over(x: FieldElement, F: FieldTower) -> list[FieldElement]:
    """Power-product coordinates of x over the level F (flattened)."""
    if not is_level_of(F, x.field):
        raise NotSubLevelError("%r is not a level of %r" % (F, x.field))
    m, num, den = F.n, x.num, x.den
    return [_reduced(F, num[k:k + m], den) for k in range(0, x.field.n, m)]


def power_basis_over(E: FieldTower, F: FieldTower) -> list[FieldElement]:
    """The E-elements whose F-coordinates are the standard basis.

    Ordered to match coords_over: index t*D + u corresponds to
    theta**t * (inner basis element u), D = [base(E):F].
    """
    return [E._unit(s * F.n) for s in range(relative_degree(E, F))]


def from_coords_over(E: FieldTower, F: FieldTower,
                     cs: Sequence[FieldElement]) -> FieldElement:
    """Rebuild an E-element from its flattened F-coordinates."""
    m = relative_degree(E, F)
    if len(cs) != m:
        raise DegenerateError("coordinate count %d, expected %d"
                              % (len(cs), m))
    return _joined(E, cs)


def eval_poly_at(p: Polynomial, x: FieldElement) -> FieldElement:
    """Evaluate p at x, lifting coefficients from p's level into x's field."""
    E, coeffs = x.field, p.coeffs
    if not coeffs:
        return E.zero()
    acc = lift_to(coeffs[-1], E)
    for c in reversed(coeffs[:-1]):
        acc = acc * x + lift_to(c, E)
    return acc


# ---------------------------------------------------------------- automorphisms

@dataclass(frozen=True)
class Automorphism:
    """A relative automorphism of one tower level, identity below it."""

    field: FieldTower
    index: int

    @property
    def image(self) -> Optional[FieldElement]:
        if self.field.is_rationals:
            return None
        return self.field.aut_images[self.index]

    def is_identity(self) -> bool:
        return self.index == 0

    def __call__(self, x: FieldElement) -> FieldElement:
        field = self.field
        if x.field is not field and not is_level_of(x.field, field):
            raise TowerMismatchError(
                "automorphism of %r cannot act on an element of %r"
                % (field, x.field))
        # the identity, and every automorphism below its own level
        if self.index == 0 or field.is_rationals or x.field.n < field.n:
            return x
        return _mapped(field, field._aut_maps[self.index], x)

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self after other."""
        if self.field != other.field:
            raise TowerMismatchError("automorphisms of different towers")
        if self.field.is_rationals:
            return self
        k = self.field.aut_table[self.index][other.index]
        return Automorphism(self.field, k)

    def __repr__(self) -> str:
        if self.field.is_rationals or self.index == 0:
            return "id"
        return "%s->%s" % (self.field.gen_name, format_element(self.image))


def _aut_map(image: FieldElement) -> tuple:
    """The map theta -> image on the absolute basis, over one denominator,
    and image**d, d the relative degree: ((columns, mden), image**d), where
    columns[c] lists the (k, m) with sigma(b_c) = sum of (m / mden) * b_k,
    every m a nonzero int.

    sigma fixes the base, so sigma(b_{t*D+u}) = image**t * b_u.
    """
    E = image.field
    units = [E._unit(u) for u in range(E.base.n)]
    cols = list(units)
    power = image
    for _ in range(1, E.degree):
        cols.append(power)
        cols += [power * unit for unit in units[1:]]
        power = power * image
    mden = lcm(*(x.den for x in cols))
    return ((tuple([tuple([(k, m * (mden // x.den))
                           for k, m in enumerate(x.num) if m])
                    for x in cols]), mden), power)


def _mapped(field: FieldTower, aut_map: tuple,
            x: FieldElement) -> FieldElement:
    """x under the automorphism of field with matrix aut_map (see
    _aut_map)."""
    columns, mden = aut_map
    out = [0] * field.n
    for c, v in enumerate(x.num):
        if v:
            for k, m in columns[c]:
                out[k] += m * v
    return _reduced(field, out, x.den * mden)


@dataclass(frozen=True)
class GaloisGroup:
    """Relative automorphism group with its composition table."""

    field: FieldTower
    fixed: FieldTower
    elements: tuple[Automorphism, ...]
    table: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def identity(self) -> Automorphism:
        return self.elements[0]

    def compose(self, i: int, j: int) -> int:
        return self.table[i][j]


def galois_group(E: FieldTower, F: FieldTower) -> GaloisGroup:
    """Automorphisms of E fixing the tower level F, with composition table.

    Because automorphisms fix everything below their own level, the full
    relative degree is only reachable for F = E (trivial group) or F the
    immediate base of E; anything deeper cannot be Galois here.
    """
    if not is_level_of(F, E):
        raise NotSubLevelError("%r is not a level of %r" % (F, E))
    if E == F:
        ident = E.identity_automorphism()
        return GaloisGroup(E, F, (ident,), ((0,),))
    count = len(E.aut_images)
    needed = relative_degree(E, F)
    if F != E.base or count != needed:
        raise NotGaloisError(
            "|Aut(E fixing F)| = %d < [E:F] = %d"
            % (count if F == E.base else min(count, needed - 1), needed))
    return GaloisGroup(E, F, E.automorphisms(), E.aut_table)


def fixed_by_group(x: FieldElement, G: GaloisGroup) -> bool:
    """True when every group element fixes x."""
    return all(sigma(x) == x for sigma in G.elements)


def minpoly_of(x: FieldElement, F: FieldTower) -> Polynomial:
    """Monic minimal polynomial of x over the tower level F: the first
    relation among the F-coordinates of 1, x, x^2, ..., which the
    [E:F] + 1 powers of x always have."""
    from . import linalg

    E = x.field
    if not is_level_of(F, E):
        raise NotSubLevelError("%r is not a level of %r" % (F, E))

    def powers():
        power = E.one()
        while True:
            yield linalg.sparse(coords_over(power, F))
            power = power * x

    poly = linalg.krylov_relation(powers(), F, relative_degree(E, F))
    assert eval_poly_at(poly, x).is_zero()
    return poly


# ---------------------------------------------------------------- constructors

_QQ = FieldTower()


def rationals() -> FieldTower:
    """The bottom level of every tower."""
    return _QQ


def field_extend(base: FieldTower, minpoly: Polynomial, gen_name: str,
                 images: Iterable[Sequence]) -> FieldTower:
    """Extend a tower by a monic minimal polynomial and automorphism images.

    images: one coordinate sequence per relative automorphism (power-basis
    coordinates of the generator image over base).  The identity image must
    be among them; entries are validated as roots and closed under
    composition.  A minimal polynomial that factor does not prove
    irreducible is refused, one that factors and one whose proof meets
    the factorization cap alike.
    """
    if minpoly.ring != base:
        raise TowerMismatchError("minimal polynomial not over the base level")
    if minpoly.degree < 2:
        raise DegenerateError("extension degree must be >= 2")
    if not minpoly.is_monic():
        raise DegenerateError("minimal polynomial must be monic")
    if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", gen_name or ""):
        raise DegenerateError("generator name %r is not an identifier"
                              % (gen_name,))
    if gen_name in tuple(l.gen_name for l in base.levels()
                         if not l.is_rationals):
        raise DegenerateError("generator name %r already used in the tower"
                              % (gen_name,))
    _check_irreducible(base, minpoly)

    tower = FieldTower(base, minpoly, gen_name)
    gen = tower.generator()
    # theta**d = -(sum of m_k theta**k); sigma's matrix takes it to
    # -(sum of m_k image**k), so an image is a root exactly when that is
    # image**d
    theta_d = _joined(tower, [-m for m in minpoly.coeffs[:-1]])
    # images and maps are keyed by (num, den): hashing an element hashes
    # its tower, whose automorphisms are not filled in yet.  The
    # generator's map is the identity matrix.
    identity = tuple(((c, 1),) for c in range(tower.n)), 1
    elems, maps = [], {(gen.num, gen.den): identity}
    for coords in images:
        if isinstance(coords, FieldElement):
            img = coords if coords.field is tower else tower.element([coords])
        else:
            img = tower.element(coords)
        key = (img.num, img.den)
        if key not in maps:
            amap, top = _aut_map(img)
            if _mapped(tower, amap, theta_d) != top:
                raise NonRootError("claimed image %s is not a root of the "
                                   "minimal polynomial" % format_element(img))
            maps[key] = amap
        elems.append(img)
    if gen not in elems:
        raise DegenerateError("automorphism list must contain the identity "
                              "image %s" % gen_name)
    ordered = [gen] + [e for e in elems if e != gen]
    index = {(e.num, e.den): k for k, e in enumerate(ordered)}
    if len(index) != len(elems):
        raise DegenerateError("duplicate automorphism images")
    if len(elems) > minpoly.degree:
        raise DegenerateError("more automorphisms than the degree allows")
    maps = [maps[(e.num, e.den)] for e in ordered]
    # a after b sends theta to a(b(theta)); every image is a root, so each
    # map is a field embedding and the composite is exact.  The identity's
    # row and column need no check.
    table = [tuple(range(len(ordered)))]
    for i, a in enumerate(maps[1:], start=1):
        row = [i]
        for b in ordered[1:]:
            composed = _mapped(tower, a, b)
            k = index.get((composed.num, composed.den))
            if k is None:
                raise NotClosedError(
                    "composition of automorphisms leaves the given list "
                    "(image %s)" % format_element(composed))
            row.append(k)
        table.append(tuple(row))
    tower.aut_images = tuple(ordered)
    tower.aut_table = tuple(table)
    tower._aut_maps = tuple(maps)
    return tower


def _check_irreducible(base: FieldTower, minpoly: Polynomial) -> None:
    """Refuse a minimal polynomial that factor does not prove irreducible.
    Above Q, one of degree at most 3 that factors has a root in the base."""
    factors = factor(minpoly)
    if factors is None:
        raise DegenerateError(
            "minimal polynomial is not proved irreducible: its factoring "
            "needs a norm over the factorization cap %d" % FACTOR_DEGREE_CAP)
    if len(factors) > 1 or factors[0][1] > 1:
        raise DegenerateError(
            "minimal polynomial is reducible over Q" if base.is_rationals
            else "minimal polynomial has a root in the base"
            if minpoly.degree <= 3 else
            "minimal polynomial factors over the base")


def quadratic_field(d, name: Optional[str] = None) -> FieldTower:
    """Q(sqrt(d)) for a squarefree integer d not in {0, 1} with |d| at most
    QUADRATIC_RADICAND_CAP, with Gal = Z/2."""
    d = Fraction(d)
    if d.denominator != 1 or d in (0, 1):
        raise DegenerateError("quadratic_field takes an integer not in {0,1}")
    n = int(d)
    if abs(n) > QUADRATIC_RADICAND_CAP:
        raise DegenerateError("quadratic_field takes |d| <= %d"
                              % QUADRATIC_RADICAND_CAP)
    k = 2
    while k * k <= abs(n):
        if n % (k * k) == 0:
            raise DegenerateError("%d is not squarefree" % n)
        k += 1
    if name is None:
        name = "i" if n == -1 else ("r%d" % n if n > 0 else "j%d" % -n)
    Q = rationals()
    minpoly = Polynomial.from_rationals(Q, [-n, 0, 1])
    return field_extend(Q, minpoly, name, [(0, 1), (0, -1)])


def gaussian_rationals() -> FieldTower:
    """Q(i)."""
    return quadratic_field(-1)


def cyclotomic_field(n: int, name: Optional[str] = None) -> FieldTower:
    """Q(zeta_n) for 3 <= n <= 12, automorphisms zeta -> zeta^k discovered."""
    if not 3 <= n <= 12:
        raise DegenerateError("cyclotomic_field supports 3 <= n <= 12")
    if name is None:
        name = "z%d" % n
    coeffs = cyclotomic_coeffs(n)
    # zeta**k as integer coordinates, one multiplication by zeta at a time
    power, images = [1] + [0] * (len(coeffs) - 2), []
    for k in range(1, n):
        top, power = power[-1], [0] + power[:-1]
        if top:
            power = [p - top * c for p, c in zip(power, coeffs)]
        if gcd(k, n) == 1:
            images.append(power)
    Q = rationals()
    return field_extend(Q, Polynomial.from_rationals(Q, coeffs), name, images)


# ---------------------------------------------------------------- square roots

def sqrt_or_none(x: FieldElement) -> Optional[FieldElement]:
    """An exact square root of x in its own field, or None: on Q and on
    quadratic levels by norm equations in integers, elsewhere the first
    root of t^2 - x that factor finds (None also at factor's cap)."""
    field = x.field
    if field.is_rationals:
        # num and den are coprime, so their roots are too
        rn, rd = _exact_isqrt(x.num[0]), _exact_isqrt(x.den)
        return (None if rn is None or rd is None
                else FieldElement(field, (rn,), rd))
    if not field.base.is_rationals or field.degree != 2:
        return next(iter(roots_in_field(Polynomial(
            field, [-x, field.zero(), field.one()]))), None)
    # theta**2 + (P/m) theta + Q/m = 0, so phi = 2m theta + P has
    # phi**2 = delta = P**2 - 4mQ.  With k = 2m den, k**2 x = A + B phi
    # for integers A and B, and s + t phi squares to it exactly when
    # s**2 + t**2 delta = A and 2st = B; each candidate root is listed as
    # integer coordinates over theta and a denominator, k times too large.
    c0, c1 = field.minpoly.coeffs[:2]
    m = lcm(c0.den, c1.den)
    P, Q = c1.num[0] * (m // c1.den), c0.num[0] * (m // c0.den)
    delta = P * P - 4 * m * Q
    (a0, a1), k = x.num, 2 * m * x.den
    A, B = k * (2 * m * a0 - a1 * P), k * a1
    candidates = []
    if B == 0:
        # t = 0 and s**2 = A, or s = 0 and t**2 = A delta / delta**2
        S = _exact_isqrt(A)
        if S is not None:
            candidates.append(((S, 0), k))
        T = _exact_isqrt(A * delta) if delta else None
        if T is not None:
            candidates.append(((T * P, 2 * m * T), abs(delta) * k))
    else:
        # s**2 = (A +- r) / 2 with r**2 the norm A**2 - B**2 delta; with
        # s = S/2 (S > 0), t = B/S
        r = _exact_isqrt(A * A - B * B * delta)
        if r is not None:
            for M in (A + r, A - r):
                S = _exact_isqrt(2 * M)
                if S:
                    candidates.append(((S * S + 2 * B * P, 4 * m * B),
                                       2 * S * k))
    for num, den in candidates:
        cand = _reduced(field, num, den)
        if cand * cand == x:
            return cand
    return None


def _exact_isqrt(n: int) -> Optional[int]:
    """The r >= 0 with r * r == n, or None."""
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None


# ---------------------------------------------------------------- factoring

def roots_in_field(p: Polynomial) -> list:
    """The roots of p in its own coefficient field, those of its linear
    factors in factor's order; none where factor stops at the cap."""
    return [-f.coeffs[0] for f, _m in factor(p) or () if f.degree == 1]


def factor(p: Polynomial) -> Optional[list]:
    """The monic irreducible factors of p over its own field E, as
    (factor, multiplicity) pairs, or None where FACTOR_DEGREE_CAP stops
    the proof.  Linear factors come first, those with a rational root
    ascending, then the others in the order found.

    Four rules, in order.  A quadratic over Q or a quadratic level is
    split by its discriminant (see _split).  Over Q, a cyclotomic Phi_n
    is irreducible (Gauss), and any other p up to the cap is factored.  A
    p with coefficients in the base B is factored over B, and each factor
    h lifted to E: one whose degree is prime to [E:B] stays irreducible
    there, and the others are split by _split.  Any other p is split by
    _split through its squarefree part.
    """
    E, B, p = p.ring, p.ring.base, p.monic()
    if p.degree < 2:
        return [(p, 1)] if p.degree == 1 else []
    if p.degree == 2 and E.n <= 2:
        pieces = _split(p)  # t - r twice for a double root r
        return ([(pieces[0], 2)] if pieces[1:] == pieces[:1]
                else _ordered([(f, 1) for f in pieces]))
    if B is None:
        if _is_cyclotomic(p):
            return [(p, 1)]
        if p.degree > FACTOR_DEGREE_CAP:
            return None
        return _ordered(factor_over_Q(p)[1])
    if not any(v for c in p.coeffs for v in c.num[B.n:]):
        below = factor(Polynomial(B, [FieldElement(B, c.num[:B.n], c.den)
                                      for c in p.coeffs]))
        out = []
        for h, m in below or ():
            h = Polynomial(E, [lift_to(c, E) for c in h.coeffs])
            pieces = [h] if gcd(h.degree, E.degree) == 1 else _split(h)
            if pieces is None:
                return None
            out += [(f, m) for f in pieces]
        return None if below is None else _ordered(out)
    g = squarefree_part(p)
    pieces = _split(g)
    if pieces is None:
        return None
    out = []
    for f in pieces:
        m = 1
        while g.degree < p.degree and (p % f ** (m + 1)).is_zero():
            m += 1
        out.append((f, m))
    return _ordered(out)


def _ordered(pairs: list) -> list:
    """factor's order: linear factors first, those with a rational root
    ascending, then the others as they come."""
    def key(pair):
        f = pair[0]
        if f.degree > 1:
            return 2, 0
        c = f.coeffs[0]
        return (0, -c.rational_value()) if c.is_rational() else (1, 0)
    return sorted(pairs, key=key)


def _split(g: Polynomial) -> Optional[list]:
    """The monic irreducible factors of a monic squarefree g over E =
    B(theta), or None where factor stops at the cap.

    A quadratic t^2 + bt + c over Q or a quadratic level splits exactly
    when sqrt_or_none finds a root s of its discriminant, as
    (t + (b - s)/2)(t + (b + s)/2).  Otherwise, Trager's norm (SYMSAC
    1976): for the first shift s in 1..5 with N = N_{E/B}(g(x - s theta))
    squarefree, N is factored over B, and each factor h of N gives the
    factor gcd(g(x - s theta), h)(x + s theta) of g.  N has degree
    deg g * [E:B] and is interpolated from its values at 0, 1, ..., each
    the field norm of g(r - s theta), a determinant over B.
    """
    from . import linalg

    E = g.ring
    if g.degree == 1:
        return [g]
    if g.degree == 2 and E.n <= 2:
        c, b = g.coeffs[:2]
        s = sqrt_or_none(b * b - 4 * c)
        return [g] if s is None else [Polynomial(E, [(b + t) / 2, E.one()])
                                      for t in (-s, s)]
    B, theta = E.base, E.generator()
    powers = [theta ** k for k in range(E.degree)]
    for s in range(1, 6):
        shifted = _shifted(g, theta * -s)
        values = (shifted.eval(E.from_rational(r))
                  for r in range(g.degree * E.degree + 1))
        N = _interpolated(B, [linalg.det([(a * t).coords for t in powers], B)
                              for a in values])
        if poly_gcd(N, N.derivative()).degree > 0:
            continue
        below = factor(N)
        if below is None:
            return None
        return [_shifted(poly_gcd(shifted, Polynomial(
            E, [lift_to(c, E) for c in h.coeffs])), theta * s)
            for h, _m in below]
    return None


def _shifted(g: Polynomial, c: FieldElement) -> Polynomial:
    """g(x + c), by Horner's rule."""
    E = g.ring
    step, out = Polynomial(E, [c, E.one()]), Polynomial.zero(E)
    for a in reversed(g.coeffs):
        out = out * step + Polynomial(E, [a])
    return out


def _interpolated(B: FieldTower, values: list) -> Polynomial:
    """The polynomial over B of degree below len(values) that takes
    values[r] at r = 0, 1, ...: Newton's form, whose k-th coefficient is
    the k-th forward difference at 0 over k!, multiplied out."""
    coeffs, row = [], values
    for k in range(len(values)):
        coeffs.append(row[0])
        row = [(b - a) * B.from_rational(Fraction(1, k + 1))
               for a, b in zip(row, row[1:])]
    out = Polynomial.zero(B)
    for k in range(len(coeffs) - 1, -1, -1):
        out = out * Polynomial(B, [B.from_rational(-k), B.one()]) + \
            Polynomial(B, [coeffs[k]])
    return out


# ---------------------------------------------------------------- text form

_TOKEN = re.compile(r"\s*(?:(\d+(?:/\d+)?)|([A-Za-z_][A-Za-z_0-9]*)"
                    r"|(\^)|(\*)|(\+)|(-)|(\()|(\)))")
_TOKEN_KINDS = ("num", "name", "pow", "mul", "add", "sub", "lpar", "rpar")


def parse_element(text: str, field: FieldTower) -> FieldElement:
    """Parse an element literal like "1+1i" or "3/2r2^1-2" against a tower."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == m.start():
            raise ManifestError("cannot tokenize element literal at %r"
                                % text[pos:])
        pos = m.end()
        tokens.append((_TOKEN_KINDS[m.lastindex - 1], m[m.lastindex]))
    # the generators, lifted to field only when the literal names one
    names = {}
    if any(kind == "name" for kind, _ in tokens):
        for level in field.levels()[1:]:
            names[level.gen_name] = lift_to(level.generator(), field)
    # "nest": largest product of exponents nested in the current group
    state = {"i": 0, "nest": 1, "depth": 0}

    def peek():
        return tokens[state["i"]] if state["i"] < len(tokens) else (None, None)

    def take(kind):
        k, v = peek()
        if k != kind:
            raise ManifestError("expected %s in element literal %r" %
                                (kind, text))
        state["i"] += 1
        return v

    def parse_expr():
        k, _ = peek()
        if k in ("add", "sub"):
            take(k)
        acc = -parse_term() if k == "sub" else parse_term()
        while True:
            k, _ = peek()
            if k == "add":
                take("add")
                acc = acc + parse_term()
            elif k == "sub":
                take("sub")
                acc = acc - parse_term()
            else:
                return acc

    def parse_term():
        acc = parse_atom()
        while True:
            k, _ = peek()
            if k == "mul":
                take("mul")
                acc = acc * parse_atom()
            elif k in ("name", "lpar"):
                acc = acc * parse_atom()
            else:
                return acc

    def parse_atom():
        k, v = peek()
        nest = 1
        if k == "num":
            take("num")
            try:
                value = Fraction(v) if "/" in v else int(v)
            except (ValueError, ZeroDivisionError) as exc:
                # int() refuses numerals over the interpreter's digit limit
                raise ManifestError("bad number in element literal: %s"
                                    % exc) from exc
            base = field.from_rational(value)
        elif k == "name":
            take("name")
            if v not in names:
                raise ManifestError("unknown generator %r in literal %r"
                                    % (v, text))
            base = names[v]
        elif k == "lpar":
            take("lpar")
            if state["depth"] == LITERAL_NESTING_CAP:
                raise ManifestError("element literal parentheses nest over "
                                    "the cap %d" % LITERAL_NESTING_CAP)
            state["depth"] += 1
            outer, state["nest"] = state["nest"], 1
            base = parse_expr()
            nest, state["nest"] = state["nest"], outer
            state["depth"] -= 1
            take("rpar")
        else:
            raise ManifestError("unexpected token in element literal %r"
                                % text)
        k, _ = peek()
        if k == "pow":
            take("pow")
            e = take("num")
            if "/" in e:
                raise ManifestError("exponent must be an integer in %r" % text)
            # a numeral longer than the cap's is over it; int() reads the
            # numeral without its leading zeros, which count towards the
            # interpreter's digit limit
            digits = e.lstrip("0") or "0"
            if (len(digits) > len(str(LITERAL_EXPONENT_CAP))
                    or nest * int(digits) > LITERAL_EXPONENT_CAP):
                raise ManifestError("element literal exponent over the cap "
                                    "%d (nested exponents multiply)"
                                    % LITERAL_EXPONENT_CAP)
            power = int(digits)
            nest *= power
            base = base ** power
        state["nest"] = max(state["nest"], nest)
        return base

    result = parse_expr()
    if state["i"] != len(tokens):
        raise ManifestError("trailing tokens in element literal %r" % text)
    return result


def format_element(x: FieldElement) -> str:
    """Canonical literal; parse_element(format_element(x), x.field) == x."""
    return _format(x.field, x.num, x.den)


def _format(field: FieldTower, num: Sequence[int], den: int) -> str:
    """format_element of the element num / den of field, written from the
    ints: each coordinate over the level below is num's slice over den,
    and a rational one is put in lowest terms on its own."""
    if field.is_rationals:
        return _ratio(num[0], den)
    D, pieces = field.base.n, []
    for k in range(field.degree):
        part = num[k * D:(k + 1) * D]
        if not any(part):
            continue
        gen_part = ("" if k == 0 else field.gen_name if k == 1
                    else "%s^%d" % (field.gen_name, k))
        if any(part[1:]):
            pieces.append("+(%s)%s" % (_format(field.base, part, den),
                                       gen_part))
        else:
            v = part[0]
            pieces.append("%s%s%s" % ("-" if v < 0 else "+",
                                      _ratio(abs(v), den), gen_part))
    out = "".join(pieces) or "0"
    return out[1:] if out[0] == "+" else out


def _ratio(num: int, den: int) -> str:
    """The Fraction num / den as str writes it."""
    g = gcd(num, den)
    return "%d" % (num // g) if g == den else "%d/%d" % (num // g, den // g)
