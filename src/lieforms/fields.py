"""Number field towers with exact arithmetic and explicit automorphisms.

A tower is either the rationals or an extension of a lower tower by a monic
minimal polynomial.  An element of a tower E is one flat tuple of [E:Q]
Fractions, its coordinates in the absolute power-product basis (H. Cohen,
GTM 138, sec. 4.2): index t*D + u, D = [base:Q], stands for theta**t times
base basis element u.  Each tower builds the product table of that basis
once, so arithmetic never recurses through the levels; ``coords`` is a
read-only view of the power-basis coordinates over the level below.  Every
operation is exact, and automorphisms are stored explicitly as generator
images so group structure (closure, composition tables) is validated at
construction time.

Automorphisms act as the identity on all strictly lower levels.  As a
consequence galois_group(E, F) can only realize the full relative degree
when F is the immediate base of E (or F = E); asking for a deeper fixed
level raises NotGaloisError.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add as _add, neg as _neg, sub as _sub
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
    LITERAL_EXPONENT_CAP,
    Polynomial,
    is_irreducible_over_Q,
)


# Product-table coefficients equal to 1 or -1 are these objects, and fresh
# accumulators start as _ZERO, so arithmetic tests them by identity and
# skips a Fraction product or sum.
_ZERO, _ONE, _MINUS_ONE = Fraction(0), Fraction(1), Fraction(-1)


class FieldTower:
    """One level of a field tower.  Treat instances as immutable."""

    __slots__ = ("base", "minpoly", "gen_name", "aut_images", "aut_table",
                 "n", "_table", "_hash", "_skey", "_zero", "_one")

    def __init__(self, base: Optional["FieldTower"] = None,
                 minpoly: Optional[Polynomial] = None,
                 gen_name: Optional[str] = None):
        self.base = base
        self.minpoly = minpoly
        self.gen_name = gen_name
        self.aut_images: Optional[tuple] = None
        self.aut_table: Optional[tuple] = None
        self._hash = None
        self._skey = None
        self._zero = None
        self._one = None
        # n = [E:Q], the length of every element's coordinate tuple
        if base is None:
            self.n = 1
            self._table = ((((0, _ONE),),),)
        else:
            self.n = base.n * minpoly.degree
            self._table = _product_table(base, minpoly)

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
                  tuple(im.vec for im in self.aut_images))
        key = ("ext", self.gen_name,
               tuple(c.vec for c in self.minpoly.coeffs),
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
        return self.structure_key() == other.structure_key()

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
        vec = [_ZERO] * self.n
        vec[k] = _ONE
        return FieldElement(self, tuple(vec))

    def from_rational(self, value) -> "FieldElement":
        return FieldElement(self, (Fraction(value),) + (_ZERO,) * (self.n - 1))

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
            return FieldElement(self, (Fraction(cs[0]),))
        vec = []
        for c in coords:
            if isinstance(c, FieldElement):
                vec.extend(lift_to(c, self.base).vec)
            else:
                vec.extend(self.base.from_rational(c).vec)
        if len(vec) > self.n:
            raise DegenerateError("too many coordinates for degree %d"
                                  % self.degree)
        return FieldElement(self, tuple(vec) + (_ZERO,) * (self.n - len(vec)))

    # ------------------------------------------------------------ automorphisms

    def automorphisms(self) -> tuple["Automorphism", ...]:
        if self.is_rationals:
            return (Automorphism(self, 0),)
        return tuple(Automorphism(self, i) for i in range(len(self.aut_images)))

    def identity_automorphism(self) -> "Automorphism":
        return Automorphism(self, 0)


def _product_table(base: FieldTower, minpoly: Polynomial) -> tuple:
    """Sparse products of the absolute basis of base(theta).

    Cell [a][b] lists the (k, c) with b_a * b_b = sum of c * b_k, where
    b_{t*D+u} = theta**t * (base basis element u).  Built with the base's
    own table, so each level is reduced by its minimal polynomial once.
    """
    d, D = minpoly.degree, base.n
    zero = base.zero()
    # theta**s for s <= 2d-2, as power-basis coordinates over the base
    powers = [[base.one()] + [zero] * (d - 1)]
    for _ in range(2 * d - 2):
        prev = powers[-1]
        top = prev[-1]
        col = [zero] + prev[:-1]
        if not top.is_zero():
            col = [c - top * m for c, m in zip(col, minpoly.coeffs)]
        powers.append(col)
    units = [base._unit(u) for u in range(D)]
    table = []
    for a in range(d * D):
        t1, u1 = divmod(a, D)
        row = []
        for b in range(d * D):
            t2, u2 = divmod(b, D)
            p = units[u1] * units[u2]
            vec = [c for r in powers[t1 + t2] for c in (r * p).vec]
            row.append(tuple((k, _ONE if c == 1 else _MINUS_ONE if c == -1
                              else c) for k, c in enumerate(vec) if c))
        table.append(tuple(row))
    return tuple(table)


class FieldElement:
    """Element of a tower level, stored flat.

    ``vec`` holds the [E:Q] rational coordinates in the absolute
    power-product basis; ``FieldElement(field, vec)`` takes exactly that
    tuple of Fractions.  ``coords`` is the read-only view over the level
    below: base elements, or the single Fraction at the bottom.
    """

    __slots__ = ("field", "vec")

    def __init__(self, field: FieldTower, vec: tuple):
        self.field = field
        self.vec = vec

    @property
    def coords(self) -> tuple:
        field = self.field
        if field.is_rationals:
            return self.vec
        base, D = field.base, field.base.n
        return tuple(FieldElement(base, self.vec[k:k + D])
                     for k in range(0, field.n, D))

    # ------------------------------------------------------------ queries

    def is_zero(self) -> bool:
        return not any(self.vec)

    def is_rational(self) -> bool:
        """True when all coordinates above the bottom level vanish."""
        return not any(self.vec[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise DegenerateError("element is not rational: %s" % self)
        return self.vec[0]

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.vec == other.vec

    def __hash__(self):
        return hash((self.field, self.vec))

    def __repr__(self) -> str:
        return format_element(self)

    # ------------------------------------------------------------ arithmetic

    def _pair(self, other) -> tuple["FieldElement", "FieldElement"]:
        if isinstance(other, FieldElement):
            if self.field is other.field or self.field == other.field:
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
        a, b = self._pair(other)
        return FieldElement(a.field, tuple(map(_add, a.vec, b.vec)))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(map(_neg, self.vec)))

    def __sub__(self, other):
        a, b = self._pair(other)
        return FieldElement(a.field, tuple(map(_sub, a.vec, b.vec)))

    def __rsub__(self, other):
        a, b = self._pair(other)
        return FieldElement(a.field, tuple(map(_sub, b.vec, a.vec)))

    def __mul__(self, other):
        a, b = self._pair(other)
        field = a.field
        table = field._table
        out = [_ZERO] * field.n
        for i, x in enumerate(a.vec):
            if x:
                row = table[i]
                for j, y in enumerate(b.vec):
                    if y:
                        p = x * y
                        for k, c in row[j]:
                            t = p if c is _ONE else -p if c is _MINUS_ONE \
                                else c * p
                            acc = out[k]
                            out[k] = t if acc is _ZERO else acc + t
        return FieldElement(field, tuple(out))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        field = self.field
        n, table = field.n, field._table
        # Solve M y = e_0 over Q, where column c of M holds the coordinates
        # of x * b_c: then x * y = 1.
        rows = [[_ZERO] * n + [_ONE if r == 0 else _ZERO] for r in range(n)]
        for i, x in enumerate(self.vec):
            if x:
                for c, cell in enumerate(table[i]):
                    for k, t in cell:
                        t = x if t is _ONE else t * x
                        acc = rows[k][c]
                        rows[k][c] = t if acc is _ZERO else acc + t
        for c in range(n):
            sel = next((r for r in range(c, n) if rows[r][c]), None)
            if sel is None:
                raise DegenerateError("minimal polynomial of %s is not "
                                      "irreducible" % field.gen_name)
            rows[c], rows[sel] = rows[sel], rows[c]
            inv = _ONE / rows[c][c]
            pivot = [a * inv if a else a for a in rows[c][c + 1:]]
            rows[c][c + 1:] = pivot
            for r in range(n):
                f = rows[r][c]
                if r != c and f:
                    rows[r][c + 1:] = [a - f * b if b else a for a, b in
                                       zip(rows[r][c + 1:], pivot)]
        return FieldElement(field, tuple(row[n] for row in rows))

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


# ---------------------------------------------------------------- tower maps

def is_level_of(F: FieldTower, E: FieldTower) -> bool:
    """True when F equals one of E's levels."""
    level = E
    while level is not None:
        if level == F:
            return True
        level = level.base
    return False


def relative_degree(E: FieldTower, F: FieldTower) -> int:
    """[E : F] along the tower; NotSubLevelError when F is not a level."""
    d = 1
    level = E
    while level is not None:
        if level == F:
            return d
        d *= level.degree
        level = level.base
    raise NotSubLevelError("%r is not a level of %r" % (F, E))


def lift_to(x: FieldElement, E: FieldTower) -> FieldElement:
    """Embed an element of a lower level into E (zero-padding coordinates)."""
    if x.field is E or x.field == E:
        return x
    if not is_level_of(x.field, E):
        raise TowerMismatchError("%r is not a level of %r" % (x.field, E))
    return FieldElement(E, x.vec + (_ZERO,) * (E.n - x.field.n))


def coords_over(x: FieldElement, F: FieldTower) -> list[FieldElement]:
    """Power-product coordinates of x over the level F (flattened)."""
    if not is_level_of(F, x.field):
        raise NotSubLevelError("%r is not a level of %r" % (F, x.field))
    m = F.n
    return [FieldElement(F, x.vec[k:k + m]) for k in range(0, x.field.n, m)]


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
    return FieldElement(E, tuple(c for x in cs for c in x.vec))


def eval_poly_at(p: Polynomial, x: FieldElement) -> FieldElement:
    """Evaluate p at x, lifting coefficients from p's level into x's field."""
    acc = x.field.zero()
    for c in reversed(p.coeffs):
        acc = acc * x + lift_to(c, x.field)
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
        if x.field == self.field:
            if self.index == 0 or self.field.is_rationals:
                return x
            return _apply_image(x.coords, self.image)
        if is_level_of(x.field, self.field):
            return x
        raise TowerMismatchError(
            "automorphism of %r cannot act on an element of %r"
            % (self.field, x.field))

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


def _apply_image(coords: tuple, image: FieldElement) -> FieldElement:
    """Evaluate sum coords[k] * image**k (coords live one level down)."""
    E = image.field
    acc = E.zero()
    for c in reversed(coords):
        acc = acc * image + lift_to(c, E)
    return acc


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
    """Monic minimal polynomial of x over the tower level F."""
    from . import linalg

    E = x.field
    if not is_level_of(F, E):
        raise NotSubLevelError("%r is not a level of %r" % (F, E))
    d = relative_degree(E, F)
    power = E.one()
    cols = []
    for k in range(d + 1):
        vec = coords_over(power, F)
        if k >= 1:
            A = [[cols[j][r] for j in range(k)] for r in range(d)]
            sol = linalg.solve(A, vec, F)
            if sol is not None:
                coeffs = [-c for c in sol] + [F.one()]
                poly = Polynomial(F, coeffs)
                assert eval_poly_at(poly, x).is_zero()
                return poly
        cols.append(vec)
        power = power * x
    raise DegenerateError("no linear dependence found (corrupt tower?)")


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
    composition.  Irreducibility is checked when the toolkit can (over Q up
    to the factorization cap, and via discriminant for quadratics over
    quadratic levels); otherwise it is trusted input.
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
    elems = []
    for coords in images:
        if isinstance(coords, FieldElement):
            img = coords if coords.field == tower else tower.element([coords])
        else:
            img = tower.element(coords)
        val = eval_poly_at(minpoly, img)
        if not val.is_zero():
            raise NonRootError("claimed image %s is not a root of the "
                               "minimal polynomial" % format_element(img))
        elems.append(img)
    if gen not in elems:
        raise DegenerateError("automorphism list must contain the identity "
                              "image %s" % gen_name)
    if len(set(elems)) != len(elems):
        raise DegenerateError("duplicate automorphism images")
    if len(elems) > minpoly.degree:
        raise DegenerateError("more automorphisms than the degree allows")
    ordered = [gen] + [e for e in elems if e != gen]
    table = []
    for a in ordered:
        row = []
        for b in ordered:
            composed = _apply_image(b.coords, a)
            if composed not in ordered:
                raise NotClosedError(
                    "composition of automorphisms leaves the given list "
                    "(image %s)" % format_element(composed))
            row.append(ordered.index(composed))
        table.append(tuple(row))
    tower.aut_images = tuple(ordered)
    tower.aut_table = tuple(table)
    return tower


def _check_irreducible(base: FieldTower, minpoly: Polynomial) -> None:
    if base.is_rationals:
        from .polynomials import FACTOR_DEGREE_CAP
        if minpoly.degree <= FACTOR_DEGREE_CAP:
            if not is_irreducible_over_Q(minpoly):
                raise DegenerateError("minimal polynomial is reducible over Q")
        return
    if minpoly.degree == 2:
        p, q = minpoly.coeff(1), minpoly.coeff(0)
        disc = p * p - base.from_rational(4) * q
        if sqrt_or_none(disc) is not None:
            raise DegenerateError(
                "quadratic minimal polynomial has a root in the base")
    # Higher degrees over extensions: trusted input.


def quadratic_field(d, name: Optional[str] = None) -> FieldTower:
    """Q(sqrt(d)) for a squarefree integer d not in {0, 1}, with Gal = Z/2."""
    d = Fraction(d)
    if d.denominator != 1 or d in (0, 1):
        raise DegenerateError("quadratic_field takes an integer not in {0,1}")
    n = int(d)
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
    from math import gcd

    from .polynomials import cyclotomic_coeffs

    if not 3 <= n <= 12:
        raise DegenerateError("cyclotomic_field supports 3 <= n <= 12")
    if name is None:
        name = "z%d" % n
    Q = rationals()
    minpoly = Polynomial.from_rationals(Q, cyclotomic_coeffs(n))
    if minpoly.degree < 2:
        raise DegenerateError("cyclotomic degree too small")
    tower = FieldTower(Q, minpoly, name)
    gen = tower.generator()
    images = []
    for k in range(1, n):
        if gcd(k, n) == 1:
            images.append((gen ** k).coords)
    return field_extend(Q, minpoly, name, images)


# ---------------------------------------------------------------- square roots

def sqrt_or_none(x: FieldElement) -> Optional[FieldElement]:
    """An exact square root of x in its own field, or None.

    Supported levels: the rationals, and quadratic extensions of the
    rationals (via norm equations).  Anything deeper returns None without
    attempting a search.
    """
    field = x.field
    if field.is_rationals:
        r = _rational_sqrt(x.rational_value())
        return None if r is None else field.from_rational(r)
    if not field.base.is_rationals or field.degree != 2:
        return None
    p = field.minpoly.coeff(1).rational_value()
    q = field.minpoly.coeff(0).rational_value()
    D0 = p * p / 4 - q          # phi = theta + p/2 has phi^2 = D0
    a, b = x.vec
    u0 = a - b * p / 2
    v0 = b
    candidates = []
    if v0 == 0:
        s = _rational_sqrt(u0)
        if s is not None:
            candidates.append((s, Fraction(0)))
        if D0 != 0:
            t2 = u0 / D0
            t = _rational_sqrt(t2)
            if t is not None:
                candidates.append((Fraction(0), t))
    else:
        norm = u0 * u0 - v0 * v0 * D0
        root = _rational_sqrt(norm)
        if root is not None:
            for sign in (1, -1):
                s2 = (u0 + sign * root) / 2
                s = _rational_sqrt(s2)
                if s is not None and s != 0:
                    t = v0 / (2 * s)
                    candidates.append((s, t))
    for s, t in candidates:
        cand = field.element([s + t * p / 2, t])
        if cand * cand == x:
            return cand
    return None


def _rational_sqrt(r: Fraction) -> Optional[Fraction]:
    from math import isqrt

    if r < 0:
        return None
    if r == 0:
        return Fraction(0)
    n, d = r.numerator, r.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


# ---------------------------------------------------------------- text form

_TOKEN = re.compile(r"\s*(?:(\d+(?:/\d+)?)|([A-Za-z_][A-Za-z_0-9]*)"
                    r"|(\^)|(\*)|(\+)|(-)|(\()|(\)))")


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
        groups = m.groups()
        for kind, val in zip(("num", "name", "pow", "mul", "add", "sub",
                              "lpar", "rpar"), groups):
            if val is not None:
                tokens.append((kind, val))
                break
    names = {}
    for level in field.levels():
        if not level.is_rationals:
            names[level.gen_name] = lift_to(level.generator(), field)
    # "nest": largest product of exponents nested in the current group
    state = {"i": 0, "nest": 1}

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
        sign = 1
        k, _ = peek()
        if k in ("add", "sub"):
            take(k)
            sign = -1 if k == "sub" else 1
        acc = parse_term() * field.from_rational(sign)
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
                value = Fraction(v)
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
            outer, state["nest"] = state["nest"], 1
            base = parse_expr()
            nest, state["nest"] = state["nest"], outer
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
            body = "(%s)%s" % (format_element(c), gen_part)
        pieces.append((sign, body))
    if not pieces:
        return "0"
    first_sign, first_body = pieces[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        out += sign + body
    return out
