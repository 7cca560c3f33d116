"""Galois descent constructions for Lie algebras over tower extensions.

The sigma-conjugate keeps the original basis and applies sigma to the
structure constants, so the conjugation map itself always has the identity
matrix and lemma-level identities hold as exact equalities of constants.
Restriction of scalars uses the power-product basis over the fixed level,
grouped by source vector with the scalar index innermost:
(e_0 X_1, e_1 X_1, ..., e_{d-1} X_1, e_0 X_2, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from . import linalg
from .errors import OracleUndecidedError, TowerMismatchError
from .fields import (
    Automorphism,
    FieldElement,
    FieldTower,
    GaloisGroup,
    coords_over,
    fixed_by_group,
    galois_group,
    lift_to,
    power_basis_over,
    relative_degree,
)
from .liealg import (
    LieAlgebra,
    LinearMap,
    change_basis,
    direct_sum,
)


def _mapped(L: LieAlgebra, field: FieldTower,
            element_map: Callable) -> LieAlgebra:
    """L over field in the same basis, with element_map applied to every
    structure constant and to the field elements among meta["params"]."""
    brackets = {ij: {k: element_map(c) for k, c in comps.items()}
                for ij, comps in L.brackets.items()}
    meta = dict(L.meta)
    params = meta.get("params")
    if isinstance(params, dict):
        meta["params"] = {k: (element_map(v) if isinstance(v, FieldElement)
                              else v) for k, v in params.items()}
    return LieAlgebra(field, L.dim, brackets, L.labels, meta)


def conjugate(L: LieAlgebra, sigma: Automorphism) -> LieAlgebra:
    """The sigma-conjugate algebra: same basis, constants sigma(c)."""
    if not (sigma.field == L.field
            or (sigma.field.is_rationals and L.field.is_rationals)):
        raise TowerMismatchError(
            "automorphism of %r cannot conjugate an algebra over %r"
            % (sigma.field, L.field))
    return _mapped(L, L.field, sigma)


def conjugation_map(L: LieAlgebra, sigma: Automorphism) -> LinearMap:
    """The canonical sigma-semilinear isomorphism L -> conjugate(L, sigma)."""
    return LinearMap.make(L, conjugate(L, sigma),
                          linalg.identity_matrix(L.field, L.dim), sigma)


@dataclass(frozen=True)
class Restriction:
    """Restriction of scalars with its basis bookkeeping.

    algebra is over the fixed level; basis index (i, s) -> i*d + s where i
    indexes the source basis and s the power-product scalar basis.
    """

    source: LieAlgebra
    fixed: FieldTower
    algebra: LieAlgebra
    scalars: tuple[FieldElement, ...]

    def index(self, i: int, s: int) -> int:
        return i * len(self.scalars) + s


def restrict_scalars(L: LieAlgebra, F: FieldTower) -> Restriction:
    """View an algebra over E as one over the tower level F."""
    E = L.field
    d = relative_degree(E, F)
    scalars = tuple(power_basis_over(E, F))
    n = L.dim
    products = [[es * et for et in scalars] for es in scalars]
    brackets = {}
    for (i, j), comps in L.brackets.items():
        for s, row in enumerate(products):
            for t, prod in enumerate(row):
                entry: dict = {}
                for k, c in comps.items():
                    flat = coords_over(prod * c, F)
                    for u, cu in enumerate(flat):
                        if not cu.is_zero():
                            key = k * d + u
                            prev = entry.get(key)
                            entry[key] = cu if prev is None else prev + cu
                entry = {k2: v for k2, v in entry.items() if not v.is_zero()}
                if entry:
                    brackets[(i * d + s, j * d + t)] = entry
    labels = []
    for lab in L.labels:
        for s in range(d):
            labels.append("%s_%d" % (lab, s) if d > 1 else lab)
    meta = {"restriction_of": L.meta.get("name", "algebra"),
            "scalar_degree": d}
    algebra = LieAlgebra(F, n * d, brackets, labels, meta)
    return Restriction(L, F, algebra, scalars)


def extend_scalars(L: LieAlgebra, E: FieldTower) -> LieAlgebra:
    """Lift an algebra over a lower level to E (same basis and constants)."""
    relative_degree(E, L.field)  # raises NotSubLevelError when unrelated
    return _mapped(L, E, lambda c: lift_to(c, E))


def _embedding_rows(n: int, sigmas, scalars, E: FieldTower) -> list:
    """The E-matrix sending e_s X_i, in the restriction basis of an
    n-dimensional algebra, to (sigma_b(e_s) X_i)_b in the sum of its
    conjugates: entry (b*n + i, i*d + s) is sigma_b(e_s), the rest 0."""
    d = len(scalars)
    rows = [[E.zero()] * (n * d) for _ in range(n * len(sigmas))]
    for b, sigma in enumerate(sigmas):
        images = [sigma(e) for e in scalars]
        for i in range(n):
            rows[b * n + i][i * d:(i + 1) * d] = images
    return rows


def _over(rows, F: FieldTower) -> list:
    """The F-matrix of an E-matrix: row r becomes the d = [E : F] rows
    r*d + u, u < d, whose entries are coordinate u over F of row r's."""
    out = []
    for row in rows:
        out.extend(map(list, zip(*(coords_over(x, F) for x in row))))
    return out


def underlying_iso_from_sigma(L: LieAlgebra, sigma: Automorphism,
                              F: Optional[FieldTower] = None) -> LinearMap:
    """Explicit F-linear isomorphism L_F -> (L^sigma)_F.

    On the restriction basis, e_s X_i maps to sigma(e_s) X_i; the matrix is
    block diagonal with one copy of the coordinate matrix of sigma per
    source basis vector.
    """
    E = L.field
    if F is None:
        F = E.base if not E.is_rationals else E
    R = restrict_scalars(L, F)
    target = restrict_scalars(conjugate(L, sigma), F)
    rows = _over(_embedding_rows(L.dim, (sigma,), R.scalars, E), F)
    return LinearMap.make(R.algebra, target.algebra, rows)


@dataclass(frozen=True)
class SumConjugateReport:
    """Outcome of checking L_F tensor E = direct sum of conjugates."""

    group: GaloisGroup
    conjugates: tuple[LieAlgebra, ...]
    sum_algebra: LieAlgebra
    map: LinearMap
    is_isomorphism: bool


def verify_sumconjugate(L: LieAlgebra, F: FieldTower) -> SumConjugateReport:
    """Build and verify the isomorphism L_F tensor_F E -> sum of conjugates.

    The E-linear extension of the canonical embedding sends the restriction
    basis element e_s X_i to (sigma(e_s) X_i)_sigma.
    """
    E = L.field
    G = galois_group(E, F)
    R = restrict_scalars(L, F)
    source = extend_scalars(R.algebra, E)
    conjugates = tuple(conjugate(L, s) for s in G.elements)
    total = direct_sum(*conjugates)
    rows = _embedding_rows(L.dim, G.elements, R.scalars, E)
    m = LinearMap.make(source, total, rows)
    ok = m.verify() and m.is_bijective()
    return SumConjugateReport(G, conjugates, total, m, ok)


@dataclass(frozen=True)
class EmbeddingReport:
    """The canonical F-linear embedding L_F -> (sum of conjugates)_F."""

    group: GaloisGroup
    sum_algebra: LieAlgebra
    map: LinearMap
    injective: bool
    f_dim: int
    e_span_dim: int
    e_independent: bool
    is_f_form: bool


def canonical_embedding(L: LieAlgebra, F: FieldTower) -> EmbeddingReport:
    """X maps to (phi^sigma X)_sigma; checks the F-form criterion.

    The images of an F-basis of L_F must be E-linearly independent and span
    an E-form of the direct sum of conjugates.
    """
    E = L.field
    G = galois_group(E, F)
    R = restrict_scalars(L, F)
    conjugates = tuple(conjugate(L, s) for s in G.elements)
    total = direct_sum(*conjugates)
    Rtot = restrict_scalars(total, F)
    rows_e = _embedding_rows(L.dim, G.elements, R.scalars, E)
    rows_f = _over(rows_e, F)
    m = LinearMap.make(R.algebra, Rtot.algebra, rows_f)
    f_dim, rank_e = R.algebra.dim, linalg.rank(rows_e, E)
    injective = linalg.rank(rows_f, F) == f_dim
    e_independent = rank_e == f_dim
    is_f_form = injective and e_independent and len(R.scalars) == len(G)
    return EmbeddingReport(G, total, m, injective, f_dim, rank_e,
                           e_independent, is_f_form)


def defined_over_witness_check(L: LieAlgebra, F: FieldTower, P) -> bool:
    """True when the basis change P rewrites L with Gal(E,F)-fixed constants."""
    G = galois_group(L.field, F)
    transformed = change_basis(L, P)
    for comps in transformed.brackets.values():
        for c in comps.values():
            if not fixed_by_group(c, G):
                return False
    return True


@dataclass(frozen=True)
class ConjugateOrbit:
    """Partition of the sigma-conjugates into isomorphism classes."""

    algebra: LieAlgebra
    group: GaloisGroup
    conjugates: tuple[LieAlgebra, ...]
    class_of: tuple[int, ...]       # per group element
    representatives: tuple[int, ...]  # indices into conjugates

    @property
    def class_count(self) -> int:
        return len(self.representatives)


def class_of(x: LieAlgebra, reps,
             oracle: Callable[[LieAlgebra, LieAlgebra], object]
             ) -> Optional[int]:
    """The index of the first of the pairwise non-isomorphic reps that the
    oracle confirms x isomorphic to, or None when it refutes every one.

    The oracle's verdicts have a status of "confirmed", "refuted" or
    "unknown".  A confirmation alone places x; without one, an unknown
    verdict raises OracleUndecidedError.
    """
    undecided = False
    for idx, rep in enumerate(reps):
        status = oracle(x, rep).status
        if status == "confirmed":
            return idx
        undecided = undecided or status == "unknown"
    if undecided:
        raise OracleUndecidedError(
            "cannot place an algebra into an isomorphism class")
    return None


def conjugate_orbit(L: LieAlgebra, G: GaloisGroup,
                    oracle: Callable[[LieAlgebra, LieAlgebra], object]
                    ) -> ConjugateOrbit:
    """Group the conjugates of L by isomorphism: each conjugate joins the
    class class_of places it in, or opens a new one."""
    conjugates = tuple(conjugate(L, s) for s in G.elements)
    reps: list[int] = []
    classes: list[int] = []
    for idx, cand in enumerate(conjugates):
        cls = class_of(cand, [conjugates[r] for r in reps], oracle)
        if cls is None:
            cls = len(reps)
            reps.append(idx)
        classes.append(cls)
    return ConjugateOrbit(L, G, conjugates, tuple(classes), tuple(reps))
