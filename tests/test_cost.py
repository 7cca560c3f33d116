"""Deterministic cost guards: field multiplications per call.

Wall-clock time on a shared host drifts by up to 2x, so these tests pin a
count that repeats exactly instead.  The band case is nintot(1+i, 2, 1)
over Q(i) (dim 20) re-based by a seeded unitriangular P with one
superdiagonal band from {-2, -1, 1, 2}: P^-1 is full upper triangular, so
the re-based constants are dense.  The full case is nintot(1+2i, 2, 1)
re-based by a seeded unitriangular P with every entry above the diagonal
from {-2, -1, 1, 2}.  Each ceiling is 1.2 times the count measured when it
was set: 2,366 for change_basis and 485 for fingerprint, below the counts
before the [L, L]-adapted presentation was kept on the algebra (26,845 and
10,169); 7,278 and 176,316 for decompose_indecomposable, which splits on
the adapted table and verifies its summands there, against 9,620 and
212,276 when it verified them on the caller's dense constants and 22,322
and 506,863 when it also split in the caller's basis.  A product is formed
either by FieldElement.__mul__ or by a fused fields._addmul step, which
adds x*y into a sparse accumulator; these counters count both, one product
per fused step whichever path it takes, so they see all the work.  Since
each centroid block j >= 1 is built from the surviving basis, the two
decompositions form 7,410 and 173,933 products.

The sum-conjugate case is g_lambda over Q(zeta8), lambda = 1 + zeta8, and
its map L_Q (x) Q(zeta8) -> sum of conjugates (dim 40).  is_bijective
eliminates the map's nonzeros forward only: 230 multiplications and 1,770
is_zero calls, against 422 and 2,793 through rref.  The morphism check
expands from the 36 stored brackets of the target: 576 look-ups in its
table, against 12,816 when it probed every pair of source basis vectors.

count_forms on nintot(1+i, 4, 1) over Q sorts its four summands in one
pass: one conjugate_orbit call for the one family, and 7 oracle calls in
all, against 2 and 9 when each isomorphism class took its own orbit and a
union-find merged the classes.

Rows already in reduced echelon form, 1 at their pivots, are kept by the
reducer as they are: linalg.echelon and rref of 10 such rows of the band
case take no product and no inverse, against 20 and 10 when rref scaled
each pivot row again.

Building a tower takes few products and compares levels by identity.
One build of Q(i), of Q(sqrt2), of Q(zeta8), and of the tower Q(i)(sqrt2)
parsed from a manifest line over an already built Q(i), takes 3, 3, 9
and 4 FieldElement products and 0, 0, 0 and 2 FieldTower.structure_key
evaluations (the manifest's literal cache hashes Q(i) once: its key,
and Q's the first time in a process).  Before the product table and the
automorphism matrices were worked out in integers, and before levels
compared by identity first, the same builds took 30, 30, 146 and 74
products and 36, 36, 120 and 38 structure_key evaluations.

The isomorphism oracle keeps each algebra's almost-abelian action and its
self-intertwiner dimension on the algebra: matching [r3_2, r3_3] against
re-based [r3_1/3, r3_1/2] computes the action once for each of the four
algebras, against 8 times when each of the 4 oracle calls recomputed
both of its algebras' actions.
"""

import random
import sys
from fractions import Fraction

import pytest

from lieforms import decompose, fields, liealg, linalg
from lieforms.catalog import g_lambda, nintot_family, r3_lambda
from lieforms.decompose import (
    count_forms,
    decompose_indecomposable,
    krull_schmidt_match,
)
from lieforms.descent import verify_sumconjugate
from lieforms.fields import (
    FieldElement,
    FieldTower,
    cyclotomic_field,
    gaussian_rationals,
    quadratic_field,
    rationals,
)
from lieforms.liealg import change_basis, fingerprint, verify_morphism
from lieforms.manifest import Manifest, parse_manifest

CEILINGS = {
    "change_basis": 2839,
    "decompose_indecomposable": 8733,
    "fingerprint": 582,
}
FULL_DECOMPOSE_CEILING = 211579
COUNT_FORMS_CEILINGS = {"conjugate_orbit": 1, "isomorphism_verdict": 7}
SUMCONJUGATE_CEILINGS = {
    "is_bijective.mul": 276,
    "is_bijective.is_zero": 2124,
    "morphism.lookups": 691,
}
# one build each: (FieldElement products, structure_key evaluations)
FIELD_BUILD_CEILINGS = {
    "Q(i)": (3, 0),
    "Q(sqrt2)": (3, 0),
    "Q(zeta8)": (10, 0),
    "Q(i)(sqrt2)": (4, 2),
}
TOWER_LINE = ('{"name": "E", "base": "Q(i)", "gen": "r", "minpoly": '
              '["-2", "0", "1"], "automorphisms": [["0", "1"], ["0", "-1"]]}')


def band_unitriangular(n, seed):
    rng = random.Random(seed)
    return [[1 if c == r else (rng.choice((-2, -1, 1, 2)) if c == r + 1
                               else 0)
             for c in range(n)] for r in range(n)]


def full_unitriangular(n, seed):
    rng = random.Random(seed)
    return [[1 if c == r else (rng.choice((-2, -1, 1, 2)) if c > r else 0)
             for c in range(n)] for r in range(n)]


def count_products(monkeypatch, counts, key):
    """Count every field product into counts[key]: each FieldElement.__mul__
    call, and each fused _addmul step as one, in every lieforms module
    that calls it, whether it works in ints or through the operators."""
    mul, addmul = FieldElement.__mul__, fields._addmul

    def counting_mul(self, other):
        counts[key] += 1
        return mul(self, other)

    def counting_addmul(*args):
        before = counts[key]
        out = addmul(*args)
        counts[key] = before + 1
        return out

    monkeypatch.setattr(FieldElement, "__mul__", counting_mul)
    fusing = [m for name, m in sys.modules.items()
              if name.startswith("lieforms.")
              and getattr(m, "_addmul", None) is addmul]
    assert {linalg, liealg, decompose} <= set(fusing)
    for module in fusing:
        monkeypatch.setattr(module, "_addmul", counting_addmul)


@pytest.fixture
def multiplications(monkeypatch):
    """A counter of field products, operator and fused; reset it with
    cell[0] = 0."""
    cell = [0]
    count_products(monkeypatch, cell, 0)
    return cell


def test_rebased_nintot_stays_under_its_ceilings(multiplications):
    Qi = gaussian_rationals()
    L = nintot_family(Qi, Qi.one() + Qi.generator(), 2, 1)
    P = band_unitriangular(L.dim, 1)
    counts = {}
    multiplications[0] = 0
    PL = change_basis(L, P)
    counts["change_basis"] = multiplications[0]
    multiplications[0] = 0
    fp = fingerprint(PL)
    counts["fingerprint"] = multiplications[0]
    multiplications[0] = 0
    d = decompose_indecomposable(PL)
    counts["decompose_indecomposable"] = multiplications[0]
    assert fp.two_step == (16, 4)
    assert len(d) == 2 and d.verified and d.all_certified
    for name, ceiling in CEILINGS.items():
        assert counts[name] <= ceiling, (name, counts[name], ceiling)


def test_dense_rebased_nintot_decomposes_under_its_ceiling(multiplications):
    Qi = gaussian_rationals()
    L = nintot_family(Qi, Qi.one() + Qi.from_rational(2) * Qi.generator(),
                      2, 1)
    PL = change_basis(L, full_unitriangular(L.dim, 1))
    multiplications[0] = 0
    d = decompose_indecomposable(PL)
    count = multiplications[0]
    assert len(d) == 2 and d.verified and d.all_certified
    assert count <= FULL_DECOMPOSE_CEILING, (count, FULL_DECOMPOSE_CEILING)


def test_count_forms_places_each_summand_once(monkeypatch):
    Qi = gaussian_rationals()
    L = nintot_family(Qi, Qi.one() + Qi.generator(), 4, 1)
    calls = dict.fromkeys(COUNT_FORMS_CEILINGS, 0)
    for name in calls:
        def counting(*args, _name=name, _orig=getattr(decompose, name)):
            calls[_name] += 1
            return _orig(*args)
        monkeypatch.setattr(decompose, name, counting)
    assert count_forms(L, rationals()).count == 5
    for name, ceiling in COUNT_FORMS_CEILINGS.items():
        assert calls[name] <= ceiling, (name, calls[name], ceiling)


class CountingTable(dict):
    """A bracket table that counts its look-ups."""

    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return dict.__getitem__(self, key)

    def __contains__(self, key):
        self.lookups += 1
        return dict.__contains__(self, key)

    def get(self, *args):
        self.lookups += 1
        return dict.get(self, *args)


def test_sumconjugate_checks_stay_under_their_ceilings(monkeypatch):
    E = cyclotomic_field(8)
    m = verify_sumconjugate(g_lambda(E, E.one() + E.generator()),
                            rationals()).map
    counts = {"__mul__": 0, "is_zero": 0}
    count_products(monkeypatch, counts, "__mul__")
    is_zero = FieldElement.is_zero

    def counting(self):
        counts["is_zero"] += 1
        return is_zero(self)

    monkeypatch.setattr(FieldElement, "is_zero", counting)
    assert m.is_bijective()
    found = {"is_bijective.mul": counts["__mul__"],
             "is_bijective.is_zero": counts["is_zero"]}
    m.target.brackets = table = CountingTable(m.target.brackets)
    assert verify_morphism(m.source, m.target, m.matrix)
    found["morphism.lookups"] = table.lookups
    for name, ceiling in SUMCONJUGATE_CEILINGS.items():
        assert found[name] <= ceiling, (name, found[name], ceiling)


def test_reduced_rows_take_no_products_or_inverses(monkeypatch):
    Qi = gaussian_rationals()
    L = nintot_family(Qi, Qi.one() + Qi.generator(), 2, 1)
    PL = change_basis(L, band_unitriangular(L.dim, 1))
    rows = [r for s in decompose_indecomposable(PL).summands for r in s.rows]
    red, pivots = linalg.rref(rows[:10], Qi)
    assert len(red) == 10
    sparse = [linalg.sparse(r) for r in red]
    counts = {"__mul__": 0, "inverse": 0}
    count_products(monkeypatch, counts, "__mul__")
    inverse = FieldElement.inverse

    def counting(self):
        counts["inverse"] += 1
        return inverse(self)

    monkeypatch.setattr(FieldElement, "inverse", counting)
    assert linalg.echelon(sparse, Qi) == (sparse, pivots)
    assert linalg.rref(red, Qi) == (red, pivots)
    assert counts == {"__mul__": 0, "inverse": 0}


def test_field_builds_stay_under_their_ceilings(multiplications, monkeypatch):
    keys = [0]
    structure_key = FieldTower.structure_key

    def counting(self):
        keys[0] += 1
        return structure_key(self)

    monkeypatch.setattr(FieldTower, "structure_key", counting)
    man = Manifest()
    man.field("Q(i)")
    builds = {
        "Q(i)": gaussian_rationals,
        "Q(sqrt2)": lambda: quadratic_field(2),
        "Q(zeta8)": lambda: cyclotomic_field(8),
        "Q(i)(sqrt2)": lambda: parse_manifest(TOWER_LINE, man).field("E"),
    }
    for name, build in builds.items():
        multiplications[0] = keys[0] = 0
        field = build()
        degree = 4 if name == "Q(zeta8)" else 2
        assert len(field.automorphisms()) == field.degree == degree
        found = (multiplications[0], keys[0])
        ceiling = FIELD_BUILD_CEILINGS[name]
        assert all(f <= c for f, c in zip(found, ceiling)), (name, found,
                                                            ceiling)


def test_match_computes_each_action_once(monkeypatch):
    Q = rationals()
    seen = []
    compute = decompose._almost_abelian_data

    def counting(L):
        seen.append(id(L))
        return compute(L)

    monkeypatch.setattr(decompose, "_almost_abelian_data", counting)
    left = [r3_lambda(Q, Q.from_rational(k)) for k in (2, 3)]
    P = full_unitriangular(3, 1)
    right = [change_basis(r3_lambda(Q, Q.from_rational(Fraction(1, k))), P)
             for k in (3, 2)]
    report = krull_schmidt_match(left, right)
    assert report.status == "matched"
    assert sorted(report.pairing) == [(0, 1), (1, 0)]
    assert sorted(seen) == sorted(id(L) for L in left + right)
