"""The sparse elimination behind linalg against a dense reference.

rref, nullspace, inverse and rank run on one sparse reducer.  The
reduced row echelon form of a span is unique, so each must give the same
entries and pivots as the dense Gauss-Jordan elimination kept below as
the reference, on seeded matrices over Q, Q(i) and Q(i)(sqrt 2): dense,
10% dense, rank-deficient, zero, wide, tall and empty.  krylov_relation
runs on the same reducer; its relations are checked to hold and to be
the first, through rank.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from lieforms import linalg
from lieforms.errors import SingularMatrixError
from lieforms.fields import (
    field_extend,
    gaussian_rationals,
    lift_to,
    rationals,
)
from lieforms.polynomials import Polynomial


# ------------------------------------------------------------- reference

def ref_rref(rows, field):
    """Dense Gauss-Jordan elimination: (reduced nonzero rows, pivots)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for col in range(ncols):
        sel = None
        for row in range(r, len(m)):
            if not m[row][col].is_zero():
                sel = row
                break
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        pivot_row = m[r]
        support = [c for c in range(col, ncols) if not pivot_row[c].is_zero()]
        inv = field.one() / pivot_row[col]
        for c in support:
            pivot_row[c] = pivot_row[c] * inv
        for row in range(len(m)):
            target = m[row]
            if row != r and not target[col].is_zero():
                f = target[col]
                for c in support:
                    target[c] = target[c] - f * pivot_row[c]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def ref_nullspace(A, field):
    """The nullspace basis read from ref_rref, one vector per free column."""
    if not A:
        return []
    ncols = len(A[0])
    red, pivots = ref_rref(A, field)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [field.zero()] * ncols
        v[free] = field.one()
        for row, col in zip(red, pivots):
            v[col] = -row[free]
        basis.append(v)
    return basis


def ref_inverse(A, field):
    n = len(A)
    ident = linalg.identity_matrix(field, n)
    red, pivots = ref_rref([list(r) + e for r, e in zip(A, ident)], field)
    if len(red) < n or pivots[:n] != list(range(n)):
        raise SingularMatrixError("matrix is not invertible")
    return [row[n:] for row in red]


def ref_express(rows, pivots, v):
    """Coordinates of v in ref_rref rows, or None outside their span."""
    residual = list(v)
    coords = []
    for row, col in zip(rows, pivots):
        c = residual[col]
        coords.append(c)
        if not c.is_zero():
            residual = [a - c * b for a, b in zip(residual, row)]
    if any(not c.is_zero() for c in residual):
        return None
    return coords


# ----------------------------------------------------------------- inputs

def gaussian_sqrt2():
    """Q(i)(s) with s^2 = 2, and the generators i and s."""
    Qi = gaussian_rationals()
    T = field_extend(
        Qi, Polynomial(Qi, [Qi.from_rational(-2), Qi.zero(), Qi.one()]),
        "s", [[Qi.zero(), Qi.one()], [Qi.zero(), -Qi.one()]])
    return T, [lift_to(Qi.generator(), T), T.generator()]


def fields():
    Q = rationals()
    Qi = gaussian_rationals()
    T, gens = gaussian_sqrt2()
    return [("Q", Q, []), ("Q(i)", Qi, [Qi.generator()]),
            ("Q(i)(s)", T, gens)]


def element(field, gens, rng, density=1.0):
    """A seeded element with small rational coordinates on 1, the
    generators and their product; zero with probability 1 - density."""
    if rng.random() >= density:
        return field.zero()
    basis = [field.one()] + gens
    if len(gens) == 2:
        basis.append(gens[0] * gens[1])
    x = field.zero()
    while x.is_zero():
        for b in basis:
            x = x + b * Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
    return x


def matrix(field, gens, rng, nrows, ncols, density=1.0):
    return [[element(field, gens, rng, density) for _ in range(ncols)]
            for _ in range(nrows)]


def shapes(field, gens, rng):
    low = linalg.mat_mul(matrix(field, gens, rng, 6, 3),
                         matrix(field, gens, rng, 3, 6), field)
    return [
        ("dense", matrix(field, gens, rng, 5, 5)),
        ("sparse", matrix(field, gens, rng, 8, 8, density=0.1)),
        ("deficient", low),
        ("zero", [[field.zero()] * 4 for _ in range(4)]),
        ("wide", matrix(field, gens, rng, 3, 7)),
        ("tall", matrix(field, gens, rng, 7, 3)),
        ("empty", []),
    ]


def cases():
    out = []
    for seed, (fname, field, gens) in enumerate(fields()):
        rng = random.Random(seed)
        for shape, A in shapes(field, gens, rng):
            out.append(("%s-%s" % (fname, shape), field, gens, A))
    return out


CASES = cases()
IDS = [c[0] for c in CASES]
SQUARE = [c for c in CASES if not c[3] or len(c[3]) == len(c[3][0])]


# ------------------------------------------------------------------ tests

@pytest.mark.parametrize("name, field, gens, A", CASES, ids=IDS)
def test_rref_nullspace_and_rank_match_the_reference(name, field, gens, A):
    red, pivots = ref_rref(A, field)
    assert linalg.rref(A, field) == (red, pivots)
    assert linalg.nullspace(A, field) == ref_nullspace(A, field)
    assert linalg.rank(A, field) == len(red)
    sparse = [linalg.sparse(r) for r in red]
    assert linalg.echelon([linalg.sparse(r) for r in A], field) == (
        sparse, pivots)


@pytest.mark.parametrize("name, field, gens, A", SQUARE,
                         ids=[c[0] for c in SQUARE])
def test_inverse_matches_the_reference(name, field, gens, A):
    try:
        want = ref_inverse(A, field)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            linalg.inverse(A, field)
        return
    got = linalg.inverse(A, field)
    assert got == want
    assert linalg.mat_mul(A, got, field) == linalg.identity_matrix(
        field, len(A))


def test_square_cases_cover_both_inverse_outcomes():
    outcomes = {len(ref_rref(A, field)[0]) == len(A)
                for _name, field, _gens, A in SQUARE}
    assert outcomes == {True, False}


@pytest.mark.parametrize("name, field, gens, A", CASES, ids=IDS)
def test_express_matches_the_reference(name, field, gens, A):
    rng = random.Random(name)
    red, pivots = ref_rref(A, field)
    sparse = [linalg.sparse(r) for r in red]
    ncols = len(A[0]) if A else 0
    inside = linalg.mat_vec([list(col) for col in zip(*red)],
                            [element(field, gens, rng) for _ in red],
                            field) if red else [field.zero()] * ncols
    coords = linalg.express(linalg.sparse(inside), sparse, pivots)
    assert linalg.dense(coords, len(red), field) == ref_express(
        red, pivots, inside)
    if len(red) == ncols:
        return  # the rows span everything
    for _ in range(20):
        outside = [element(field, gens, rng) for _ in range(ncols)]
        if ref_express(red, pivots, outside) is None:
            break
    else:
        pytest.fail("no vector outside the span found")
    assert linalg.express(linalg.sparse(outside), sparse, pivots) is None



# --------------------------------------------------------- krylov relation

WIDTH = 6


def sparse_vector(field, gens, rng, density=0.4):
    return linalg.sparse([element(field, gens, rng, density)
                          for _ in range(WIDTH)])


def combination(field, coeffs, vectors):
    out = [field.zero()] * WIDTH
    for c, v in zip(coeffs, vectors):
        for k, x in v.items():
            out[k] = out[k] + c * x
    return linalg.sparse(out)


def krylov_cases():
    """Seeded sparse sequences of width WIDTH over each field, without and
    with two rows to reduce modulo: a random sequence whose v_k is a
    combination of the vectors before it plus an element of the span, a
    random sequence longer than the width, a sequence opening with an
    element of the span, and unit vectors that run out before a
    relation."""
    out = []
    for seed, (fname, field, gens) in enumerate(fields()):
        rng = random.Random(100 + seed)
        for with_modulo in (False, True):
            # the span leaves the last two columns free
            modulo = ([{c: x for c, x in sparse_vector(
                field, gens, rng, 0.7).items() if c < WIDTH - 2}
                for _ in range(2)] if with_modulo else [])
            tag = "%s-%s" % (fname, "modulo" if with_modulo else "plain")
            for trial in range(3):
                k = rng.randint(1, 4)
                head = [sparse_vector(field, gens, rng) for _ in range(k)]
                coeffs = [element(field, gens, rng, 0.7)
                          for _ in head + modulo]
                forced = combination(field, coeffs, head + modulo)
                tail = [sparse_vector(field, gens, rng) for _ in range(2)]
                out.append(("%s-forced%d" % (tag, trial), field, modulo,
                            head + [forced] + tail))
            out.append(("%s-long" % tag, field, modulo,
                        [sparse_vector(field, gens, rng, 0.6)
                         for _ in range(WIDTH + 2)]))
            opening = combination(field, [field.from_rational(2)] *
                                  len(modulo), modulo)
            out.append(("%s-opening" % tag, field, modulo,
                        [opening, sparse_vector(field, gens, rng)]))
            free = [c for c in range(WIDTH)
                    if all(c not in row for row in modulo)]
            out.append(("%s-units" % tag, field, modulo,
                        [{c: field.one()} for c in free]))
    return out


KRYLOV_CASES = krylov_cases()


@pytest.mark.parametrize("name, field, modulo, vectors", KRYLOV_CASES,
                         ids=[c[0] for c in KRYLOV_CASES])
def test_krylov_relation_holds_and_is_the_first(name, field, modulo,
                                                vectors):
    def rank_with(extra):
        return linalg.rank([linalg.dense(v, WIDTH, field)
                            for v in modulo + extra], field)

    base = rank_with([])
    rest = iter(vectors)
    p = linalg.krylov_relation(rest, field, WIDTH, modulo)
    if p is None:
        assert rank_with(vectors) == base + len(vectors)
        return
    k = p.degree
    assert p.coeffs[-1] == field.one()
    assert rank_with(vectors[:k]) == base + k
    assert rank_with([combination(field, p.coeffs, vectors)]) == base
    assert len(list(rest)) == len(vectors) - k - 1  # read no further


def test_krylov_cases_cover_every_outcome():
    degrees = Counter()
    for _name, field, modulo, vectors in KRYLOV_CASES:
        p = linalg.krylov_relation(vectors, field, WIDTH, modulo)
        degrees[None if p is None else min(p.degree, 2)] += 1
    assert set(degrees) == {None, 0, 1, 2}
