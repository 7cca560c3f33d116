"""Acceptance suite: ten end-to-end checks, one reported line each.

Every comparison is exact (tolerance zero).  Each test prints a single
"acceptance NN: PASS/FAIL" line that stays visible even under pytest's
output capture.
"""

import random
from fractions import Fraction
from time import perf_counter

import pytest

from lieforms import cli, linalg
from lieforms.errors import JacobiError, OddSizeError, TVanishesError
from lieforms.fields import (
    cyclotomic_field,
    galois_group,
    gaussian_rationals,
    quadratic_field,
    rationals,
)
from lieforms.liealg import LieAlgebra, change_basis, direct_sum, \
    restrict_to_span
from lieforms.descent import (
    conjugate,
    extend_scalars,
    restrict_scalars,
    underlying_iso_from_sigma,
    verify_sumconjugate,
)
from lieforms.decompose import (
    count_forms,
    decompose_indecomposable,
    krull_schmidt_match,
    verify_decomposition,
    witness_invariants,
)
from lieforms.pfaffian import (
    MultiPoly,
    classical_S,
    classical_T,
    invariant_S,
    invariant_T,
    invariant_c_of,
    pfaffian,
    pfaffian_form,
    refute_isomorphism_by_c,
)
from lieforms.catalog import (
    abelian,
    defined_over_witness_check,
    g1_alpha,
    g_lambda,
    heisenberg,
    nintot_family,
    overFprop_witness,
    r3_lambda,
    r3_lambda_plus_abelian,
)


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    line = "acceptance %02d: %s - %s" % (num, "PASS" if ok else "FAIL",
                                         detail)
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_c01_invariant_c_of_catalog_g_i_prints_two(capsys, tmp_path):
    rc = cli.main(["catalog", "g_lambda", "--field", "Q(i)",
                   "--lambda", "1i", "--name", "g_i"])
    manifest_text = capsys.readouterr().out
    ok = rc == 0
    path = tmp_path / "m.jsonl"
    path.write_text(manifest_text, encoding="utf-8")
    start = perf_counter()
    rc = cli.main(["invariant-c", "g_i", "--manifest", str(path)])
    elapsed = perf_counter() - start
    out = capsys.readouterr().out
    ok = ok and rc == 0 and out == "2\n" and elapsed < 1.0
    _report(capsys, 1, ok, "invariant-c on g_i printed %r, exit %d, %.3fs"
            % (out.strip(), rc, elapsed))


def test_c02_pfaffian_form_reproduces_the_quartic_family(capsys):
    Q = rationals()
    Qi = gaussian_rationals()
    cases = [(Q, Q.zero()), (Q, Q.one()), (Qi, Qi.one() + Qi.generator())]
    ok = True
    for field, lam in cases:
        pf = pfaffian_form(g_lambda(field, lam))
        expected = MultiPoly(field, 2, {(4, 0): field.one(),
                                        (2, 2): lam,
                                        (0, 4): field.one()})
        ok = ok and pf.type == (8, 2) and pf.form == expected
    _report(capsys, 2, ok, "pfaffian_form(g_lambda) = x^4 + lambda x^2y^2 + y^4 "
            "for lambda in {0, 1, 1+i}")


def test_c03_invariants_S_and_T_reproduce_the_closed_forms(capsys):
    rng = random.Random(90303)
    Q = rationals()
    Qi = gaussian_rationals()
    checked = 0
    ok = True

    def fraction():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    lams = [Q.from_rational(fraction()) for _ in range(20)]
    lams += [Qi.element([fraction(), fraction()]) for _ in range(20)]
    for lam in lams:
        field = lam.field
        form = pfaffian_form(g_lambda(field, lam)).form
        three = field.from_rational(3)
        s_expected = three * lam * lam + field.one()
        t_expected = lam - lam * lam * lam
        ok = ok and invariant_S(form) == s_expected
        ok = ok and invariant_T(form) == t_expected
        checked += 1
    _report(capsys, 3, ok and checked == 40,
            "S = 3l^2+1 and T = l-l^3 on %d random rational and "
            "Gaussian-rational parameters" % checked)


def test_c04_extension_splits_into_conjugates_for_the_catalog(capsys):
    Q = rationals()
    Qi = gaussian_rationals()
    K2 = quadratic_field(2)
    cases = [
        heisenberg(Qi),
        heisenberg(K2),
        r3_lambda(Qi, Qi.generator()),
        g_lambda(Qi, Qi.one() + Qi.generator()),
        abelian(K2, 3),
    ]
    start = perf_counter()
    ok = all(verify_sumconjugate(L, Q).is_isomorphism for L in cases)
    elapsed = perf_counter() - start
    ok = ok and elapsed < 5.0
    _report(capsys, 4, ok, "L tensor E = sum of conjugates verified on 5 cases "
            "in %.2fs" % elapsed)


def test_c05_restrictions_of_conjugates_are_isomorphic(capsys):
    Q = rationals()
    checked = 0
    ok = True
    for E in (gaussian_rationals(), quadratic_field(2)):
        g = E.generator()
        lam = E.one() + g
        algebras = [
            heisenberg(E),
            abelian(E, 3),
            g_lambda(E, lam),
            r3_lambda(E, g),
            r3_lambda_plus_abelian(E, lam),
            g1_alpha(E, lam),
            nintot_family(E, lam, 2, 1),
        ]
        for sigma in galois_group(E, Q):
            for L in algebras:
                m = underlying_iso_from_sigma(L, sigma, Q)
                ok = ok and m.verify() and m.is_bijective()
                checked += 1
    _report(capsys, 5, ok, "underlying_iso_from_sigma is a bijective morphism in "
            "%d (algebra, sigma) cases over Q(i)/Q and Q(sqrt2)/Q" % checked)


def test_c06_form_counts_match_the_closed_formula(capsys):
    Q = rationals()
    Qi = gaussian_rationals()
    lam = Qi.one() + Qi.generator()
    ok = True
    elapsed_k3 = None
    for k in (1, 2, 3):
        L = nintot_family(Qi, lam, k, k)
        start = perf_counter()
        fc = count_forms(L, Q)
        took = perf_counter() - start
        if k == 3:
            elapsed_k3 = took
        ok = ok and fc.count == k + 1
        multisets = set()
        for blocks in fc.witness_blocks:
            vals = witness_invariants(blocks)
            ok = ok and all(v is not None for v in vals)
            multisets.add(tuple(sorted(str(v) for v in vals)))
        ok = ok and len(multisets) == k + 1
    ok = ok and elapsed_k3 is not None and elapsed_k3 < 30.0
    rigid = count_forms(heisenberg(Qi), Q)
    ok = ok and rigid.count == 1
    _report(capsys, 6, ok, "count_forms(g^k over Q) = k+1 for k=1..3 with distinct "
            "c multisets (k=3 in %.2fs); heisenberg counts 1" % elapsed_k3)


def test_c07_unique_decomposition_with_matching_and_refutation(capsys):
    Q = rationals()
    Qi = gaussian_rationals()
    h = heisenberg(Q)
    hh = direct_sum(h, h)
    dec = decompose_indecomposable(hh)
    ok = len(dec) == 2 and dec.verified and dec.all_certified

    z, o = Q.zero(), Q.one()
    twisted = [
        [[o, z, z, z, z, z], [z, o, z, z, z, o], [z, z, o, z, z, z]],
        [[z, z, z, o, z, z], [z, z, z, z, o, z], [z, z, z, z, z, o]],
    ]
    ok = ok and verify_decomposition(hh, twisted)
    alt = [restrict_to_span(hh, rows) for rows in twisted]
    report = krull_schmidt_match(dec, alt)
    ok = ok and report.status == "matched"

    lam = Qi.one() + Qi.generator()
    lam_bar = Qi.one() - Qi.generator()
    mixed = decompose_indecomposable(
        direct_sum(g_lambda(Qi, lam), g_lambda(Qi, lam_bar)))
    doubled = decompose_indecomposable(
        direct_sum(g_lambda(Qi, lam), g_lambda(Qi, lam)))
    refutation = krull_schmidt_match(mixed, doubled)
    ok = ok and refutation.status == "refuted"
    _report(capsys, 7, ok, "h3+h3 splits in 2 certified summands, the twisted "
            "ideals match it, and g+conj vs g+g is refuted")


def test_c08_descent_witness_for_r3_with_gaussian_parameter(capsys):
    Q = rationals()
    Qi = gaussian_rationals()
    i = Qi.generator()
    w = overFprop_witness(Q, 0, i)
    one = Qi.one()
    ok = w.verified
    ok = ok and w.x_algebra.bracket_basis(0, 1) == {1: one}
    ok = ok and w.x_algebra.bracket_basis(0, 2) == {2: -i}
    ok = ok and w.x_algebra.bracket_basis(1, 2) == {}
    ok = ok and all(w.checks.values())
    ok = ok and defined_over_witness_check(w.x_algebra, Q,
                                           [list(r) for r in w.matrix])
    _report(capsys, 8, ok, "X-basis satisfies [X1,X2]=X2, [X1,X3]=-iX3, [X2,X3]=0 "
            "and the basis change has Galois-fixed constants")


def _det_fractions(rows):
    """Independent determinant over Fraction for the Pfaffian suite."""
    n = len(rows)
    m = [list(r) for r in rows]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] * inv
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def _random_quartic(rng, field):
    terms = {}
    for k in range(5):
        c = field.from_rational(Fraction(rng.randint(-6, 6),
                                         rng.randint(1, 4)))
        if not c.is_zero():
            terms[(4 - k, k)] = c
    return MultiPoly(field, 2, terms)


def _random_sl2(rng, field):
    rows = [[field.one(), field.zero()], [field.zero(), field.one()]]
    for _ in range(3):
        a = field.from_rational(rng.randint(-4, 4))
        if rng.random() < 0.5:
            shear = [[field.one(), a], [field.zero(), field.one()]]
        else:
            shear = [[field.one(), field.zero()], [a, field.one()]]
        rows = linalg.mat_mul(rows, shear, field)
    return rows


def _suite_pfaffian_squares(failures):
    rng = random.Random(11001)
    Q = rationals()
    cases = 0
    for size in (2, 4, 6, 8):
        for _ in range(30):
            mat = [[Q.zero()] * size for _ in range(size)]
            for a in range(size):
                for b in range(a + 1, size):
                    c = Q.from_rational(Fraction(rng.randint(-5, 5),
                                                 rng.randint(1, 3)))
                    mat[a][b] = c
                    mat[b][a] = -c
            pf = pfaffian(mat)
            det = _det_fractions([[c.rational_value() for c in row]
                                  for row in mat])
            if (pf * pf).rational_value() != det:
                failures.append("pf^2 != det at size %d" % size)
            cases += 1
    for size in (3, 5, 7):
        mat = [[Q.zero()] * size for _ in range(size)]
        with pytest.raises(OddSizeError):
            pfaffian(mat)
        cases += 1
    return cases


def _suite_quartic_invariance(failures):
    rng = random.Random(11002)
    Q = rationals()
    cases = 0
    for _ in range(60):
        f = _random_quartic(rng, Q)
        rows = _random_sl2(rng, Q)
        g = f.compose_linear(rows)
        if classical_S(g) != classical_S(f) or \
                classical_T(g) != classical_T(f):
            failures.append("classical invariants moved under SL2")
        cases += 1
    swap = None
    for _ in range(60):
        f = _random_quartic(rng, Q)
        a = Fraction(rng.randint(1, 6), rng.randint(1, 4))
        if rng.random() < 0.5:
            a = -a
        scale = [[Q.from_rational(a), Q.zero()],
                 [Q.zero(), Q.from_rational(1 / a)]]
        swap = [[Q.zero(), Q.one()], [-Q.one(), Q.zero()]]
        for rows in (scale, swap):
            g = f.compose_linear(rows)
            if invariant_S(g) != invariant_S(f) or \
                    invariant_T(g) != invariant_T(f):
                failures.append("raw invariants moved under a monomial map")
        cases += 2
    return cases


def _suite_scaling_weights(failures):
    rng = random.Random(11003)
    Qi = gaussian_rationals()
    cases = 0
    for _ in range(100):
        f = _random_quartic(rng, Qi)
        k = Qi.element([rng.randint(-4, 4), rng.randint(-4, 4)])
        if k.is_zero():
            k = Qi.one()
        g = f.scale(k)
        if invariant_S(g) != k * k * invariant_S(f):
            failures.append("S is not weight 2 in the form")
        if invariant_T(g) != k * k * k * invariant_T(f):
            failures.append("T is not weight 3 in the form")
        cases += 1
    return cases


def _random_catalog_algebra(rng, field):
    roll = rng.randrange(4)
    g = field.generator()
    lam = field.one() + g if rng.random() < 0.5 else \
        field.from_rational(rng.randint(1, 5)) + g
    if roll == 0:
        return heisenberg(field)
    if roll == 1:
        return abelian(field, rng.randint(1, 3))
    if roll == 2:
        return r3_lambda(field, lam)
    return g1_alpha(field, lam)


def _suite_conjugation_functoriality(failures):
    rng = random.Random(11004)
    fields = [gaussian_rationals(), cyclotomic_field(8)]
    cases = 0
    for _ in range(100):
        field = rng.choice(fields)
        L = _random_catalog_algebra(rng, field)
        if rng.random() < 0.3:
            L = g_lambda(field, field.one() + field.generator())
        auts = field.automorphisms()
        sigma = rng.choice(auts)
        tau = rng.choice(auts)
        lhs = conjugate(conjugate(L, sigma), tau)
        rhs = conjugate(L, tau.compose(sigma))
        if lhs.brackets != rhs.brackets:
            failures.append("conjugation is not functorial")
        cases += 1
    return cases


def _suite_restriction_dimension(failures):
    rng = random.Random(11005)
    Q = rationals()
    fields = [gaussian_rationals(), quadratic_field(2), quadratic_field(-3),
              cyclotomic_field(8), cyclotomic_field(5)]
    cases = 0
    for _ in range(100):
        field = rng.choice(fields)
        L = _random_catalog_algebra(rng, field)
        R = restrict_scalars(L, Q).algebra
        if R.dim != field.absolute_degree() * L.dim:
            failures.append("restriction dimension formula broke")
        cases += 1
    return cases


def _suite_jacobi_preserved(failures):
    rng = random.Random(11006)
    Q = rationals()
    fields = [gaussian_rationals(), quadratic_field(2)]
    cases = 0
    for _ in range(100):
        field = rng.choice(fields)
        L = _random_catalog_algebra(rng, field)
        try:
            sigma = rng.choice(field.automorphisms())
            L2 = conjugate(L, sigma)
            L3 = direct_sum(L2, heisenberg(field))
            rows = linalg.identity_matrix(field, L3.dim)
            a, b = rng.sample(range(L3.dim), 2)
            rows[a][b] = field.from_rational(rng.randint(-3, 3))
            L4 = change_basis(L3, [list(col) for col in zip(*rows)])
            restrict_scalars(L4, Q)
            extend = extend_scalars(restrict_scalars(L, Q).algebra, field)
            assert extend.dim == L.dim * field.absolute_degree()
        except JacobiError:
            failures.append("a constructor broke the Jacobi identity")
        cases += 1
    return cases


def test_c09_randomized_property_suites(capsys):
    failures: list = []
    totals = [
        _suite_pfaffian_squares(failures),
        _suite_quartic_invariance(failures),
        _suite_scaling_weights(failures),
        _suite_conjugation_functoriality(failures),
        _suite_restriction_dimension(failures),
        _suite_jacobi_preserved(failures),
    ]
    ok = not failures and all(t >= 100 for t in totals)
    _report(capsys, 9, ok, "six seeded suites, case counts %s, failures %r"
            % (totals, failures[:3]))


def test_c10_negative_controls(capsys):
    Q = rationals()
    Qi = gaussian_rationals()
    i = Qi.generator()
    inconclusive = refute_isomorphism_by_c(g_lambda(Qi, i),
                                           g_lambda(Qi, -i))
    ok = inconclusive is False

    try:
        invariant_c_of(g_lambda(Q, Q.one()))
        ok = False
    except TVanishesError:
        pass

    triple = None
    try:
        LieAlgebra(Q, 3, {(0, 1): {2: Q.one()},
                          (0, 2): {0: Q.one()},
                          (1, 2): {1: Q.one()}})
        ok = False
    except JacobiError as exc:
        triple = exc.triple
    ok = ok and triple == (1, 2, 3)
    _report(capsys, 10, ok, "c-refutation stays silent on equal c, vanishing T "
            "raises, and the Jacobi failure names triple %r" % (triple,))
