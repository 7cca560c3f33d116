"""Built-in constructors for the named Lie algebra families.

Every constructor records its defining parameters in ``meta["params"]`` as
field elements, so conjugating a catalog algebra by sigma yields exactly the
constructor's output at the conjugated parameter (same labels, same meta
shape, constants mapped through sigma).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import (
    ConstraintViolatedError,
    IndexRangeError,
    NotGaloisError,
    TowerMismatchError,
    ZeroAlphaError,
    ZeroLambdaError,
)
from .fields import (
    FieldElement,
    FieldTower,
    coords_over,
    galois_group,
)
from .liealg import (ALGEBRA_DIM_CAP, LieAlgebra, _coerce, change_basis,
                     direct_sum)
from .descent import defined_over_witness_check


# ------------------------------------------------------------ flat families


def heisenberg(field: FieldTower) -> LieAlgebra:
    """The three-dimensional Heisenberg algebra [X, Y] = Z."""
    return LieAlgebra(field, 3, {(0, 1): {2: 1}},
                      labels=("X", "Y", "Z"),
                      meta={"name": "h3", "family": "heisenberg",
                            "params": {}})


def abelian(field: FieldTower, n: int) -> LieAlgebra:
    """The abelian algebra of dimension n, 1 <= n <= ALGEBRA_DIM_CAP."""
    if not 1 <= n <= ALGEBRA_DIM_CAP:
        raise IndexRangeError("abelian algebra needs 1 <= dimension <= %d"
                              % ALGEBRA_DIM_CAP)
    return LieAlgebra(field, n, {},
                      meta={"name": "abelian%d" % n, "family": "abelian",
                            "params": {}})


def g_lambda(field: FieldTower, lam) -> LieAlgebra:
    """The ten-dimensional two-step family with Pfaffian form
    x^4 + lambda x^2 y^2 + y^4.

    Basis X1..X8, Z1, Z2 with [X1,X5] = [X2,X6] = [X3,X7] = [X4,X8] = Z1,
    [X2,X5] = [X3,X6] = [X4,X7] = Z2, [X1,X8] = -Z2, [X2,X7] = -lambda Z2.
    """
    lam = _coerce(field, lam)
    one = field.one()
    brackets = {
        (0, 4): {8: one}, (1, 5): {8: one}, (2, 6): {8: one},
        (3, 7): {8: one},
        (1, 4): {9: one}, (2, 5): {9: one}, (3, 6): {9: one},
        (0, 7): {9: -one}, (1, 6): {9: -lam},
    }
    labels = tuple("X%d" % t for t in range(1, 9)) + ("Z1", "Z2")
    return LieAlgebra(field, 10, brackets, labels,
                      meta={"name": "g_lambda", "family": "g_lambda",
                            "params": {"lambda": lam}})


def r3_lambda(field: FieldTower, lam) -> LieAlgebra:
    """The solvable family [X1,X2] = X2, [X1,X3] = lambda X3, lambda != 0."""
    lam = _coerce(field, lam)
    if lam.is_zero():
        raise ZeroLambdaError("r3_lambda needs lambda != 0")
    brackets = {(0, 1): {1: field.one()}, (0, 2): {2: lam}}
    return LieAlgebra(field, 3, brackets, ("X1", "X2", "X3"),
                      meta={"name": "r3_lambda", "family": "r3_lambda",
                            "params": {"lambda": lam}})


def r3_lambda_plus_abelian(field: FieldTower, lam) -> LieAlgebra:
    """r3_lambda extended by a central abelian direction X4."""
    lam = _coerce(field, lam)
    if lam.is_zero():
        raise ZeroLambdaError("r3_lambda_plus_abelian needs lambda != 0")
    brackets = {(0, 1): {1: field.one()}, (0, 2): {2: lam}}
    return LieAlgebra(field, 4, brackets, ("X1", "X2", "X3", "X4"),
                      meta={"name": "r3_lambda_plus_abelian",
                            "family": "r3_lambda_plus_abelian",
                            "params": {"lambda": lam}})


def g1_alpha(field: FieldTower, alpha) -> LieAlgebra:
    """The solvable family [X1,X2] = X2, [X1,X3] = X3, [X1,X4] = alpha X4."""
    alpha = _coerce(field, alpha)
    if alpha.is_zero():
        raise ZeroAlphaError("g1_alpha needs alpha != 0")
    one = field.one()
    brackets = {(0, 1): {1: one}, (0, 2): {2: one}, (0, 3): {3: alpha}}
    return LieAlgebra(field, 4, brackets, ("X1", "X2", "X3", "X4"),
                      meta={"name": "g1_alpha", "family": "g1_alpha",
                            "params": {"alpha": alpha}})


def nintot_family(field: FieldTower, lam, k: int, j: int) -> LieAlgebra:
    """Direct sum of j copies of g_lambda and k - j copies of its conjugate.

    The conjugate is taken with the nontrivial automorphism of the (required
    quadratic) top level of the field tower.
    """
    if k < 1:
        raise IndexRangeError("nintot_family needs k >= 1 summands")
    if 10 * k > ALGEBRA_DIM_CAP:
        raise IndexRangeError("nintot_family needs dimension 10 k <= %d"
                              % ALGEBRA_DIM_CAP)
    if not 0 <= j <= k:
        raise IndexRangeError("nintot_family needs 0 <= j <= k")
    if field.is_rationals:
        raise ConstraintViolatedError(
            "nintot_family needs a quadratic extension at the top level")
    if field.minpoly.degree != 2:
        raise ConstraintViolatedError(
            "nintot_family needs the top level to be quadratic, got degree %d"
            % field.minpoly.degree)
    lam = _coerce(field, lam)
    group = galois_group(field, field.base)
    sigma = group.elements[1]
    summands = ([g_lambda(field, lam)] * j
                + [g_lambda(field, sigma(lam))] * (k - j))
    total = direct_sum(*summands)
    total.meta.update({"name": "nintot", "family": "nintot",
                       "params": {"lambda": lam},
                       "copies": k, "plain_copies": j})
    return total


# ------------------------------------------------ isomorphism certificates


def r3_iso_criterion(lam, mu) -> bool:
    """True iff r3_lambda and r3_mu are isomorphic: lambda = mu or
    lambda * mu = 1."""
    if lam.is_zero() or mu.is_zero():
        raise ZeroLambdaError("r3 parameters must be nonzero")
    if lam.field != mu.field:
        raise TowerMismatchError("r3 parameters over different fields")
    one = lam.field.one()
    return lam == mu or lam * mu == one


def r3_iso_certificate(lam, mu):
    """Matrix of an isomorphism r3_lambda -> r3_mu (columns are images of
    the source basis), or None when the criterion fails.

    For mu = 1/lambda the map X1 -> lambda X1, X2 -> X3, X3 -> X2 works:
    [lambda X1, X3] = lambda mu X3 = X3 and [lambda X1, X2] = lambda X2.
    """
    if not r3_iso_criterion(lam, mu):
        return None
    field = lam.field
    one, zero = field.one(), field.zero()
    if lam == mu:
        return linalg.identity_matrix(field, 3)
    return [[lam, zero, zero],
            [zero, zero, one],
            [zero, one, zero]]


def g1_iso_criterion(alpha, beta) -> bool:
    """True iff g1_alpha and g1_beta are isomorphic: alpha = beta."""
    if alpha.is_zero() or beta.is_zero():
        raise ZeroAlphaError("g1 parameters must be nonzero")
    if alpha.field != beta.field:
        raise TowerMismatchError("g1 parameters over different fields")
    return alpha == beta


# ------------------------------------------------------- descent witnesses


@dataclass(frozen=True)
class OverFWitness:
    """Report certifying that r3_lambda is defined over the base field.

    x_algebra carries the brackets [X1,X2] = X2, [X1,X3] = sigma(lambda) X3;
    matrix columns express the Y-basis (whose constants lie in the base
    field) in the X coordinates.
    """

    base: FieldTower
    field: FieldTower
    lam: FieldElement
    a: FieldElement
    sigma_lam: FieldElement
    x_algebra: LieAlgebra
    y_algebra: LieAlgebra
    matrix: tuple
    checks: dict
    verified: bool


def overFprop_witness(F: FieldTower, a, lam) -> OverFWitness:
    """Construct and verify the descent witness for r3_lambda over F.

    Requires lambda^2 + a*lambda + 1 = 0 with a in F, a != 2, and lambda
    outside F. Builds the algebra with base-field constants
    [Y1,Y2] = Y3, [Y1,Y3] = (a-2) Y2 + (2-a) Y3 and the X-basis
    X1 = Y1/(lambda+1), X2 = -(sigma(lambda)+1) Y2 + Y3,
    X3 = -(lambda+1) Y2 + Y3 inside it.
    """
    E = lam.field
    a_E = _coerce(E, a)
    one, zero = E.one(), E.zero()
    two = one + one
    if not (lam * lam + a_E * lam + one).is_zero():
        raise ConstraintViolatedError(
            "lambda^2 + a*lambda + 1 must vanish")
    cs = coords_over(a_E, F)
    if any(not c.is_zero() for c in cs[1:]):
        raise ConstraintViolatedError("a must lie in the base field")
    if a_E == two:
        raise ConstraintViolatedError("a = 2 forces lambda = -1 in F")
    lam_cs = coords_over(lam, F)
    if all(c.is_zero() for c in lam_cs[1:]):
        raise ConstraintViolatedError("lambda already lies in the base field")
    if lam == -one:
        raise ConstraintViolatedError("lambda = -1 lies in the base field")

    sigma_lam = -a_E - lam
    try:
        group = galois_group(E, F)
    except NotGaloisError as exc:
        raise ConstraintViolatedError(
            "field of lambda is not Galois over the base: %s" % exc)
    sigma = None
    for cand in group.elements:
        if cand(lam) == sigma_lam and not cand.is_identity():
            sigma = cand
            break
    if sigma is None:
        raise ConstraintViolatedError(
            "no automorphism over the base sends lambda to 1/lambda")

    x_algebra = LieAlgebra(
        E, 3, {(0, 1): {1: one}, (0, 2): {2: sigma_lam}},
        ("X1", "X2", "X3"),
        meta={"name": "r3_lambda", "family": "r3_lambda",
              "params": {"lambda": sigma_lam}})

    # Columns of Q express the X-basis in Y-coordinates; inverting gives
    # the Y-basis in X-coordinates, which is what change_basis consumes.
    lam1 = lam + one
    q_mat = [[lam1.inverse(), zero, zero],
             [zero, -(sigma_lam + one), -lam1],
             [zero, one, one]]
    p_mat = linalg.inverse(q_mat, E)
    y_algebra = change_basis(x_algebra, p_mat)

    checks = {
        "x_bracket_table": (
            x_algebra.bracket_basis(0, 1) == {1: one}
            and x_algebra.bracket_basis(0, 2) == {2: sigma_lam}
            and x_algebra.bracket_basis(1, 2) == {}),
        "y_bracket_table": (
            y_algebra.bracket_basis(0, 1) == {2: one}
            and y_algebra.bracket_basis(0, 2) == {1: a_E - two,
                                                  2: two - a_E}
            and y_algebra.bracket_basis(1, 2) == {}),
        "constants_in_base": defined_over_witness_check(x_algebra, F, p_mat),
    }
    return OverFWitness(
        base=F, field=E, lam=lam, a=a_E, sigma_lam=sigma_lam,
        x_algebra=x_algebra, y_algebra=y_algebra,
        matrix=tuple(tuple(r) for r in p_mat),
        checks=checks, verified=all(checks.values()))
