"""Seeded workloads for the lieforms benchmark, with hand-derived answers.

``build(workload, seed, out_dir)`` writes the manifests a workload's jobs
read and a ``jobs.json`` that lists every job with its known answer.  The
answers come from closed forms (count k+1, summand dimensions as built,
S = 3*lam^2+1, T = lam-lam^3, Pf(J(z))^2 = det J(z), ...), never from the
program's output.  ``score(expect, code, report)`` grades one job.

The rules that turn a seed into inputs are stated in ``spec.json`` under
``seed_rules``; this module implements them.  Scoring imports nothing from
lieforms, so the checker stays independent of the code under test.
"""

import itertools
import json
import os
import random
import re
from fractions import Fraction

WORKLOADS = ("forms", "rebased", "descent")

CORRECT, UNDECIDED, WRONG, ERROR = "correct", "undecided", "wrong", "error"
FAILED = (WRONG, ERROR)
HEURISTIC = "HeuristicIndecomposable"
EXIT_UNKNOWN = 3


# ------------------------------------------------------ exact helpers

def gauss(text):
    """Parse a literal of Q or Q(i) as printed by lieforms: (re, im)."""
    text = text.replace(" ", "")
    if not re.fullmatch(r"([+-]?\d+(/\d+)?i?)+", text):
        raise ValueError("not a Q(i) literal: %r" % text)
    re_part, im_part = Fraction(0), Fraction(0)
    for sign, num, gen in re.findall(r"([+-]?)(\d+(?:/\d+)?)(i?)", text):
        value = Fraction(num) * (-1 if sign == "-" else 1)
        if gen:
            im_part += value
        else:
            re_part += value
    return re_part, im_part


def gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def gdiv(a, b):
    norm = b[0] * b[0] + b[1] * b[1]
    return gmul(a, (b[0] / norm, -b[1] / norm))


def gstr(a):
    """A Q(i) value as the (re, im) pair of strings stored in jobs.json."""
    return [str(a[0]), str(a[1])]


def det(matrix):
    """Determinant by Fraction Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in matrix]
    n = len(m)
    out = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            out = -out
        out *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return out


def rank(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((k for k in range(r, len(m)) if m[k][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for k in range(len(m)):
            if k != r and m[k][c]:
                f = m[k][c] / m[r][c]
                m[k] = [x - f * y for x, y in zip(m[k], m[r])]
        r += 1
    return r


# ------------------------------------------------------ scoring

def _status(code, report):
    """Errors: a raise, exit 2 or a missing report."""
    if code is None:
        return ERROR, "raised"
    if code == 2:
        return ERROR, "exited 2"
    if report is None:
        if code == EXIT_UNKNOWN:
            return UNDECIDED, "exited 3 without a report"
        return ERROR, "no JSON report (exit %s)" % code
    return None


def score(expect, code, report):
    """Grade one job: (CORRECT | UNDECIDED | WRONG | ERROR, reason)."""
    early = _status(code, report)
    if early is not None:
        return early
    kind = expect["kind"]
    if kind == "count":
        if report.get("count") != expect["count"]:
            return WRONG, "count %r, expected %d" % (report.get("count"),
                                                      expect["count"])
        return CORRECT, ""
    if kind == "match":
        status = report.get("status")
        if status == "unknown":
            return UNDECIDED, "unknown"
        if status not in expect["allowed"]:
            return WRONG, "status %r, expected %s" % (
                status, " or ".join(expect["allowed"]))
        return CORRECT, ""
    if kind == "decompose":
        summands = report.get("summands") or []
        dims = sorted(s["dim"] for s in summands)
        if dims != expect["dims"] or report.get("verified") is not True:
            return WRONG, "summand dims %r verified %r, expected %r" % (
                dims, report.get("verified"), expect["dims"])
        if code == EXIT_UNKNOWN or any(s["certificate"] == HEURISTIC
                                       for s in summands):
            return UNDECIDED, "heuristic certificate"
        return CORRECT, ""
    if kind == "restrict":
        entity = report.get("entity") or {}
        got = (report.get("dim"), entity.get("dim"), entity.get("field"))
        want = (expect["dim"], expect["dim"], expect["field"])
        if code != 0 or got != want:
            return WRONG, "restriction %r, expected %r" % (got, want)
        return CORRECT, ""
    if kind == "extend":
        entity = report.get("entity") or {}
        got = (entity.get("dim"), entity.get("field"), entity.get("brackets"))
        want = (expect["dim"], expect["field"], expect["brackets"])
        if code != 0 or got != want:
            return WRONG, "extension differs from the input constants"
        return CORRECT, ""
    if kind == "sumconjugate":
        got = (report.get("verified"), report.get("group_order"),
               report.get("sum_dim"))
        want = (True, expect["group_order"], expect["sum_dim"])
        if got != want:
            return WRONG, "sumconjugate %r, expected %r" % (got, want)
        return CORRECT, ""
    if kind == "conjugate":
        entity = report.get("entity") or {}
        if code != 0 or (entity.get("dim"), entity.get("field")) != (
                expect["dim"], expect["field"]):
            return WRONG, "conjugate has the wrong shape"
        if "line" in expect and json.dumps(entity) != expect["line"]:
            return WRONG, "round trip does not reproduce the input line"
        return CORRECT, ""
    if kind == "quartic":
        return _score_quartic(expect, code, report)
    if kind == "invariant_c":
        for key in ("S", "T", "c"):
            try:
                got = gauss(report.get(key, ""))
            except ValueError:
                return WRONG, "%s is not a Q(i) literal" % key
            if gstr(got) != expect[key]:
                return WRONG, "%s = %s, expected %s" % (
                    key, report.get(key), expect[key])
        return CORRECT, ""
    if kind == "pf_square":
        return _score_pf_square(expect, code, report)
    raise ValueError("unknown answer kind %r" % kind)


def _form_terms(report):
    return {tuple(t["exponents"]): gauss(t["coeff"])
            for t in report.get("terms", [])}


def _score_quartic(expect, code, report):
    if code != 0 or report.get("type") != [8, 2]:
        return WRONG, "type %r, expected [8, 2]" % report.get("type")
    try:
        terms = _form_terms(report)
    except ValueError:
        return WRONG, "form coefficients are not Q(i) literals"
    want = {(4, 0): (Fraction(1), Fraction(0)),
            (2, 2): tuple(Fraction(x) for x in expect["lambda"]),
            (0, 4): (Fraction(1), Fraction(0))}
    if terms != want:
        return WRONG, "form %s, expected x^4 + lam x^2 y^2 + y^4" % (
            report.get("form"))
    return CORRECT, ""


def _score_pf_square(expect, code, report):
    if code != 0 or report.get("type") != expect["type"]:
        return WRONG, "type %r, expected %r" % (report.get("type"),
                                                  expect["type"])
    try:
        terms = _form_terms(report)
    except ValueError:
        return WRONG, "form coefficients are not rational literals"
    for point, want in zip(expect["points"], expect["dets"]):
        z = [Fraction(v) for v in point]
        value = Fraction(0)
        for exps, (re_part, im_part) in terms.items():
            if im_part:
                return WRONG, "non-rational Pfaffian coefficient"
            mono = re_part
            for zk, e in zip(z, exps):
                mono *= zk ** e
            value += mono
        if value * value != Fraction(want):
            return WRONG, "Pf(J(z))^2 != det J(z) at z = %s" % point
    return CORRECT, ""


# ------------------------------------------------------ generation

class _Writer:
    """Collects manifest files and jobs for one workload."""

    def __init__(self, out_dir):
        from lieforms.manifest import algebra_entity, serialize_entity
        self.out_dir = out_dir
        self.algebra_entity = algebra_entity
        self.serialize_entity = serialize_entity
        self.units = []
        self.files = {}

    def manifest(self, filename, entities):
        lines = [self.serialize_entity(e) for e in entities]
        self.files[filename] = "".join(line + "\n" for line in lines)
        return lines

    def unit(self, *jobs):
        """Jobs that must stay adjacent and in order within a pass."""
        self.units.append(list(jobs))

    def finish(self, workload, seed, rng):
        rng.shuffle(self.units)
        jobs = [job for unit in self.units for job in unit]
        os.makedirs(self.out_dir, exist_ok=True)
        for filename, text in sorted(self.files.items()):
            with open(os.path.join(self.out_dir, filename), "w",
                      encoding="utf-8") as handle:
                handle.write(text)
        with open(os.path.join(self.out_dir, "jobs.json"), "w",
                  encoding="utf-8") as handle:
            json.dump({"workload": workload, "seed": seed, "jobs": jobs},
                      handle, indent=1, sort_keys=True)
            handle.write("\n")


def job(job_id, argv, manifests, expect, save=None):
    out = {"id": job_id, "argv": argv, "manifests": manifests,
           "expect": expect}
    if save is not None:
        out["save"] = save
    return out


# Parameters a + b*gen: every choice has the same coefficient sizes, so
# the work of a pass hardly depends on the seed.
SMALL_PAIRS = ((1, 2), (2, 1), (1, -2), (2, -1), (-1, 2), (-2, 1), (-1, -2),
               (-2, -1))


def _pair_lambda(rng, gen):
    a, b = rng.choice(SMALL_PAIRS)
    return "%d%+d%s" % (a, b, gen)


def build_forms(w, rng):
    from lieforms import (g_lambda, gaussian_rationals, heisenberg,
                          nintot_family, parse_element)
    Qi = gaussian_rationals()
    a, b = rng.choice(SMALL_PAIRS)
    lam = parse_element("%d%+di" % (a, b), Qi)
    lam_bar = parse_element("%d%+di" % (a, -b), Qi)
    entities = []
    j = rng.randint(0, 1)
    name = "nintot_k1_j%d" % j
    entities.append(w.algebra_entity(name, "Q(i)",
                                     nintot_family(Qi, lam, 1, j)))
    w.unit(job("count-forms/nintot_k1", ["count-forms", name, "--over", "Q"],
               ["forms.jsonl"], {"kind": "count", "count": 2}))
    entities.append(w.algebra_entity("h3", "Q(i)", heisenberg(Qi)))
    w.unit(job("count-forms/h3", ["count-forms", "h3", "--over", "Q"],
               ["forms.jsonl"], {"kind": "count", "count": 1}))
    entities.append(w.algebra_entity("g", "Q(i)", g_lambda(Qi, lam)))
    entities.append(w.algebra_entity("gbar", "Q(i)", g_lambda(Qi, lam_bar)))
    w.unit(job("match/g-gbar", ["match", "g", "gbar"], ["forms.jsonl"],
               {"kind": "match", "allowed": ["refuted"]}))
    entities.append(w.algebra_entity("nintot_k2_j1", "Q(i)",
                                     nintot_family(Qi, lam, 2, 1)))
    w.unit(job("decompose/nintot_k2_j1", ["decompose", "nintot_k2_j1"],
               ["forms.jsonl"], {"kind": "decompose", "dims": [10, 10]}))
    w.manifest("forms.jsonl", entities)


def unitriangular(n, rng):
    """Unitriangular P with a seeded superdiagonal from {-2, -1, 1, 2}.

    P^-1 is full upper triangular, so P.L has dense constants.  A P with
    every entry above the diagonal drawn from {-2..2} makes the cost of
    decompose swing by a quarter with the draw; this shape keeps the
    operation counts within a few percent across seeds.
    """
    return [[1 if c == r else (rng.choice((-2, -1, 1, 2)) if c == r + 1
                                else 0)
             for c in range(n)] for r in range(n)]


def build_rebased(w, rng):
    from lieforms import (abelian, change_basis, direct_sum, g1_alpha,
                          g_lambda, gaussian_rationals, heisenberg,
                          parse_element, r3_lambda, rationals)
    for fname, F in (("Q", rationals()), ("Q(i)", gaussian_rationals())):
        if fname == "Q":
            lam = parse_element(str(rng.choice((2, 3))), F)
        else:
            lam = parse_element(_pair_lambda(rng, "i"), F)
        alpha = parse_element(str(rng.choice((2, 3))), F)
        cases = [
            ("h3+h3", direct_sum(heisenberg(F), heisenberg(F)), [3, 3]),
            ("r3+g1+ab1", direct_sum(r3_lambda(F, lam), g1_alpha(F, alpha),
                                     abelian(F, 1)), [1, 3, 4]),
            ("r3+r3inv", direct_sum(r3_lambda(F, lam),
                                    r3_lambda(F, lam.inverse())), [3, 3]),
        ]
        if fname == "Q":
            # Over Q(i) the two g_lambda jobs would cost twice the rest of
            # the pass together.
            g_lam = parse_element(rng.choice(("3", "1/2")), F)
            cases.append(("g_lambda", g_lambda(F, g_lam), [10]))
        for label, L, dims in cases:
            PL = change_basis(L, unitriangular(L.dim, rng))
            base = "%s/%s" % (fname, label)
            filename = "rebased_%s_%s.jsonl" % (
                "Qi" if fname == "Q(i)" else "Q", label.replace("+", "_"))
            w.manifest(filename, [w.algebra_entity("L", fname, L),
                                  w.algebra_entity("PL", fname, PL)])
            w.unit(job(base + "/match", ["match", "L", "PL"], [filename],
                       {"kind": "match", "allowed": ["matched"]}))
            w.unit(job(base + "/decompose", ["decompose", "PL"], [filename],
                       {"kind": "decompose", "dims": dims}))


# (name, base, generator, degree over base, automorphism images to draw,
#  whether nintot(lam, 2, 1) is built over it)
DESCENT_FIELDS = (
    ("Q(i)", "Q", "i", 2, ("-1i",), True),
    ("Q(sqrt2)", "Q", "r2", 2, ("-1r2",), False),
    ("Q(zeta8)", "Q", "z8", 4, ("1z8^3", "-1z8", "-1z8^3"), False),
    ("Q(i)(sqrt2)", "Q(i)", "s", 2, ("-1s",), True),
)


def _tower_field():
    from lieforms import field_extend, gaussian_rationals
    from lieforms.polynomials import Polynomial
    Qi = gaussian_rationals()
    minpoly = Polynomial(Qi, [Qi.from_rational(-2), Qi.zero(), Qi.one()])
    return field_extend(Qi, minpoly, "s",
                        [[Qi.zero(), Qi.one()], [Qi.zero(), -Qi.one()]])


def build_descent(w, rng):
    from lieforms import (g_lambda, heisenberg, nintot_family,
                          parse_element, r3_lambda)
    from lieforms.manifest import builtin_field, field_entity
    tower = _tower_field()
    w.manifest("tower.jsonl", [field_entity("Q(i)(sqrt2)", tower, "Q(i)")])
    for fname, base, gen, degree, images, with_nintot in DESCENT_FIELDS:
        E = tower if fname == "Q(i)(sqrt2)" else builtin_field(fname)
        F = E.base
        lam = parse_element(_pair_lambda(rng, gen), E)
        sigma = rng.choice(images)
        fields = ["tower.jsonl"] if base != "Q" else []
        algebras = [("h3", heisenberg(E)), ("r3", r3_lambda(E, lam)),
                    ("g", g_lambda(E, lam))]
        if with_nintot:
            algebras.append(("nintot", nintot_family(E, lam, 2, 1)))
        for label, L in algebras:
            base_id = "%s/%s" % (fname, label)
            filename = "descent_%s_%s.jsonl" % (gen, label)
            line = w.manifest(filename, [w.algebra_entity("L", fname, L)])[0]
            manifests = fields + [filename]
            w.unit(job(base_id + "/restrict", ["restrict", "L", "--to", base],
                       manifests, {"kind": "restrict", "field": base,
                                   "dim": L.dim * degree}))
            w.unit(job(base_id + "/verify-sumconjugate",
                       ["verify-sumconjugate", "L", "--over", base],
                       manifests, {"kind": "sumconjugate",
                                   "group_order": degree,
                                   "sum_dim": L.dim * degree}))
            saved = "saved_%s_%s.jsonl" % (gen, label)
            shape = {"kind": "conjugate", "dim": L.dim, "field": fname}
            w.unit(job(base_id + "/conjugate",
                       ["conjugate", "L", "--sigma=" + sigma, "--name", "Lc"],
                       manifests, shape, save=saved),
                   # every automorphism drawn above is an involution
                   job(base_id + "/conjugate-back",
                       ["conjugate", "Lc", "--sigma=" + sigma, "--name", "L"],
                       fields + [saved], dict(shape, line=line)))
        q = rng.choice((2, 3))
        Fq = F.from_rational(q)
        for label, L in (("h3", heisenberg(F)), ("r3", r3_lambda(F, Fq)),
                         ("g", g_lambda(F, Fq))):
            filename = "extend_%s_%s.jsonl" % (gen, label)
            entity = w.algebra_entity("B", base, L)
            w.manifest(filename, [entity])
            w.unit(job("%s/%s/extend" % (fname, label),
                       ["extend", "B", "--to", fname], fields + [filename],
                       {"kind": "extend", "field": fname, "dim": L.dim,
                        "brackets": entity["brackets"]}))


def _rational_lambdas(rng, count):
    out = []
    while len(out) < count:
        lam = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        if lam not in (0, 1, -1) and lam not in out:
            out.append(lam)
    return out


def dense_two_step(p, q, rng):
    """Constants c[(a, b)] for [X_a, X_b] = sum_k c[(a, b)][k] Z_k: every
    pair gets a nonzero vector from {-2..2}^q, so every entry of J(z) is a
    nonzero linear form; redrawn until the q directions are all reached."""
    vectors = [v for v in itertools.product(range(-2, 3), repeat=q) if any(v)]
    pairs = [(a, b) for a in range(p) for b in range(a + 1, p)]
    while True:
        consts = {pair: list(rng.choice(vectors)) for pair in pairs}
        if rank(list(consts.values())) == q:
            return consts


def build_invariants(w, rng):
    from lieforms import (LieAlgebra, g_lambda, gaussian_rationals,
                          parse_element, rationals)
    Q, Qi = rationals(), gaussian_rationals()
    values = [("Q", Q, (lam, Fraction(0)))
              for lam in _rational_lambdas(rng, 3)]
    seen = set()
    while len(seen) < 3:
        seen.add((rng.randint(-3, 3), rng.randint(1, 3)))
    values += [("Q(i)", Qi, (Fraction(a), Fraction(b)))
               for a, b in sorted(seen)]
    if (Fraction(0), Fraction(1)) not in [v[2] for v in values]:
        values.append(("Q(i)", Qi, (Fraction(0), Fraction(1))))
    entities = []
    for pos, (fname, F, lam) in enumerate(values):
        name = "g%d" % pos
        text = str(lam[0]) if fname == "Q" else "%s+%si" % lam
        entities.append(w.algebra_entity(name, fname,
                                         g_lambda(F, parse_element(text, F))))
        lam2 = gmul(lam, lam)
        S = gadd(gmul((Fraction(3), Fraction(0)), lam2), (Fraction(1), 0))
        T = gadd(lam, gmul((Fraction(-1), Fraction(0)), gmul(lam2, lam)))
        c = gdiv(gmul(S, gmul(S, S)), gmul(T, T))
        label = "%s/lambda=%s" % (fname, text)
        w.unit(job(label + "/pfaffian", ["pfaffian", name],
                   ["invariants.jsonl"],
                   {"kind": "quartic", "lambda": gstr(lam)}))
        w.unit(job(label + "/invariant-c", ["invariant-c", name],
                   ["invariants.jsonl"],
                   {"kind": "invariant_c", "S": gstr(S), "T": gstr(T),
                    "c": gstr(c)}))
    for p, q in ((8, 2), (10, 2), (12, 2), (8, 3)):
        consts = dense_two_step(p, q, rng)
        name = "dense_%d_%d" % (p, q)
        brackets = {(a, b): {p + k: c for k, c in enumerate(cs) if c}
                    for (a, b), cs in consts.items()}
        entities.append(w.algebra_entity(name, "Q",
                                         LieAlgebra(Q, p + q, brackets)))
        points, dets = [], []
        for _ in range(2):
            z = [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                 for _ in range(q)]
            J = [[Fraction(0)] * p for _ in range(p)]
            for (a, b), cs in consts.items():
                J[a][b] = sum(c * zk for c, zk in zip(cs, z))
                J[b][a] = -J[a][b]
            points.append([str(v) for v in z])
            dets.append(str(det(J)))
        w.unit(job("Q/%s/pfaffian" % name, ["pfaffian", name],
                   ["invariants.jsonl"],
                   {"kind": "pf_square", "type": [p, q], "points": points,
                    "dets": dets}))
    w.manifest("invariants.jsonl", entities)


# A workload's jobs come from one or more parts; each part draws from its
# own stream, so adding a part to a workload leaves the others' draws alone.
PARTS = {"forms": (("forms", build_forms), ("invariants", build_invariants)),
         "rebased": (("rebased", build_rebased),),
         "descent": (("descent", build_descent),)}


def build(workload, seed, out_dir):
    """Write the workload's manifests and jobs.json for this seed."""
    writer = _Writer(out_dir)
    for part, builder in PARTS[workload]:
        builder(writer, random.Random("%s:%d" % (part, seed)))
    writer.finish(workload, seed,
                  random.Random("order:%s:%d" % (workload, seed)))
