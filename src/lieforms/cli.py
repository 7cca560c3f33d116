"""Command-line front end.

Algebras and fields are named entities loaded from manifest files
(``--manifest FILE``, repeatable) or, for fields, builtin specs such as
``Q``, ``Q(i)``, ``Q(sqrt2)``, and ``Q(zeta8)``.  Commands that build
algebras (``catalog``, ``conjugate``, ``restrict``, ``extend``) print
manifest entity lines so their output can be appended to a manifest and
fed back in.

Exit codes: 0 success/verified, 1 refuted/false, 2 input or parse
error, 3 unknown or uncertified verdict.
"""

import argparse
import dataclasses
import json
import sys

from .errors import (
    JacobiError,
    LieformsError,
    ManifestError,
    OracleUndecidedError,
    UncertifiedDecompositionError,
)
from .fields import FieldTower, format_element, parse_element
from .liealg import LieAlgebra, fingerprint
from .descent import (
    conjugate,
    extend_scalars,
    restrict_scalars,
    verify_sumconjugate,
)
from .decompose import (
    count_forms,
    decompose_indecomposable,
    krull_schmidt_match,
    witness_invariants,
)
from .pfaffian import (
    invariant_S,
    invariant_T,
    invariant_c,
    pfaffian_form,
    quartic_form_of,
)
from .catalog import (
    abelian,
    g1_alpha,
    g_lambda,
    heisenberg,
    nintot_family,
    r3_lambda,
    r3_lambda_plus_abelian,
)
from .manifest import (
    Manifest,
    algebra_entity,
    field_entity,
    load_manifest,
    serialize_entity,
)

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INPUT = 2
EXIT_UNKNOWN = 3


# ------------------------------------------------------------------ plumbing

def _load(args) -> Manifest:
    man = Manifest()
    for path in (args.manifest or []):
        load_manifest(path, man)
    return man


def _emit(args, lines, payload) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        for line in lines:
            print(line)


def _resolve_sigma(field: FieldTower, spec: str):
    """An automorphism by name: "id", an index, or a generator image."""
    auts = field.automorphisms()
    s = spec.strip()
    if s in ("id", "identity"):
        return auts[0]
    try:
        idx = int(s)
    except ValueError:
        idx = None
    if idx is not None:
        if 0 <= idx < len(auts):
            return auts[idx]
        raise ManifestError("automorphism index %d out of range (have %d)"
                            % (idx, len(auts)))
    img = parse_element(s, field)
    for aut in auts:
        if aut.image is not None and aut.image == img:
            return aut
    raise ManifestError("no automorphism sends the generator to %s" % s)


def _format_form(form) -> str:
    if form.is_zero():
        return "0"
    if form.nvars == 2:
        names = ("x", "y")
    else:
        names = tuple("z%d" % (k + 1) for k in range(form.nvars))
    pieces = []
    for exps in sorted(form.terms, reverse=True):
        c = form.terms[exps]
        mono = "".join(
            name + ("^%d" % e if e > 1 else "")
            for name, e in zip(names, exps) if e > 0)
        if c.is_rational():
            val = c.rational_value()
            sign = "-" if val < 0 else "+"
            mag = abs(val)
            if mag == 1 and mono:
                body = mono
            else:
                body = str(mag) + mono
        else:
            sign = "+"
            body = "(%s)%s" % (format_element(c), mono)
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        out += " %s %s" % (sign, body)
    return out


def _form_terms(form):
    return [{"exponents": list(exps),
             "coeff": format_element(form.terms[exps])}
            for exps in sorted(form.terms, reverse=True)]


# ------------------------------------------------------------------ commands

def cmd_check(args) -> int:
    man = _load(args)
    try:
        L = man.algebra(args.algebra)
    except JacobiError as exc:
        _emit(args,
              ["algebra: %s" % args.algebra,
               "jacobi: failed on basis triple %r" % (exc.triple,)],
              {"command": "check", "algebra": args.algebra, "jacobi": False,
               "offending_triple": list(exc.triple)})
        return EXIT_REFUTED
    fp = fingerprint(L)
    lines = ["algebra: %s" % args.algebra, "jacobi: ok"]
    for key, value in dataclasses.asdict(fp).items():
        lines.append("%s: %s" % (key, value))
    _emit(args, lines,
          {"command": "check", "algebra": args.algebra, "jacobi": True,
           "fingerprint": dataclasses.asdict(fp)})
    return EXIT_OK


def cmd_conjugate(args) -> int:
    man = _load(args)
    L = man.algebra(args.algebra)
    sigma = _resolve_sigma(L.field, args.sigma)
    out = conjugate(L, sigma)
    name = args.name or "%s_sigma%d" % (args.algebra, sigma.index)
    entity = algebra_entity(name, man.algebra_field_name(args.algebra), out)
    _emit(args, [serialize_entity(entity)],
          {"command": "conjugate", "algebra": args.algebra,
           "sigma": repr(sigma), "entity": entity})
    return EXIT_OK


def cmd_restrict(args) -> int:
    man = _load(args)
    L = man.algebra(args.algebra)
    F = man.field(args.to)
    restricted = restrict_scalars(L, F).algebra
    name = args.name or "%s_over_%s" % (args.algebra, args.to)
    entity = algebra_entity(name, args.to, restricted)
    _emit(args, [serialize_entity(entity)],
          {"command": "restrict", "algebra": args.algebra, "to": args.to,
           "dim": restricted.dim, "entity": entity})
    return EXIT_OK


def cmd_extend(args) -> int:
    man = _load(args)
    L = man.algebra(args.algebra)
    E = man.field(args.to)
    extended = extend_scalars(L, E)
    name = args.name or "%s_in_%s" % (args.algebra, args.to)
    entity = algebra_entity(name, args.to, extended)
    _emit(args, [serialize_entity(entity)],
          {"command": "extend", "algebra": args.algebra, "to": args.to,
           "entity": entity})
    return EXIT_OK


def cmd_verify_sumconjugate(args) -> int:
    man = _load(args)
    L = man.algebra(args.algebra)
    F = man.field(args.over)
    report = verify_sumconjugate(L, F)
    lines = [
        "verified: %s" % ("true" if report.is_isomorphism else "false"),
        "group_order: %d" % len(report.group),
        "sum_dim: %d" % report.sum_algebra.dim,
    ]
    _emit(args, lines,
          {"command": "verify-sumconjugate", "algebra": args.algebra,
           "over": args.over, "verified": report.is_isomorphism,
           "group_order": len(report.group),
           "sum_dim": report.sum_algebra.dim})
    return EXIT_OK if report.is_isomorphism else EXIT_REFUTED


def cmd_decompose(args) -> int:
    man = _load(args)
    L = man.algebra(args.algebra)
    dec = decompose_indecomposable(L)
    lines = ["summands: %d" % len(dec)]
    summary = []
    for pos, s in enumerate(dec.summands, start=1):
        lines.append("summand %d: dim=%d certificate=%s (%s)"
                     % (pos, s.algebra.dim, s.certificate, s.detail))
        summary.append({
            "dim": s.algebra.dim,
            "certificate": s.certificate,
            "detail": s.detail,
            "basis": [[format_element(c) for c in row] for row in s.rows],
        })
    lines.append("verified: %s" % ("true" if dec.verified else "false"))
    _emit(args, lines,
          {"command": "decompose", "algebra": args.algebra,
           "summands": summary, "verified": dec.verified})
    if dec.verified and dec.all_certified:
        return EXIT_OK
    return EXIT_UNKNOWN


def cmd_pfaffian(args) -> int:
    man = _load(args)
    L = man.algebra(args.algebra)
    pf = pfaffian_form(L)
    lines = ["type: (%d, %d)" % pf.type, "form: %s" % _format_form(pf.form)]
    _emit(args, lines,
          {"command": "pfaffian", "algebra": args.algebra,
           "type": list(pf.type), "form": _format_form(pf.form),
           "terms": _form_terms(pf.form)})
    return EXIT_OK


def cmd_invariant_c(args) -> int:
    man = _load(args)
    L = man.algebra(args.algebra)
    form = quartic_form_of(L)
    value = invariant_c(form)
    _emit(args, [format_element(value)],
          {"command": "invariant-c", "algebra": args.algebra,
           "c": format_element(value),
           "S": format_element(invariant_S(form)),
           "T": format_element(invariant_T(form))})
    return EXIT_OK


def cmd_count_forms(args) -> int:
    man = _load(args)
    L = man.algebra(args.algebra)
    F = man.field(args.over)
    fc = count_forms(L, F)
    lines = [str(fc.count)]
    report_witnesses = []
    for pos, blocks in enumerate(fc.witness_blocks, start=1):
        vals = witness_invariants(blocks)
        shown = [format_element(v) if v is not None else "-" for v in vals]
        lines.append("witness %d: blocks=%d c=[%s]"
                     % (pos, len(blocks), ", ".join(shown)))
        report_witnesses.append({"blocks": len(blocks), "c": shown})
    _emit(args, lines,
          {"command": "count-forms", "algebra": args.algebra,
           "over": args.over, "count": fc.count,
           "group_order": len(fc.group), "witnesses": report_witnesses})
    return EXIT_OK


def cmd_catalog(args) -> int:
    man = _load(args)
    field = man.field(args.field)
    L = _catalog_algebra(args, field)
    name = args.name or args.family
    entities = []
    if (not field.is_rationals and args.field not in man.field_names
            and field.base.is_rationals):
        entities.append(field_entity(args.field, field, "Q"))
    entities.append(algebra_entity(name, args.field, L))
    _emit(args, [serialize_entity(e) for e in entities],
          {"command": "catalog", "family": args.family,
           "entities": entities})
    return EXIT_OK


def _catalog_algebra(args, field: FieldTower) -> LieAlgebra:
    family = args.family

    def lam():
        if args.lam is None:
            raise ManifestError("family %r needs --lambda" % family)
        return parse_element(args.lam, field)

    if family == "heisenberg":
        return heisenberg(field)
    if family == "abelian":
        if args.n is None:
            raise ManifestError("family 'abelian' needs --n")
        return abelian(field, args.n)
    if family == "g_lambda":
        return g_lambda(field, lam())
    if family == "r3_lambda":
        return r3_lambda(field, lam())
    if family == "r3_lambda_plus_abelian":
        return r3_lambda_plus_abelian(field, lam())
    if family == "g1_alpha":
        if args.alpha is None:
            raise ManifestError("family 'g1_alpha' needs --alpha")
        return g1_alpha(field, parse_element(args.alpha, field))
    if family == "nintot":
        if args.k is None or args.j is None:
            raise ManifestError("family 'nintot' needs --k and --j")
        return nintot_family(field, lam(), args.k, args.j)
    raise ManifestError("unknown catalog family %r" % family)


def cmd_match(args) -> int:
    man = _load(args)
    first = decompose_indecomposable(man.algebra(args.algebra))
    second = (first if args.other == args.algebra
              else decompose_indecomposable(man.algebra(args.other)))
    report = krull_schmidt_match(first, second)
    lines = ["status: %s" % report.status]
    if report.pairing is not None:
        pairing = sorted(report.pairing)
        lines.append("pairing: %s" % ", ".join(
            "%d->%d" % pair for pair in pairing))
    if report.reason:
        lines.append("reason: %s" % report.reason)
    payload = {"command": "match", "first": args.algebra,
               "second": args.other, "status": report.status,
               "pairing": (None if report.pairing is None
                           else [list(p) for p in sorted(report.pairing)]),
               "reason": report.reason}
    _emit(args, lines, payload)
    if report.status == "matched":
        return EXIT_OK
    if report.status == "refuted":
        return EXIT_REFUTED
    return EXIT_UNKNOWN


# ------------------------------------------------------------------ parser

_ALGEBRA = (("algebra",), {})
_OVER = (("--over",), {"required": True, "metavar": "FIELD"})
_TO = (("--to",), {"required": True, "metavar": "FIELD"})

# Every subcommand: name -> (help, handler, arguments), each argument as
# (flags, keywords) for add_argument; --manifest and --json follow.
COMMANDS = {
    "check": ("validate Jacobi and report the fingerprint", cmd_check,
              [_ALGEBRA]),
    "conjugate": (
        "apply a field automorphism to the constants", cmd_conjugate,
        [_ALGEBRA,
         (("--sigma",), {"required": True, "help": '"id", an index, or a '
                         'generator image like "-1i"'}),
         (("--name",), {"help": "name for the emitted algebra entity"})]),
    "restrict": ("restrict scalars to a lower tower level", cmd_restrict,
                 [_ALGEBRA, _TO, (("--name",), {})]),
    "extend": ("extend scalars to a larger tower", cmd_extend,
               [_ALGEBRA, _TO, (("--name",), {})]),
    "verify-sumconjugate": (
        "check L tensor E = sum of conjugates via the explicit map",
        cmd_verify_sumconjugate, [_ALGEBRA, _OVER]),
    "decompose": ("split into indecomposable ideals", cmd_decompose,
                  [_ALGEBRA]),
    "pfaffian": ("Pfaffian form of a two-step algebra", cmd_pfaffian,
                 [_ALGEBRA]),
    "invariant-c": ("the quartic invariant c = S^3 / T^2", cmd_invariant_c,
                    [_ALGEBRA]),
    "count-forms": ("count forms over a lower tower level", cmd_count_forms,
                    [_ALGEBRA, _OVER]),
    "catalog": (
        "emit a named family as entities", cmd_catalog,
        [(("family",), {"help": "heisenberg | abelian | g_lambda | "
                        "r3_lambda | r3_lambda_plus_abelian | g1_alpha | "
                        "nintot"}),
         (("--field",), {"default": "Q", "help": 'field spec, e.g. "Q(i)"'}),
         (("--lambda",), {"dest": "lam", "metavar": "ELEM"}),
         (("--alpha",), {"metavar": "ELEM"}),
         (("--n",), {"type": int}),
         (("--k",), {"type": int}),
         (("--j",), {"type": int}),
         (("--name",), {})]),
    "match": ("compare indecomposable decompositions", cmd_match,
              [_ALGEBRA, (("other",), {})]),
}

_COMMON = [
    (("--manifest",), {"action": "append", "metavar": "FILE",
                       "help": "manifest file to load (repeatable)"}),
    (("--json",), {"action": "store_true",
                   "help": "emit one machine-readable report object"}),
]


def _add_command(parser: argparse.ArgumentParser, name: str) -> None:
    _, handler, arguments = COMMANDS[name]
    for flags, keywords in arguments + _COMMON:
        parser.add_argument(*flags, **keywords)
    parser.set_defaults(handler=handler, command=name)


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, with every command as a subcommand."""
    parser = argparse.ArgumentParser(
        prog="lieforms",
        description="Exact Lie algebra computations over Galois extensions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_text), name)
    return parser


def command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one command alone, built as build_parser builds its
    subcommand: the same prog, arguments, help and errors."""
    parser = argparse.ArgumentParser(prog="lieforms " + name)
    _add_command(parser, name)
    return parser


def parse_args(argv) -> argparse.Namespace:
    """The namespace build_parser().parse_args(argv) gives, with its help,
    errors and exit codes.

    A command named first is parsed by its own parser: building one
    command's parser instead of all eleven is most of a short command's
    setup.  Arguments it does not know are reported by the full parser,
    under the top-level usage, as they would be there.
    """
    if argv and argv[0] in COMMANDS:
        args, unknown = command_parser(argv[0]).parse_known_args(argv[1:])
        if not unknown:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parse_args(argv)
    try:
        return args.handler(args)
    except (UncertifiedDecompositionError, OracleUndecidedError) as exc:
        print("unknown: %s" % exc, file=sys.stderr)
        return EXIT_UNKNOWN
    except LieformsError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
