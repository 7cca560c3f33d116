"""Line-oriented manifest files describing fields and algebras.

A manifest is UTF-8 text with one JSON object per non-blank line.  Two
entity shapes exist:

  field   {"name", "base", "gen", "minpoly": [coeffs], "automorphisms":
           [[coords], ...]}
  algebra {"name", "field", "dim", "brackets": [{"i", "j", "k", "coeff"}]}

All numeric payloads are element literals (strings) so the files stay
bit-exact and diff-friendly.  Minimal-polynomial coefficients are listed
from the constant term upward and are parsed against the base field, as
are the generator-image coordinates of each automorphism.  Bracket
indices are 1-based with i < j enforced at parse time; coefficients are
parsed against the algebra's field.

Field references resolve against earlier manifest entries first and then
against the builtin names Q, Q(i), Q(sqrt<d>), and Q(zeta<n>).  Parsing
canonicalizes entries (sorted brackets, formatted coefficients), and
serializing a parsed manifest reproduces canonical input byte for byte.
"""

import json
import re

from .errors import DegenerateError, ManifestError
from .fields import (
    FieldTower,
    cyclotomic_field,
    field_extend,
    format_element,
    gaussian_rationals,
    parse_element,
    quadratic_field,
    rationals,
)
from .polynomials import QUADRATIC_RADICAND_CAP, Polynomial
from .liealg import ALGEBRA_DIM_CAP, LieAlgebra

_BUILTIN_SQRT = re.compile(r"Q\(sqrt(-?\d+)\)")
_BUILTIN_ZETA = re.compile(r"Q\(zeta(\d+)\)")

# No builtin accepts a numeral with more digits than the quadratic cap has.
_SPEC_DIGITS = len(str(QUADRATIC_RADICAND_CAP))


def builtin_field(spec: str):
    """The tower a builtin field name denotes, or None."""
    spec = spec.strip()
    if spec == "Q":
        return rationals()
    if spec == "Q(i)":
        return gaussian_rationals()
    m = _BUILTIN_SQRT.fullmatch(spec)
    if m is not None:
        return quadratic_field(_spec_int(m.group(1), spec))
    m = _BUILTIN_ZETA.fullmatch(spec)
    if m is not None:
        return cyclotomic_field(_spec_int(m.group(1), spec))
    return None


def _spec_int(numeral: str, spec: str) -> int:
    """The int a builtin spec's numeral denotes.  Its length is checked
    first: int() refuses numerals over the interpreter's digit limit, and
    counts leading zeros towards it."""
    digits = numeral.lstrip("-").lstrip("0") or "0"
    if len(digits) > _SPEC_DIGITS:
        shown = spec if len(spec) <= 40 else spec[:36] + "..."
        raise DegenerateError("field %r: numeral has more than %d digits"
                              % (shown, _SPEC_DIGITS))
    return -int(digits) if numeral.startswith("-") else int(digits)


class Manifest:
    """Named fields and algebras loaded from manifest text."""

    def __init__(self):
        self._fields: dict = {}
        self._builtins: dict = {}       # builtin towers, built once each
        self._literals: dict = {}       # (tower, literal) -> parsed element
        self._field_bases: dict = {}    # field name -> base name as given
        # algebra name -> (field name, field, dim, {(i, j): {k: coeff}}),
        # 0-based; the LieAlgebra is built on first use, so a Jacobi
        # failure surfaces where the algebra is used, not at load
        self._algebras: dict = {}
        self._built: dict = {}
        self._order: list = []      # ("field"|"algebra", name)

    @property
    def field_names(self):
        return tuple(n for kind, n in self._order if kind == "field")

    @property
    def algebra_names(self):
        return tuple(n for kind, n in self._order if kind == "algebra")

    def field(self, name: str) -> FieldTower:
        got = self._fields.get(name) or self._builtins.get(name)
        if got is None:
            got = builtin_field(name)
            if got is None:
                raise ManifestError("unknown field %r" % name)
            self._builtins[name] = got
        return got

    def algebra(self, name: str) -> LieAlgebra:
        got = self._built.get(name)
        if got is None:
            _, field, dim, table = self._parsed(name)
            got = self._built[name] = LieAlgebra(field, dim, table)
        return got

    def algebra_field_name(self, name: str) -> str:
        return self._parsed(name)[0]

    def _parsed(self, name: str) -> tuple:
        got = self._algebras.get(name)
        if got is None:
            raise ManifestError("unknown algebra %r" % name)
        return got

    # -------------------------------------------------------- construction

    def add_field(self, name: str, base_name: str, gen: str,
                  minpoly_coeffs, images) -> FieldTower:
        base = self.field(base_name)
        poly = Polynomial(base, [self._coeff(c, base, name)
                                 for c in minpoly_coeffs])
        parsed_images = []
        for coords in images:
            parsed_images.append([self._coeff(c, base, name) for c in coords])
        try:
            tower = field_extend(base, poly, gen, parsed_images)
        except ManifestError:
            raise
        except Exception as exc:
            raise ManifestError("field %r: %s" % (name, exc)) from exc
        existing = self._fields.get(name)
        if existing is not None:
            if existing != tower:
                raise ManifestError("conflicting definitions of field %r"
                                    % name)
            return existing
        self._fields[name] = tower
        self._field_bases[name] = base_name
        self._order.append(("field", name))
        return tower

    def add_algebra(self, name: str, field_name: str, dim: int,
                    brackets) -> None:
        field = self.field(field_name)
        # JSON integers only: true is an int to isinstance
        if type(dim) is not int or dim < 1:
            raise ManifestError("algebra %r: dim must be a positive integer"
                                % name)
        if dim > ALGEBRA_DIM_CAP:
            raise ManifestError("algebra %r: dim %d is over the cap %d"
                                % (name, dim, ALGEBRA_DIM_CAP))
        table: dict = {}
        # zero coefficients are not stored, so repeats are tracked apart
        seen = set()
        for item in brackets:
            try:
                i, j, k = item["i"], item["j"], item["k"]
                coeff = item["coeff"]
            except (KeyError, TypeError) as exc:
                raise ManifestError(
                    "algebra %r: bracket entries need i, j, k, coeff"
                    % name) from exc
            if not type(i) is type(j) is type(k) is int:
                key = next(key for key in "ijk" if type(item[key]) is not int)
                raise ManifestError(
                    "algebra %r: bracket index %r must be an integer, got "
                    "%r" % (name, key, item[key]))
            if not 1 <= i < j <= dim:
                raise ManifestError(
                    "algebra %r: bracket needs 1 <= i < j <= dim, got "
                    "(%d, %d)" % (name, i, j))
            if not 1 <= k <= dim:
                raise ManifestError(
                    "algebra %r: component index %d out of range" % (name, k))
            if (i, j, k) in seen:
                raise ManifestError(
                    "algebra %r: duplicate bracket entry (%d, %d, %d)"
                    % (name, i, j, k))
            seen.add((i, j, k))
            value = self._coeff(coeff, field, name)
            if not value.is_zero():
                table.setdefault((i - 1, j - 1), {})[k - 1] = value
        existing = self._algebras.get(name)
        if existing is not None:
            if existing[1:] != (field, dim, table):
                raise ManifestError("conflicting definitions of algebra %r"
                                    % name)
            return
        self._algebras[name] = (field_name, field, dim, table)
        self._order.append(("algebra", name))

    def _coeff(self, text, field, owner):
        """Parse a literal against a tower, once per distinct pair."""
        if not isinstance(text, str):
            raise ManifestError(
                "%r: coefficients must be element-literal strings, got %r"
                % (owner, text))
        key = (field, text)
        got = self._literals.get(key)
        if got is None:
            got = self._literals[key] = parse_element(text, field)
        return got

    # -------------------------------------------------------- serialization

    def entities(self):
        """Canonical entity dicts in definition order."""
        out = []
        for kind, name in self._order:
            if kind == "field":
                out.append(field_entity(name, self._fields[name],
                                        self._field_bases[name]))
            else:
                field_name, _, dim, table = self._algebras[name]
                out.append(_algebra_entity(name, field_name, dim, table))
        return out


def field_entity(name: str, tower: FieldTower, base_name: str) -> dict:
    """Canonical manifest dict for one extension step of a tower."""
    if tower.is_rationals:
        raise ManifestError("the rationals are builtin, not a manifest entity")
    minpoly = [format_element(c) for c in tower.minpoly.coeffs]
    auts = []
    for image in tower.aut_images:
        auts.append([format_element(c) for c in image.coords])
    return {"name": name, "base": base_name, "gen": tower.gen_name,
            "minpoly": minpoly, "automorphisms": auts}


def _algebra_entity(name: str, field_name: str, dim: int,
                    table: dict) -> dict:
    """Canonical manifest dict from a 0-based {(i, j): {k: coeff}} table:
    1-based brackets sorted by (i, j, k)."""
    items = [{"i": i + 1, "j": j + 1, "k": k + 1, "coeff": format_element(c)}
             for (i, j), comps in sorted(table.items())
             for k, c in sorted(comps.items())]
    return {"name": name, "field": field_name, "dim": dim, "brackets": items}


def algebra_entity(name: str, field_name: str, L: LieAlgebra) -> dict:
    """Canonical manifest dict for an algebra (1-based sorted brackets)."""
    return _algebra_entity(name, field_name, L.dim, L.brackets)


def serialize_entity(entity: dict) -> str:
    return json.dumps(entity)


def serialize_manifest(manifest: Manifest) -> str:
    lines = [serialize_entity(e) for e in manifest.entities()]
    return "".join(line + "\n" for line in lines)


def parse_manifest(text: str, into: Manifest = None) -> Manifest:
    manifest = Manifest() if into is None else into
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except ValueError as exc:  # JSONDecodeError, or an over-long integer
            raise ManifestError("line %d: %s" % (lineno, exc)) from exc
        if not isinstance(obj, dict):
            raise ManifestError("line %d: expected a JSON object" % lineno)
        try:
            _dispatch_entity(manifest, obj)
        except ManifestError as exc:
            raise ManifestError("line %d: %s" % (lineno, exc)) from exc
    return manifest


def _dispatch_entity(manifest: Manifest, obj: dict) -> None:
    name = obj.get("name")
    if not isinstance(name, str) or not name:
        raise ManifestError("entity needs a nonempty string name")
    if "minpoly" in obj:
        keys = {"name", "base", "gen", "minpoly", "automorphisms"}
        _require_keys(obj, keys)
        manifest.add_field(name, _string(obj, "base"), _string(obj, "gen"),
                           _string_list(obj, "minpoly"),
                           [_listed(c) for c in _list(obj, "automorphisms")])
    elif "brackets" in obj:
        _require_keys(obj, {"name", "field", "dim", "brackets"})
        manifest.add_algebra(name, _string(obj, "field"), obj.get("dim"),
                             _list(obj, "brackets"))
    else:
        raise ManifestError("entity %r is neither a field (minpoly) nor an "
                            "algebra (brackets)" % name)


def _require_keys(obj: dict, keys) -> None:
    missing = keys - set(obj)
    if missing:
        raise ManifestError("entity %r is missing keys %s"
                            % (obj.get("name"), sorted(missing)))
    extra = set(obj) - keys
    if extra:
        raise ManifestError("entity %r has unknown keys %s"
                            % (obj.get("name"), sorted(extra)))


def _string(obj: dict, key: str) -> str:
    val = obj.get(key)
    if not isinstance(val, str):
        raise ManifestError("key %r must be a string" % key)
    return val


def _list(obj: dict, key: str) -> list:
    val = obj.get(key)
    if not isinstance(val, list):
        raise ManifestError("key %r must be a list" % key)
    return val


def _listed(val) -> list:
    if not isinstance(val, list):
        raise ManifestError("automorphism images must be coordinate lists")
    return val


def _string_list(obj: dict, key: str) -> list:
    val = _list(obj, key)
    for item in val:
        if not isinstance(item, str):
            raise ManifestError("key %r must list strings" % key)
    return val


def load_manifest(path: str, into: Manifest = None) -> Manifest:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse_manifest(text, into)


__all__ = [
    "Manifest",
    "algebra_entity",
    "builtin_field",
    "field_entity",
    "load_manifest",
    "parse_manifest",
    "serialize_entity",
    "serialize_manifest",
]
