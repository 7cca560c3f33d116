"""Tests for manifest files and the command-line interface."""

import json
import time

import pytest

from lieforms import cli, decompose, fields
from lieforms.errors import JacobiError, ManifestError
from lieforms.fields import (
    cyclotomic_field,
    gaussian_rationals,
    quadratic_field,
    rationals,
)
from lieforms.liealg import ALGEBRA_DIM_CAP, direct_sum
from lieforms.catalog import g_lambda, heisenberg, r3_lambda
from lieforms.polynomials import LITERAL_NESTING_CAP
from lieforms.manifest import (
    Manifest,
    algebra_entity,
    builtin_field,
    field_entity,
    parse_manifest,
    serialize_entity,
    serialize_manifest,
)


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def write_lines(tmp_path, name, *lines):
    path = tmp_path / name
    path.write_text("".join(line + "\n" for line in lines),
                    encoding="utf-8")
    return str(path)


def read_text(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def gaussian_entities():
    Qi = gaussian_rationals()
    i = Qi.generator()
    lines = [serialize_entity(field_entity("Q(i)", Qi, "Q"))]
    lines.append(serialize_entity(
        algebra_entity("gp", "Q(i)", g_lambda(Qi, Qi.one() + i))))
    lines.append(serialize_entity(
        algebra_entity("gm", "Q(i)", g_lambda(Qi, Qi.one() - i))))
    lines.append(serialize_entity(
        algebra_entity("gi", "Q(i)", g_lambda(Qi, i))))
    return lines


class TestManifest:
    def test_builtin_field_specs(self):
        assert builtin_field("Q").is_rationals
        assert builtin_field("Q(i)") == gaussian_rationals()
        assert builtin_field("Q(sqrt2)") == quadratic_field(2)
        assert builtin_field("Q(sqrt-5)") == quadratic_field(-5)
        assert builtin_field("Q(zeta8)") == cyclotomic_field(8)
        assert builtin_field("Q(pi)") is None

    def test_round_trip_is_identity_on_canonical_text(self):
        raw = "".join(line + "\n" for line in gaussian_entities())
        man = parse_manifest(raw)
        assert serialize_manifest(man) == raw
        again = parse_manifest(serialize_manifest(man))
        assert serialize_manifest(again) == raw

    def test_parsed_algebra_matches_the_constructor(self):
        man = parse_manifest("\n".join(gaussian_entities()))
        Qi = gaussian_rationals()
        L = man.algebra("gp")
        assert L.field == Qi
        assert L.brackets == g_lambda(Qi, Qi.one() + Qi.generator()).brackets

    def test_algebras_resolve_builtin_fields_without_entities(self):
        text = ('{"name": "h", "field": "Q", "dim": 3, "brackets": '
                '[{"i": 1, "j": 2, "k": 3, "coeff": "1"}]}')
        man = parse_manifest(text)
        assert man.algebra("h").brackets == \
            heisenberg(builtin_field("Q")).brackets

    def test_each_literal_is_parsed_once_per_manifest(self, monkeypatch):
        import lieforms.manifest as manifest
        calls = []
        real = manifest.parse_element

        def counting(text, field):
            calls.append((text, field))
            return real(text, field)

        monkeypatch.setattr(manifest, "parse_element", counting)
        Qi = gaussian_rationals()
        text = "\n".join(serialize_entity(algebra_entity(
            "g%d" % k, "Q(i)", g_lambda(Qi, Qi.from_rational(k % 3 + 2))))
            for k in range(10))
        man = parse_manifest(text)
        assert sorted(t for t, _ in calls) == ["-1", "-2", "-3", "-4", "1"]
        for k in range(10):
            assert man.algebra("g%d" % k) == g_lambda(
                Qi, Qi.from_rational(k % 3 + 2))
        calls.clear()
        parse_manifest(text)
        assert len(calls) == 5

    def test_builtin_tower_is_built_once_per_manifest(self, monkeypatch):
        import lieforms.fields as fields
        calls = []
        real = fields.field_extend

        def counting(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(fields, "field_extend", counting)
        Qi = gaussian_rationals()
        text = "\n".join(serialize_entity(algebra_entity(
            "g%d" % k, "Q(i)", g_lambda(Qi, Qi.from_rational(k + 2))))
            for k in range(10))
        calls.clear()
        man = parse_manifest(text)
        assert calls == ["i"]
        towers = {id(man.algebra(name).field) for name in man.algebra_names}
        assert len(towers) == 1 and man.field("Q(i)") == Qi
        # the cache belongs to the manifest: a new one builds its own tower
        parse_manifest(text)
        assert calls == ["i", "i"]

    def test_multihop_towers_parse_and_resolve_literals(self):
        text = "\n".join([
            '{"name": "E", "base": "Q(sqrt2)", "gen": "i", "minpoly": '
            '["1", "0", "1"], "automorphisms": [["0", "1"], ["0", "-1"]]}',
            '{"name": "T", "base": "E", "gen": "r", "minpoly": '
            '["-1r2", "0", "1"], "automorphisms": [["0", "1"], ["0", "-1"]]}',
        ])
        man = parse_manifest(text)
        T = man.field("T")
        assert T.absolute_degree() == 8
        r = T.generator()
        s2 = (r * r) * (r * r)
        assert s2 == T.from_rational(2)
        canon = serialize_manifest(man)
        assert serialize_manifest(parse_manifest(canon)) == canon

    def test_parse_rejections(self):
        with pytest.raises(ManifestError):
            parse_manifest("not json")
        with pytest.raises(ManifestError):
            parse_manifest('{"name": "x", "field": "Q", "dim": 2, '
                           '"brackets": [{"i": 2, "j": 1, "k": 1, '
                           '"coeff": "1"}]}')
        with pytest.raises(ManifestError):
            parse_manifest('{"name": "x", "field": "Q", "dim": 2, '
                           '"brackets": [{"i": 1, "j": 2, "k": 5, '
                           '"coeff": "1"}]}')
        with pytest.raises(ManifestError):
            parse_manifest('{"name": "x", "field": "nowhere", "dim": 1, '
                           '"brackets": []}')
        with pytest.raises(ManifestError):
            parse_manifest('{"name": "x", "field": "Q", "dim": 1}')
        with pytest.raises(ManifestError):
            parse_manifest('{"name": "x", "field": "Q", "dim": 2, '
                           '"brackets": [{"i": 1, "j": 2, "k": 1, '
                           '"coeff": 3}]}')
        # indices and dim are JSON integers: no float, string or bool
        bracket = ('{"name": "x", "field": "Q", "dim": 3, "brackets": '
                   '[{"i": %s, "j": %s, "k": %s, "coeff": "1"}]}')
        for (i, j, k), key in ((("1.9", "2.2", '"3"'), "i"),
                               (("1", "2.0", "3"), "j"),
                               (("1", "2", '"3"'), "k"),
                               (("true", "2", "3"), "i"),
                               (("1", "2", "null"), "k")):
            with pytest.raises(ManifestError, match="line 1: algebra 'x': "
                               "bracket index '%s' must be an integer"
                               % key):
                parse_manifest(bracket % (i, j, k))
        for dim in ("true", "3.0", '"3"'):
            with pytest.raises(ManifestError, match="line 1: algebra 'x': "
                               "dim must be a positive integer"):
                parse_manifest('{"name": "x", "field": "Q", "dim": %s, '
                               '"brackets": []}' % dim)

    def test_duplicates_must_agree(self):
        line = ('{"name": "h", "field": "Q", "dim": 3, "brackets": '
                '[{"i": 1, "j": 2, "k": 3, "coeff": "1"}]}')
        other = ('{"name": "h", "field": "Q", "dim": 3, "brackets": '
                 '[{"i": 1, "j": 2, "k": 3, "coeff": "2"}]}')
        man = parse_manifest(line + "\n" + line)
        assert man.algebra_names == ("h",)
        with pytest.raises(ManifestError, match="line 2: conflicting "
                           "definitions of algebra 'h'"):
            parse_manifest(line + "\n" + other)

    def test_bracket_order_and_repeats(self):
        """Entries in any order define the same algebra and serialize
        sorted by (i, j, k); an entry given twice is refused, also when
        one of the two coefficients is zero."""
        entries = ['{"i": 2, "j": 3, "k": 1, "coeff": "0"}',
                   '{"i": 1, "j": 3, "k": 3, "coeff": "2"}',
                   '{"i": 1, "j": 2, "k": 2, "coeff": "1"}']
        head = '{"name": "r", "field": "Q", "dim": 3, "brackets": [%s]}'
        text = head % ", ".join(entries)
        again = head % ", ".join(reversed(entries[1:]))
        man = parse_manifest(text + "\n" + again)
        assert man.algebra("r") == r3_lambda(rationals(),
                                             rationals().from_rational(2))
        assert serialize_manifest(man) == again + "\n"
        with pytest.raises(ManifestError, match="line 1: algebra 'r': "
                           r"duplicate bracket entry \(1, 3, 3\)"):
            parse_manifest(head % ", ".join(entries + [entries[1]]))
        zero = '{"i": 1, "j": 3, "k": 3, "coeff": "0"}'
        for pair in ([zero, entries[1]], [entries[1], zero]):
            with pytest.raises(ManifestError, match="line 1: algebra 'r': "
                               r"duplicate bracket entry \(1, 3, 3\)"):
                parse_manifest(head % ", ".join(pair))

    def test_jacobi_failure_surfaces_at_use(self):
        text = ('{"name": "bad", "field": "Q", "dim": 3, "brackets": ['
                '{"i": 1, "j": 2, "k": 3, "coeff": "1"}, '
                '{"i": 1, "j": 3, "k": 1, "coeff": "1"}, '
                '{"i": 2, "j": 3, "k": 2, "coeff": "1"}]}')
        man = parse_manifest(text)
        with pytest.raises(JacobiError) as info:
            man.algebra("bad")
        assert info.value.triple == (1, 2, 3)


class TestCommandLine:
    def test_catalog_then_invariant_c_prints_two(self, capsys, tmp_path):
        rc, out = run_cli(capsys, "catalog", "g_lambda", "--field", "Q(i)",
                          "--lambda", "1i", "--name", "g_i")
        assert rc == 0
        path = write_lines(tmp_path, "m.jsonl", *out.splitlines())
        rc, out = run_cli(capsys, "invariant-c", "g_i", "--manifest", path)
        assert rc == 0
        assert out.strip() == "2"

    def test_catalog_output_reparses_to_the_same_algebra(self, capsys):
        rc, out = run_cli(capsys, "catalog", "g_lambda", "--field", "Q(i)",
                          "--lambda", "1+1i", "--name", "gp")
        assert rc == 0
        man = parse_manifest(out)
        Qi = gaussian_rationals()
        assert man.algebra("gp").brackets == \
            g_lambda(Qi, Qi.one() + Qi.generator()).brackets

    def test_check_reports_fingerprint(self, capsys, tmp_path):
        path = write_lines(tmp_path, "m.jsonl", *gaussian_entities())
        rc, out = run_cli(capsys, "check", "gp", "--manifest", path)
        assert rc == 0
        assert "jacobi: ok" in out
        assert "two_step: (8, 2)" in out

    def test_check_jacobi_failure_exits_one(self, capsys, tmp_path):
        path = write_lines(
            tmp_path, "bad.jsonl",
            '{"name": "bad", "field": "Q", "dim": 3, "brackets": ['
            '{"i": 1, "j": 2, "k": 3, "coeff": "1"}, '
            '{"i": 1, "j": 3, "k": 1, "coeff": "1"}, '
            '{"i": 2, "j": 3, "k": 2, "coeff": "1"}]}')
        rc, out = run_cli(capsys, "check", "bad", "--manifest", path)
        assert rc == 1
        assert "(1, 2, 3)" in out

    def test_conjugate_by_image_index_and_identity(self, capsys, tmp_path):
        path = write_lines(tmp_path, "m.jsonl", *gaussian_entities())
        rc, by_image = run_cli(capsys, "conjugate", "gp", "--sigma=-1i",
                               "--name", "out", "--manifest", path)
        assert rc == 0
        rc, by_index = run_cli(capsys, "conjugate", "gp", "--sigma", "1",
                               "--name", "out", "--manifest", path)
        assert rc == 0
        assert by_image == by_index
        entity = json.loads(by_image)
        man = parse_manifest("\n".join(gaussian_entities()) + "\n" +
                             by_image)
        assert man.algebra("out").brackets == man.algebra("gm").brackets
        assert entity["field"] == "Q(i)"
        rc, by_id = run_cli(capsys, "conjugate", "gp", "--sigma", "id",
                            "--name", "out2", "--manifest", path)
        assert rc == 0
        fixed = parse_manifest("\n".join(gaussian_entities()) + "\n" + by_id)
        assert fixed.algebra("out2").brackets == fixed.algebra("gp").brackets

    def test_restrict_and_extend_emit_entities(self, capsys, tmp_path):
        path = write_lines(tmp_path, "m.jsonl", *gaussian_entities())
        rc, out = run_cli(capsys, "restrict", "gp", "--to", "Q",
                          "--name", "gpq", "--manifest", path)
        assert rc == 0
        entity = json.loads(out)
        assert entity["dim"] == 20
        assert entity["field"] == "Q"

        rc, out = run_cli(capsys, "catalog", "heisenberg", "--field", "Q",
                          "--name", "h3")
        assert rc == 0
        hq = write_lines(tmp_path, "h.jsonl", *out.splitlines())
        rc, out = run_cli(capsys, "extend", "h3", "--to", "Q(i)",
                          "--manifest", hq)
        assert rc == 0
        assert json.loads(out)["field"] == "Q(i)"

    def test_field_with_non_integer_minpoly(self, capsys, tmp_path):
        field = ('{"name": "H", "base": "Q", "gen": "h", "minpoly": '
                 '["-1/2", "0", "1"], "automorphisms": [["0", "1"], '
                 '["0", "-1"]]}')
        path = write_lines(tmp_path, "h.jsonl", field)
        rc, out = run_cli(capsys, "catalog", "g_lambda", "--field", "H",
                          "--lambda", "1/3+2h", "--name", "g",
                          "--manifest", path)
        assert rc == 0
        path = write_lines(tmp_path, "g.jsonl", field, *out.splitlines())
        rc, out = run_cli(capsys, "check", "g", "--manifest", path)
        assert rc == 0
        assert "jacobi: ok" in out
        rc, out = run_cli(capsys, "restrict", "g", "--to", "Q",
                          "--name", "gq", "--manifest", path)
        assert rc == 0
        entity = json.loads(out)
        assert entity["dim"] == 20 and entity["field"] == "Q"
        rc, once = run_cli(capsys, "conjugate", "g", "--sigma", "1",
                           "--name", "gbar", "--manifest", path)
        assert rc == 0
        path2 = write_lines(tmp_path, "gbar.jsonl",
                            *read_text(path).splitlines(),
                            *once.splitlines())
        rc, twice = run_cli(capsys, "conjugate", "gbar", "--sigma", "1",
                            "--name", "g2", "--manifest", path2)
        assert rc == 0
        man = parse_manifest(read_text(path2) + twice)
        assert man.algebra("gbar").brackets != man.algebra("g").brackets
        assert man.algebra("g2").brackets == man.algebra("g").brackets

    def test_verify_sumconjugate_exits_zero(self, capsys, tmp_path):
        rc, out = run_cli(capsys, "catalog", "heisenberg", "--field", "Q(i)",
                          "--name", "h3")
        path = write_lines(tmp_path, "h.jsonl", *out.splitlines())
        rc, out = run_cli(capsys, "verify-sumconjugate", "h3", "--over", "Q",
                          "--manifest", path)
        assert rc == 0
        assert "verified: true" in out
        assert "group_order: 2" in out

    def test_decompose_certified_exits_zero(self, capsys, tmp_path):
        Q = builtin_field("Q")
        hh = direct_sum(heisenberg(Q), heisenberg(Q))
        path = write_lines(tmp_path, "hh.jsonl",
                           serialize_entity(algebra_entity("hh", "Q", hh)))
        rc, out = run_cli(capsys, "decompose", "hh", "--manifest", path)
        assert rc == 0
        assert "summands: 2" in out
        assert out.count("CertifiedIndecomposable") == 2
        assert "verified: true" in out

    def test_decompose_heuristic_exits_three(self, capsys, tmp_path,
                                             monkeypatch):
        deep = [
            '{"name": "E", "base": "Q(sqrt2)", "gen": "i", "minpoly": '
            '["1", "0", "1"], "automorphisms": [["0", "1"], ["0", "-1"]]}',
            '{"name": "T", "base": "E", "gen": "r", "minpoly": '
            '["-1r2", "0", "1"], "automorphisms": [["0", "1"], ["0", "-1"]]}',
        ]
        path = write_lines(tmp_path, "deep.jsonl", *deep)
        rc, out = run_cli(capsys, "catalog", "r3_lambda", "--field", "T",
                          "--lambda", "1r", "--name", "deep",
                          "--manifest", path)
        assert rc == 0
        path = write_lines(tmp_path, "deep2.jsonl", *deep, *out.splitlines())
        rc, out = run_cli(capsys, "restrict", "deep", "--to", "E",
                          "--name", "deepE", "--manifest", path)
        assert rc == 0
        path = write_lines(tmp_path, "deep3.jsonl",
                           *read_text(path).splitlines(),
                           *out.splitlines())
        # r^2 - sqrt2 is proved irreducible over Q(sqrt2)(i), so the
        # residue field is certified; with factor stopped at the cap in
        # decompose, the same summand is heuristic and exits 3
        rc, out = run_cli(capsys, "decompose", "deepE", "--manifest", path)
        assert rc == 0
        assert "certificate=CertifiedIndecomposable" in out
        monkeypatch.setattr(decompose, "factor", lambda p: None)
        rc, out = run_cli(capsys, "decompose", "deepE", "--manifest", path)
        assert rc == 3
        assert "HeuristicIndecomposable" in out

    def test_count_forms_command(self, capsys, tmp_path):
        path = write_lines(tmp_path, "m.jsonl", *gaussian_entities())
        rc, out = run_cli(capsys, "count-forms", "gp", "--over", "Q",
                          "--manifest", path)
        assert rc == 0
        assert out.splitlines()[0] == "2"
        # lambda = i has conjugates the oracle cannot separate: honest 3
        rc, out = run_cli(capsys, "count-forms", "gi", "--over", "Q",
                          "--manifest", path)
        assert rc == 3

    def test_match_exit_codes(self, capsys, tmp_path):
        Qi = gaussian_rationals()
        lam = Qi.one() + Qi.generator()
        lam_bar = Qi.one() - Qi.generator()
        mixed = direct_sum(g_lambda(Qi, lam), g_lambda(Qi, lam_bar))
        doubled = direct_sum(g_lambda(Qi, lam), g_lambda(Qi, lam))
        path = write_lines(
            tmp_path, "m.jsonl",
            serialize_entity(field_entity("Q(i)", Qi, "Q")),
            serialize_entity(algebra_entity("mixed", "Q(i)", mixed)),
            serialize_entity(algebra_entity("doubled", "Q(i)", doubled)))
        rc, out = run_cli(capsys, "match", "mixed", "mixed",
                          "--manifest", path)
        assert rc == 0
        assert "status: matched" in out
        rc, out = run_cli(capsys, "match", "mixed", "doubled",
                          "--manifest", path)
        assert rc == 1
        assert "status: refuted" in out

    def test_match_decomposes_each_distinct_input_once(
            self, capsys, tmp_path, monkeypatch):
        Q = rationals()
        path = write_lines(
            tmp_path, "m.jsonl",
            serialize_entity(algebra_entity(
                "pair", "Q", direct_sum(heisenberg(Q), heisenberg(Q)))),
            serialize_entity(algebra_entity(
                "other", "Q", direct_sum(heisenberg(Q), heisenberg(Q)))))
        calls = []
        real = cli.decompose_indecomposable

        def counting(L):
            calls.append(L)
            return real(L)

        monkeypatch.setattr(cli, "decompose_indecomposable", counting)
        rc, out = run_cli(capsys, "match", "pair", "pair", "--manifest", path)
        assert rc == 0 and "status: matched" in out
        assert len(calls) == 1
        rc, out = run_cli(capsys, "match", "pair", "other",
                          "--manifest", path)
        assert rc == 0 and "status: matched" in out
        assert len(calls) == 3

    def test_pfaffian_output(self, capsys, tmp_path):
        path = write_lines(tmp_path, "m.jsonl", *gaussian_entities())
        rc, out = run_cli(capsys, "pfaffian", "gp", "--manifest", path)
        assert rc == 0
        assert "type: (8, 2)" in out
        assert "form: x^4 + (1+1i)x^2y^2 + y^4" in out

    def test_invariant_c_undefined_exits_two(self, capsys, tmp_path):
        rc, out = run_cli(capsys, "catalog", "g_lambda", "--field", "Q",
                          "--lambda", "1", "--name", "g1")
        path = write_lines(tmp_path, "m.jsonl", *out.splitlines())
        rc, _ = run_cli(capsys, "invariant-c", "g1", "--manifest", path)
        assert rc == 2

    def test_json_reports(self, capsys, tmp_path):
        path = write_lines(tmp_path, "m.jsonl", *gaussian_entities())
        rc, out = run_cli(capsys, "invariant-c", "gi", "--json",
                          "--manifest", path)
        assert rc == 0
        payload = json.loads(out)
        assert payload["command"] == "invariant-c"
        assert payload["c"] == "2"
        rc, out = run_cli(capsys, "decompose", "gp", "--json",
                          "--manifest", path)
        assert rc == 0
        payload = json.loads(out)
        assert payload["verified"] is True
        assert payload["summands"][0]["certificate"] == \
            "CertifiedIndecomposable"

    def test_input_errors_exit_two(self, capsys, tmp_path):
        path = write_lines(tmp_path, "bad.jsonl", "garbage")
        rc, _ = run_cli(capsys, "check", "x", "--manifest", path)
        assert rc == 2
        good = write_lines(tmp_path, "m.jsonl", *gaussian_entities())
        rc, _ = run_cli(capsys, "check", "nosuch", "--manifest", good)
        assert rc == 2
        rc, _ = run_cli(capsys, "catalog", "nofamily")
        assert rc == 2
        rc, _ = run_cli(capsys, "catalog", "g_lambda", "--field", "Q")
        assert rc == 2  # missing --lambda

    def test_catalog_zero_parameter_exits_two(self, capsys):
        rc, _ = run_cli(capsys, "catalog", "r3_lambda", "--field", "Q",
                        "--lambda", "0")
        assert rc == 2

    @pytest.mark.parametrize("literal, message", [
        ("1" + "0" * 5000, "bad number"),
        ("1/0", "bad number"),
        ("3^1000000000", "cap"),
        ("(2^16)^17", "cap"),
        ("3^" + "0" * 5000 + "1000000000", "cap"),
    ])
    def test_bad_literal_exits_two_quickly(self, capsys, tmp_path, literal,
                                           message):
        entity = {"name": "a", "field": "Q", "dim": 3,
                  "brackets": [{"i": 1, "j": 2, "k": 3, "coeff": literal}]}
        path = write_lines(tmp_path, "m.jsonl", json.dumps(entity))
        start = time.perf_counter()
        rc = cli.main(["decompose", "a", "--manifest", path])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: line 1:") and message in err
        assert elapsed < 2.0, elapsed

    @pytest.mark.parametrize("depth, rc", [
        (LITERAL_NESTING_CAP, 0), (LITERAL_NESTING_CAP + 1, 2), (400, 2),
        (3000, 2)])
    def test_literal_nesting_cap(self, capsys, tmp_path, depth, rc):
        literal = "(" * depth + "1" + ")" * depth
        entity = {"name": "a", "field": "Q", "dim": 3,
                  "brackets": [{"i": 1, "j": 2, "k": 3, "coeff": literal}]}
        path = write_lines(tmp_path, "m.jsonl", json.dumps(entity))
        assert cli.main(["check", "a", "--manifest", path]) == rc
        err = capsys.readouterr().err
        if rc:
            assert err.startswith("error: line 1:")
            assert "cap %d" % LITERAL_NESTING_CAP in err

    @pytest.mark.parametrize("over", [0, 1], ids=["at-cap", "over-cap"])
    def test_algebra_dimension_cap(self, capsys, tmp_path, over):
        dim = ALGEBRA_DIM_CAP + over
        entity = {"name": "x", "field": "Q", "dim": dim, "brackets": []}
        path = write_lines(tmp_path, "m.jsonl", json.dumps(entity))
        k = ALGEBRA_DIM_CAP // 10 + over
        for argv in (["check", "x", "--manifest", path],
                     ["catalog", "abelian", "--n", str(dim)],
                     ["catalog", "nintot", "--field", "Q(i)", "--lambda",
                      "1+i", "--k", str(k), "--j", "1"]):
            rc = cli.main(argv)
            captured = capsys.readouterr()
            assert rc == 2 * over
            if over:
                assert captured.err.startswith("error:")
                assert str(ALGEBRA_DIM_CAP) in captured.err
            elif argv[0] == "catalog":
                algebra = json.loads(captured.out.splitlines()[-1])
                assert algebra["dim"] == ALGEBRA_DIM_CAP
            else:
                assert "dim: %d" % ALGEBRA_DIM_CAP in captured.out

    def test_manifest_dimension_is_capped_before_its_brackets_are_read(
            self, capsys, tmp_path):
        entity = {"name": "x", "field": "Q", "dim": 10 ** 6,
                  "brackets": [{"i": 1, "j": 2, "k": 3, "coeff": "("}]}
        path = write_lines(tmp_path, "m.jsonl", json.dumps(entity))
        assert cli.main(["check", "x", "--manifest", path]) == 2
        assert "is over the cap" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, message", [
        ("Q(sqrt2305843009213693951)", "more than 11 digits"),
        ("Q(sqrt-10000000019)", "<= 10000000000"),
        ("Q(sqrt" + "7" * 5000 + ")", "more than 11 digits"),
        ("Q(zeta" + "7" * 5000 + ")", "more than 11 digits"),
    ])
    def test_hostile_builtin_field_exits_two_quickly(self, capsys, tmp_path,
                                                     spec, message):
        entity = {"name": "a", "field": spec, "dim": 3,
                  "brackets": [{"i": 1, "j": 2, "k": 3, "coeff": "1"}]}
        path = write_lines(tmp_path, "m.jsonl", json.dumps(entity))
        for argv in (["check", "a", "--manifest", path],
                     ["catalog", "heisenberg", "--field", spec]):
            start = time.perf_counter()
            rc = cli.main(argv)
            elapsed = time.perf_counter() - start
            err = capsys.readouterr().err
            assert rc == 2 and err.startswith("error:") and message in err
            assert elapsed < 2.0, elapsed

    @pytest.mark.parametrize("minpoly, rc, message", [
        # t^3 - (2^61 - 1): irreducible, proved without a divisor scan
        (["-2305843009213693951", "0", "0", "1"], 0, ""),
        # (t - (2^61 - 1)) (t^2 + 1)
        (["-2305843009213693951", "1", "-2305843009213693951", "1"], 2,
         "minimal polynomial is reducible over Q"),
    ], ids=["irreducible", "reducible"])
    def test_cubic_field_with_large_constant_loads_quickly(
            self, capsys, tmp_path, minpoly, rc, message):
        field = {"name": "K", "base": "Q", "gen": "t", "minpoly": minpoly,
                 "automorphisms": [["0", "1", "0"]]}
        path = write_lines(tmp_path, "k.jsonl", json.dumps(field))
        start = time.perf_counter()
        code = cli.main(["catalog", "heisenberg", "--field", "K",
                         "--manifest", path])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == rc
        if rc == 0:
            assert json.loads(captured.out)["field"] == "K"
        else:
            assert captured.err.startswith("error:")
            assert message in captured.err
        assert elapsed < 2.0, elapsed

    @pytest.mark.parametrize("minpoly, rc, factored", [
        (["1", "0", "-1", "0", "1"], 0, False),        # Phi_12
        (["1", "0", "0", "0", "1"], 0, False),         # Phi_8
        (["1", "-1", "0", "1", "-1", "1", "0", "-1", "1"], 0, False),  # Phi_15
        (["1", "0", "1", "0", "1"], 2, True),          # Phi_3 Phi_6
        (["2", "0", "0", "0", "1"], 0, True),          # irreducible, no Phi_n
    ], ids=["phi12", "phi8", "phi15", "phi3phi6", "t4+2"])
    def test_cyclotomic_manifest_fields_are_proved_without_factoring(
            self, capsys, tmp_path, monkeypatch, minpoly, rc, factored):
        calls = []
        factor = fields.factor_over_Q
        monkeypatch.setattr(fields, "factor_over_Q",
                            lambda p: calls.append(p) or factor(p))
        identity = ["0", "1"] + ["0"] * (len(minpoly) - 3)
        field = {"name": "K", "base": "Q", "gen": "t", "minpoly": minpoly,
                 "automorphisms": [identity]}
        path = write_lines(tmp_path, "k.jsonl", json.dumps(field))
        code = cli.main(["catalog", "heisenberg", "--field", "K",
                         "--manifest", path])
        captured = capsys.readouterr()
        assert code == rc
        if rc == 0:
            assert json.loads(captured.out)["field"] == "K"
        else:
            assert captured.err.startswith("error:")
            assert "minimal polynomial is reducible over Q" in captured.err
        assert len(calls) == factored

    def test_reducible_cubic_over_a_quadratic_level_exits_two(
            self, capsys, tmp_path):
        # t^3 + t - 2 has the root 1 in Q(i)
        field = {"name": "E", "base": "Q(i)", "gen": "t",
                 "minpoly": ["-2", "1", "0", "1"],
                 "automorphisms": [["0", "1", "0"]]}
        path = write_lines(tmp_path, "e.jsonl", json.dumps(field))
        code = cli.main(["catalog", "g_lambda", "--field", "E", "--lambda",
                         "t", "--manifest", path])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert "minimal polynomial has a root in the base" in captured.err

    @pytest.mark.parametrize("base, minpoly", [
        ("Q(i)", ["1", "0", "0", "0", "1"]),      # (t^2 - i)(t^2 + i)
        ("Q(i)", ["9", "0", "0", "0", "1"]),      # (t^2 - 3i)(t^2 + 3i)
        ("Q(sqrt2)", ["-2", "0", "0", "0", "1"]),  # (t^2 - r2)(t^2 + r2)
    ], ids=["t4+1", "t4+9", "t4-2"])
    def test_quartic_that_splits_over_a_quadratic_level_exits_two(
            self, capsys, tmp_path, base, minpoly):
        """Each is irreducible over Q, and was once trusted: decompose of
        g_t then gave a false CertifiedIndecomposable."""
        field = {"name": "E", "base": base, "gen": "t", "minpoly": minpoly,
                 "automorphisms": [["0", "1", "0", "0"]]}
        path = write_lines(tmp_path, "e.jsonl", json.dumps(field))
        code = cli.main(["catalog", "g_lambda", "--field", "E", "--lambda",
                         "t", "--manifest", path])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert "minimal polynomial factors over the base" in captured.err

    @pytest.mark.parametrize("fields_, message", [
        # t^8 + 1 = (t^4 - i)(t^4 + i); its norm to Q has degree 16
        ([{"name": "E", "base": "Q(i)", "gen": "t",
           "minpoly": ["1"] + ["0"] * 7 + ["1"],
           "automorphisms": [["0", "1"] + ["0"] * 6]}],
         "not proved irreducible: its factoring needs a norm over the "
         "factorization cap 12"),
        # t^2 - 2 has the root s in Q(i)(s), s^2 = 2
        ([{"name": "K", "base": "Q(i)", "gen": "s", "minpoly": ["-2", "0", "1"],
           "automorphisms": [["0", "1"], ["0", "-1"]]},
          {"name": "E", "base": "K", "gen": "t", "minpoly": ["-2", "0", "1"],
           "automorphisms": [["0", "1"]]}],
         "minimal polynomial has a root in the base"),
    ], ids=["t8+1/Q(i)", "t2-2/Q(i)(sqrt2)"])
    def test_fields_that_once_gave_false_certificates_exit_two(
            self, capsys, tmp_path, fields_, message):
        """Both loaded once, and decompose of g_t then certified a false
        CertifiedIndecomposable: neither E is a field."""
        path = write_lines(tmp_path, "e.jsonl", *map(json.dumps, fields_))
        code = cli.main(["catalog", "g_lambda", "--field", "E", "--lambda",
                         "t", "--manifest", path])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert message in captured.err

    @pytest.mark.parametrize("name, valid", [
        ("check", ["a"]), ("conjugate", ["a", "--sigma", "id", "--name", "b"]),
        ("restrict", ["a", "--to", "Q"]), ("extend", ["a", "--to", "Q(i)"]),
        ("verify-sumconjugate", ["a", "--over", "Q"]), ("decompose", ["a"]),
        ("pfaffian", ["a"]), ("invariant-c", ["a"]),
        ("count-forms", ["a", "--over", "Q"]),
        ("catalog", ["nintot", "--field", "Q(i)", "--lambda", "1+i",
                     "--n", "2", "--k", "1", "--j", "0", "--json"]),
        ("match", ["a", "b", "--manifest", "x", "--manifest", "y"]),
    ])
    def test_one_command_parser_parses_like_the_full_parser(self, capsys,
                                                            name, valid):
        """The parse main runs, which builds the named command's parser,
        gives the full parser's namespace, and its help, errors and exit
        codes byte for byte."""
        full = cli.build_parser()
        assert cli.parse_args([name] + valid) == \
            full.parse_args([name] + valid)
        for argv in ([name, "-h"], [name], [name, "a", "b", "c", "--bogus"],
                     [name, "a", "--n", "x"]):
            seen = []
            for parse in (full.parse_args, cli.parse_args):
                with pytest.raises(SystemExit) as exc:
                    parse(argv)
                seen.append((exc.value.code, capsys.readouterr()))
            assert seen[0] == seen[1]

    def test_main_builds_the_named_command_only(self, monkeypatch, capsys):
        built = []
        full, one = cli.build_parser, cli.command_parser
        monkeypatch.setattr(cli, "build_parser",
                            lambda: built.append(None) or full())
        monkeypatch.setattr(cli, "command_parser",
                            lambda name: built.append(name) or one(name))
        assert run_cli(capsys, "catalog", "heisenberg")[0] == 0
        for argv in (["-h"], ["chec"], []):
            with pytest.raises(SystemExit):
                cli.main(argv)
        assert built == ["catalog", None, None, None]
        # an argument the command does not know is reported by the full
        # parser, under the top-level usage
        built.clear()
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", "a", "--bogus"])
        assert exc.value.code == 2 and built == ["check", None]
        err = capsys.readouterr().err
        assert err.startswith("usage: lieforms [-h]\n")
        assert err.endswith("lieforms: error: unrecognized arguments: "
                            "--bogus\n")

    def test_main_calls_in_sequence_see_only_their_own_files(self, capsys,
                                                             tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["check"])
        assert exc.value.code == 2
        capsys.readouterr()
        one = write_lines(tmp_path, "one.jsonl", serialize_entity(
            algebra_entity("a", "Q", heisenberg(rationals()))))
        two = write_lines(tmp_path, "two.jsonl", serialize_entity(
            algebra_entity("b", "Q", heisenberg(rationals()))))
        rc, out = run_cli(capsys, "catalog", "heisenberg", "--name", "c")
        assert rc == 0 and '"name": "c"' in out
        assert run_cli(capsys, "check", "a", "--manifest", one)[0] == 0
        # the second call sees two.jsonl only, not the first call's file
        assert run_cli(capsys, "check", "a", "--manifest", two)[0] == 2
        assert run_cli(capsys, "check", "b", "--manifest", two)[0] == 0
        assert run_cli(capsys, "check", "b")[0] == 2

    def test_over_long_json_integer_exits_two(self, capsys, tmp_path):
        path = write_lines(tmp_path, "m.jsonl",
                           '{"name": "a", "field": "Q", "dim": 1%s, '
                           '"brackets": []}' % ("0" * 5000))
        rc = cli.main(["check", "a", "--manifest", path])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: line 1:")

    def test_literals_within_the_caps_round_trip(self, capsys, tmp_path):
        Qi = gaussian_rationals()
        entity = {"name": "a", "field": "Q(i)", "dim": 3,
                  "brackets": [{"i": 1, "j": 2, "k": 3,
                                "coeff": "(1+1i)^4*2^100"}]}
        path = write_lines(tmp_path, "m.jsonl", json.dumps(entity))
        man = parse_manifest(read_text(path))
        coeff = man.algebra("a").brackets[(0, 1)][2]
        assert coeff == Qi.from_rational(-4 * 2 ** 100)
        text = serialize_manifest(man)
        assert serialize_manifest(parse_manifest(text)) == text
        rc, _ = run_cli(capsys, "check", "a", "--manifest", path)
        assert rc == 0
