"""CLI contract tests: exit codes, piping, determinism, formats.

Commands run in process through ``main(argv)``; stdin-fed cases go
through a real BytesIO-backed stream so the buffer read path is the one
exercised in production.
"""
from __future__ import annotations

import io
import json
import sys
from fractions import Fraction as F

import pytest

import conevol
from conevol import cli, concentration
from conevol.cli import main
from conevol.lifting import tower_bound
from conevol.concentration import ConcentrationReport
from conevol.jsonio import dumps


SEGMENT_DOC = {"dim": 1, "vertices": [["-1"], ["1"]]}
OFFCENTER_DOC = {"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}


def run_cli(args, *, stdin=None, capsys=None, monkeypatch=None):
    if stdin is not None:
        stream = io.TextIOWrapper(io.BytesIO(stdin.encode()), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stream)
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_simplex_json(self, capsys):
        code, out, _ = run_cli(["gen", "--kind", "simplex", "--dim", "2"], capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["dim"] == 2
        assert doc["vertices"] == [["-1", "-1"], ["0", "1"], ["1", "0"]]
        assert doc["generator"]["kind"] == "simplex"

    def test_deterministic(self, capsys):
        args = ["gen", "--kind", "random", "--dim", "3", "--points", "8", "--seed", "7"]
        code1, out1, _ = run_cli(args, capsys=capsys)
        code2, out2, _ = run_cli(args, capsys=capsys)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_cap_exit(self, capsys):
        code, out, err = run_cli(["gen", "--kind", "cube", "--dim", "99"], capsys=capsys)
        assert code == 2
        assert out == ""
        assert "exceeds cap 6; raise it with --dim-cap" in err

    def test_dim_cap_raises_the_cap(self, capsys):
        code, out, _ = run_cli(
            ["gen", "--kind", "cube", "--dim", "7", "--dim-cap", "7"], capsys=capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["dim"] == 7 and len(doc["vertices"]) == 128

    def test_text_format(self, capsys):
        code, out, _ = run_cli(
            ["gen", "--kind", "cube", "--dim", "3", "--format", "text"], capsys=capsys
        )
        assert code == 0
        assert "6 facets" in out and "volume 8" in out

    def test_bad_kind_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--kind", "ball", "--dim", "3"])
        assert exc.value.code == 2
        assert "argument --kind: invalid choice: 'ball'" in capsys.readouterr().err


class TestAudit:
    def test_gen_pipe_roundtrip(self, capsys, monkeypatch):
        _, gen_out, _ = run_cli(["gen", "--kind", "simplex", "--dim", "2"], capsys=capsys)
        code, out, _ = run_cli(["audit"], stdin=gen_out, capsys=capsys, monkeypatch=monkeypatch)
        assert code == 0
        doc = json.loads(out)
        singles = [
            r for r in doc["reports"] if r["kind"] == "affine" and r["flat_dim"] == 0
        ]
        assert len(singles) == 3
        assert all(r["slack"] == "0" and r["equality"] for r in singles)
        assert doc["violations"] == 0
        assert doc["seed"] == 0
        assert doc["polytope"]["volume"]["exact"] == "3/2"

    def test_generator_echo_is_passed_through_or_refused(self, capsys, monkeypatch):
        echo = {"kind": "x", "seed": -(10**30), "notes": ["é", None, True, {}]}
        doc = dict(SEGMENT_DOC, generator=echo)
        code, out, _ = run_cli(["audit"], stdin=json.dumps(doc), capsys=capsys, monkeypatch=monkeypatch)
        assert code == 0
        assert json.loads(out)["input"]["generator"] == echo
        # the writer has no floats, so a float in the echo is bad input
        doc = dict(SEGMENT_DOC, generator={"scale": 0.5})
        code, out, err = run_cli(["audit"], stdin=json.dumps(doc), capsys=capsys, monkeypatch=monkeypatch)
        assert (code, out) == (2, "")
        assert "generator block" in err and "float" in err

    def test_not_centered_exit_4(self, capsys, monkeypatch):
        code, out, err = run_cli(
            ["audit"], stdin=json.dumps(OFFCENTER_DOC), capsys=capsys, monkeypatch=monkeypatch
        )
        assert code == 4
        assert out == ""
        assert "--recenter" in err

    def test_recenter_flag(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            ["audit", "--recenter"],
            stdin=json.dumps(OFFCENTER_DOC),
            capsys=capsys,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["input"]["recentered"] is True
        assert doc["polytope"]["centroid"] == ["0", "0"]

    def test_cube_equalities(self, capsys, monkeypatch):
        _, gen_out, _ = run_cli(["gen", "--kind", "cube", "--dim", "2"], capsys=capsys)
        code, out, _ = run_cli(["audit"], stdin=gen_out, capsys=capsys, monkeypatch=monkeypatch)
        assert code == 0
        doc = json.loads(out)
        affine = [r for r in doc["reports"] if r["kind"] == "affine"]
        linear = [r for r in doc["reports"] if r["kind"] == "linear"]
        assert affine and all(not r["equality"] for r in affine)
        eq_linear = [r for r in linear if r["equality"]]
        assert sorted(r["member_indices"] for r in eq_linear) == [[0, 3], [1, 2]]
        assert all(r["witness"] is not None for r in eq_linear)

    def test_family_filters(self, capsys, monkeypatch):
        _, gen_out, _ = run_cli(["gen", "--kind", "simplex", "--dim", "2"], capsys=capsys)
        code, out, _ = run_cli(
            ["audit", "--linear"], stdin=gen_out, capsys=capsys, monkeypatch=monkeypatch
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["reports"] and all(r["kind"] == "linear" for r in doc["reports"])
        with pytest.raises(SystemExit) as exc:
            main(["audit", "--linear", "--affine"])
        assert exc.value.code == 2
        assert "argument --affine: not allowed with argument --linear" in capsys.readouterr().err

    def test_text_format(self, capsys, monkeypatch):
        _, gen_out, _ = run_cli(["gen", "--kind", "simplex", "--dim", "2"], capsys=capsys)
        code, out, _ = run_cli(
            ["audit", "--format", "text"], stdin=gen_out, capsys=capsys, monkeypatch=monkeypatch
        )
        assert code == 0
        assert "EQUALITY" in out and "cone weights" in out

    @pytest.mark.parametrize(
        "spec",
        [["cube", "--dim", "3"], ["pyramid_over", "--dim", "3", "--seed", "4"],
         ["join", "--dim", "3", "--seed", "2"], ["random", "--dim", "3", "--seed", "2"]],
    )
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_kind_flags_walk_only_their_kind(self, spec, fmt, capsys, monkeypatch):
        # each flag's document is the --both document with the other kind's
        # reports left out, byte for byte, and comes from that kind's walk alone
        walks = []
        real_walk = concentration._spanned_flats

        def counting_walk(rows, max_size):
            walks.append(len(rows[0]))
            return real_walk(rows, max_size)

        monkeypatch.setattr(concentration, "_spanned_flats", counting_walk)
        _, gen_out, _ = run_cli(["gen", "--kind", *spec], capsys=capsys)
        dim = json.loads(gen_out)["dim"]
        outs = {}
        for flag in ("--both", "--linear", "--affine"):
            walks.clear()
            code, outs[flag], _ = run_cli(
                ["audit", flag, "--format", fmt], stdin=gen_out, capsys=capsys, monkeypatch=monkeypatch
            )
            assert code == 0
            # the linear walk's rows have width n, the affine walk's n + 1
            expected = {"--both": [dim + 1, dim], "--linear": [dim], "--affine": [dim + 1]}[flag]
            assert walks == expected
        for flag, kind in (("--linear", "linear"), ("--affine", "affine")):
            if fmt == "json":
                doc = json.loads(outs["--both"])
                doc["reports"] = [r for r in doc["reports"] if r["kind"] == kind]
                doc["violations"] = sum(r["slack"].startswith("-") for r in doc["reports"])
                assert outs[flag] == dumps(doc)
            else:
                other = "affine " if kind == "linear" else "linear "
                lines = outs["--both"].splitlines(keepends=True)
                assert outs[flag] == "".join(x for x in lines if not x.startswith(other))

    def test_violation_exit_3(self, capsys, monkeypatch):
        # the audit cannot produce a negative slack from valid input, so the
        # wiring is tested by injection
        bad = ConcentrationReport(
            kind="affine",
            ambient_dim=2,
            rows=((1, 0, 0), (0, 0, 1)),
            member_indices=frozenset({0}),
            lhs=F(2),
            rhs=F(1),
            slack=F(-1),
            equality=False,
            witness=None,
        )
        monkeypatch.setattr(
            "conevol.cli._kind_reports", lambda p, kind, d: [bad] if kind == "affine" else []
        )
        _, gen_out, _ = run_cli(["gen", "--kind", "simplex", "--dim", "2"], capsys=capsys)
        code, out, _ = run_cli(["audit"], stdin=gen_out, capsys=capsys, monkeypatch=monkeypatch)
        assert code == 3
        assert json.loads(out)["violations"] == 1

    def test_linear_equality_without_a_complementary_split_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(concentration, "complementary", lambda a, b: False)
        _, gen_out, _ = run_cli(["gen", "--kind", "cube", "--dim", "2"], capsys=capsys)
        code, out, err = run_cli(["audit"], stdin=gen_out, capsys=capsys, monkeypatch=monkeypatch)
        assert code == 3
        assert out == ""
        assert "theorem violation: linear equality at normals [0, 3]" in err

    def test_facet_cap_flag(self, capsys, monkeypatch):
        # the default random 4-polytope has 27 facets, above the default cap
        _, gen_out, _ = run_cli(["gen", "--kind", "random", "--dim", "4"], capsys=capsys)
        code, out, err = run_cli(["audit"], stdin=gen_out, capsys=capsys, monkeypatch=monkeypatch)
        assert code == 2
        assert out == ""
        assert "--facet-cap" in err
        code, out, _ = run_cli(
            ["audit", "--facet-cap", "27", "--max-flat-dim", "1"],
            stdin=gen_out,
            capsys=capsys,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["polytope"]["facet_count"] == 27
        assert doc["violations"] == 0

    def test_max_flat_dim_written_as_run(self, capsys, monkeypatch):
        # full_audit clamps the bound to dim - 1; the document says so
        _, gen_out, _ = run_cli(["gen", "--kind", "cube", "--dim", "2"], capsys=capsys)
        code, out, _ = run_cli(
            ["audit", "--max-flat-dim", "7"], stdin=gen_out, capsys=capsys, monkeypatch=monkeypatch
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["max_flat_dim"] == 1
        assert max(r["flat_dim"] for r in doc["reports"]) == 1

    def test_negative_max_flat_dim_exit_2(self, capsys, monkeypatch):
        _, gen_out, _ = run_cli(["gen", "--kind", "cube", "--dim", "2"], capsys=capsys)
        code, out, err = run_cli(
            ["audit", "--max-flat-dim", "-3"], stdin=gen_out, capsys=capsys, monkeypatch=monkeypatch
        )
        assert (code, out) == (2, "")
        assert "--max-flat-dim" in err

    def test_bad_json_exit_2(self, capsys, monkeypatch):
        code, _, err = run_cli(["audit"], stdin="{nope", capsys=capsys, monkeypatch=monkeypatch)
        assert code == 2
        assert "JSON" in err or "json" in err

    def test_deeply_nested_json_exit_2(self, capsys, monkeypatch):
        # the decoder recurses once per nesting level, also under an ignored key
        deep = "[" * 100000 + "]" * 100000
        ignored = json.dumps(SEGMENT_DOC)[:-1] + ', "ignored": ' + deep + "}"
        for command in ("audit", "polar"):
            for text in (deep, ignored):
                code, out, err = run_cli(
                    [command], stdin=text, capsys=capsys, monkeypatch=monkeypatch
                )
                assert (code, out) == (2, "")
                assert "bad JSON" in err and "Traceback" not in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(["audit", "/no/such/file.json"], capsys=capsys)
        assert code == 2


class TestLift:
    def test_segment_volumes(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            ["lift", "--levels", "3"],
            stdin=json.dumps(SEGMENT_DOC),
            capsys=capsys,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        doc = json.loads(out)
        vols = [lvl["volume"]["exact"] for lvl in doc["tower"]["levels"]]
        assert vols == ["2", "3", "4", "5"]
        assert all(lvl["verified"] for lvl in doc["tower"]["levels"])
        for b in doc["singleton_bounds"]:
            assert b["monotone"] is True
            column = [F(x) for x in b["levels"]]
            assert all(x > y for x, y in zip(column, column[1:]))

    def test_one_bound_column_for_every_facet(self, capsys, monkeypatch):
        # tower_bound reads a singleton flat only through its dimension, 0
        # for every facet: one call per level, however many facets
        calls = []

        def counted(p, flat, j):
            calls.append(j)
            return tower_bound(p, flat, j)

        _, gen_out, _ = run_cli(["gen", "--kind", "cube", "--dim", "2"], capsys=capsys)
        monkeypatch.setattr(cli, "tower_bound", counted)
        code, out, _ = run_cli(["lift", "--levels", "3"], stdin=gen_out, capsys=capsys, monkeypatch=monkeypatch)
        assert code == 0
        assert calls == [1, 2, 3]
        bounds = json.loads(out)["singleton_bounds"]
        assert [b["facet"] for b in bounds] == [0, 1, 2, 3]
        assert all(b["levels"] == ["16/9", "5/3", "8/5"] for b in bounds)

    def test_facet_form_input(self, capsys, monkeypatch):
        doc = {"dim": 1, "normals": [["-1"], ["1"]]}
        code, out, _ = run_cli(
            ["lift", "--levels", "1"],
            stdin=json.dumps(doc),
            capsys=capsys,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert json.loads(out)["tower"]["levels"][1]["volume"]["exact"] == "3"

    def test_not_centered_exit_4(self, capsys, monkeypatch):
        code, _, _ = run_cli(
            ["lift"], stdin=json.dumps(OFFCENTER_DOC), capsys=capsys, monkeypatch=monkeypatch
        )
        assert code == 4

    def test_text_format(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            ["lift", "--levels", "2", "--format", "text"],
            stdin=json.dumps(SEGMENT_DOC),
            capsys=capsys,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert "level 2" in out and "verified" in out

    def test_zero_levels_text_has_no_bound_clause(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            ["lift", "--levels", "0", "--format", "text"],
            stdin=json.dumps(SEGMENT_DOC),
            capsys=capsys,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert out.splitlines()[-2:] == ["facet 0: weight 1", "facet 1: weight 1"]


class TestWrappers:
    def test_polar_cube_is_cross(self, capsys, monkeypatch):
        _, cube_out, _ = run_cli(["gen", "--kind", "cube", "--dim", "3"], capsys=capsys)
        code, polar_out, _ = run_cli(
            ["polar"], stdin=cube_out, capsys=capsys, monkeypatch=monkeypatch
        )
        assert code == 0
        _, cross_out, _ = run_cli(["gen", "--kind", "cross", "--dim", "3"], capsys=capsys)
        assert json.loads(polar_out)["vertices"] == json.loads(cross_out)["vertices"]

    def test_polar_past_the_hull_facet_cap_exits_2(self, capsys, monkeypatch):
        # 29 points on the moment curve in R^6 span 2,900 facets
        rows = [[str(t**k) for k in range(1, 7)] for t in range(29)]
        doc = json.dumps({"dim": 6, "vertices": rows})
        code, out, err = run_cli(["polar"], stdin=doc, capsys=capsys, monkeypatch=monkeypatch)
        assert code == 2
        assert out == ""
        assert "above the cap" in err and "Traceback" not in err

    def test_ispyramid(self, capsys, monkeypatch):
        _, gen_out, _ = run_cli(
            ["gen", "--kind", "pyramid_over", "--dim", "3", "--seed", "4"], capsys=capsys
        )
        code, out, _ = run_cli(["ispyramid"], stdin=gen_out, capsys=capsys, monkeypatch=monkeypatch)
        assert code == 0
        doc = json.loads(out)
        assert doc["pyramid"] is True
        assert doc["apexes"] and "apex" in doc["apexes"][0]

    def test_ispyramid_negative(self, capsys, monkeypatch):
        _, gen_out, _ = run_cli(["gen", "--kind", "cube", "--dim", "2"], capsys=capsys)
        code, out, _ = run_cli(["ispyramid"], stdin=gen_out, capsys=capsys, monkeypatch=monkeypatch)
        assert code == 0
        assert json.loads(out)["pyramid"] is False

    def test_join_simplex(self, capsys, monkeypatch):
        _, gen_out, _ = run_cli(["gen", "--kind", "simplex", "--dim", "2"], capsys=capsys)
        code, out, _ = run_cli(["join"], stdin=gen_out, capsys=capsys, monkeypatch=monkeypatch)
        assert code == 0
        doc = json.loads(out)
        assert doc["join"] is True
        assert doc["split"] == [[0], [1, 2]]
        assert doc["polar_roundtrip"] is True and doc["agree"] is True

    def test_join_negative(self, capsys, monkeypatch):
        _, gen_out, _ = run_cli(["gen", "--kind", "cube", "--dim", "2"], capsys=capsys)
        code, out, _ = run_cli(["join"], stdin=gen_out, capsys=capsys, monkeypatch=monkeypatch)
        assert code == 0
        doc = json.loads(out)
        assert doc["join"] is False and doc["split"] is None and doc["agree"] is True

    def test_join_off_center_triangle(self, capsys, monkeypatch):
        # the origin is a vertex: the polar side is taken about the centroid
        code, out, _ = run_cli(
            ["join"], stdin=json.dumps(OFFCENTER_DOC), capsys=capsys, monkeypatch=monkeypatch
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["join"] is True and doc["split"] == [[0], [1, 2]]
        assert doc["polar_roundtrip"] is True and doc["agree"] is True


class TestTopLevel:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "conevol" in capsys.readouterr().out

    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        assert "the following arguments are required: command" in capsys.readouterr().err

    def test_file_argument(self, tmp_path, capsys):
        path = tmp_path / "seg.json"
        path.write_text(json.dumps(SEGMENT_DOC))
        code, out, _ = run_cli(["audit", str(path)], capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["input"]["source"] == str(path)
        assert len(doc["input"]["sha256"]) == 64

    def test_all_names_the_public_surface(self):
        assert len(set(conevol.__all__)) == len(conevol.__all__)
        assert all(hasattr(conevol, name) for name in conevol.__all__)
        namespace = {}
        exec("from conevol import *", namespace)
        namespace.pop("__builtins__")
        assert set(namespace) == set(conevol.__all__)
