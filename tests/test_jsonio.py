"""Serialization tests.

The decimal renderings are frozen at 12 significant digits; the exact
strings follow ``str(Fraction)`` ("p/q", bare "p" for integers).
"""
from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from enum import IntEnum
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from conevol.cli import main
from conevol import kernel, polytope
from conevol.errors import CapExceeded, DegenerateInput, GeometryError, Unbounded
from conevol.kernel import vector
from conevol.polytope import convex_hull
from conevol.cone_measure import cone_volume_measure
from conevol.concentration import full_audit
from conevol.jsonio import (
    approx_str,
    dumps,
    loads,
    measure_to_json,
    parse_fraction,
    parse_vector,
    polytope_from_json,
    polytope_to_json,
    rational_json,
    report_to_json,
    vector_to_json,
)


def v(*xs):
    return vector(xs)


TRIANGLE = convex_hull([v(1, 0), v(0, 1), v(-1, -1)])


class TestFractions:
    def test_to_str(self):
        assert vector_to_json(v(F(3, 2), F(4), F(-1, 3), F(0))) == ["3/2", "4", "-1/3", "0"]
        assert rational_json(F(6, 4))["exact"] == "3/2"

    def test_parse(self):
        assert parse_fraction("3/2") == F(3, 2)
        assert parse_fraction("-7") == -7
        assert parse_fraction(5) == 5

    @pytest.mark.parametrize(
        "bad", ["nope", "1/0", "", "1.5.2", True, None, 1.5, [1], "1e1000000", "2E3", "3/1e2"]
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(DegenerateInput):
            parse_fraction(bad)

    def test_approx(self):
        assert approx_str(F(8, 3)) == "2.66666666667"
        assert approx_str(F(3, 2)) == "1.5"
        assert approx_str(F(2)) == "2"
        assert approx_str(F(-1, 3)) == "-0.333333333333"

    def test_rational_json(self):
        assert rational_json(F(16, 3)) == {
            "exact": "16/3",
            "decimal": "5.33333333333",
            "approx": True,
        }


class TestPolytopeInterchange:
    def test_vertex_roundtrip(self):
        doc = polytope_to_json(TRIANGLE)
        assert doc == {
            "dim": 2,
            "vertices": [["-1", "-1"], ["0", "1"], ["1", "0"]],
        }
        assert polytope_from_json(doc) == TRIANGLE

    def test_facet_form(self):
        doc = {"dim": 2, "normals": [["1", "1"], ["-2", "1"], ["1", "-2"]]}
        assert polytope_from_json(doc) == TRIANGLE

    def test_generator_echo(self):
        doc = polytope_to_json(TRIANGLE, generator={"kind": "simplex", "dim": 2})
        assert doc["generator"] == {"kind": "simplex", "dim": 2}
        assert polytope_from_json(doc) == TRIANGLE

    def test_dumps_deterministic(self):
        a = dumps(polytope_to_json(TRIANGLE))
        b = dumps(polytope_to_json(convex_hull(list(reversed(TRIANGLE.vertices)))))
        assert a == b
        assert a.endswith("\n")
        assert loads(a) == polytope_to_json(TRIANGLE)

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {"vertices": [["1"]]},
            {"dim": 0, "vertices": [["1"]]},
            {"dim": True, "vertices": [["1"]]},
            {"dim": "2", "vertices": [["1", "0"]]},
            {"dim": 2},
            {"dim": 2, "vertices": [], },
            {"dim": 2, "vertices": [["1", "0"]], "normals": [["1", "0"]]},
            {"dim": 2, "vertices": [["1"]]},
            {"dim": 2, "vertices": "nope"},
            {"dim": 2, "vertices": [["1", "x"]]},
            {"dim": 2, "normals": []},
        ],
    )
    def test_bad_documents(self, doc):
        with pytest.raises(DegenerateInput):
            polytope_from_json(doc)

    def test_degenerate_geometry(self):
        with pytest.raises(DegenerateInput):
            polytope_from_json({"dim": 2, "vertices": [["0", "0"], ["1", "1"]]})
        with pytest.raises(Unbounded):
            polytope_from_json({"dim": 2, "normals": [["1", "0"]]})

    @pytest.mark.parametrize(
        "doc",
        [
            {"dim": 1, "normals": [["0"]]},
            {"dim": 2, "normals": [["1", "0"], ["0", "0"], ["-1", "1"], ["0", "-1"]]},
        ],
    )
    def test_zero_normal_is_degenerate_input(self, doc):
        with pytest.raises(DegenerateInput, match="zero normal vector"):
            polytope_from_json(doc)
        stdin = io.TextIOWrapper(io.BytesIO(dumps(doc).encode()), encoding="utf-8")
        err = io.StringIO()
        with mock.patch.object(sys, "stdin", stdin), redirect_stdout(io.StringIO()), redirect_stderr(err):
            assert main(["polar"]) == 2
        assert "zero normal vector" in err.getvalue() and "Traceback" not in err.getvalue()

    @pytest.mark.parametrize(
        "normals, error, message",
        [
            ([["1"]], Unbounded, "recession cone is nontrivial"),  # half-line
            ([["1", "0"]], Unbounded, "recession cone is nontrivial"),  # half-plane
            ([["1", "0"], ["-1", "0"], ["0", "1"]], Unbounded, "recession cone is nontrivial"),  # slab
            ([["1", "0"], ["-1", "0"], ["2", "0"]], Unbounded, "recession cone is nontrivial"),  # parallel
            ([["1", "0"], ["0", "1"], ["1", "1"]], Unbounded, "recession cone is nontrivial"),  # one sign
            ([["1", "0"], ["0", "0"], ["-1", "-1"]], DegenerateInput, "zero normal vector"),
        ],
        ids=["half-line", "half-plane", "slab", "parallel", "one-sign", "zero"],
    )
    def test_malformed_facet_form_keeps_its_message(self, normals, error, message):
        # the normals that do not span are refused by the hull's own rank
        # test, and that refusal reads as the unbounded polytope it means
        doc = {"dim": len(normals[0]), "normals": normals}
        with pytest.raises(error, match=message):
            polytope_from_json(doc)
        stdin = io.TextIOWrapper(io.BytesIO(dumps(doc).encode()), encoding="utf-8")
        err = io.StringIO()
        with mock.patch.object(sys, "stdin", stdin), redirect_stdout(io.StringIO()), redirect_stderr(err):
            assert main(["polar"]) == 2
        assert err.getvalue() == f"conevol: {message}\n"

    def test_facet_form_above_the_cap_is_refused_before_any_elimination(self, monkeypatch):
        def elimination(*args):
            raise AssertionError("an elimination ran before the dimension cap")

        monkeypatch.setattr(kernel, "_extend", elimination)
        monkeypatch.setattr(polytope, "_extend", elimination)
        normals = [[str(s * int(i == k)) for k in range(7)] for i in range(7) for s in (1, -1)]
        with pytest.raises(CapExceeded, match="dimension 7 exceeds cap 6"):
            polytope_from_json({"dim": 7, "normals": normals})

    def test_parse_vector_shape(self):
        assert parse_vector(["1/2", "-3"], 2) == v(F(1, 2), -3)
        with pytest.raises(DegenerateInput):
            parse_vector("12", 2)
        with pytest.raises(DegenerateInput):
            parse_vector(["1"], 2)

    def test_bad_json_text(self):
        with pytest.raises(DegenerateInput):
            loads("{nope")


class TestStructures:
    def test_measure(self):
        doc = measure_to_json(cone_volume_measure(TRIANGLE))
        assert doc == {
            "atoms": [
                {"normal": ["-2", "1"], "weight": "1/2"},
                {"normal": ["1", "-2"], "weight": "1/2"},
                {"normal": ["1", "1"], "weight": "1/2"},
            ],
            "total": "3/2",
        }

    def test_report(self):
        rep = full_audit(TRIANGLE)[0]
        doc = report_to_json(rep)
        assert doc["kind"] == "affine"
        assert doc["lhs"] == "1/2" and doc["rhs"] == "1/2" and doc["slack"] == "0"
        assert doc["equality"] is True
        assert doc["witness"]["complement_dim"] == 1
        # every field must be plain JSON
        json.dumps(doc)


# strings with non-ASCII, control, quote, backslash and line-separator
# characters; ints past 64 bits either way
JSON_STRINGS = st.text(
    st.one_of(st.characters(), st.sampled_from('\x00\x1f\x7f"\\/\n\t\u2028\u00e9\U0001f600'))
)
JSON_LEAVES = st.one_of(
    JSON_STRINGS, st.integers(), st.integers(-(10**40), 10**40), st.booleans(), st.none()
)
JSON_DOCS = st.recursive(
    JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        st.dictionaries(JSON_STRINGS, children),
    ),
    max_leaves=20,
)


class Level(IntEnum):
    LOW = 1
    HIGH = 2


class Tag(str):
    pass


class TestWriter:
    @settings(max_examples=150, deadline=None)
    @given(JSON_DOCS)
    @example({"a": [], "b": {}, "c": [[], {}, [[{}]]], "": {"": []}})
    @example([])
    @example({})
    @example("\x00\u00e9\ud800")
    # bools and ints mixed, str and int mixed, tuples, and subclasses of
    # int and str, which json.dumps writes as their base types
    @example([True, 1, 0])
    @example([1, True])
    @example(["a", 1])
    @example((1, 2))
    @example([Level.LOW, Level.HIGH])
    @example({"a": [Tag("x"), Tag("\u00e9")], "b": Level.HIGH, "c": Tag("y")})
    @example({"big": [2**64, -(2**70) - 1], "one": 2**65})
    def test_same_bytes_as_json_dumps_indent_2(self, doc):
        assert dumps(doc) == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize(
        "doc",
        [
            1.5, [0.0], {"a": {"b": [2.5]}}, {1: "x"}, {None: 1}, {"a": {True: 1}}, {"a": object()},
            [1, 1.5], ["a", 1.5],
        ],
    )
    def test_other_types_raise_type_error(self, doc):
        with pytest.raises(TypeError):
            dumps(doc)


# rationals that parse, and literals that must be refused fast: malformed,
# exponent notation, and digit strings past Python's int-conversion limit
GOOD_LITERALS = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-3, 3), st.integers(1, 3)),
)
BAD_LITERALS = st.one_of(
    st.sampled_from(
        ["1e1000000", "-2E5", "1/0", "nan", "1.5.2", "", "9" * 5000, "1/" + "7" * 4400]
    ),
    st.text(max_size=6),
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def polytope_documents(draw):
    """Vertex or facet documents in dimensions 1-3: some rows ragged, some
    entries bad, some points repeated; facet sets are often unbounded."""
    n = draw(st.integers(min_value=1, max_value=3))
    ragged = draw(st.integers(0, 3)) == 0
    length = st.integers(min_value=n - 1, max_value=n + 1) if ragged else st.just(n)
    entry = GOOD_LITERALS if draw(st.integers(0, 3)) else st.one_of(GOOD_LITERALS, BAD_LITERALS)
    row = length.flatmap(lambda k: st.lists(entry, min_size=k, max_size=k))
    rows = draw(st.lists(row, min_size=1, max_size=8))
    rows += draw(st.lists(st.sampled_from(rows), max_size=2))
    return {"dim": n, draw(st.sampled_from(["vertices", "normals"])): rows}


@settings(max_examples=100, deadline=None)
@given(polytope_documents())
def test_fuzzed_documents_build_or_raise_input_errors(doc):
    # the two error types the CLI reports with exit code 2
    try:
        polytope_from_json(doc)
    except (GeometryError, ValueError):
        pass


@settings(max_examples=100, deadline=None)
@given(
    # json.dumps, not the library's writer, which refuses the floats among
    # the bad literals
    st.one_of(polytope_documents().map(json.dumps), st.text(max_size=20), st.just("1" * 5000)),
    st.sampled_from(["polar", "ispyramid"]),
)
def test_fuzzed_cli_input_exits_0_or_2(text, command):
    stdin = io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", stdin), redirect_stdout(out), redirect_stderr(err):
        code = main([command])
    assert code in (0, 2)
    assert (code == 0) == (err.getvalue() == "")
    assert "Traceback" not in err.getvalue()
