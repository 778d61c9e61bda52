"""Serialization tests.

The decimal renderings are frozen at 12 significant digits; the exact
strings follow ``str(Fraction)`` ("p/q", bare "p" for integers).
"""
from __future__ import annotations

import json
from fractions import Fraction as F

import pytest

from conevol.errors import DegenerateInput, Unbounded
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

    @pytest.mark.parametrize("bad", ["nope", "1/0", "", "1.5.2", True, None, 1.5, [1]])
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
