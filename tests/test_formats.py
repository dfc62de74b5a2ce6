import json
from fractions import Fraction

import pytest

from topzeta.curve_resolution import resolve_curve_germ
from topzeta.errors import InvalidResolutionData
from topzeta.formats import (
    dump_canonical,
    rational_from_json,
    rational_to_json,
    resolution_from_json,
    resolution_to_json,
    zeta_from_json,
    zeta_to_json,
)
from topzeta.polynomial import parse_poly
from topzeta.zeta_core import RationalFunction, monomial_resolution_data, zeta_local


def test_rational_round_trip():
    for q in [Fraction(-5, 6), Fraction(3), Fraction(0)]:
        assert rational_from_json(rational_to_json(q)) == q


def test_rational_rejects_bad_docs():
    with pytest.raises(InvalidResolutionData):
        rational_from_json({"num": 1})
    with pytest.raises(InvalidResolutionData):
        rational_from_json({"num": 1, "den": -2})
    with pytest.raises(InvalidResolutionData):
        rational_from_json({"num": 2, "den": 4})   # not in lowest terms
    with pytest.raises(InvalidResolutionData):
        rational_from_json({"num": 1.5, "den": 2})


def test_resolution_round_trip_pipeline_output():
    rd = resolve_curve_germ(parse_poly("x^2 + y^3", ["x", "y"]))
    doc = resolution_to_json(rd, metadata={"name": "cusp"})
    back, metadata = resolution_from_json(doc)
    assert back == rd
    assert metadata == {"name": "cusp"}
    # serialize(parse(doc)) is canonical: stable under a second round trip
    assert resolution_to_json(back, metadata) == doc


def test_resolution_round_trip_monomial():
    rd = monomial_resolution_data(4, 3)
    back, _ = resolution_from_json(resolution_to_json(rd))
    assert back == rd
    assert zeta_local(back) == zeta_local(rd)


def test_unknown_fields_rejected():
    rd = monomial_resolution_data(2, 2)
    doc = resolution_to_json(rd)
    doc["surprise"] = 1
    with pytest.raises(InvalidResolutionData):
        resolution_from_json(doc)
    doc = resolution_to_json(rd)
    doc["components"][0]["color"] = "blue"
    with pytest.raises(InvalidResolutionData):
        resolution_from_json(doc)


def test_missing_fields_rejected():
    rd = monomial_resolution_data(2, 2)
    doc = resolution_to_json(rd)
    del doc["ambient_dim"]
    with pytest.raises(InvalidResolutionData):
        resolution_from_json(doc)


def test_schema_version_checked():
    doc = resolution_to_json(monomial_resolution_data(2, 2))
    doc["schema"] = 99
    with pytest.raises(InvalidResolutionData):
        resolution_from_json(doc)


def test_duplicate_ids_rejected():
    doc = resolution_to_json(monomial_resolution_data(2, 2))
    doc["components"][1]["id"] = doc["components"][0]["id"]
    with pytest.raises(InvalidResolutionData):
        resolution_from_json(doc)


@pytest.mark.parametrize("value", [2.5, True, "two", None])
def test_integer_fields_reject_other_json_types(value):
    # an integer-valued float would be truncated and a bool read as 0 or 1
    for path in (("components", 0, "N"), ("components", 1, "nu"),
                 ("strata", 0, "chi_origin"), ("ambient_dim",),
                 ("empty_stratum", "chi_total")):
        doc = resolution_to_json(monomial_resolution_data(2, 2))
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(InvalidResolutionData, match="must be an integer"):
            resolution_from_json(doc)


def test_rational_rejects_booleans():
    with pytest.raises(InvalidResolutionData):
        rational_from_json({"num": True, "den": 1})


def test_zeta_serialization():
    z = RationalFunction((5, 4), (5, 11, 6))
    assert zeta_to_json(z) == {"num": [5, 4], "den": [5, 11, 6]}
    assert zeta_from_json(zeta_to_json(z)) == z


def test_dump_canonical_deterministic():
    obj = {"b": [2, 1], "a": {"y": 1, "x": 2}}
    assert dump_canonical(obj) == dump_canonical(json.loads(dump_canonical(obj)))
