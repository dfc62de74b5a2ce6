"""File formats: resolution-data documents, corpus entries, report objects.

Everything is JSON with an explicit schema version.  Rationals travel as
{"num": int, "den": int} with den > 0 and gcd 1; polynomials in s as ascending
integer coefficient lists.  Parsers reject unknown fields so schema drift
fails loudly instead of silently dropping data.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import InvalidResolutionData
from .zeta_core import Component, RationalFunction, ResolutionData, Stratum

SCHEMA_VERSION = 1


def rational_to_json(q) -> dict:
    q = Fraction(q)
    return {"num": q.numerator, "den": q.denominator}


def rational_from_json(doc) -> Fraction:
    if not isinstance(doc, dict) or set(doc) != {"num", "den"}:
        raise InvalidResolutionData(f"bad rational {doc!r}")
    num, den = doc["num"], doc["den"]
    if type(num) is not int or type(den) is not int or den <= 0:
        raise InvalidResolutionData(f"bad rational {doc!r}")
    q = Fraction(num, den)
    if q.numerator != num or q.denominator != den:
        raise InvalidResolutionData(f"rational {doc!r} is not in lowest terms")
    return q


def _int(value, what) -> int:
    """A JSON integer; floats, booleans, strings and null are rejected."""
    if type(value) is not int:
        raise InvalidResolutionData(f"{what} must be an integer, got {value!r}")
    return value


def _bool(value, what) -> bool:
    """A JSON boolean; strings, numbers and null are rejected."""
    if type(value) is not bool:
        raise InvalidResolutionData(f"{what} must be true or false, got {value!r}")
    return value


def _strings(value, what) -> list:
    """A JSON list of strings; a bare string is not split into characters."""
    if type(value) is not list or any(type(v) is not str for v in value):
        raise InvalidResolutionData(f"{what} must be a list of strings, got {value!r}")
    return value


def _check_fields(doc, required, optional, what):
    if not isinstance(doc, dict):
        raise InvalidResolutionData(f"{what} must be an object")
    keys = set(doc)
    missing = set(required) - keys
    unknown = keys - set(required) - set(optional)
    if missing:
        raise InvalidResolutionData(f"{what} is missing fields {sorted(missing)}")
    if unknown:
        raise InvalidResolutionData(f"{what} has unknown fields {sorted(unknown)}")


def resolution_to_json(rd: ResolutionData, metadata: dict | None = None) -> dict:
    doc = {
        "schema": SCHEMA_VERSION,
        "scope": rd.scope,
        "ambient_dim": rd.ambient_dim,
        "components": [
            {
                "id": c.id,
                "N": c.N,
                "nu": c.nu,
                "meets_origin_fiber": c.meets_origin_fiber,
            }
            for c in rd.components
        ],
        "strata": [
            {
                "ids": sorted(st.ids),
                "chi_total": st.chi_total,
                "chi_origin": st.chi_origin,
            }
            for st in sorted(rd.strata, key=lambda st: sorted(st.ids))
        ],
        "empty_stratum": {
            "chi_total": rd.empty_chi_total,
            "chi_origin": rd.empty_chi_origin,
        },
    }
    if rd.branch_ids:
        doc["branch_ids"] = list(rd.branch_ids)
    if metadata:
        doc["metadata"] = metadata
    return doc


def resolution_from_json(doc) -> tuple[ResolutionData, dict]:
    """Parse a resolution document; returns the data and its metadata dict."""
    _check_fields(
        doc,
        required=("schema", "scope", "ambient_dim", "components", "strata"),
        optional=("empty_stratum", "branch_ids", "metadata"),
        what="resolution document",
    )
    if doc["schema"] != SCHEMA_VERSION:
        raise InvalidResolutionData(f"unsupported schema version {doc['schema']!r}")
    components = []
    for c in doc["components"]:
        _check_fields(
            c, required=("id", "N", "nu"), optional=("meets_origin_fiber",),
            what="component",
        )
        components.append(
            Component(
                str(c["id"]), _int(c["N"], "N"), _int(c["nu"], "nu"),
                _bool(c.get("meets_origin_fiber", True), "meets_origin_fiber"),
            )
        )
    strata = []
    for st in doc["strata"]:
        _check_fields(
            st, required=("ids",), optional=("chi_total", "chi_origin"),
            what="stratum",
        )
        strata.append(
            Stratum(
                frozenset(_strings(st["ids"], "stratum ids")),
                _int(st.get("chi_total", 0), "chi_total"),
                _int(st.get("chi_origin", 0), "chi_origin"),
            )
        )
    empty = doc.get("empty_stratum", {})
    _check_fields(
        empty, required=(), optional=("chi_total", "chi_origin"), what="empty stratum"
    )
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise InvalidResolutionData("metadata must be an object")
    rd = ResolutionData(
        ambient_dim=_int(doc["ambient_dim"], "ambient_dim"),
        components=tuple(components),
        strata=tuple(strata),
        empty_chi_total=_int(empty.get("chi_total", 0), "empty_stratum chi_total"),
        empty_chi_origin=_int(empty.get("chi_origin", 0), "empty_stratum chi_origin"),
        scope=str(doc["scope"]),
        branch_ids=tuple(_strings(doc.get("branch_ids", []), "branch_ids")),
    )
    return rd, metadata


def load_resolution_file(path) -> tuple[ResolutionData, dict]:
    with open(path, encoding="utf-8") as fh:
        return resolution_from_json(json.load(fh))


def zeta_to_json(z: RationalFunction) -> dict:
    return {"num": list(z.num), "den": list(z.den)}


def zeta_from_json(doc) -> RationalFunction:
    _check_fields(doc, required=("num", "den"), optional=(), what="zeta value")
    return RationalFunction(tuple(doc["num"]), tuple(doc["den"]))


def poles_to_json(pt) -> list:
    return [[rational_to_json(p.location), p.order] for p in pt]


def prediction_to_json(pred) -> dict:
    return {
        "n": pred.n,
        "lct": rational_to_json(pred.lct),
        "isolated": pred.isolated,
        "s0": rational_to_json(pred.s0) if pred.s0 is not None else None,
        "N": pred.N,
        "divisor_roots": [
            [rational_to_json(r), m] for r, m in pred.divisor_roots
        ],
        "grw_eigenvalues": [rational_to_json(q) for q in pred.grw_eigenvalues],
        "notes": list(pred.notes),
    }


def dump_canonical(obj) -> str:
    """Deterministic JSON text: sorted keys, no whitespace jitter."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def dump_pretty(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
