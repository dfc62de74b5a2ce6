"""Checks of rendered topzeta output against the oracles.

Each check takes the program's output as the user sees it (the JSON text of
a report, the text of ``explain``, the corpus summary) and the expectation
built in ``workloads``, and returns a list of problems; an empty list means
the output is correct.
"""

from __future__ import annotations

import re
from fractions import Fraction

import oracle


def _q(doc):
    return Fraction(doc["num"], doc["den"])


def check_report(report, exp, pipelines):
    problems = []
    results = report["results"]
    if sorted(results) != sorted(pipelines):
        return [f"pipelines {sorted(results)}, expected {sorted(pipelines)}"]
    for name, res in results.items():
        problems += [f"{name}: {p}" for p in _check_result(res, exp)]
    if len(results) == 2:
        a, b = results.values()
        if not report.get("agreement") or a["zeta"] != b["zeta"]:
            problems.append("blowup and toric Z differ")
    return problems


def _check_result(res, exp):
    problems = []
    num, den = res["zeta"]["num"], res["zeta"]["den"]
    poles = {_q(loc): order for loc, order in res["poles"]}
    lct = _q(res["lct"])
    if res["scope"] != ("local" if exp["local"] else "global"):
        problems.append(f"scope {res['scope']}")
    # the pole table lists exactly the roots of the reduced denominator
    if sum(poles.values()) != len(den) - 1 or any(
        oracle.root_order(den, r) != k or oracle.root_order(num, r) for r, k in poles.items()
    ):
        problems.append(f"pole table {res['poles']} does not match Z = {res['zeta_text']}")
    for key in ("zeta", "closed_form"):
        if exp.get(key) is not None and not exp[key].equals(num, den):
            problems.append(f"Z = {res['zeta_text']} differs from the {key} oracle")
    if exp.get("zeta") is not None and exp["zeta"].poles() != poles:
        problems.append(f"pole orders {res['poles']} differ from the oracle's")
    for key in ("lct", "closed_lct"):
        if exp.get(key) is not None and lct != exp[key]:
            problems.append(f"lct {lct} differs from the {key} oracle {exp[key]}")
    if exp["curve"] and poles and max(poles) != -lct:
        problems.append(f"largest pole {max(poles)} of a plane curve is not -lct = {-lct}")
    if exp["unit_at_zero"] and Fraction(num[0], den[0]) != 1:
        problems.append(f"Z(0) = {Fraction(num[0], den[0])}, not 1")
    if exp["mu"] is not None:
        degree = sum(m * e for m, e in res["monodromy_zeta"])
        if degree != exp["mu"] - 1:
            problems.append(f"A'Campo degree {degree} is not Kouchnirenko mu - 1 = {exp['mu'] - 1}")
    n = exp["dim"]
    top = [r for r, k in poles.items() if k == n]
    s0 = res["prediction"]["s0"]
    if res["prediction"]["n"] != n:
        problems.append(f"maximal order {res['prediction']['n']}, expected {n}")
    if top:
        (r,) = top
        if s0 is None or _q(s0) != r or r != Fraction(-1, res["prediction"]["N"]) or r != -lct:
            problems.append(f"order-{n} pole {r} not reported as -1/N = -lct")
    elif s0 is not None:
        problems.append(f"order-{n} pole reported at {_q(s0)} without one in the table")
    return problems


_COMPONENT = re.compile(r"^\s+(\S+): \((\d+), (\d+)\)$")
_STRATUM = re.compile(r"^\s+\{(.*)\}: \((-?\d+), (-?\d+)\)$")


def check_explain(text, exp):
    """Each pipeline's witness (components and strata) must sum to the Z the
    oracle gives."""
    sections = []
    for line in text.splitlines():
        if line.strip() == "components (id, N, nu):":
            sections.append({"components": [], "strata": []})
        elif sections and (m := _STRATUM.match(line)):
            sections[-1]["strata"].append(
                {"ids": m[1].split(", "), "chi_total": int(m[2]), "chi_origin": int(m[3])})
        elif sections and (m := _COMPONENT.match(line)):
            sections[-1]["components"].append(
                {"id": m[1], "N": int(m[2]), "nu": int(m[3])})
    if len(sections) != 2:
        return [f"{len(sections)} resolution witnesses, expected 2"]
    problems = []
    for k, doc in enumerate(sections):
        z = oracle.document_zeta(doc, "local")
        if not exp["zeta"].equals(z.num, z.den()):
            problems.append(f"witness {k + 1} sums to a Z that differs from the oracle")
    return problems


def check_corpus(summary):
    bad = [r["name"] for r in summary["results"] if r["status"] != "pass"]
    if bad or summary["passed"] != summary["total"] or summary["total"] < 1:
        return [f"corpus entries fail: {bad}"]
    return []
