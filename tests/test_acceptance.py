"""Acceptance suite: one test per criterion, each reporting a PASS line in the
terminal summary (run ``pytest tests/test_acceptance.py -v``)."""

import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import conftest
import pytest

from topzeta.analysis import (
    check_conjecture2,
    check_conjecture3,
    check_conjecture4,
    max_order_pole_report,
    monodromy_eigenvalues_germ,
    predicted_bfunction_divisor,
)
from topzeta.cli import corpus_path_default
from topzeta.curve_resolution import resolution_data, resolve_curve_state
from topzeta.formats import load_resolution_file, resolution_from_json
from topzeta.polynomial import germ_factors, is_nondegenerate_curve, parse_poly
from topzeta.toric_curve import toric_resolution_data
from topzeta.zeta_core import (
    RationalFunction,
    lct_global,
    lct_local,
    monomial_resolution_data,
    poles,
    zeta_global,
    zeta_local,
)

RESOLUTIONS = Path(corpus_path_default()).parent / "resolutions"


def announce(number, text):
    line = f"ACCEPTANCE {number}: PASS  {text}"
    conftest.acceptance_lines.append(line)
    print(line)


def P(text):
    return parse_poly(text, ["x", "y"])


def corpus_entries():
    with open(corpus_path_default(), encoding="utf-8") as fh:
        return json.load(fh)["entries"]


def curve_rd(entry):
    """Blowup state and data for a corpus polynomial entry."""
    f = P(entry["input"]["poly"])
    state = resolve_curve_state(f, allow_nonreduced=entry.get("allow_nonreduced", False))
    return f, state, resolution_data(state)


def test_ac1_monomial_family():
    start = time.perf_counter()
    for n in range(1, 6):
        for N in range(1, 7):
            rd = monomial_resolution_data(n, N)
            z = zeta_local(rd)
            expect = RationalFunction.constant(1)
            for _ in range(n):
                expect = expect * RationalFunction((1,), (1, N))
            assert z == expect, (n, N)
            pt = poles(z, rd)
            assert [(p.location, p.order) for p in pt] == [(Fraction(-1, N), n)]
            assert lct_local(rd) == Fraction(1, N)
            divisor = predicted_bfunction_divisor(n, N)
            assert [r for r, _ in divisor] == [Fraction(-j, N) for j in range(1, N + 1)]
            assert all(m == n for _, m in divisor)
            assert sum(m for _, m in divisor) == n * N
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"monomial family took {elapsed:.3f}s"
    announce(1, f"monomial family n<=5, N<=6 exact in {elapsed * 1000:.0f} ms")


def test_ac2_cusp():
    start = time.perf_counter()
    f = P("x^2 + y^3")
    state = resolve_curve_state(f)
    assert state.numerical_history() == [(2, 2), (3, 3), (6, 5)]
    rd_blowup = resolution_data(state)
    rd_toric = toric_resolution_data(f)
    expect = RationalFunction((5, 4), (5, 11, 6))
    for rd in (rd_blowup, rd_toric):
        z = zeta_local(rd)
        assert z == expect
        pt = poles(z, rd)
        assert [(p.location, p.order) for p in pt] == [
            (Fraction(-5, 6), 1), (Fraction(-1), 1)
        ]
        assert lct_local(rd) == Fraction(5, 6)
    b_roots = [(Fraction(-5, 6), 1), (Fraction(-1), 1), (Fraction(-7, 6), 1)]
    assert check_conjecture2(zeta_local(rd_blowup), b_roots) is True
    report = check_conjecture3(
        poles(zeta_local(rd_blowup), rd_blowup),
        monodromy_eigenvalues_germ(rd_blowup),
    )
    assert report.all_certified()
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    announce(2, f"cusp exact on both pipelines in {elapsed * 1000:.0f} ms")


def test_ac3_resolution_independence():
    start = time.perf_counter()
    germs = [f"x^{a} + y^{b}" for a in range(2, 8) for b in range(a, 8)]
    germs += [f"x^{m} + y^{m} + x*y^{m - 1}" for m in range(3, 6)]
    checked = 0
    for text in germs:
        f = P(text)
        if not is_nondegenerate_curve(f):
            continue
        z_blowup = zeta_local(resolution_data(resolve_curve_state(f)))
        z_toric = zeta_local(toric_resolution_data(f))
        assert z_blowup == z_toric, text
        checked += 1
    assert checked >= 20
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    announce(3, f"{checked} germs, blowup Z == toric Z, in {elapsed:.2f} s")


def test_ac4_conjecture4_on_curve_corpus():
    n_checked = 0
    for entry in corpus_entries():
        if "poly" not in entry["input"]:
            continue
        _, _, rd = curve_rd(entry)
        z = zeta_local(rd)
        pt = poles(z, rd)
        lct = lct_local(rd)
        report = check_conjecture4(pt, 2, lct)
        assert report.at_most_one, entry["name"]
        assert report.closest_when_present, entry["name"]
        if report.order_n_locations:
            assert report.equals_minus_lct, entry["name"]
        # the prediction path raises TheoremViolation (CLI exit 2) on failure;
        # it must pass silently on every corpus germ
        max_order_pole_report(pt, rd)
        n_checked += 1
    assert n_checked >= 30
    announce(4, f"conjecture 4 holds on all {n_checked} curve-corpus germs")


def test_ac5_conjecture3_certified_on_reduced_corpus():
    n_poles = 0
    n_germs = 0
    for entry in corpus_entries():
        if "poly" not in entry["input"]:
            continue
        f = P(entry["input"]["poly"])
        if any(m > 1 for _, m in germ_factors(f)):
            continue
        _, _, rd = curve_rd(entry)
        pt = poles(zeta_local(rd), rd)
        report = check_conjecture3(pt, monodromy_eigenvalues_germ(rd))
        for loc, status in report.results:
            assert status == "certified", (entry["name"], str(loc))
            n_poles += 1
        n_germs += 1
    announce(5, f"all {n_poles} poles of {n_germs} reduced germs certified")


def test_ac6_structural_invariants_on_corpus():
    for entry in corpus_entries():
        if "poly" in entry["input"]:
            _, state, rd = curve_rd(entry)
            by_id = {c.id: c for c in state.components}
            for step in state.history:
                assert step.N == step.multiplicity + sum(
                    by_id[p].N for p in step.parents
                ), entry["name"]
                assert step.nu == 2 + sum(
                    by_id[p].nu - 1 for p in step.parents
                ), entry["name"]
            for step in state.history:
                total = sum(
                    st.chi_total for st in rd.strata if step.component_id in st.ids
                )
                assert total == 2, (entry["name"], step.component_id)
            z, lct = zeta_local(rd), lct_local(rd)
        else:
            rd, _ = resolution_from_json(entry["input"]["resolution"])
            if rd.scope == "global":
                z, lct = zeta_global(rd), lct_global(rd)
            else:
                z, lct = zeta_local(rd), lct_local(rd)
        pt = poles(z, rd)
        candidates = set(rd.candidate_pole_locations())
        for p in pt:
            assert p.location in candidates, entry["name"]
            assert p.order <= rd.ambient_dim, entry["name"]
            assert p.location <= -lct, entry["name"]
    announce(6, "pole containment, order bounds, lct gap, recursions, additivity")


def test_ac7_max_order_pole_form():
    checked = []
    for entry in corpus_entries():
        if "poly" in entry["input"]:
            _, _, rd = curve_rd(entry)
            z, lct = zeta_local(rd), lct_local(rd)
        else:
            rd, _ = resolution_from_json(entry["input"]["resolution"])
            if rd.scope == "global":
                z, lct = zeta_global(rd), lct_global(rd)
            else:
                z, lct = zeta_local(rd), lct_local(rd)
        for p in poles(z, rd):
            if p.order == rd.ambient_dim:
                assert p.location.numerator == -1, entry["name"]
                assert p.location == -lct, entry["name"]
                checked.append((entry["name"], rd.ambient_dim))
    # synthetic file with an order-6 pole on mixed numerical data
    rd, _ = load_resolution_file(RESOLUTIONS / "synthetic_order6.json")
    pt = poles(zeta_local(rd), rd)
    assert [(p.location, p.order) for p in pt] == [(Fraction(-1, 2), 6)]
    pred = max_order_pole_report(pt, rd)
    assert pred.N == 2 and pred.s0 == Fraction(-1, 2)
    checked.append(("synthetic_order6", 6))
    assert any(n == 6 for _, n in checked)
    announce(7, f"{len(checked)} order-n poles, all at -1/N (n up to 6)")


def test_ac8_machine_output_byte_identical():
    cmd = [sys.executable, "-m", "topzeta", "corpus", "--format", "machine"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert len(first.stdout) > 0
    doc = json.loads(first.stdout)
    assert doc["passed"] == doc["total"]
    announce(8, f"two corpus runs byte-identical ({len(first.stdout)} bytes)")
